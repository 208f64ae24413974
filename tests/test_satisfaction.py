import itertools

import pytest

from polyheap.assertions import (
    Bool,
    Emp,
    Exists,
    Or,
    Pred,
    PredDef,
    Res,
    Star,
    TrueA,
)
from polyheap.memmodel import Bounds
from polyheap.models import get_model
from polyheap.evaluation import all_true
from polyheap.satisfaction import DepthExceeded, heap_models, holds, pure_conjuncts
from polyheap.syntax import Lit, LVar, PVar, eq
from polyheap.values import NIL

B = Bounds(value_domain=(NIL, 0, 1, 2, 3, 5), max_cells=2, max_addresses=4)


@pytest.fixture
def lin():
    b = get_model("linear")
    return dict(cmm=b.cmm, rm=b.rm, bounds=B)


def test_emp_iff_empty(lin):
    assert holds({}, {}, {}, Emp(), **lin)
    assert not holds({}, {}, {1: 5}, Emp(), **lin)


def test_single_cell(lin):
    assert holds({}, {}, {1: 5}, Res("cell", (Lit(1),), (Lit(5),)), **lin)
    assert not holds({}, {}, {}, Res("cell", (Lit(1),), (Lit(5),)), **lin)
    assert not holds({}, {}, {1: 5, 2: 3}, Res("cell", (Lit(1),), (Lit(5),)), **lin)


def test_star_enumerates_splits(lin):
    a = Res("cell", (Lit(1),), (Lit(5),))
    b = Res("cell", (Lit(2),), (Lit(3),))
    heap = {1: 5, 2: 3}
    assert holds({}, {}, heap, Star(a, b), **lin)
    assert holds({}, {}, heap, Star(b, a), **lin)  # commutativity
    assert not holds({}, {}, {1: 5, 2: 4}, Star(a, b), **lin)


def test_star_commutativity_over_small_heaps(lin):
    cells = [Res("cell", (Lit(i),), (LVar("v"),)) for i in (1, 2)]
    theta = {"v": 5}
    for mem in ({}, {1: 5}, {1: 5, 2: 5}):
        lhs = holds(theta, {}, mem, Star(cells[0], cells[1]), **lin)
        rhs = holds(theta, {}, mem, Star(cells[1], cells[0]), **lin)
        assert lhs == rhs


def test_boolean_requires_empty_heap(lin):
    a = Bool(eq(PVar("x"), Lit(4)))
    assert holds({}, {"x": 4}, {}, a, **lin)
    assert not holds({}, {"x": 4}, {1: 1}, a, **lin)
    assert not holds({}, {"x": 5}, {}, a, **lin)


def test_true_accepts_any_wf_heap(lin):
    assert holds({}, {}, {1: 5, 2: 3}, TrueA(), **lin)


def test_exists_uses_state_values(lin):
    a = Exists("v", Res("cell", (Lit(1),), (LVar("v"),)))
    assert holds({}, {}, {1: 5}, a, **lin)  # 5 occurs in the heap
    assert not holds({}, {}, {}, a, **lin)


def test_predicate_unfolding(lin):
    foo = PredDef("foo", (), (), Res("cell", (Lit(1),), (Lit(1),)))
    assert holds({}, {}, {1: 1}, Pred("foo", (), ()), preds={"foo": foo}, **lin)
    assert not holds({}, {}, {1: 2}, Pred("foo", (), ()), preds={"foo": foo}, **lin)


def test_recursive_predicate_exhausts_depth(lin):
    loop = PredDef("loop", (), (), Pred("loop", (), ()))
    with pytest.raises(DepthExceeded):
        holds({}, {}, {}, Pred("loop", (), ()), preds={"loop": loop}, **lin)


def test_heap_models_filters_generator(lin):
    a = Res("cell", (Lit(1),), (Lit(5),))
    models = heap_models({}, {}, a, **lin)
    assert models == [{1: 5}]


def test_pure_conjuncts_are_necessary(lin):
    x = LVar("x")
    cell = Res("cell", (Lit(1),), (x,))
    a = Star(Star(Bool(eq(x, Lit(2))), cell), Star(Or(Bool(eq(x, Lit(0))), Emp()), Bool(eq(PVar("r"), x))))
    # only the top of the star tree: the disjunct is not a conjunct
    assert pure_conjuncts(a) == [eq(x, Lit(2)), eq(PVar("r"), x)]
    assert pure_conjuncts(cell) == []
    heaps = list(lin["cmm"].generator(B))
    for v in B.value_domain:
        theta, store = {"x": v}, {"r": 2}
        if not all_true(pure_conjuncts(a), theta, store):
            assert not any(holds(theta, store, h, a, **lin) for h in heaps)
    assert holds({"x": 2}, {"r": 2}, {1: 2}, a, **lin)
