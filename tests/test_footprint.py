"""Footprints: every resource holds on exactly the heap its model names,
and the footprint filter of `heap_models` keeps the heaps of a scan of the
whole generator.

The filter relies on two laws, checked here on all bundles at two small
bounds: a resource holds on a heap exactly when the heap equals its
footprint, and every split that `enumerate_splits` gives composes back to
the heap it splits."""

import pytest
from hypothesis import given, settings, strategies as st

from polyheap.assertions import Bool, Emp, Exists, Or, Pred, PredDef, Res, Star, TrueA
from polyheap.conformance import _resource_cases
from polyheap.memmodel import FREED, Bounds
from polyheap.models import MODEL_NAMES, get_model
from polyheap.quadcheck import _freeze
from polyheap.satisfaction import UNKNOWN, DepthExceeded, footprint, heap_models, holds
from polyheap.syntax import Bin, LVar, Lit, eq
from polyheap.values import NIL, TRUE, Rat, is_nat, is_string

BUNDLES = [n for n in MODEL_NAMES if n != "cheri"]
x, y = LVar("x"), LVar("y")
# "f" is the field name the objects model needs
LAW_BOUNDS = (
    Bounds(value_domain=(NIL, 0, 1, "f"), max_cells=1, max_addresses=2),
    Bounds(value_domain=(0, 1, "f"), max_cells=2, max_addresses=2),
)


def _old_holds_resource(model, mem, name, ins, outs) -> bool:
    """The resource relations as the models wrote them before `footprint`."""
    if model.startswith("linear"):
        if name == "cell":
            return is_nat(ins[0]) and mem == {ins[0]: outs[0]}
        return name == "freed" and model != "linear-ox" and is_nat(ins[0]) and mem == {ins[0]: FREED}
    if model == "frac":
        if name == "cell":
            (addr, q), (val,) = ins, outs
            return is_nat(addr) and isinstance(q, Rat) and mem == {addr: (val, q.q)}
        return name == "freed" and is_nat(ins[0]) and mem == {ins[0]: FREED}
    if model == "block-offset":
        if name == "cell":
            (nb, no), (v,) = ins, outs
            return is_nat(nb) and is_nat(no) and mem == {nb: ({no: v}, None)}
        if name == "bound":
            return is_nat(ins[0]) and is_nat(outs[0]) and mem == {ins[0]: ({}, outs[0])}
        return name == "freed" and is_nat(ins[0]) and mem == {ins[0]: FREED}
    if model == "objects":
        o, f = ins
        if name == "field":
            return is_nat(o) and is_string(f) and mem == {o: ({f: outs[0]}, None)}
        if name == "unset":
            return is_nat(o) and is_string(f) and mem == {o: ({f: FREED}, None)}
        if not (is_nat(o) and isinstance(f, tuple) and all(is_string(x) for x in f)):
            return False
        return len(set(f)) == len(f) and tuple(sorted(f)) == f and mem == {o: ({}, frozenset(f))}
    if model == "chunks":
        (addr,), (v,) = ins, outs
        if name == "pt":
            return is_nat(addr) and mem == {("pt", addr, v): 1}
        return is_nat(addr) and is_nat(v) and v >= 1 and mem == {("mb", addr, v): 1}
    raise KeyError(model)


def _cases(rm, bounds):
    """The harness's resource cases, and the ill-typed ones it leaves out:
    every argument vector over the value domain, a few per resource."""
    yield from _resource_cases(rm, bounds)
    dom = bounds.sorted_domain()
    for name, (n_in, n_out) in sorted(rm.arities.items()):
        for k in range(len(dom) ** 2):
            vec = [dom[(k // len(dom) ** i) % len(dom)] for i in range(n_in + n_out)]
            yield name, tuple(vec[:n_in]), tuple(vec[n_in:])


@pytest.mark.parametrize("bounds", LAW_BOUNDS, ids=["cells-1", "cells-2"])
@pytest.mark.parametrize("name", BUNDLES)
def test_resource_holds_exactly_on_its_footprint(name, bounds):
    bundle = get_model(name)
    rm = bundle.rm
    heaps = list(bundle.cmm.generator(bounds))
    for rname, ins, outs in _cases(rm, bounds):
        fp = rm.footprint(rname, ins, outs)
        assert fp is None or bundle.cmm.is_wf(fp), (rname, ins, outs, fp)
        for m in heaps + ([fp] if fp is not None else []):
            got = rm.holds_resource(m, rname, ins, outs)
            assert got == (m == fp), (rname, ins, outs, m)
            assert got == _old_holds_resource(name, m, rname, ins, outs), (rname, ins, outs, m)


@pytest.mark.parametrize("bounds", LAW_BOUNDS, ids=["cells-1", "cells-2"])
@pytest.mark.parametrize("name", BUNDLES)
def test_every_split_composes_back(name, bounds):
    cmm = get_model(name).cmm
    for h in cmm.generator(bounds):
        for m1, m2 in cmm.enumerate_splits(h):
            assert cmm.compose(m1, m2) == h, (h, m1, m2)


@pytest.mark.parametrize("bounds", LAW_BOUNDS, ids=["cells-1", "cells-2"])
@pytest.mark.parametrize("name", BUNDLES)
def test_frozen_lookup_finds_the_equal_heaps(name, bounds):
    """A heap's frozen form is the key of quadcheck's run cache, which
    meets footprint heaps and generated ones: looking a footprint up by it
    gives the heaps equal to it, for one resource and for two."""
    bundle = get_model(name)
    heaps = list(bundle.cmm.generator(bounds))
    where = {}
    for i, h in enumerate(heaps):
        where.setdefault(_freeze(h), []).append(i)
    fps = [bundle.rm.footprint(*case) for case in _resource_cases(bundle.rm, bounds)]
    fps = [fp for fp in fps if fp is not None]
    fps += [bundle.cmm.compose(a, b) for a in fps for b in fps]
    for fp in fps:
        want = [i for i, h in enumerate(heaps) if h == fp]
        assert where.get(_freeze(fp), []) == want, fp


# ---------------------------------------------------------------------------
# satisfaction.footprint
# ---------------------------------------------------------------------------


def _cell(a, v):
    return Res("cell", (Lit(a),), (v,))


def test_star_footprint_composes_leaves():
    lin = get_model("linear")
    a = Star(Bool(eq(x, Lit(1))), Star(_cell(1, x), Star(Emp(), _cell(2, Lit(0)))))
    assert footprint({"x": 5}, {}, a, lin.cmm, lin.rm) == {1: 5, 2: 0}
    assert footprint({}, {}, Bool(Lit(TRUE)), lin.cmm, lin.rm) == {}
    assert footprint({}, {}, Emp(), lin.cmm, lin.rm) == {}


def test_footprint_without_heap():
    lin = get_model("linear")
    # two cells at one address do not compose
    assert footprint({}, {}, Star(_cell(1, Lit(0)), _cell(1, Lit(1))), lin.cmm, lin.rm) is None
    # an UNDEF argument, and an address that is not a natural
    assert footprint({}, {}, _cell(1, Bin("+", Lit(NIL), Lit(1))), lin.cmm, lin.rm) is None
    assert footprint({}, {}, Res("cell", (Lit("a"),), (Lit(0),)), lin.cmm, lin.rm) is None


@pytest.mark.parametrize(
    "other",
    [Pred("p", (), ()), Exists("v", _cell(2, LVar("v"))), Or(Emp(), Emp()), TrueA()],
    ids=["pred", "exists", "or", "true"],
)
def test_any_other_leaf_is_unknown(other):
    lin = get_model("linear")
    # even next to a leaf that leaves no heap: the caller then visits every
    # heap, and `holds` meets what it met before
    assert footprint({}, {}, Star(_cell(1, Lit(0)), other), lin.cmm, lin.rm) is UNKNOWN
    assert footprint({}, {}, Star(_cell("a", Lit(0)), other), lin.cmm, lin.rm) is UNKNOWN


# ---------------------------------------------------------------------------
# heap_models against the scan of every generated heap
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BUNDLES)
def test_heap_models_of_two_resources(name):
    """Every star of two of the harness's resource cases, on every bundle."""
    bundle = get_model(name)
    bounds = LAW_BOUNDS[1]
    cases = list(_resource_cases(bundle.rm, bounds))[:8]
    res = [Res(n, tuple(map(Lit, ins)), tuple(map(Lit, outs))) for n, ins, outs in cases]
    heaps = list(bundle.cmm.generator(bounds))
    kw = dict(cmm=bundle.cmm, rm=bundle.rm, bounds=bounds)
    found = 0
    for a in res:
        for b in res:
            got = heap_models({}, {}, Star(a, b), **kw)
            assert got == [m for m in heaps if holds({}, {}, m, Star(a, b), **kw)], (a, b)
            found += len(got)
    assert found

HB = Bounds(value_domain=(NIL, 0, 1), max_cells=2, max_addresses=2)
ADDR = st.sampled_from([Lit(0), Lit(1), Lit(NIL), x])
VAL = st.sampled_from([Lit(0), Lit(1), Lit(NIL), x, y, Bin("+", Lit(NIL), Lit(1))])
RESOURCES = {
    "linear": st.one_of(
        st.builds(lambda a, v: Res("cell", (a,), (v,)), ADDR, VAL),
        st.builds(lambda a: Res("freed", (a,), ()), ADDR),
    ),
    "frac": st.one_of(
        st.builds(
            lambda a, q, v: Res("cell", (a, q), (v,)),
            ADDR, st.sampled_from([Lit(Rat(1, 2)), Lit(Rat(1)), x]), VAL,
        ),
        st.builds(lambda a: Res("freed", (a,), ()), ADDR),
    ),
    "chunks": st.one_of(
        st.builds(lambda a, v: Res("pt", (a,), (v,)), ADDR, VAL),
        st.builds(lambda a, n: Res("mb", (a,), (n,)), ADDR, st.sampled_from([Lit(1), Lit(2), x])),
    ),
}
# `one(a; v)` owns one full cell; `loop()` never stops unfolding
ONE = {
    "linear": lambda a, v: Res("cell", (a,), (v,)),
    "frac": lambda a, v: Res("cell", (a, Lit(Rat(1))), (v,)),
    "chunks": lambda a, v: Res("pt", (a,), (v,)),
}


def _preds(model):
    return {
        "one": PredDef("one", ("a",), ("v",), ONE[model](LVar("a"), LVar("v"))),
        "loop": PredDef("loop", (), (), Pred("loop", (), ())),
    }


def _assertions(model):
    leaves = st.one_of(
        st.builds(lambda e: Bool(e), st.sampled_from([eq(x, Lit(0)), eq(x, y), Lit(TRUE)])),
        st.just(Emp()),
        RESOURCES[model],
        RESOURCES[model],
        st.builds(lambda a, v: Pred("one", (a,), (v,)), ADDR, VAL),
        st.just(Pred("loop", (), ())),
    )

    def wrap(inner):
        return st.one_of(
            st.builds(Star, inner, inner),
            st.builds(Star, inner, inner),
            st.builds(lambda b: Exists("y", b), inner),
            st.builds(Or, inner, inner),
        )

    return st.recursive(leaves, wrap, max_leaves=4)


def _scan(theta, a, bundle, preds):
    """`heap_models` before footprints: every generated heap through holds."""
    return [
        m for m in bundle.cmm.generator(HB)
        if holds(theta, {}, m, a, cmm=bundle.cmm, rm=bundle.rm, preds=preds, bounds=HB)
    ]


def _outcome(fn):
    try:
        return fn()
    except DepthExceeded:
        return DepthExceeded


@pytest.mark.parametrize("model", ["linear", "frac", "chunks"])
def test_heap_models_matches_generator_scan(model):
    bundle, preds = get_model(model), _preds(model)

    @settings(max_examples=150, deadline=None)
    @given(_assertions(model), st.sampled_from(HB.value_domain), st.sampled_from(HB.value_domain))
    def check(a, vx, vy):
        theta = {"x": vx, "y": vy}
        got = _outcome(lambda: heap_models(
            theta, {}, a, cmm=bundle.cmm, rm=bundle.rm, preds=preds, bounds=HB
        ))
        assert got == _outcome(lambda: _scan(theta, a, bundle, preds)), a

    check()
