"""The solver's two questions and the fast paths of its core.

`refuted(pc, b)` asks the rewriting core alone; `check_sat(pc, b)` asks
the core and then searches for a witness. They share one `_sat_cache`
entry per `(pc, bounds)`, so each must give what it gives alone, in any
order of questions. The core's union-find tells a root by identity,
`_fold` and `rewrite` dispatch on exact node types and `Lit.__eq__`
returns at once on the same object; the tests below hold each to what it
relies on, against `isinstance`-dispatch copies kept here.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from polyheap import engine, solver
from polyheap.cli import main
from polyheap.evaluation import eval_lexpr
from polyheap.memmodel import Bounds
from polyheap.solver import UNSAT, RewriteCore, Sat, check_sat, clear_caches, fold_expr, refuted
from polyheap.syntax import TRUE_E, Bin, Expr, InType, InVal, Lit, LstE, LVar, Not, PVar
from polyheap.values import FALSE, NIL, TRUE, UNDEF, Rat, value_key
from test_core_resume import _LISTS
from test_expr_caches import _ATOMS, _dags, _shared_pcs

_PCS = st.one_of(_LISTS.filter(bool), _shared_pcs())
_BOUNDS = [Bounds(value_domain=(0, 1)), Bounds(value_domain=(NIL, 0, 1, 2))]


def _fresh_check_sat(pc, b):
    clear_caches()
    return check_sat(pc, b)


# -- refuted is check_sat's Unsat, in any order of questions -----------------------


@given(
    st.lists(_PCS, min_size=1, max_size=3),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 1), st.sampled_from(["refuted", "check_sat", "clear"])),
        max_size=12,
    ),
)
@settings(max_examples=150, deadline=None)
def test_refuted_is_check_sat_unsat_in_any_order(pcs, questions):
    fresh = {(pc, i): _fresh_check_sat(pc, b) for pc in pcs for i, b in enumerate(_BOUNDS)}
    clear_caches()
    for k, i, question in questions:
        pc, b = pcs[k % len(pcs)], _BOUNDS[i]
        if question == "clear":
            clear_caches()
        elif question == "refuted":
            assert refuted(pc, b) == (fresh[pc, i] is UNSAT)
        else:
            assert check_sat(pc, b) == fresh[pc, i]


@given(_PCS)
@settings(max_examples=150, deadline=None)
def test_check_sat_after_refuted_is_a_fresh_check_sat(pc):
    b = _BOUNDS[0]
    want = _fresh_check_sat(pc, b)
    clear_caches()
    assert refuted(pc, b) == (want is UNSAT)
    assert refuted(pc, b) == (want is UNSAT)
    assert check_sat(pc, b) == want
    assert refuted(pc, b) == (want is UNSAT)
    assert check_sat(pc, b) == want


def test_check_sat_after_refuted_searches_without_a_second_core(monkeypatch):
    x = LVar("x")
    pc = (Bin("<", x, Lit(3)), Not(Bin("=", x, Lit(0))))
    built = []

    class Counted(RewriteCore):
        def __init__(self, conjuncts):
            built.append(tuple(conjuncts))
            super().__init__(conjuncts)

    monkeypatch.setattr(solver, "RewriteCore", Counted)
    clear_caches()
    assert not refuted(pc, _BOUNDS[0])
    assert solver._sat_cache[pc, _BOUNDS[0].key()] is solver._OPEN
    assert check_sat(pc, _BOUNDS[0]) == Sat({"x": 1})
    assert built == [pc]


def test_smtlib_dump_fires_once_per_question_key(tmp_path):
    x = LVar("x")
    pc, pc2 = (InVal(x),), (InVal(x), Not(Bin("=", x, Lit(0))))
    solver.enable_smtlib_dump(str(tmp_path))
    try:
        refuted(pc, _BOUNDS[0])
        check_sat(pc, _BOUNDS[0])
        check_sat(pc2, _BOUNDS[0])
        refuted(pc2, _BOUNDS[0])
        refuted(pc, _BOUNDS[1])
    finally:
        solver.disable_smtlib_dump()
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"pc_{n:05d}.smt2" for n in range(3)]


# -- OX and EX paths never search for a witness -----------------------------------

_CHAIN_CONSTS = [4, 9, 17, 23, 42, 57, 71, 96]


def _if_chain(consts) -> str:
    """The bench's true-post if-chain: `y` counts the branches taken."""
    lines = ["func chain(x) {", "  y := 0;"]
    lines += [f"  if (x = {c}) {{ y := y + 1 }} else {{ skip }};" for c in consts]
    lines += ["  return y", "}", "", "spec SL chain(x) {", "  requires: x = #x * emp;"]
    lines += ["  ensures_ok: (0 <= ret) * emp;", "}"]
    return "\n".join(lines) + "\n"


def _counting_models(monkeypatch):
    calls = []
    models = solver.models

    def counted(*args):
        calls.append(args)
        return models(*args)

    monkeypatch.setattr(solver, "models", counted)
    monkeypatch.setattr(engine, "models", counted)
    return calls


def test_verified_if_chain_runs_no_witness_search(tmp_path, monkeypatch, capsys):
    path = tmp_path / "chain.ph"
    path.write_text(_if_chain(_CHAIN_CONSTS))
    calls = _counting_models(monkeypatch)
    clear_caches()
    assert main(["verify", str(path), "--format", "json"]) == 0
    assert '"verdict": "Verified"' in capsys.readouterr().out
    assert calls == []


def test_find_bugs_keeps_paths_on_a_witness(monkeypatch, capsys):
    verdicts = []

    def recorded(pc, bounds):
        verdicts.append(check_sat(pc, bounds))
        return verdicts[-1]

    monkeypatch.setattr(engine, "check_sat", recorded)
    calls = _counting_models(monkeypatch)
    clear_caches()
    bugs = os.path.join(os.path.dirname(__file__), "..", "programs", "bugs.ph")
    assert main(["find-bugs", bugs, "--format", "json"]) == 3
    capsys.readouterr()
    assert any(isinstance(v, Sat) for v in verdicts)
    assert calls


# -- the union-find tells roots by identity ----------------------------------------


def _reference_find(core, e):
    """`_find` by `==`, without path compression."""
    p = core.parent.get(e, e)
    return e if p == e else _reference_find(core, p)


def _parent_invariant(core):
    for k, v in core.parent.items():
        assert type(k) is not Lit, k
        assert not v == k, (k, v)


def _rebuilt(e):
    """A node equal to `e` that shares no compound node with it."""
    if isinstance(e, Bin):
        return Bin(e.op, _rebuilt(e.left), _rebuilt(e.right))
    if isinstance(e, InType):
        return InType(_rebuilt(e.arg), e.tau)
    if isinstance(e, (Not, InVal)):
        return type(e)(_rebuilt(e.arg))
    if isinstance(e, LstE):
        return LstE(tuple(_rebuilt(i) for i in e.items))
    return e


@given(_PCS, st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_no_parent_maps_a_node_to_an_equal_node(pc, prefixes_first, twins):
    if twins:  # equalities between equal nodes that are not the same node
        pc += tuple(Bin("=", c, _rebuilt(c)) for c in pc)
    clear_caches()
    if prefixes_first:
        for k in range(1, len(pc)):
            RewriteCore(pc[:k])
    core = solver._core(pc)
    _parent_invariant(core)
    nodes = list(core.parent) + list(core.parent.values()) + list(pc)
    want = [_reference_find(core, n) for n in nodes]
    assert [core._find(n) for n in nodes] == want
    for n in pc:
        core.rewrite(n)
        core.entails(n)
    _parent_invariant(core)
    assert [core._find(n) for n in nodes] == want


def test_equality_of_twin_nodes_adds_no_parent():
    x = LVar("x")
    core = RewriteCore((Bin("=", Bin("+", x, Lit(1)), Bin("+", x, Lit(1))),))
    assert not core.contradiction and core.parent == {}


# -- exact-type dispatch in _fold and rewrite --------------------------------------


def test_expression_node_classes_are_final():
    for cls in (Lit, PVar, LVar, Not, Bin, InVal, InType, LstE):
        assert cls.__subclasses__() == [], cls
    # (`slots=True` leaves the first class of each node behind, by name)
    names = {c.__name__ for c in Expr.__subclasses__()}
    assert names == {"Lit", "PVar", "LVar", "Not", "Bin", "InVal", "InType", "LstE"}


def _reference_fold(e):
    """`solver._fold` with `isinstance` dispatch, uncached, rebuilding
    every compound node."""
    if isinstance(e, Lit):
        return e, True
    if isinstance(e, (LVar, PVar)):
        return e, False
    if isinstance(e, Bin):
        (l, gl), (r, gr) = _reference_fold(e.left), _reference_fold(e.right)
        e2, ground = Bin(e.op, l, r), gl and gr
    elif isinstance(e, InType):
        a, ground = _reference_fold(e.arg)
        e2 = InType(a, e.tau)
    elif isinstance(e, (Not, InVal)):
        a, ground = _reference_fold(e.arg)
        e2 = type(e)(a)
    elif isinstance(e, LstE):
        items = [_reference_fold(i) for i in e.items]
        e2, ground = LstE(tuple(i for i, _ in items)), all(g for _, g in items)
    else:
        raise TypeError(e)
    if ground:
        v = eval_lexpr(e2, {}, {})
        if v is not UNDEF:
            return Lit(v), True
    return e2, ground


def _reference_rewrite(core, e):
    """`RewriteCore.rewrite` with `isinstance` dispatch, `_reference_find`
    and a new `Lit(TRUE)` for each truth."""
    r = _reference_find(core, e)
    if isinstance(r, Lit):
        return r
    if isinstance(e, Bin):
        e2 = Bin(e.op, _reference_rewrite(core, e.left), _reference_rewrite(core, e.right))
    elif isinstance(e, InType):
        e2 = InType(_reference_rewrite(core, e.arg), e.tau)
    elif isinstance(e, (Not, InVal)):
        e2 = type(e)(_reference_rewrite(core, e.arg))
    elif isinstance(e, LstE):
        e2 = LstE(tuple(_reference_rewrite(core, i) for i in e.items))
    else:
        e2 = e
    e2 = _reference_fold(e2)[0]
    if isinstance(e2, Bin) and e2.op == "=" and e2.left == e2.right and core.provably_defined(e2.left):
        return Lit(TRUE)
    if isinstance(e2, InVal) and core.provably_defined(e2.arg):
        return Lit(TRUE)
    r2 = _reference_find(core, e2)
    return r2 if isinstance(r2, Lit) else e2


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fold_agrees_with_isinstance_dispatch(data):
    pool = data.draw(_dags(atoms=_ATOMS + [PVar("p"), PVar("q")]))
    order = data.draw(st.permutations(range(len(pool))))
    for i in order:  # parents or children first: the cache must not matter
        assert solver._fold(pool[i]) == _reference_fold(pool[i])
        assert fold_expr(pool[i]) == _reference_fold(pool[i])[0]


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_rewrite_agrees_with_isinstance_dispatch(data):
    pool = data.draw(_dags())
    pc = tuple(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))
    clear_caches()
    core = RewriteCore(pc)
    for n in pool:
        assert core.rewrite(n) == _reference_rewrite(core, n)


# -- Lit equality -------------------------------------------------------------------

_LIT_EQ = [
    (Lit(1), Lit(1), True),
    (Lit(1), Lit(TRUE), False),
    (Lit(0), Lit(FALSE), False),
    (Lit(0), Lit(NIL), False),
    (Lit(1), Lit(Rat(1)), False),  # a rational is never 0, and 1q is not 1
    (Lit(Rat(1, 2)), Lit(Rat(2, 4)), True),
    (Lit(TRUE), TRUE_E, True),
    (Lit(FALSE), TRUE_E, False),
    (Lit("a"), Lit("a"), True),
    (Lit("a"), Lit("b"), False),
    (Lit(()), Lit(()), True),
    (Lit(()), Lit(NIL), False),
    (Lit((0, NIL)), Lit((0, NIL)), True),
    (Lit((1,)), Lit((TRUE,)), False),
    (Lit((1,)), Lit((Rat(1),)), False),
    (Lit((0, 1)), Lit((0,)), False),
    (Lit(1), LVar("x"), False),
    (Lit(1), 1, False),
]


@pytest.mark.parametrize("a, b, equal", _LIT_EQ)
def test_lit_equality_table(a, b, equal):
    assert (a == b) is equal
    assert (b == a) is equal
    assert (a == a) is True
    if isinstance(b, Lit):
        assert (hash(a) == hash(b)) or not equal


def test_lit_equality_is_the_value_key_formula():
    nodes = [n for a, b, _ in _LIT_EQ for n in (a, b) if isinstance(n, Lit)]
    for a in nodes:
        for b in nodes + [LVar("x"), 1, TRUE]:
            assert (a == b) == (type(b) is Lit and value_key(a.value) == value_key(b.value)), (a, b)
