"""The per-node caches of `syntax.Expr` and the per-call evaluation memo.

A node caches its hash (`_h`), its fold (`_f`), its literals (`_l`), its
logical and program variables (`_v`, `_p`) and its text (`_s`). Each
cached fact must equal what the uncached computation gives, also on terms
that share subterms (a DAG, as along a path: `x + 1 + ... + 1`), whichever
node was asked first, and a node made by `dataclasses.replace` must start
with empty caches.
"""

import contextlib
import dataclasses
import io

import pytest
from hypothesis import given, settings, strategies as st

from polyheap import solver
from polyheap.cli import main
from polyheap.evaluation import all_true, eval_lexpr
from polyheap.solver import _literals_in, fold_expr, pc_lvars
from polyheap.syntax import (
    _TYPE_KEYWORD, BIN_OPS, TYPE_NAMES, Bin, Expr, InType, InVal, Lit, LstE, LVar, Not, PVar,
    format_expr, lv_expr, pv_expr,
)
from polyheap.values import FALSE, NIL, TRUE, Rat, format_value, value_key

_SLOTS = ("_h", "_f", "_l", "_v", "_p", "_s")
_VALUES = [0, 1, 2, TRUE, FALSE, NIL, "a", Rat(1, 2), (0, NIL)]
_ATOMS = [LVar("x"), LVar("y"), LVar("z")] + [Lit(v) for v in _VALUES]


@st.composite
def _dags(draw, max_nodes=12, atoms=_ATOMS):
    """A pool of nodes in which each new node is built over earlier ones,
    so that nodes share children."""
    pool = list(draw(st.lists(st.sampled_from(atoms), min_size=1, max_size=4)))

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, max_nodes))):
        kind = draw(st.sampled_from(["bin", "bin", "bin", "not", "inval", "intype", "lst"]))
        if kind == "bin":
            node = Bin(draw(st.sampled_from(BIN_OPS)), pick(), pick())
        elif kind == "not":
            node = Not(pick())
        elif kind == "inval":
            node = InVal(pick())
        elif kind == "intype":
            node = InType(pick(), draw(st.sampled_from(TYPE_NAMES)))
        else:
            node = LstE(tuple(pick() for _ in range(draw(st.integers(0, 3)))))
        pool.append(node)
    return pool


@st.composite
def _shared_pcs(draw):
    """A path condition whose conjuncts share subterms."""
    pool = draw(_dags())
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))


_THETAS = st.dictionaries(st.sampled_from("xyz"), st.sampled_from(_VALUES))


def _dataclass_hash(n):
    """The hash the frozen dataclass would compute, from the fields."""
    if isinstance(n, Lit):
        return hash(("Lit", value_key(n.value)))
    return hash(tuple(getattr(n, f.name) for f in dataclasses.fields(n)))


def _cached(n):
    return [s for s in _SLOTS if hasattr(n, s)]


@pytest.mark.parametrize(
    "node",
    [Lit(3), Lit(TRUE), Not(LVar("x")), Bin("+", LVar("x"), Lit(1)), InVal(LVar("x")),
     InType(LVar("x"), "nat"), LstE((Lit(0), LVar("y"))), LVar("x"), PVar("p")],
    ids=lambda n: type(n).__name__,
)
def test_hash_is_the_dataclass_formula(node):
    fresh = dataclasses.replace(node)
    assert _cached(fresh) == []
    assert hash(fresh) == _dataclass_hash(fresh)
    assert hash(fresh) == hash(fresh) == hash(node)  # the second call reads `_h`


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_hash_of_shared_terms_is_the_dataclass_formula(data):
    for n in data.draw(_dags()):
        assert hash(n) == _dataclass_hash(n)


def test_replace_gives_empty_correct_caches():
    x = LVar("x")
    deep = x
    for _ in range(5):
        deep = Bin("+", deep, Lit(1))
    node = Bin("=", deep, Bin("+", Lit(1), Lit(2)))
    hash(node)
    assert fold_expr(node) == Bin("=", deep, Lit(3))
    _literals_in(node, set())
    pc_lvars((node,))
    pv_expr(node)
    format_expr(node)
    assert set(_cached(node)) == set(_SLOTS)

    same = dataclasses.replace(node)
    assert _cached(same) == []
    assert same == node and hash(same) == hash(node)

    other = dataclasses.replace(node, op="<")
    assert _cached(other) == []
    assert hash(other) == _dataclass_hash(other) != hash(node)
    assert fold_expr(other) == Bin("<", deep, Lit(3))
    lits = set()
    _literals_in(other, lits)
    assert lits == {1, 2}
    assert pc_lvars((other,)) == {"x"}
    assert pv_expr(other) == frozenset()
    assert format_expr(other) == "#x + 1 + 1 + 1 + 1 + 1 < 1 + 2"
    assert format_expr(other, 5) == "(#x + 1 + 1 + 1 + 1 + 1 < 1 + 2)"


@given(_shared_pcs(), _THETAS)
@settings(max_examples=300, deadline=None)
def test_memoised_holds_all_matches_plain_evaluation(pc, theta):
    plain = [eval_lexpr(c, theta, {}) for c in pc]
    memo = {}
    assert [eval_lexpr(c, theta, {}, memo) for c in pc] == plain
    assert all_true(pc, theta) == all(v is TRUE for v in plain)


@given(_shared_pcs(), _shared_pcs())
@settings(max_examples=200, deadline=None)
def test_pc_lvars_matches_a_fresh_union(pc, other):
    want = frozenset().union(*(lv_expr(c) for c in pc))
    assert pc_lvars(pc) == want
    assert pc_lvars(pc) == want  # from the cached conjuncts
    # a conjunct cached in one path condition serves another
    assert pc_lvars(pc + other) == want | frozenset().union(*(lv_expr(c) for c in other))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_literals_in_matches_a_fresh_walk(data):
    def walk(e, out):
        if isinstance(e, Lit):
            out.add(e.value)
        for child in (getattr(e, "arg", None), getattr(e, "left", None), getattr(e, "right", None)):
            if child is not None:
                walk(child, out)
        for item in getattr(e, "items", ()):
            walk(item, out)
        return out

    for n in data.draw(_dags()):
        got = set()
        _literals_in(n, got)
        assert got == walk(n, set())


def _children(e):
    return [c for c in (getattr(e, "arg", None), getattr(e, "left", None),
                        getattr(e, "right", None)) if c is not None] + list(getattr(e, "items", ()))


def _walk_vars(e, want):
    """The names of the `want` variables in `e`, by a plain recursive walk."""
    if isinstance(e, want):
        return {e.name}
    return set().union(*(_walk_vars(c, want) for c in _children(e)))


_PREC = {"or": 1, "and": 2, "=": 3, "<": 4, "<=": 4, "+": 5, "-": 5, "/": 6}


def _walk_format(e, prec=0):
    """`format_expr` as it was before it kept the text on the nodes."""
    if isinstance(e, Lit):
        return format_value(e.value)
    if isinstance(e, PVar):
        return e.name
    if isinstance(e, LVar):
        return "#" + e.name
    if isinstance(e, Not):
        return f"not {_walk_format(e.arg, 7)}"
    if isinstance(e, Bin):
        p = _PREC[e.op]
        s = f"{_walk_format(e.left, p)} {e.op} {_walk_format(e.right, p + 1)}"
        return f"({s})" if p < prec else s
    if isinstance(e, InVal):
        s = f"{_walk_format(e.arg, 7)} in Val"
        return f"({s})" if prec > 3 else s
    if isinstance(e, InType):
        s = f"{_walk_format(e.arg, 7)} in {_TYPE_KEYWORD[e.tau]}"
        return f"({s})" if prec > 3 else s
    return "[" + ", ".join(_walk_format(i) for i in e.items) + "]"


_WITH_PVARS = _ATOMS + [PVar("p"), PVar("q")]


@given(st.data(), st.sampled_from(["children first", "parents first", "shuffled"]))
@settings(max_examples=300, deadline=None)
def test_cached_variables_and_text_match_plain_walks(data, order):
    pool = data.draw(_dags(atoms=_WITH_PVARS))
    if order == "parents first":
        pool.reverse()
    elif order == "shuffled":
        pool = data.draw(st.permutations(pool))
    for n in pool:
        # each node is asked twice, so the second answer comes from its cache
        for _ in range(2):
            assert lv_expr(n) == _walk_vars(n, LVar)
            assert pv_expr(n) == _walk_vars(n, PVar)
            for prec in data.draw(st.permutations(range(8))):
                assert format_expr(n, prec) == _walk_format(n, prec)


def test_variable_walk_stops_at_cached_nodes():
    inner = Bin("+", LVar("x"), Lit(1))
    outer = Not(Bin("=", inner, PVar("p")))
    Expr._v.__set__(inner, frozenset({"marked"}))
    Expr._p.__set__(inner, frozenset({"marked"}))
    assert lv_expr(outer) == {"marked"}
    assert pv_expr(outer) == {"marked", "p"}


def _straight_line(n: int) -> str:
    body = "".join("  x := x + 1;\n" for _ in range(n))
    return f"func inc(x) {{\n{body}  return x\n}}\n"


def test_fold_work_grows_slowly_with_path_length(tmp_path, monkeypatch):
    """Counted, not timed: each node is folded once, so doubling the length
    of a straight-line path may not multiply the `_fold` calls of a
    find-bugs run by more than 4.5 (6.7 when every use refolded the whole
    term)."""
    fold = solver._fold
    calls = [0]

    def counting(e):
        calls[0] += 1
        return fold(e)

    monkeypatch.setattr(solver, "_fold", counting)
    counts = {}
    for n in (40, 80):
        path = tmp_path / f"straight_{n}.ph"
        path.write_text(_straight_line(n))
        solver.clear_caches()
        calls[0] = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["find-bugs", str(path), "--format", "json"]) == 3
        counts[n] = calls[0]
    assert counts[80] <= 4.5 * counts[40], counts
