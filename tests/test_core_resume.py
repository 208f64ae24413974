"""The rewriting core resumes from the stored first-pass state of the
longest closed prefix; these tests hold it to a core that closes every
conjunction from scratch, as `RewriteCore` did before it resumed."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyheap import solver, syntax
from polyheap.cli import main
from polyheap.memmodel import Bounds
from polyheap.solver import RewriteCore, check_sat, clear_caches, entails, fold_expr
from polyheap.syntax import Bin, InType, InVal, Lit, LVar, Not, eq, lv_expr
from polyheap.evaluation import eval_lexpr
from polyheap.values import FALSE, NIL, TRUE
from test_expr_caches import _shared_pcs, _straight_line
from test_golden import CASES


class _ReferenceCore(RewriteCore):
    """`RewriteCore.__init__` and `_close` before resuming: three passes
    over the whole conjunction, each from an empty state, then the
    sweeps. It neither reads nor writes the stored states."""

    def __init__(self, conjuncts):
        self.parent = {}
        self.contradiction = False
        self.diseq = []
        self.pos = set()
        self.neg = set()
        self.types = {}
        self.intervals = {}
        self.conjuncts = [fold_expr(c) for c in conjuncts]
        self._close()

    def _close(self):
        for _ in range(3):
            changed = self._reference_pass()
            if self.contradiction or not changed:
                break
        if self.contradiction:
            return
        self._sweep()

    def _reference_pass(self) -> bool:
        changed = False
        new_conjuncts = []
        self.pos = set()
        self.neg = set()
        self.intervals = {}
        for c in self.conjuncts:
            c2 = self.rewrite(c)
            if c2 != c:
                changed = True
            if c2 == Lit(TRUE):
                continue
            if isinstance(c2, Lit):
                self.contradiction = True
                return False
            if not lv_expr(c2):
                if eval_lexpr(c2, {}, {}) is not TRUE:
                    self.contradiction = True
                    return False
                continue
            new_conjuncts.append(c2)
            self._absorb(c2)
            if self.contradiction:
                return False
        self.conjuncts = new_conjuncts
        return changed


def _observed(core, conjuncts):
    return (
        core.contradiction,
        list(core.conjuncts),
        set(core.pos),
        set(core.neg),
        dict(core.types),
        {n: (iv.lo, iv.hi, iv.integral) for n, iv in core.intervals.items()},
        [core.rewrite(c) for c in conjuncts],
    )


def _check(conjuncts):
    """Build the resumed core (with whatever states are stored) and the
    reference on `conjuncts` and compare what they expose."""
    conjuncts = tuple(conjuncts)
    got = RewriteCore(conjuncts)
    assert _observed(got, conjuncts) == _observed(_ReferenceCore(conjuncts), conjuncts)


# -- every core the golden commands build --------------------------------------

# check-model, and find-bugs under a model without bug-finding soundness
# (exit 5), build no core
_BUILDING = [c for c in CASES if c[1][0] != "check-model" and c[2] != 5]


@pytest.mark.parametrize("name,argv,code", _BUILDING, ids=[c[0] for c in _BUILDING])
def test_golden_commands_match_reference(name, argv, code, monkeypatch, capsys):
    builds, resumed = [], []
    resume_point = solver._resume_point

    def counted_resume_point(conjuncts):
        k, state = resume_point(conjuncts)
        resumed.append(k > 0)
        return k, state

    class Checked(RewriteCore):
        def __init__(self, conjuncts):
            conjuncts = tuple(conjuncts)
            super().__init__(conjuncts)
            builds.append(conjuncts)
            assert _observed(self, conjuncts) == _observed(_ReferenceCore(conjuncts), conjuncts)

    clear_caches()
    monkeypatch.setattr(solver, "RewriteCore", Checked)
    monkeypatch.setattr(solver, "_resume_point", counted_resume_point)
    assert main([*argv, "--format", "json"]) == code
    capsys.readouterr()
    assert builds and any(resumed)


# -- conjunct lists built in random orders ---------------------------------------

x, y, z = LVar("x"), LVar("y"), LVar("z")
_TERMS = st.sampled_from([x, y, z, Bin("+", x, Lit(1)), Lit(0), Lit(1), Lit(2), Lit(3), Lit(NIL)])
_ATOMS = st.one_of(
    st.builds(Bin, st.sampled_from(["=", "<", "<="]), _TERMS, _TERMS),
    st.builds(InVal, _TERMS),
    st.builds(InType, _TERMS, st.sampled_from(["nat", "bool", "nil"])),
)
_CONJUNCTS = st.recursive(
    _ATOMS,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(lambda g, v: eq(g, Lit(v)), sub, st.sampled_from([TRUE, FALSE])),
        st.builds(Bin, st.just("and"), sub, sub),
        st.builds(InVal, sub),
    ),
    max_leaves=3,
)
_LISTS = st.lists(_CONJUNCTS, max_size=4).map(tuple)


@given(_LISTS, _LISTS, _LISTS, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_any_build_order_matches_reference(prefix, ext1, ext2, rnd):
    # a prefix, two siblings sharing it, their join, a shorter prefix and
    # a repeat, built in any order: prefix first, extension first or
    # between siblings
    lists = [prefix, prefix + ext1, prefix + ext2, prefix + ext1 + ext2, prefix[:1], prefix + ext1]
    rnd.shuffle(lists)
    clear_caches()
    for conjuncts in lists:
        _check(conjuncts)


def test_extension_does_not_reach_into_a_stored_prefix():
    # the extension tightens the interval the prefix put on x and unions y,
    # which the prefix already put in a class with z; rebuilding the prefix
    # must not see either
    prefix = (Bin("<", x, Lit(3)), eq(y, z), Not(eq(x, Lit(0))))
    extensions = [
        (Bin("<", x, Lit(2)), eq(y, Lit(1))),
        (Bin("<", Lit(0), x), eq(z, Lit(2))),
        (eq(x, Lit(1)),),
    ]
    clear_caches()
    _check(prefix)
    for ext in extensions:
        _check(prefix + ext)
        _check(prefix)
    assert RewriteCore(prefix).intervals[x].hi == (3, True)
    assert not RewriteCore(prefix).contradiction


def test_stored_state_is_a_copy():
    prefix = (Bin("<", x, Lit(3)), eq(y, z))
    clear_caches()
    core = RewriteCore(prefix)
    k, state = solver._resume_point(prefix)
    assert k == len(prefix)
    core.intervals[x].add_hi(Fraction(1), True)
    core.parent[y] = Lit(0)
    extended = RewriteCore(prefix + (InVal(x),))
    assert extended.intervals[x] is not core.intervals[x]
    assert extended.intervals[x].hi == (3, True)
    assert extended.rewrite(y) != Lit(0)
    assert solver._resume_point(prefix)[1] is state


def test_contradictory_prefix_keeps_the_input_conjuncts():
    prefix = (eq(x, Lit(1)), eq(x, Lit(2)))
    clear_caches()
    _check(prefix)
    _check(prefix + (InVal(y), eq(Lit(1), Lit(1))))
    assert RewriteCore(prefix + (InVal(y),)).conjuncts == [eq(x, Lit(1)), eq(x, Lit(2)), InVal(y)]


def test_clear_caches_drops_stored_states():
    clear_caches()
    RewriteCore((InVal(x),))
    assert solver._resume_point((InVal(x), InVal(y)))[0] == 1
    core = solver._core((InVal(y),))
    assert solver._core((InVal(y),)) is core
    clear_caches()
    assert solver._resume_point((InVal(x), InVal(y))) == (0, None)
    assert solver._closed == {}
    assert solver._core((InVal(y),)) is not core


# -- one closed core per conjunct tuple -------------------------------------------


def test_check_sat_then_entails_builds_one_core(monkeypatch):
    pc = (eq(x, Lit(1)), Bin("<", y, Lit(3)), Not(eq(z, y)))
    built = []

    class Counted(RewriteCore):
        def __init__(self, conjuncts):
            built.append(tuple(conjuncts))
            super().__init__(conjuncts)

    monkeypatch.setattr(solver, "RewriteCore", Counted)
    clear_caches()
    b = Bounds()
    assert check_sat(pc, b) is not solver.UNSAT
    assert entails(pc, eq(x, Lit(1)), b) is solver.Entail.YES
    assert entails(pc, Bin("<", y, Lit(4)), b) is solver.Entail.YES
    assert entails(pc, eq(z, Lit(0)), b) is solver.Entail.NO
    # `RewriteCore.entails` builds its two refutation cores for each query
    # the core does not settle by rewriting; the core of `pc` is built once
    assert built.count(pc) == 1
    assert check_sat(pc, Bounds(value_domain=(0, 1))) is not solver.UNSAT
    assert built.count(pc) == 1


@given(_shared_pcs(), st.lists(_CONJUNCTS, min_size=1, max_size=3), st.booleans())
@settings(max_examples=200, deadline=None)
def test_stored_core_gives_the_verdicts_of_a_fresh_one(pc, queries, prefixes_first):
    b = Bounds(value_domain=(0, 1))

    def verdicts():
        return [solver._check_sat(pc, b)] + [solver._entails(pc, fold_expr(e), b) for e in queries]

    clear_caches()
    if prefixes_first:
        for k in range(1, len(pc)):
            solver._check_sat(pc[:k], b)
    first = verdicts()
    core = solver._closed[pc][1]
    assert core is not None
    stored = verdicts()  # the verdict caches are bypassed: the core is read again
    assert solver._closed[pc][1] is core
    assert _observed(core, pc) == _observed(_ReferenceCore(pc), pc)
    clear_caches()
    assert verdicts() == stored == first


# -- pass 1 reads each conjunct of a path about once ------------------------------


def test_straight_line_find_bugs_reads_each_conjunct_once(tmp_path, monkeypatch, capsys):
    n = 40
    path = tmp_path / "straight.ph"
    body = "".join("  x := x + 1;\n" for _ in range(n))
    path.write_text(f"func inc(x) {{\n{body}  return x\n}}\n")
    pass1 = []
    closing = []
    step, close = RewriteCore._step, RewriteCore._close

    def counted_step(self, c, out):
        if not closing:
            pass1.append(c)
        return step(self, c, out)

    def flagged_close(self):
        closing.append(True)
        try:
            return close(self)
        finally:
            closing.pop()

    clear_caches()
    monkeypatch.setattr(RewriteCore, "_step", counted_step)
    monkeypatch.setattr(RewriteCore, "_close", flagged_close)
    assert main(["find-bugs", str(path), "--format", "json"]) == 3
    capsys.readouterr()
    # a closure from scratch at every keep_path reads about n^2 conjuncts
    assert 0 < len(pass1) <= 4 * n


def test_straight_line_find_bugs_formats_each_node_once(tmp_path, monkeypatch, capsys):
    """Counted, not timed: `format_expr` keeps each compound node's text,
    so doubling the length of a straight-line path at most doubles the
    nodes it formats (it formatted shared subterms again under every sort
    key)."""
    format_node = syntax._format
    formatted = [0]

    def counting(e):
        formatted[0] += 1
        return format_node(e)

    monkeypatch.setattr(syntax, "_format", counting)
    counts = {}
    for n in (80, 160):
        path = tmp_path / f"straight_{n}.ph"
        path.write_text(_straight_line(n))
        clear_caches()
        formatted[0] = 0
        assert main(["find-bugs", str(path), "--format", "json"]) == 3
        capsys.readouterr()
        counts[n] = formatted[0]
    assert 0 < counts[160] <= 2 * counts[80], counts
