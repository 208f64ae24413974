import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from polyheap.evaluation import all_true, eval_lexpr
from polyheap import solver
from polyheap.memmodel import Bounds
from polyheap.smtlib import export_smtlib
from polyheap.solver import (
    _ENUM_CAP,
    Entail,
    RewriteCore,
    Sat,
    UNKNOWN,
    UNSAT,
    _assignments,
    check_sat,
    clear_caches,
    entails,
    enumeration_domain,
    extensions,
    fold_expr,
    models,
    pc_extend,
    pc_lvars,
)
from polyheap.syntax import BIN_OPS, TYPE_NAMES, Bin, InType, InVal, Lit, LstE, LVar, Not, PVar, eq, lv_expr, pv_expr
from polyheap.values import FALSE, NIL, TRUE, UNDEF

B = Bounds(value_domain=(NIL, TRUE, 0, 1, 2, 3), max_cells=2, max_addresses=3, trials=100, seed=0)
x, y = LVar("x"), LVar("y")


def test_trivial_sat():
    assert check_sat((Lit(TRUE),), B) == Sat({})


def test_negative_nat_unsat():
    assert check_sat((InType(x, "nat"), Bin("<", x, Lit(0))), B) is UNSAT


def test_pinned_witness():
    v = check_sat((Bin("<=", Lit(1), x), Bin("<=", x, Lit(2)), eq(x, Lit(1))), B)
    assert isinstance(v, Sat) and v.witness == {"x": 1}


def test_entails_examples():
    assert entails((eq(x, Lit(1)),), eq(x, Lit(1)), B) is Entail.YES
    assert entails((Bin("<=", Lit(1), x), Bin("<=", x, Lit(2))), eq(x, Lit(1)), B) is Entail.NO
    assert entails((eq(x, y), eq(y, Lit(3))), eq(x, Lit(3)), B) is Entail.YES


def test_transitive_equality_between_variables():
    # `rewrite` substitutes only literal representatives: b and x share a
    # union-find class with no literal in it
    a, b = LVar("a"), LVar("b")
    pc = (InVal(x), InVal(a), InVal(b), eq(a, x), eq(b, a))
    assert entails(pc, eq(b, x), B) is Entail.YES
    assert check_sat((eq(a, x), eq(b, a), Not(eq(b, x))), B) is UNSAT


def test_interval_exclusion():
    pc = (Bin("<=", Lit(1), x), Bin("<=", x, Lit(2)), Not(eq(x, Lit(1))), Not(eq(x, Lit(2))))
    assert check_sat(pc, B) is UNSAT


def test_complement_detection():
    assert check_sat((InVal(x), Not(InVal(x))), B) is UNSAT


def test_reflexivity_under_definedness():
    assert entails((InVal(x),), eq(x, x), B) is Entail.YES


def test_ground_false_is_unsat():
    assert check_sat((eq(Lit(1), Lit(2)),), B) is UNSAT


def test_pc_extend_folds_and_dedups():
    pc = pc_extend((), [eq(Lit(1), Lit(1)), InVal(x), InVal(x)])
    assert pc == (InVal(x),)


def test_sat_witness_always_replays():
    rng = Random(1)
    ops = ["=", "<", "<=", "+", "and"]
    lits = [Lit(NIL), Lit(0), Lit(1), Lit(2), Lit(TRUE)]
    atoms = [x, y] + lits
    for _ in range(500):
        conjuncts = []
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(atoms), rng.choice(atoms)
            c = Bin(rng.choice(ops), a, b)
            if rng.random() < 0.3:
                c = Not(c)
            if rng.random() < 0.2:
                c = InVal(c)
            conjuncts.append(c)
        verdict = check_sat(tuple(conjuncts), B)
        if isinstance(verdict, Sat):
            assert all(eval_lexpr(c, verdict.witness, {}) is TRUE for c in conjuncts)
            # agreement between entailment and satisfaction witnesses
            goal = conjuncts[0]
            if entails(tuple(conjuncts), goal, B) is Entail.YES:
                assert eval_lexpr(goal, verdict.witness, {}) is TRUE
        elif verdict is UNSAT:
            # exhaustive bounded enumeration must agree
            from polyheap.solver import _assignments, enumeration_domain

            domain = enumeration_domain(tuple(conjuncts), B)
            for theta in _assignments({"x", "y"}, domain, B):
                assert not all(eval_lexpr(c, theta, {}) is TRUE for c in conjuncts)


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_monotonic_unsat(a, b):
    base = (eq(x, Lit(a)), eq(x, Lit(b)))
    if check_sat(base, B) is UNSAT:
        assert check_sat(base + (InVal(y),), B) is UNSAT


def test_smtlib_deterministic():
    pc = (eq(x, Lit(1)), Bin("<", y, Lit(Rat := __import__("polyheap.values", fromlist=["Rat"]).Rat(1, 2))))
    s1 = export_smtlib(pc)
    s2 = export_smtlib(pc)
    assert s1 == s2
    assert s1.endswith("(check-sat)\n")
    assert "|#x|" in s1 and "|#y|" in s1


def test_smtlib_covers_every_construct():
    from polyheap.syntax import InType as IT, LstE

    pc = (
        InVal(x),
        IT(x, "list"),
        Not(eq(LstE((x, Lit("s"))), Lit((0, NIL)))),
        eq(Bin("/", Lit(4), Lit(2)), Bin("-", y, Lit(1))),
    )
    text = export_smtlib(pc)
    assert "declare-datatypes" in text


# -- branch guards reach the core ---------------------------------------------


def test_clashing_branch_guards_are_unsat():
    pc = (eq(eq(x, Lit(7)), Lit(TRUE)), eq(eq(x, Lit(9)), Lit(TRUE)))
    assert RewriteCore(pc).contradiction
    assert check_sat(pc, B) is UNSAT


def test_guard_true_and_false_is_unsat():
    g = Bin("<", x, y)
    for pc in ((eq(g, Lit(TRUE)), eq(g, Lit(FALSE))), (eq(Lit(TRUE), g), eq(Lit(FALSE), g))):
        assert RewriteCore(pc).contradiction
        assert check_sat(pc, B) is UNSAT


def test_taken_and_skipped_guards_stay_sat():
    pc = (eq(eq(x, Lit(7)), Lit(TRUE)), eq(eq(x, Lit(9)), Lit(FALSE)))
    assert check_sat(pc, B) == Sat({"x": 7})


_z = LVar("z")
_ATOMS = st.sampled_from([x, y, _z, Lit(0), Lit(1), Lit(3), Lit(TRUE), Lit(NIL)])
_EXPRS = st.recursive(
    _ATOMS,
    lambda sub: st.one_of(
        st.builds(Bin, st.sampled_from(["=", "<", "<=", "+", "and"]), sub, sub),
        st.builds(Not, sub),
        st.builds(InVal, sub),
    ),
    max_leaves=4,
)
_PCS = st.lists(_EXPRS, max_size=4).map(tuple)


def _generate_and_test(pc, lvars, domain, bounds):
    """The loop that `models` replaces."""
    return [theta for theta in _assignments(lvars, domain, bounds) if all_true(pc, theta)]


def _product_then_filter(pc, theta, lvars, domain):
    """The loop that `extensions` replaces in the engine and conformance
    harnesses."""
    new = sorted(lvars)
    ths = ({**theta, **dict(zip(new, combo))} for combo in itertools.product(domain, repeat=len(new)))
    return [th for th in ths if all_true(pc, th)]


def _same_stream(got, want):
    assert got == want
    assert [list(theta) for theta in got] == [list(theta) for theta in want]


@given(
    _PCS,
    st.sets(st.sampled_from("xyzw"), max_size=3),
    st.dictionaries(st.sampled_from("xyzw"), st.sampled_from([NIL, TRUE, 0, 1, 5]), max_size=3),
)
@settings(max_examples=120, deadline=None)
def test_models_match_generate_and_test(pc, lvars, base):
    # lvars may miss variables of pc, or be empty
    domain = enumeration_domain(pc, B)
    assert (len(domain) + 1) ** len(lvars) <= _ENUM_CAP
    _same_stream(list(models(pc, lvars, domain, B)), _generate_and_test(pc, lvars, domain, B))
    # a base interpretation that overlaps lvars, and one that does not;
    # 5 is outside the domain, and the base keys come in any order
    apart = {k: v for k, v in base.items() if k not in lvars}
    for theta in (base, apart):
        got = list(extensions(pc, theta, lvars, domain))
        _same_stream(got, _product_then_filter(pc, theta, lvars, domain))


@given(_PCS)
@settings(max_examples=40, deadline=None)
def test_models_match_generate_and_test_when_sampled(pc):
    lvars = set("xyzabcd")
    domain = enumeration_domain(pc, B)
    assert (len(domain) + 1) ** len(lvars) > _ENUM_CAP
    _same_stream(list(models(pc, lvars, domain, B)), _generate_and_test(pc, lvars, domain, B))


_GUARDS = st.recursive(
    st.builds(
        Bin, st.sampled_from(["=", "<", "<="]), st.sampled_from([x, y]), st.sampled_from([Lit(0), Lit(1), Lit(2), y])
    ),
    lambda sub: st.one_of(
        st.builds(lambda g, v: eq(g, Lit(v)), sub, st.sampled_from([TRUE, FALSE])),
        st.builds(lambda g, v: eq(Lit(v), g), sub, st.sampled_from([TRUE, FALSE])),
        st.builds(Not, sub),
        st.builds(Bin, st.just("and"), sub, sub),
    ),
    max_leaves=3,
)


@given(st.lists(_GUARDS, min_size=1, max_size=5))
@settings(max_examples=300, deadline=None)
def test_core_contradiction_has_no_bounded_model(pc):
    if RewriteCore(pc).contradiction:
        domain = enumeration_domain(pc, B)
        assert not any(all_true(pc, theta) for theta in _assignments(pc_lvars(pc), domain, B))


def _old_fold_expr(e):
    """`fold_expr` as it was: it asks each rebuilt node for its variables."""
    if isinstance(e, (Lit, LVar, PVar)):
        return e
    if isinstance(e, Not):
        e2 = Not(_old_fold_expr(e.arg))
    elif isinstance(e, Bin):
        e2 = Bin(e.op, _old_fold_expr(e.left), _old_fold_expr(e.right))
    elif isinstance(e, InVal):
        e2 = InVal(_old_fold_expr(e.arg))
    elif isinstance(e, InType):
        e2 = InType(_old_fold_expr(e.arg), e.tau)
    elif isinstance(e, LstE):
        e2 = LstE(tuple(_old_fold_expr(i) for i in e.items))
    if not lv_expr(e2) and not pv_expr(e2):
        v = eval_lexpr(e2, {}, {})
        if v is not UNDEF:
            return Lit(v)
    return e2


# mostly ground, so that UNDEF subterms (`1 + nil`, `true < 0`) turn up
# under InVal and InType
_FOLD_ATOMS = st.sampled_from([x, PVar("p"), Lit(0), Lit(1), Lit(3), Lit(TRUE), Lit(FALSE), Lit(NIL), Lit("a")])
_FOLD_EXPRS = st.recursive(
    _FOLD_ATOMS,
    lambda sub: st.one_of(
        st.builds(Bin, st.sampled_from(BIN_OPS), sub, sub),
        st.builds(Not, sub),
        st.builds(InVal, sub),
        st.builds(InType, sub, st.sampled_from(TYPE_NAMES)),
        st.builds(LstE, st.lists(sub, max_size=3).map(tuple)),
    ),
    max_leaves=8,
)


@given(_FOLD_EXPRS)
@settings(max_examples=400, deadline=None)
def test_fold_expr_matches_old_fold(e):
    want = _old_fold_expr(e)
    for _ in range(2):  # the second fold reads the first one's caches
        got = fold_expr(e)
        assert got == want
        assert repr(got) == repr(want)
    assert fold_expr(got) is got
    # terms over the folded `e`, which share it as a subterm
    for shared in (Bin("and", e, e), LstE((e, Not(e), e)), InType(Bin("+", e, e), "nat")):
        assert repr(fold_expr(shared)) == repr(_old_fold_expr(shared))


def test_fold_expr_folds_above_an_undefined_ground_subterm():
    undef = Bin("+", Lit(1), Lit(NIL))
    assert fold_expr(undef) == undef
    assert fold_expr(InVal(undef)) == Lit(FALSE)
    assert fold_expr(InType(undef, "nat")) == Lit(FALSE)
    assert fold_expr(Not(InVal(undef))) == Lit(TRUE)


# -- comparisons are Boolean; entails verdicts are cached -----------------------


@pytest.mark.parametrize(
    "g",
    [eq(x, Lit(7)), Bin("<", x, y), Bin("<=", Lit(1), x), Bin("and", x, y), Bin("or", x, y),
     Not(x), InVal(x), InType(x, "nat")],
    ids=["=", "<", "<=", "and", "or", "not", "InVal", "InType"],
)
def test_defined_comparison_is_boolean(g):
    # the if-err-type branch of a defined guard
    assert check_sat((InVal(g), Not(InType(g, "bool"))), B) is UNSAT


def test_defined_sum_is_not_boolean():
    s = Bin("+", x, Lit(1))
    assert isinstance(check_sat((InVal(s), Not(InType(s, "bool"))), B), Sat)


def test_undefined_guard_is_not_known_boolean():
    assert not RewriteCore((Not(InType(eq(x, Lit(7)), "bool")),)).contradiction


def test_entails_verdicts_are_cached(monkeypatch):
    pc, goal = (Bin("<=", Lit(1), x), Bin("<=", x, Lit(2))), eq(x, Lit(1))
    calls = []
    decide = solver._entails
    monkeypatch.setattr(solver, "_entails", lambda *args: calls.append(args) or decide(*args))
    clear_caches()
    assert entails(pc, goal, B) is Entail.NO
    assert entails(pc, goal, B) is Entail.NO
    assert len(calls) == 1
    assert entails(pc, goal, Bounds(value_domain=(0, 1, 2), max_cells=2, max_addresses=3, trials=100, seed=0)) is Entail.NO
    assert len(calls) == 2
    clear_caches()
    assert entails(pc, goal, B) is Entail.NO
    assert len(calls) == 3


def test_caches_are_cleared_past_their_bound():
    cache = dict.fromkeys(range(100_001))
    solver._put(cache, "k", 1)
    assert cache == {"k": 1}


def test_bounds_key_is_computed_once_and_off_the_fields():
    """`check_sat` and `entails` key their caches by `Bounds.key()`; the
    key is kept on the instance, and equality, hashing, repr and
    `dataclasses.replace` still see only the fields."""
    from dataclasses import replace

    b = Bounds(value_domain=(NIL, TRUE, 0, "a"), seed=3)
    k = b.key()
    assert b.key() is k
    fresh = Bounds(value_domain=(NIL, TRUE, 0, "a"), seed=3)
    assert b == fresh and hash(b) == hash(fresh) and repr(b) == repr(fresh)
    assert fresh.key() == k
    moved = replace(b, seed=4)
    assert moved.key() == k[:-1] + (4,) and moved != b
