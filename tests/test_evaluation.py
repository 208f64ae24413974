from fractions import Fraction

from hypothesis import given, strategies as st

from polyheap.evaluation import eval_expr, eval_lexpr
from polyheap.syntax import Bin, Expr, InType, InVal, Lit, LstE, LVar, Not, PVar, eq
from polyheap.values import FALSE, NIL, Rat, TRUE, UNDEF, vbool


def test_constant_folding():
    assert eval_expr(Bin("+", Lit(1), Lit(2)), {}) == 3


def test_variable_lookup():
    assert eval_expr(PVar("x"), {"x": 4}) == 4


def test_division_by_zero_is_undefined():
    assert eval_expr(Bin("/", Lit(1), Lit(0)), {}) is UNDEF


def test_division_only_when_exact():
    assert eval_expr(Bin("/", Lit(6), Lit(3)), {}) == 2
    assert eval_expr(Bin("/", Lit(7), Lit(3)), {}) is UNDEF


def test_unbound_variable_is_undefined():
    assert eval_expr(PVar("q"), {}) is UNDEF
    assert eval_lexpr(LVar("q"), {}, {}) is UNDEF


def test_cross_type_equality_is_false_not_undefined():
    assert eval_expr(eq(Lit(1), Lit(TRUE)), {}) is FALSE
    assert eval_expr(eq(Lit(1), Lit(Rat(1))), {}) is FALSE
    assert eval_expr(eq(Lit(NIL), Lit(NIL)), {}) is TRUE


def test_natural_subtraction_stays_natural():
    assert eval_expr(Bin("-", Lit(2), Lit(3)), {}) is UNDEF
    assert eval_expr(Bin("-", Lit(3), Lit(2)), {}) == 1


def test_rational_arithmetic_stays_positive():
    half = Lit(Rat(1, 2))
    one = Lit(Rat(1))
    assert eval_expr(Bin("+", half, half), {}) == Rat(1)
    assert eval_expr(Bin("-", one, half), {}) == Rat(1, 2)
    assert eval_expr(Bin("-", half, one), {}) is UNDEF
    assert eval_expr(Bin("<", half, one), {}) is TRUE


def test_mixed_numeric_types_do_not_compare():
    assert eval_expr(Bin("<", Lit(1), Lit(Rat(2))), {}) is UNDEF


def test_rational_comparison_agrees_with_fraction():
    """`<` and `<=` on rationals cross-multiply; they must give what
    `Fraction` comparison gives, mostly over pairs with unequal
    denominators (equal values have equal ones, which tells `<` from
    `<=`)."""
    qs = [Fraction(n, d) for d in (1, 2, 3, 4, 6, 7) for n in range(1, 2 * d + 1)]
    for x in qs:
        for y in qs:
            a, b = Lit(Rat(x)), Lit(Rat(y))
            assert eval_expr(Bin("<", a, b), {}) is vbool(x < y), (x, y)
            assert eval_expr(Bin("<=", a, b), {}) is vbool(x <= y), (x, y)


def test_not_of_a_non_boolean_is_undefined():
    for v in (0, Rat(1), NIL, "a", ()):
        assert eval_expr(Not(Lit(v)), {}) is UNDEF
    assert eval_expr(Not(Lit(TRUE)), {}) is FALSE


def test_expression_node_classes_are_final():
    """`eval_lexpr` dispatches on `type(e) is Lit` and so on, which is the
    `isinstance` test only while no node class has a subclass."""
    import polyheap.cli  # noqa: F401  (loads every module that could subclass a node)
    from polyheap import syntax

    nodes = [c for c in vars(syntax).values() if isinstance(c, type) and issubclass(c, (Expr, syntax.Cmd))]
    assert {Lit, PVar, LVar, Bin, Not, InVal, InType, LstE} <= set(nodes)
    for c in nodes:
        if c not in (Expr, syntax.Cmd):
            assert c.__subclasses__() == [], c


def test_membership_tests():
    assert eval_lexpr(InVal(LVar("x")), {}, {}) is FALSE
    assert eval_lexpr(InVal(LVar("x")), {"x": 1}, {}) is TRUE
    assert eval_lexpr(InType(LVar("x"), "nat"), {"x": "a"}, {}) is FALSE
    assert eval_lexpr(InType(LVar("x"), "str"), {"x": "a"}, {}) is TRUE
    # a failing subexpression makes the membership test false, not undefined
    assert eval_lexpr(InVal(Bin("/", Lit(1), Lit(0))), {}, {}) is FALSE


def test_list_former():
    assert eval_expr(LstE((Lit(1), Lit("a"))), {}) == (1, "a")
    assert eval_expr(LstE((PVar("missing"),)), {}) is UNDEF


exprs = st.recursive(
    st.one_of(
        st.integers(0, 5).map(Lit),
        st.sampled_from([Lit(NIL), Lit(TRUE), Lit(FALSE), PVar("x"), PVar("y"), LVar("a")]),
    ),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(InVal, inner),
        st.tuples(st.sampled_from(["+", "-", "/", "=", "and", "or", "<", "<="]), inner, inner).map(
            lambda t: Bin(*t)
        ),
    ),
    max_leaves=8,
)


@given(exprs, st.dictionaries(st.sampled_from(["x", "y"]), st.integers(0, 3), max_size=2))
def test_evaluation_is_deterministic_and_total(e, store):
    theta = {"a": 2}
    v1 = eval_lexpr(e, theta, store)
    v2 = eval_lexpr(e, theta, store)
    assert v1 == v2 or (v1 is UNDEF and v2 is UNDEF)
