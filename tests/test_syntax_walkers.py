"""The variable sets and substitutions over expressions and assertions,
checked against their first, recursive versions.

The `_old_*` functions below are those versions, kept as references:
one hand-written recursion per walker. Assertions are drawn with nested
and shadowing `exists`, so that a binder hides a variable that the
mapping or an outer binder also names.
"""

from hypothesis import given, settings, strategies as st

from polyheap.assertions import (
    Bool,
    Emp,
    Exists,
    Implies,
    Or,
    Pred,
    Res,
    Star,
    TrueA,
    lv_assertion,
    pv_assertion,
    subst_assertion,
    subst_assertion_pvars,
)
from polyheap.syntax import (
    BIN_OPS,
    TYPE_NAMES,
    Bin,
    InType,
    InVal,
    Lit,
    LstE,
    LVar,
    Not,
    PVar,
    lv_expr,
    pv_expr,
    subst_expr,
    subst_pvars,
)
from polyheap.values import NIL, TRUE


def _old_subst_expr(e, mapping):
    if isinstance(e, LVar):
        return mapping.get(e.name, e)
    if isinstance(e, Not):
        return Not(_old_subst_expr(e.arg, mapping))
    if isinstance(e, Bin):
        return Bin(e.op, _old_subst_expr(e.left, mapping), _old_subst_expr(e.right, mapping))
    if isinstance(e, InVal):
        return InVal(_old_subst_expr(e.arg, mapping))
    if isinstance(e, InType):
        return InType(_old_subst_expr(e.arg, mapping), e.tau)
    if isinstance(e, LstE):
        return LstE(tuple(_old_subst_expr(i, mapping) for i in e.items))
    return e


def _old_subst_pvars(e, mapping):
    if isinstance(e, PVar):
        return mapping.get(e.name, e)
    if isinstance(e, Not):
        return Not(_old_subst_pvars(e.arg, mapping))
    if isinstance(e, Bin):
        return Bin(e.op, _old_subst_pvars(e.left, mapping), _old_subst_pvars(e.right, mapping))
    if isinstance(e, InVal):
        return InVal(_old_subst_pvars(e.arg, mapping))
    if isinstance(e, InType):
        return InType(_old_subst_pvars(e.arg, mapping), e.tau)
    if isinstance(e, LstE):
        return LstE(tuple(_old_subst_pvars(i, mapping) for i in e.items))
    return e


def _old_pv_assertion(a):
    if isinstance(a, Bool):
        return pv_expr(a.expr)
    if isinstance(a, (TrueA, Emp)):
        return frozenset()
    if isinstance(a, (Implies, Or, Star)):
        return _old_pv_assertion(a.left) | _old_pv_assertion(a.right)
    if isinstance(a, Exists):
        return _old_pv_assertion(a.body)
    out = frozenset()
    for e in a.ins + a.outs:
        out |= pv_expr(e)
    return out


def _old_lv_assertion(a):
    if isinstance(a, Bool):
        return lv_expr(a.expr)
    if isinstance(a, (TrueA, Emp)):
        return frozenset()
    if isinstance(a, (Implies, Or, Star)):
        return _old_lv_assertion(a.left) | _old_lv_assertion(a.right)
    if isinstance(a, Exists):
        return _old_lv_assertion(a.body) - {a.var}
    out = frozenset()
    for e in a.ins + a.outs:
        out |= lv_expr(e)
    return out


def _old_subst_assertion(a, mapping, sub=_old_subst_expr, binders=True):
    """`subst_assertion` when `binders`, else `subst_assertion_pvars`."""
    if isinstance(a, Bool):
        return Bool(sub(a.expr, mapping))
    if isinstance(a, (TrueA, Emp)):
        return a
    if isinstance(a, (Implies, Or, Star)):
        return type(a)(_old_subst_assertion(a.left, mapping, sub, binders),
                       _old_subst_assertion(a.right, mapping, sub, binders))
    if isinstance(a, Exists):
        inner = {k: v for k, v in mapping.items() if k != a.var} if binders else mapping
        return Exists(a.var, _old_subst_assertion(a.body, inner, sub, binders))
    return type(a)(a.name, tuple(sub(e, mapping) for e in a.ins),
                   tuple(sub(e, mapping) for e in a.outs))


_NAMES = ("x", "y", "z")
_LEAVES = st.one_of(
    st.sampled_from([Lit(0), Lit(1), Lit(TRUE), Lit(NIL)]),
    st.builds(LVar, st.sampled_from(_NAMES)),
    st.builds(PVar, st.sampled_from(_NAMES)),
)
_EXPRS = st.recursive(
    _LEAVES,
    lambda sub: st.one_of(
        st.builds(Bin, st.sampled_from(BIN_OPS), sub, sub),
        st.builds(Not, sub),
        st.builds(InVal, sub),
        st.builds(InType, sub, st.sampled_from(TYPE_NAMES)),
        st.builds(LstE, st.lists(sub, max_size=3).map(tuple)),
    ),
    max_leaves=6,
)
_ARGS = st.lists(_EXPRS, max_size=2).map(tuple)
_ASSERTIONS = st.recursive(
    st.one_of(
        st.builds(Bool, _EXPRS),
        st.just(TrueA()),
        st.just(Emp()),
        st.builds(Res, st.sampled_from(["cell", "r"]), _ARGS, _ARGS),
        st.builds(Pred, st.sampled_from(["p", "q"]), _ARGS, _ARGS),
    ),
    lambda sub: st.one_of(
        st.builds(Star, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        # binders reuse the variable names, so they nest and shadow
        st.builds(Exists, st.sampled_from(_NAMES), sub),
    ),
    max_leaves=8,
)
_MAPPINGS = st.dictionaries(st.sampled_from(_NAMES), _EXPRS, max_size=3)


def _same(got, want):
    assert type(got) is type(want)
    assert got == want
    if not isinstance(got, frozenset):  # a set's order follows its history
        assert repr(got) == repr(want)


@given(_EXPRS, _MAPPINGS)
@settings(max_examples=300, deadline=None)
def test_expression_substitutions_match_old(e, mapping):
    _same(subst_expr(e, mapping), _old_subst_expr(e, mapping))
    _same(subst_pvars(e, mapping), _old_subst_pvars(e, mapping))


@given(_ASSERTIONS)
@settings(max_examples=300, deadline=None)
def test_assertion_variables_match_old(a):
    _same(pv_assertion(a), _old_pv_assertion(a))
    _same(lv_assertion(a), _old_lv_assertion(a))


@given(_ASSERTIONS, _MAPPINGS)
@settings(max_examples=300, deadline=None)
def test_assertion_substitutions_match_old(a, mapping):
    _same(subst_assertion(a, mapping), _old_subst_assertion(a, mapping))
    _same(subst_assertion_pvars(a, mapping),
          _old_subst_assertion(a, mapping, _old_subst_pvars, binders=False))
