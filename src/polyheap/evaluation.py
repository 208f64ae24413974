"""Expression evaluation.

Total functions into Value-or-UNDEF. Unbound variables, type mismatches and
division by zero all yield UNDEF rather than raising. `eval_expr` is the
store-only program-expression evaluator; `eval_lexpr` additionally
interprets logical variables and the membership tests. `all_true` decides
a conjunction: the solver's path conditions and the pure conjuncts of an
assertion.

Every layer calls this evaluator, so it dispatches on the exact node type
(`type(e) is Bin`), not on `isinstance`. That is the same test only while
the `syntax` node classes stay final: a subclass of a node class would not
be evaluated.
"""

from __future__ import annotations

from types import MappingProxyType

from .values import (
    FALSE,
    TRUE,
    UNDEF,
    Rat,
    VBool,
    vbool,
    is_nat,
    is_rat,
    type_name,
)
from .syntax import Bin, Expr, InType, InVal, Lit, LstE, LVar, Not, PVar


_LEAF_TYPES = frozenset((Lit, PVar, LVar))


def eval_lexpr(e: Expr, theta: dict, store: dict, memo: dict | None = None):
    """Evaluate a logical expression under interpretation `theta` and store.

    `memo`, when given, maps `id(node)` to the node's value under this
    `theta` and store, so a subterm shared within or across the expressions
    evaluated with one memo is evaluated once. It holds the `Bin` nodes with
    a compound side, where terms along a path share structure (`x + 1 + ...
    + 1`); a node over leaves, or a unary node over a held one, costs less
    to evaluate again than to look up. The caller keeps the expressions
    alive, and `theta` and the store unchanged, while the memo is in use."""
    t = type(e)
    if t is Lit:
        return e.value
    if t is LVar:
        return theta.get(e.name, UNDEF)
    if t is Bin:
        if memo is None or (type(e.left) in _LEAF_TYPES and type(e.right) in _LEAF_TYPES):
            return _eval_bin(e, theta, store, memo)
        k = id(e)
        v = memo.get(k)  # no value is None
        if v is None:
            v = memo[k] = _eval_bin(e, theta, store, memo)
        return v
    if t is PVar:
        return store.get(e.name, UNDEF)
    if t is Not:
        v = eval_lexpr(e.arg, theta, store, memo)
        if type(v) is VBool:
            return vbool(not v.b)
        return UNDEF
    if t is InVal:
        return vbool(eval_lexpr(e.arg, theta, store, memo) is not UNDEF)
    if t is InType:
        v = eval_lexpr(e.arg, theta, store, memo)
        return vbool(v is not UNDEF and type_name(v) == e.tau)
    if t is LstE:
        items = []
        for i in e.items:
            v = eval_lexpr(i, theta, store, memo)
            if v is UNDEF:
                return UNDEF
            items.append(v)
        return tuple(items)
    raise TypeError(f"not an expression: {e!r}")


_NO_STORE = MappingProxyType({})


def all_true(exprs, theta: dict, store=_NO_STORE) -> bool:
    """Every expression evaluates to TRUE under theta and store. One memo
    serves the call, so a subterm shared by the expressions (`x + 1 + ...
    + 1` along a path) is evaluated once."""
    memo = {}
    for e in exprs:
        if eval_lexpr(e, theta, store, memo) is not TRUE:
            return False
    return True


def eval_expr(e: Expr, store: dict):
    """Program-expression evaluation (no interpretation)."""
    return eval_lexpr(e, {}, store)


def _eval_bin(e: Bin, theta, store, memo):
    a = eval_lexpr(e.left, theta, store, memo)
    b = eval_lexpr(e.right, theta, store, memo)
    op = e.op
    if op == "=":
        if a is UNDEF or b is UNDEF:
            return UNDEF
        # cross-type equality is false, not an error; wrappers make ==
        # structural across all constructors
        return TRUE if a == b else FALSE
    if op in ("and", "or"):
        if isinstance(a, VBool) and isinstance(b, VBool):
            return vbool(a.b and b.b) if op == "and" else vbool(a.b or b.b)
        return UNDEF
    # arithmetic and comparisons: naturals with naturals, rationals with
    # rationals; anything else is undefined
    if is_nat(a) and is_nat(b):
        if op == "+":
            return a + b
        if op == "-":
            return a - b if a >= b else UNDEF
        if op == "/":
            if b != 0 and a % b == 0:
                return a // b
            return UNDEF
        if op == "<":
            return vbool(a < b)
        if op == "<=":
            return vbool(a <= b)
    if is_rat(a) and is_rat(b):
        if op == "+":
            return Rat(a.q + b.q)
        if op == "-":
            d = a.q - b.q
            return Rat(d) if d > 0 else UNDEF
        if op == "/":
            return Rat(a.q / b.q)
        # denominators are positive, so cross-multiplying keeps the order
        x, y = a.q, b.q
        if op == "<":
            return vbool(x.numerator * y.denominator < y.numerator * x.denominator)
        if op == "<=":
            return vbool(x.numerator * y.denominator <= y.numerator * x.denominator)
    return UNDEF
