"""Expression evaluation.

Total functions into Value-or-UNDEF. Unbound variables, type mismatches and
division by zero all yield UNDEF rather than raising. `eval_expr` is the
store-only program-expression evaluator; `eval_lexpr` additionally
interprets logical variables and the membership tests. `all_true` decides
a conjunction: the solver's path conditions and the pure conjuncts of an
assertion.
"""

from __future__ import annotations

from types import MappingProxyType

from .values import (
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


_LEAVES = (Lit, PVar, LVar)


def eval_lexpr(e: Expr, theta: dict, store: dict, memo: dict | None = None):
    """Evaluate a logical expression under interpretation `theta` and store.

    `memo`, when given, maps `id(node)` to the node's value under this
    `theta` and store, so a subterm shared within or across the expressions
    evaluated with one memo is evaluated once. It holds the `Bin` nodes with
    a compound side, where terms along a path share structure (`x + 1 + ...
    + 1`); a node over leaves, or a unary node over a held one, costs less
    to evaluate again than to look up. The caller keeps the expressions
    alive, and `theta` and the store unchanged, while the memo is in use."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, PVar):
        return store.get(e.name, UNDEF)
    if isinstance(e, LVar):
        return theta.get(e.name, UNDEF)
    if isinstance(e, Bin):
        if memo is None or (isinstance(e.left, _LEAVES) and isinstance(e.right, _LEAVES)):
            return _eval_bin(e, theta, store, memo)
        k = id(e)
        v = memo.get(k)  # no value is None
        if v is None:
            v = memo[k] = _eval_bin(e, theta, store, memo)
        return v
    if isinstance(e, Not):
        v = eval_lexpr(e.arg, theta, store, memo)
        if isinstance(v, VBool):
            return vbool(not v.b)
        return UNDEF
    if isinstance(e, InVal):
        return vbool(eval_lexpr(e.arg, theta, store, memo) is not UNDEF)
    if isinstance(e, InType):
        v = eval_lexpr(e.arg, theta, store, memo)
        return vbool(v is not UNDEF and type_name(v) == e.tau)
    if isinstance(e, LstE):
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
    return all(eval_lexpr(e, theta, store, memo) is TRUE for e in exprs)


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
        return vbool(a == b)
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
        if op == "<":
            return vbool(a.q < b.q)
        if op == "<=":
            return vbool(a.q <= b.q)
    return UNDEF
