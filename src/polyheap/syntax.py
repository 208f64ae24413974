"""Abstract syntax: expressions, commands, functions.

One expression AST serves both program expressions and logical
expressions. Program expressions are the sub-language with no logical
variables and no membership tests; `pv`/`lv` compute the respective
variable sets and callers enforce which fragment they accept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .values import NIL, TRUE, FALSE, is_value, format_value, value_key

# type names usable in membership tests  e in <type>
TYPE_NAMES = ("nil", "bool", "nat", "rat", "str", "list")

BIN_OPS = ("=", "and", "or", "+", "-", "/", "<", "<=")


class Expr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Lit(Expr):
    value: object

    def __post_init__(self):
        if not is_value(self.value):
            raise TypeError(f"not a value: {self.value!r}")

    # custom eq/hash so Lit(1) and Lit(TRUE) never merge even though the
    # wrappers already prevent it; keying on value_key is belt-and-braces
    def __eq__(self, other):
        return type(other) is Lit and value_key(self.value) == value_key(other.value)

    def __hash__(self):
        return hash(("Lit", value_key(self.value)))


@dataclass(frozen=True, slots=True)
class PVar(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class LVar(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Not(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in BIN_OPS:
            raise ValueError(f"unknown operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class InVal(Expr):
    """Membership test: the expression evaluates to a value."""

    arg: Expr


@dataclass(frozen=True, slots=True)
class InType(Expr):
    """Membership test: the expression evaluates to a value of the given type."""

    arg: Expr
    tau: str

    def __post_init__(self):
        if self.tau not in TYPE_NAMES:
            raise ValueError(f"unknown type {self.tau!r}")


@dataclass(frozen=True, slots=True)
class LstE(Expr):
    """List former; evaluates to a list value when all items do."""

    items: tuple


TRUE_E = Lit(TRUE)
FALSE_E = Lit(FALSE)
NIL_E = Lit(NIL)


def eq(a: Expr, b: Expr) -> Expr:
    return Bin("=", a, b)


def conj(exprs) -> Expr:
    """Right-nested conjunction of the given expressions (TRUE if empty)."""
    exprs = list(exprs)
    if not exprs:
        return TRUE_E
    out = exprs[-1]
    for e in reversed(exprs[:-1]):
        out = Bin("and", e, out)
    return out


def not_in(e: Expr, candidates) -> list:
    """Conjuncts stating that `e` differs from every candidate expression."""
    return [Not(eq(e, c)) for c in candidates]


_NO_VARS = frozenset()


def expr_vars(e: Expr, want: type) -> frozenset:
    if isinstance(e, Lit):  # leaves make up most calls
        return _NO_VARS
    if isinstance(e, want):
        return frozenset((e.name,))
    out = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, want):
            out.add(n.name)
        elif isinstance(n, Not):
            stack.append(n.arg)
        elif isinstance(n, Bin):
            stack.append(n.left)
            stack.append(n.right)
        elif isinstance(n, (InVal, InType)):
            stack.append(n.arg)
        elif isinstance(n, LstE):
            stack.extend(n.items)
    return frozenset(out)


def pv_expr(e: Expr) -> frozenset:
    return expr_vars(e, PVar)


def lv_expr(e: Expr) -> frozenset:
    return expr_vars(e, LVar)


def subst_expr(e: Expr, mapping: dict) -> Expr:
    """Substitute logical variables by expressions (capture is not an issue:
    expressions bind nothing)."""
    if isinstance(e, LVar):
        return mapping.get(e.name, e)
    if isinstance(e, Not):
        return Not(subst_expr(e.arg, mapping))
    if isinstance(e, Bin):
        return Bin(e.op, subst_expr(e.left, mapping), subst_expr(e.right, mapping))
    if isinstance(e, InVal):
        return InVal(subst_expr(e.arg, mapping))
    if isinstance(e, InType):
        return InType(subst_expr(e.arg, mapping), e.tau)
    if isinstance(e, LstE):
        return LstE(tuple(subst_expr(i, mapping) for i in e.items))
    return e


def subst_pvars(e: Expr, mapping: dict) -> Expr:
    """Substitute program variables by expressions."""
    if isinstance(e, PVar):
        return mapping.get(e.name, e)
    if isinstance(e, Not):
        return Not(subst_pvars(e.arg, mapping))
    if isinstance(e, Bin):
        return Bin(e.op, subst_pvars(e.left, mapping), subst_pvars(e.right, mapping))
    if isinstance(e, InVal):
        return InVal(subst_pvars(e.arg, mapping))
    if isinstance(e, InType):
        return InType(subst_pvars(e.arg, mapping), e.tau)
    if isinstance(e, LstE):
        return LstE(tuple(subst_pvars(i, mapping) for i in e.items))
    return e


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


class Cmd:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Skip(Cmd):
    pass


@dataclass(frozen=True, slots=True)
class Assign(Cmd):
    var: str
    expr: Expr


@dataclass(frozen=True, slots=True)
class IfElse(Cmd):
    cond: Expr
    then: Cmd
    els: Cmd


@dataclass(frozen=True, slots=True)
class Seq(Cmd):
    first: Cmd
    second: Cmd


@dataclass(frozen=True, slots=True)
class FunCall(Cmd):
    target: str
    fid: str
    args: tuple


@dataclass(frozen=True, slots=True)
class Action(Cmd):
    targets: tuple
    name: str
    args: tuple


@dataclass(frozen=True, slots=True)
class Fold(Cmd):
    pred: str
    args: tuple  # logical expressions


@dataclass(frozen=True, slots=True)
class Unfold(Cmd):
    pred: str
    args: tuple


def prog_vars(c: Cmd) -> frozenset:
    """pv(c): every program variable occurring in the command."""
    if isinstance(c, Skip):
        return frozenset()
    if isinstance(c, Assign):
        return frozenset({c.var}) | pv_expr(c.expr)
    if isinstance(c, IfElse):
        return pv_expr(c.cond) | prog_vars(c.then) | prog_vars(c.els)
    if isinstance(c, Seq):
        return prog_vars(c.first) | prog_vars(c.second)
    if isinstance(c, FunCall):
        out = frozenset({c.target})
        for a in c.args:
            out |= pv_expr(a)
        return out
    if isinstance(c, Action):
        out = frozenset(c.targets)
        for a in c.args:
            out |= pv_expr(a)
        return out
    if isinstance(c, (Fold, Unfold)):
        out = frozenset()
        for a in c.args:
            out |= pv_expr(a)
        return out
    raise TypeError(f"not a command: {c!r}")


def called_fids(c: Cmd) -> frozenset:
    if isinstance(c, FunCall):
        return frozenset({c.fid})
    if isinstance(c, IfElse):
        return called_fids(c.then) | called_fids(c.els)
    if isinstance(c, Seq):
        return called_fids(c.first) | called_fids(c.second)
    return frozenset()


# ---------------------------------------------------------------------------
# Functions and implementation contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionDef:
    fid: str
    params: tuple
    body: Cmd
    ret: Expr

    def __post_init__(self):
        if len(set(self.params)) != len(self.params):
            raise ValueError(f"duplicate parameters in {self.fid}")
        free = pv_expr(self.ret) - set(self.params) - prog_vars(self.body)
        if free:
            raise ValueError(f"return expression of {self.fid} uses unknown variables {sorted(free)}")

    def locals(self) -> tuple:
        return tuple(sorted(prog_vars(self.body) - set(self.params)))


class ImplContext(dict):
    """Finite map from function id to FunctionDef (ids must agree)."""

    def __setitem__(self, fid, fdef):
        if fdef.fid != fid:
            raise ValueError(f"key {fid!r} does not match definition id {fdef.fid!r}")
        super().__setitem__(fid, fdef)

    @classmethod
    def of(cls, *fdefs):
        ctx = cls()
        for f in fdefs:
            ctx[f.fid] = f
        return ctx


RESERVED_VARS = ("err", "ret")


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

_PREC = {"or": 1, "and": 2, "=": 3, "<": 4, "<=": 4, "+": 5, "-": 5, "/": 6}


def format_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, Lit):
        return format_value(e.value)
    if isinstance(e, PVar):
        return e.name
    if isinstance(e, LVar):
        return "#" + e.name
    if isinstance(e, Not):
        inner = format_expr(e.arg, 7)
        return f"not {inner}"
    if isinstance(e, Bin):
        p = _PREC[e.op]
        s = f"{format_expr(e.left, p)} {e.op} {format_expr(e.right, p + 1)}"
        return f"({s})" if p < prec else s
    if isinstance(e, InVal):
        s = f"{format_expr(e.arg, 7)} in Val"
        return f"({s})" if prec > 3 else s
    if isinstance(e, InType):
        s = f"{format_expr(e.arg, 7)} in {_TYPE_KEYWORD[e.tau]}"
        return f"({s})" if prec > 3 else s
    if isinstance(e, LstE):
        return "[" + ", ".join(format_expr(i) for i in e.items) + "]"
    raise TypeError(f"not an expression: {e!r}")


_TYPE_KEYWORD = {
    "nil": "Nil",
    "bool": "Bool",
    "nat": "Nat",
    "rat": "Rat",
    "str": "Str",
    "list": "List",
}
TYPE_OF_KEYWORD = {v: k for k, v in _TYPE_KEYWORD.items()}


def format_cmd(c: Cmd, indent: str = "") -> str:
    if isinstance(c, Skip):
        return indent + "skip"
    if isinstance(c, Assign):
        return f"{indent}{c.var} := {format_expr(c.expr)}"
    if isinstance(c, IfElse):
        t = format_cmd(c.then, indent + "  ")
        e = format_cmd(c.els, indent + "  ")
        return (
            f"{indent}if ({format_expr(c.cond)}) {{\n{t}\n{indent}}} else {{\n{e}\n{indent}}}"
        )
    if isinstance(c, Seq):
        return f"{format_cmd(c.first, indent)};\n{format_cmd(c.second, indent)}"
    if isinstance(c, FunCall):
        args = ", ".join(format_expr(a) for a in c.args)
        return f"{indent}{c.target} := {c.fid}({args})"
    if isinstance(c, Action):
        args = ", ".join(format_expr(a) for a in c.args)
        if c.targets:
            return f"{indent}{', '.join(c.targets)} := {c.name}({args})"
        return f"{indent}{c.name}({args})"
    if isinstance(c, Fold):
        args = ", ".join(format_expr(a) for a in c.args)
        return f"{indent}fold {c.pred}({args})"
    if isinstance(c, Unfold):
        args = ", ".join(format_expr(a) for a in c.args)
        return f"{indent}unfold {c.pred}({args})"
    raise TypeError(f"not a command: {c!r}")
