"""Abstract syntax: expressions, commands, functions.

One expression AST serves both program expressions and logical
expressions. Program expressions are the sub-language with no logical
variables and no membership tests; `pv`/`lv` compute the respective
variable sets and callers enforce which fragment they accept.
"""

from __future__ import annotations

from dataclasses import dataclass

from .values import NIL, TRUE, is_value, format_value, value_key

# type names usable in membership tests  e in <type>
TYPE_NAMES = ("nil", "bool", "nat", "rat", "str", "list")

BIN_OPS = ("=", "and", "or", "+", "-", "/", "<", "<=")


class Expr:
    """Base of the expression nodes. Nodes are frozen, so a fact computed
    from a node holds for its whole life; each slot below caches one such
    fact. No constructor writes them: a slot is filled on first use, and a
    node built by `__init__` (or `dataclasses.replace`) starts empty.

      _h  the hash, by the formula of the dataclass hash
      _f  `(folded, ground)` from `solver._fold`
      _l  the frozenset of literal values in the node (`solver._literals_in`)
      _v  `lv_expr` of a compound node
      _p  `pv_expr` of a compound node
      _s  `(text, precedence)` of a compound node from `format_expr`,
          unparenthesised
    """

    __slots__ = ("_h", "_v", "_p", "_f", "_l", "_s")


_set_h = Expr._h.__set__


def _memo_hash(node: Expr, key) -> int:
    h = hash(key)
    _set_h(node, h)
    return h


@dataclass(frozen=True, slots=True)
class Lit(Expr):
    value: object

    def __post_init__(self):
        if not is_value(self.value):
            raise TypeError(f"not a value: {self.value!r}")

    # custom eq/hash so Lit(1) and Lit(TRUE) never merge even though the
    # wrappers already prevent it; keying on value_key is belt-and-braces
    def __eq__(self, other):
        if self is other:
            return True
        return type(other) is Lit and value_key(self.value) == value_key(other.value)

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            return _memo_hash(self, ("Lit", value_key(self.value)))


@dataclass(frozen=True, slots=True)
class PVar(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class LVar(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Not(Expr):
    arg: Expr

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            return _memo_hash(self, (self.arg,))


@dataclass(frozen=True, slots=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in BIN_OPS:
            raise ValueError(f"unknown operator {self.op!r}")

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            return _memo_hash(self, (self.op, self.left, self.right))


@dataclass(frozen=True, slots=True)
class InVal(Expr):
    """Membership test: the expression evaluates to a value."""

    arg: Expr

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            return _memo_hash(self, (self.arg,))


@dataclass(frozen=True, slots=True)
class InType(Expr):
    """Membership test: the expression evaluates to a value of the given type."""

    arg: Expr
    tau: str

    def __post_init__(self):
        if self.tau not in TYPE_NAMES:
            raise ValueError(f"unknown type {self.tau!r}")

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            return _memo_hash(self, (self.arg, self.tau))


@dataclass(frozen=True, slots=True)
class LstE(Expr):
    """List former; evaluates to a list value when all items do."""

    items: tuple

    def __hash__(self):
        try:
            return self._h
        except AttributeError:
            return _memo_hash(self, (self.items,))


TRUE_E = Lit(TRUE)
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
_set_v = Expr._v.__set__
_set_p = Expr._p.__set__


def set_union(a: frozenset, b: frozenset) -> frozenset:
    """`a | b`, as `a` or `b` itself when one holds the other."""
    if b <= a:
        return a
    return b if a <= b else a | b


def pv_expr(e: Expr) -> frozenset:
    """The program variables of `e`, cached on each compound node asked."""
    t = type(e)
    if t is Lit or t is LVar:  # leaves make up most calls
        return _NO_VARS
    if t is PVar:
        return frozenset((e.name,))
    vs = getattr(e, "_p", None)
    if vs is None:
        if t is Bin:
            vs = set_union(pv_expr(e.left), pv_expr(e.right))
        elif t is LstE:
            vs = frozenset().union(*map(pv_expr, e.items))
        else:  # Not, InVal, InType
            vs = pv_expr(e.arg)
        _set_p(e, vs)
    return vs


def lv_expr(e: Expr) -> frozenset:
    """The logical variables of `e`, cached on each compound node asked."""
    t = type(e)
    if t is Lit or t is PVar:
        return _NO_VARS
    if t is LVar:
        return frozenset((e.name,))
    vs = getattr(e, "_v", None)
    if vs is None:
        if t is Bin:
            vs = set_union(lv_expr(e.left), lv_expr(e.right))
        elif t is LstE:
            vs = frozenset().union(*map(lv_expr, e.items))
        else:
            vs = lv_expr(e.arg)
        _set_v(e, vs)
    return vs


def _subst(e: Expr, mapping: dict, var_type: type) -> Expr:
    if isinstance(e, var_type):
        return mapping.get(e.name, e)
    if isinstance(e, Not):
        return Not(_subst(e.arg, mapping, var_type))
    if isinstance(e, Bin):
        return Bin(e.op, _subst(e.left, mapping, var_type), _subst(e.right, mapping, var_type))
    if isinstance(e, InVal):
        return InVal(_subst(e.arg, mapping, var_type))
    if isinstance(e, InType):
        return InType(_subst(e.arg, mapping, var_type), e.tau)
    if isinstance(e, LstE):
        return LstE(tuple(_subst(i, mapping, var_type) for i in e.items))
    return e


def subst_expr(e: Expr, mapping: dict) -> Expr:
    """Substitute logical variables by expressions (capture is not an issue:
    expressions bind nothing)."""
    return _subst(e, mapping, LVar)


def subst_pvars(e: Expr, mapping: dict) -> Expr:
    """Substitute program variables by expressions."""
    return _subst(e, mapping, PVar)


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


def basic_cmds(c: Cmd):
    """The commands of `c` other than `Seq` and `IfElse`, in program order."""
    stack = [c]
    while stack:
        c = stack.pop()
        if isinstance(c, Seq):
            stack += (c.second, c.first)
        elif isinstance(c, IfElse):
            stack += (c.els, c.then)
        else:
            yield c


def called_fids(c: Cmd) -> frozenset:
    return frozenset(b.fid for b in basic_cmds(c) if isinstance(b, FunCall))


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


_NEVER = 8  # the precedence of a node that is never parenthesised
_set_s = Expr._s.__set__


def format_expr(e: Expr, prec: int = 0) -> str:
    """`e` as text, in parentheses when it binds less tightly than `prec`.
    A compound node keeps its text in `_s`, so a shared subterm is
    formatted once."""
    t = type(e)
    if t is Lit:
        return format_value(e.value)
    if t is PVar:
        return e.name
    if t is LVar:
        return "#" + e.name
    text = getattr(e, "_s", None)
    if text is None:
        text = _format(e)
        _set_s(e, text)
    s, p = text
    return f"({s})" if p < prec else s


def _format(e: Expr) -> tuple:
    """`(text, precedence)` of a compound node, unparenthesised."""
    t = type(e)
    if t is Bin:
        p = _PREC[e.op]
        return f"{format_expr(e.left, p)} {e.op} {format_expr(e.right, p + 1)}", p
    if t is Not:
        return f"not {format_expr(e.arg, 7)}", _NEVER
    if t is InVal:
        return f"{format_expr(e.arg, 7)} in Val", 3
    if t is InType:
        return f"{format_expr(e.arg, 7)} in {_TYPE_KEYWORD[e.tau]}", 3
    if t is LstE:
        return "[" + ", ".join(format_expr(i) for i in e.items) + "]", _NEVER
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
