"""Deep-embedded assertions, user-defined predicates, and quadruples.

Assertions are the spatial language shared by function specifications,
fold/unfold commands and the bi-abductive anti-heap:

    A ::= e | True | A => A | A \\/ A | exists #x. A | emp | A * A
        | r(ins; outs) | p(ins; outs)

Resource atoms (`Res`) are owned by the active memory model; predicate
atoms (`Pred`) refer to user-defined predicates. The parser resolves a
bare atom to Pred when its name is declared in the same file and to Res
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    Expr,
    LVar,
    Lit,
    format_expr,
    lv_expr,
    pv_expr,
    subst_expr,
    subst_pvars,
)
from .values import FALSE


class Assertion:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Bool(Assertion):
    expr: Expr


@dataclass(frozen=True, slots=True)
class TrueA(Assertion):
    pass


@dataclass(frozen=True, slots=True)
class Implies(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True, slots=True)
class Or(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True, slots=True)
class Exists(Assertion):
    var: str
    body: Assertion


@dataclass(frozen=True, slots=True)
class Emp(Assertion):
    pass


@dataclass(frozen=True, slots=True)
class Star(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True, slots=True)
class Res(Assertion):
    name: str
    ins: tuple
    outs: tuple


@dataclass(frozen=True, slots=True)
class Pred(Assertion):
    name: str
    ins: tuple
    outs: tuple


FALSE_A = Bool(Lit(FALSE))


def star_all(parts) -> Assertion:
    parts = list(parts)
    if not parts:
        return Emp()
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = Star(p, out)
    return out


def disjuncts(a: Assertion) -> list:
    """Top-level disjuncts of an assertion (predicate bodies are written
    as disjunctions)."""
    if isinstance(a, Or):
        return disjuncts(a.left) + disjuncts(a.right)
    return [a]


def star_conjuncts(a: Assertion) -> list:
    if isinstance(a, Star):
        return star_conjuncts(a.left) + star_conjuncts(a.right)
    return [a]


_NO_BINDERS = frozenset()


def atoms(a: Assertion) -> list:
    """`(leaf, binders)` for each `Bool`, `Res` and `Pred` leaf of `a`, left
    to right; `binders` is the frozenset of variables bound by the
    `exists` around the leaf."""
    out = []
    stack = [(a, _NO_BINDERS)]
    while stack:
        a, bound = stack.pop()
        if isinstance(a, (Bool, Res, Pred)):
            out.append((a, bound))
        elif isinstance(a, (Star, Or, Implies)):
            stack.append((a.right, bound))
            stack.append((a.left, bound))
        elif isinstance(a, Exists):
            stack.append((a.body, bound | {a.var}))
        elif not isinstance(a, (TrueA, Emp)):
            raise TypeError(f"not an assertion: {a!r}")
    return out


def map_atoms(a: Assertion, f) -> Assertion:
    """`a` with each `Bool`, `Res` and `Pred` leaf replaced by
    `f(leaf, binders)`, the binders as in `atoms`."""

    def walk(a, bound):
        if isinstance(a, (Bool, Res, Pred)):
            return f(a, bound)
        if isinstance(a, (Star, Or, Implies)):
            return type(a)(walk(a.left, bound), walk(a.right, bound))
        if isinstance(a, Exists):
            return Exists(a.var, walk(a.body, bound | {a.var}))
        if isinstance(a, (TrueA, Emp)):
            return a
        raise TypeError(f"not an assertion: {a!r}")

    return walk(a, _NO_BINDERS)


def _leaf_exprs(leaf) -> tuple:
    return (leaf.expr,) if isinstance(leaf, Bool) else leaf.ins + leaf.outs


def _map_leaf(leaf, sub, mapping):
    """`leaf` with `sub(e, mapping)` for each of its expressions `e`."""
    if isinstance(leaf, Bool):
        return Bool(sub(leaf.expr, mapping))
    return type(leaf)(leaf.name, tuple(sub(e, mapping) for e in leaf.ins),
                      tuple(sub(e, mapping) for e in leaf.outs))


def pv_assertion(a: Assertion) -> frozenset:
    out = set()
    for leaf, _ in atoms(a):
        for e in _leaf_exprs(leaf):
            out |= pv_expr(e)
    return frozenset(out)


def lv_assertion(a: Assertion) -> frozenset:
    out = set()
    for leaf, bound in atoms(a):
        for e in _leaf_exprs(leaf):
            out |= lv_expr(e) - bound if bound else lv_expr(e)
    return frozenset(out)


def subst_assertion(a: Assertion, mapping: dict) -> Assertion:
    """Substitute logical variables by expressions, respecting exists-binders."""

    def leaf(atom, bound):
        m = mapping
        if bound and not bound.isdisjoint(m):
            m = {k: v for k, v in m.items() if k not in bound}
        return _map_leaf(atom, subst_expr, m)

    return map_atoms(a, leaf)


def subst_assertion_pvars(a: Assertion, mapping: dict) -> Assertion:
    return map_atoms(a, lambda atom, _: _map_leaf(atom, subst_pvars, mapping))


def format_assertion(a: Assertion, prec: int = 0) -> str:
    if isinstance(a, Bool):
        return format_expr(a.expr, 4)
    if isinstance(a, TrueA):
        return "True"
    if isinstance(a, Emp):
        return "emp"
    if isinstance(a, Implies):
        s = f"{format_assertion(a.left, 2)} => {format_assertion(a.right, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(a, Or):
        s = f"{format_assertion(a.left, 3)} \\/ {format_assertion(a.right, 2)}"
        return f"({s})" if prec > 2 else s
    if isinstance(a, Star):
        s = f"{format_assertion(a.left, 4)} * {format_assertion(a.right, 3)}"
        return f"({s})" if prec > 3 else s
    if isinstance(a, Exists):
        body = a
        names = []
        while isinstance(body, Exists):
            names.append("#" + body.var)
            body = body.body
        s = f"exists {', '.join(names)}. {format_assertion(body, 0)}"
        return f"({s})" if prec > 0 else s
    if isinstance(a, (Res, Pred)):
        ins = ", ".join(format_expr(e) for e in a.ins)
        outs = ", ".join(format_expr(e) for e in a.outs)
        return f"{a.name}({ins}; {outs})" if outs else f"{a.name}({ins};)"
    raise TypeError(f"not an assertion: {a!r}")


def normalize(a: Assertion) -> Assertion:
    """Flatten * and sort commutative conjuncts for structural comparison.

    Used for report de-duplication and structural equality checks only,
    never before satisfaction checks.
    """
    if isinstance(a, Star):
        parts = [normalize(p) for p in star_conjuncts(a)]
        parts = [p for p in parts if not isinstance(p, Emp)]
        parts.sort(key=format_assertion)
        return star_all(parts)
    if isinstance(a, Or):
        parts = [normalize(p) for p in disjuncts(a)]
        parts.sort(key=format_assertion)
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Or(p, out)
        return out
    if isinstance(a, Implies):
        return Implies(normalize(a.left), normalize(a.right))
    if isinstance(a, Exists):
        return Exists(a.var, normalize(a.body))
    return a


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredDef:
    name: str
    ins: tuple
    outs: tuple
    body: Assertion

    def __post_init__(self):
        if len(set(self.ins)) != len(self.ins) or len(set(self.outs)) != len(self.outs):
            raise ValueError(f"duplicate parameters in predicate {self.name}")
        if set(self.ins) & set(self.outs):
            raise ValueError(f"in/out parameters of {self.name} overlap")
        if pv_assertion(self.body):
            raise ValueError(f"predicate {self.name} body mentions program variables")
        if not lv_assertion(self.body) <= set(self.ins) | set(self.outs):
            raise ValueError(f"predicate {self.name} body has free logical variables")
        for d in disjuncts(self.body):
            if not set(self.outs) <= lv_assertion(d):
                raise ValueError(
                    f"a disjunct of {self.name} does not mention all out-parameters"
                )

    def instantiate(self, ins, outs) -> Assertion:
        mapping = dict(zip(self.ins, ins)) | dict(zip(self.outs, outs))
        return subst_assertion(self.body, mapping)


class PredTable(dict):
    @classmethod
    def of(cls, *defs):
        t = cls()
        for d in defs:
            t[d.name] = d
        return t

    def __setitem__(self, name, d):
        if d.name != name:
            raise ValueError(f"key {name!r} does not match predicate name {d.name!r}")
        super().__setitem__(name, d)


# ---------------------------------------------------------------------------
# Quadruples and specification contexts
# ---------------------------------------------------------------------------

FLAVORS = ("SL", "ISL", "ESL")


class ShapeError(ValueError):
    """The quadruple violates the external-specification shape."""


@dataclass(frozen=True)
class Quadruple:
    flavor: str
    fid: str
    params: tuple  # program-variable names of the function
    pre: Assertion
    post_ok: Assertion
    post_err: Assertion

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")

    def check_external_shape(self):
        split_external_pre(self.pre, self.params)
        for post, var in ((self.post_ok, "ret"), (self.post_err, "err")):
            pvs = pv_assertion(post)
            if pvs and pvs != {var}:
                raise ShapeError(
                    f"postcondition may only mention {var!r}, found {sorted(pvs)}"
                )


def split_external_pre(pre: Assertion, params) -> tuple:
    """Decompose an external precondition `x1 = #a1 * .. * xn = #an * P`.

    Returns ({param -> logical variable name}, P). Raises ShapeError when
    the shape is violated (missing equality, duplicate lvars, P with
    program variables).
    """
    from .syntax import Bin, PVar

    mapping = {}
    rest = []
    for part in star_conjuncts(pre):
        if isinstance(part, Bool) and isinstance(part.expr, Bin) and part.expr.op == "=":
            l, r = part.expr.left, part.expr.right
            if isinstance(l, PVar) and isinstance(r, LVar) and l.name in params and l.name not in mapping:
                mapping[l.name] = r.name
                continue
        rest.append(part)
    missing = [x for x in params if x not in mapping]
    if missing:
        raise ShapeError(f"precondition lacks parameter equalities for {missing}")
    if len(set(mapping.values())) != len(mapping):
        raise ShapeError("parameter logical variables are not distinct")
    p = star_all(rest) if rest else Emp()
    if pv_assertion(p):
        raise ShapeError("spatial part of the precondition mentions program variables")
    return mapping, p


class SpecContext(dict):
    """Finite map from function id to a set of quadruples."""

    def add(self, q: Quadruple):
        self.setdefault(q.fid, []).append(q)

    def compatible(self, fid: str, mode) -> list:
        """Specifications usable in the given execution mode, in canonical
        (deterministic) order for oracle indexing."""
        from .engine import Mode

        allowed = {
            Mode.OX: ("SL", "ESL"),
            Mode.UX: ("ISL", "ESL"),
            Mode.EX: ("ESL",),
        }[mode]
        specs = [q for q in self.get(fid, []) if q.flavor in allowed]
        specs.sort(key=lambda q: (q.flavor, format_assertion(normalize(q.pre)),
                                  format_assertion(normalize(q.post_ok)),
                                  format_assertion(normalize(q.post_err))))
        return specs
