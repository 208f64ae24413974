"""The assertion satisfaction relation, decided by brute force.

`holds` implements the relation between an interpretation, a concrete
state and an assertion. Separating conjunction enumerates the model's
heap splittings; existential quantification enumerates a bounded witness
domain (the bounds' value domain plus values occurring in the state);
user-defined predicates unfold their bodies with a depth budget.
`pure_conjuncts` gives the pure conjuncts of a star, a necessary condition
that callers such as `quadcheck` evaluate once per interpretation before
they enumerate heaps; `holds` itself still checks them on every split.
`footprint` gives the one heap on which a star of pure conjuncts, `emp`
and resources can hold (every resource is precise), so `heap_models` and
`quadcheck` call `holds` only on that heap, at each of the positions the
model's generator gives it (`positions`); for any other assertion it is
UNKNOWN and they visit every generated heap.

This module is the ground-truth side of every dual-route check in the
toolkit, so it deliberately stays independent of the symbolic engine and
of consume/produce.
"""

from __future__ import annotations

from .assertions import (
    Assertion,
    Bool,
    Emp,
    Exists,
    Implies,
    Or,
    Pred,
    Res,
    Star,
    TrueA,
    star_conjuncts,
)
from .evaluation import eval_lexpr
from .memmodel import Bounds
from .values import TRUE, UNDEF


class DepthExceeded(Exception):
    """Recursive predicate unfolding ran out of depth; treat as unknown."""


def holds(
    theta: dict,
    store: dict,
    mem,
    assertion: Assertion,
    *,
    cmm,
    rm,
    preds=None,
    bounds: Bounds = None,
    depth: int = 4,
) -> bool:
    preds = preds if preds is not None else {}
    bounds = bounds if bounds is not None else Bounds()
    if isinstance(assertion, Bool):
        return mem == cmm.empty and eval_lexpr(assertion.expr, theta, store) is TRUE
    if isinstance(assertion, TrueA):
        return cmm.is_wf(mem)
    if isinstance(assertion, Emp):
        return mem == cmm.empty
    if isinstance(assertion, Implies):
        if not holds(theta, store, mem, assertion.left, cmm=cmm, rm=rm, preds=preds, bounds=bounds, depth=depth):
            return True
        return holds(theta, store, mem, assertion.right, cmm=cmm, rm=rm, preds=preds, bounds=bounds, depth=depth)
    if isinstance(assertion, Or):
        return holds(theta, store, mem, assertion.left, cmm=cmm, rm=rm, preds=preds, bounds=bounds, depth=depth) or holds(
            theta, store, mem, assertion.right, cmm=cmm, rm=rm, preds=preds, bounds=bounds, depth=depth
        )
    if isinstance(assertion, Exists):
        for v in witness_domain(store, mem, cmm, bounds):
            t2 = {**theta, assertion.var: v}
            if holds(t2, store, mem, assertion.body, cmm=cmm, rm=rm, preds=preds, bounds=bounds, depth=depth):
                return True
        return False
    if isinstance(assertion, Star):
        for m1, m2 in cmm.enumerate_splits(mem):
            if holds(theta, store, m1, assertion.left, cmm=cmm, rm=rm, preds=preds, bounds=bounds, depth=depth) and holds(
                theta, store, m2, assertion.right, cmm=cmm, rm=rm, preds=preds, bounds=bounds, depth=depth
            ):
                return True
        return False
    if isinstance(assertion, Res):
        ins = [eval_lexpr(e, theta, store) for e in assertion.ins]
        outs = [eval_lexpr(e, theta, store) for e in assertion.outs]
        if any(v is UNDEF for v in ins + outs):
            return False
        return rm.holds_resource(mem, assertion.name, tuple(ins), tuple(outs))
    if isinstance(assertion, Pred):
        if depth <= 0:
            raise DepthExceeded(assertion.name)
        d = preds[assertion.name]
        body = d.instantiate(assertion.ins, assertion.outs)
        return holds(theta, store, mem, body, cmm=cmm, rm=rm, preds=preds, bounds=bounds, depth=depth - 1)
    raise TypeError(f"not an assertion: {assertion!r}")


def pure_conjuncts(assertion: Assertion) -> list:
    """The expressions of the `Bool` leaves at the top of a `Star` tree.

    A `Bool` leaf holds only when its expression is TRUE, and a star holds
    only when every leaf holds on its part of some split, so each of these
    must be TRUE for `assertion` to hold on any heap. That is a necessary
    condition which reads no heap and needs no PCM law."""
    return [a.expr for a in star_conjuncts(assertion) if isinstance(a, Bool)]


class _Unknown:
    __slots__ = ()

    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = _Unknown()


def footprint(theta: dict, store: dict, assertion: Assertion, cmm, rm):
    """The one heap on which `assertion` can hold under theta and store,
    None when it holds on no heap, or UNKNOWN.

    A star of `Bool`, `Emp` and `Res` leaves is precise: a `Bool` or `Emp`
    leaf holds only on `cmm.empty`, a resource only on its model's
    footprint, and a star only on the composition of its parts' heaps,
    because every split of a heap composes back to it. An UNDEF argument or
    an undefined composition leaves no heap. Any other connective (a
    predicate, `Exists`, `Or`, `Implies`, `True`) makes the whole star
    UNKNOWN, so a caller then visits every heap and `holds` meets every
    predicate unfolding it met before. The footprint only says which heap
    to try: `holds` still decides it."""
    leaves = star_conjuncts(assertion)
    if not all(isinstance(a, (Bool, Emp, Res)) for a in leaves):
        return UNKNOWN
    return _star_footprint(theta, store, assertion, cmm, rm)


def _star_footprint(theta, store, a, cmm, rm):
    if isinstance(a, Star):
        left = _star_footprint(theta, store, a.left, cmm, rm)
        right = _star_footprint(theta, store, a.right, cmm, rm)
        return None if left is None or right is None else cmm.compose(left, right)
    if isinstance(a, Res):
        ins = tuple(eval_lexpr(e, theta, store) for e in a.ins)
        outs = tuple(eval_lexpr(e, theta, store) for e in a.outs)
        if any(v is UNDEF for v in ins + outs):
            return None
        return rm.footprint(a.name, ins, outs)
    return cmm.empty


def may_hold(fp, mem) -> bool:
    """`mem` is a heap on which an assertion with footprint `fp` may hold."""
    return fp is UNKNOWN or mem == fp


def witness_domain(store, mem, cmm, bounds: Bounds) -> list:
    return bounds.domain_with((v for v in store.values() if v is not UNDEF), cmm.mem_values(mem))


def heap_models(theta, store, assertion, *, cmm, rm, preds=None, bounds=None, depth=4):
    """All generated heaps satisfying the assertion under theta, in
    generator order. An assertion with a footprint holds at most on that
    heap, so it is returned once for each time the generator yields it
    (`cmm.positions`) when `holds` accepts it; only an assertion without
    one makes the generator run."""
    bounds = bounds if bounds is not None else Bounds()
    fp = footprint(theta, store, assertion, cmm, rm)
    if fp is None:
        return []
    if fp is not UNKNOWN:
        n = len(cmm.positions(fp, bounds))
        ok = n and holds(theta, store, fp, assertion, cmm=cmm, rm=rm, preds=preds, bounds=bounds, depth=depth)
        return [fp] * n if ok else []
    return [
        mem
        for mem in cmm.generator(bounds)
        if holds(theta, store, mem, assertion, cmm=cmm, rm=rm, preds=preds, bounds=bounds, depth=depth)
    ]
