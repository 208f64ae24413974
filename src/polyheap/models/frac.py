"""Fractional-ownership heap: cells carry a permission q in (0, 1].

Any permission grants reads; writes and frees need q = 1. Composition
adds permissions of equal-valued cells up to 1. Insufficient permission
on a write/free is a missing-resource outcome (the remainder of the
permission is the missing resource), with its own payload so fixes can
distinguish it from an absent cell.

Concrete permissions are `Fraction` payloads, but the arithmetic on them
(composition, the whole-permission test) is done on their numerators and
denominators, which costs less than `Fraction`'s own operators.
"""

from __future__ import annotations

from fractions import Fraction

from ..assertions import Res
from ..memmodel import (
    Bounds,
    FREED,
    MemoryModelBundle,
    ResourceModel,
    Soundness,
    UnknownActionError,
)
from ..outcomes import MISS, OK
from ..syntax import Bin, InType, InVal, Lit, NIL_E, Not, eq
from ..values import NIL, Rat, UNDEF, is_nat, is_value
from ..evaluation import eval_lexpr
from .maps import (
    MISSING_CELL,
    MapConcrete,
    MapSymbolic,
    absent,
    produce_new,
    without,
)

_SHORT = Lit("InsufficientPermission")
FULL = Lit(Rat(1))
_ONE = Fraction(1)


class FracConcrete(MapConcrete):
    actions = {"lookup": (1, 1), "mutate": (2, 0), "new": (0, 1), "free": (1, 0)}

    def payload_ok(self, v) -> bool:
        if not (isinstance(v, tuple) and len(v) == 2):
            return False
        val, q = v
        return is_value(val) and isinstance(q, Fraction) and 0 < q <= 1

    def join(self, u, v):
        if u is FREED or v is FREED:
            return None
        (val1, q1), (val2, q2) = u, v
        if val1 != val2:
            return None
        d1, d2 = q1.denominator, q2.denominator
        n, d = q1.numerator * d2 + q2.numerator * d1, d1 * d2
        return (val1, Fraction(n, d)) if n <= d else None

    def exec_action(self, mem, name, args, max_addresses):
        if name == "lookup":
            (addr,) = args
            return self._match(mem, addr, "MissingCell", True, lambda v: [(OK, mem, (v[0],))])
        if name == "mutate":
            addr, val = args
            full = (val, _ONE)
            return self._match(
                mem, addr, "MissingCell", True, lambda v: self._whole(mem, addr, v, full)
            )
        if name == "new":
            return self._new(mem, (NIL, _ONE), max_addresses)
        if name == "free":
            (addr,) = args
            return self._match(
                mem, addr, "MissingCell", True, lambda v: self._whole(mem, addr, v, FREED)
            )
        raise UnknownActionError(name)

    def _whole(self, mem, addr, v, new):
        """Writes and frees need the whole permission; the rest of it is
        the missing resource."""
        q = v[1]
        if q.numerator == q.denominator:
            return [(OK, {**mem, addr: new}, ())]
        return [(MISS, mem, ("InsufficientPermission", addr))]

    def split_payload(self, v):
        # left, right, or an exact permission split
        if v is FREED:
            return super().split_payload(v)
        half = (v[0], v[1] / 2)
        return [(v, None), (None, v), (half, half)]

    def payload_states(self, bounds: Bounds):
        states = [FREED]
        for v in bounds.sorted_domain():
            for q in (Fraction(1, 2), Fraction(1)):
                states.append((v, q))
        return states

    def action_cases(self, bounds: Bounds):
        addrs = list(range(bounds.max_addresses + 1))
        vals = bounds.sorted_domain()[:2]
        cases = [("new", ())]
        for a in addrs:
            cases.append(("lookup", (a,)))
            cases.append(("free", (a,)))
            for v in vals:
                cases.append(("mutate", (a, v)))
        cases.append(("lookup", ("x",)))
        return cases

    def payload_values(self, v):
        return (v[0], Rat(v[1]))


class FracResources(ResourceModel):
    arities = {"cell": (2, 1), "freed": (1, 0)}

    def footprint(self, name, ins, outs):
        if name == "cell":
            (addr, q), (val,) = ins, outs
            return {addr: (val, q.q)} if is_nat(addr) and isinstance(q, Rat) else None
        if name == "freed":
            (addr,) = ins
            return {addr: FREED} if is_nat(addr) else None
        return None

    def resource_cases(self, bounds: Bounds):
        addrs = [v for v in bounds.sorted_domain() if is_nat(v)][:3] or [0]
        vals = bounds.sorted_domain()[:3]
        for a in addrs:
            for q in (Rat(1, 2), Rat(1)):
                for v in vals:
                    yield "cell", (a, q), (v,)
            yield "freed", (a,), ()


class FracSymbolic(MapSymbolic):
    fix_resources = {MISSING_CELL: ("cell", 1, 2, 1), _SHORT: ("cell", 1, 2, 1)}

    def payload_exprs(self, v):
        return v

    def eval_payload(self, v, theta):
        val = eval_lexpr(v[0], theta, {})
        qv = eval_lexpr(v[1], theta, {})
        # a Rat is positive, so this is 0 < q <= 1
        if val is UNDEF or type(qv) is not Rat or qv.q.numerator > qv.q.denominator:
            return UNDEF
        return (val, qv.q)

    def lift_payload(self, v, name):
        return (name(v[0]), name(Rat(v[1])))

    def payload_assertions(self, k, v):
        return [Res("cell", (k, v[1]), (v[0],))]

    def exec_action(self, smem, name, args, fresh):
        if name == "lookup":
            (e,) = args
            return self._matching(
                smem, e, MISSING_CELL, None, lambda k, v: [(OK, smem, (eq(e, k),), (v[0],))]
            )
        if name == "mutate":
            e, val = args
            return self._matching(
                smem, e, MISSING_CELL, None, lambda k, v: self._whole(smem, e, k, v, (val, v[1]))
            )
        if name == "new":
            return self._new(smem, (NIL_E, FULL), fresh)
        if name == "free":
            (e,) = args
            return self._matching(
                smem, e, MISSING_CELL, None, lambda k, v: self._whole(smem, e, k, v, FREED)
            )
        raise UnknownActionError(name)

    def _whole(self, smem, e, k, v, new):
        """As the concrete `_whole`, with the permission as a branch guard."""
        val, q = v
        return [
            (OK, {**smem, k: new}, (eq(e, k), eq(q, FULL), InVal(val)), ()),
            (MISS, smem, (eq(e, k), Not(eq(q, FULL))), (_SHORT, e)),
        ]

    def consume_res(self, mode, oracle, name, ins, smem):
        if name == "freed":
            return self._consume_freed(oracle, ins[0], smem, MISSING_CELL)
        e_l, e_q = ins

        def hit(k, v):
            val, q = v
            frame = without(smem, k)
            part = {**frame, k: (val, Bin("-", q, e_q))}
            return [
                # take the whole permission
                (OK, oracle, (val,), (frame, (), (eq(e_l, k), eq(e_q, q), *absent(k, frame)))),
                # take part, leaving the remainder
                (OK, oracle, (val,), (part, (), (eq(e_l, k), Bin("<", e_q, q)))),
            ]

        return self._consume_at(oracle, smem, e_l, MISSING_CELL, hit)

    def produce_res(self, name, ins, outs, smem):
        if name == "freed":
            return produce_new(ins[0], smem, FREED)
        e_l, e_q = ins
        (val,) = outs

        def merge(k, v):
            val2, q2 = v
            total = Bin("+", q2, e_q)
            pc = (eq(e_l, k), eq(val, val2), Bin("<=", total, FULL))
            return [({**smem, k: (val2, total)}, pc)]

        q_ok = (InType(e_q, "rat"), Bin("<=", e_q, FULL))
        return self._produce_at(e_l, smem, (val, e_q), q_ok, merge)


def instantiate_frac() -> MemoryModelBundle:
    return MemoryModelBundle(
        name="frac",
        cmm=FracConcrete(),
        rm=FracResources(),
        smm=FracSymbolic(),
        declared_soundness=Soundness(ox=True, ux=True),
    )
