"""Linear heap models: finite maps from addresses to values.

Four variants of the same carrier, differing in negative-information
tracking and in how multiple matches branch:

  exact   - freed markers kept, consume branches over every match
  unique  - freed markers kept, consume applicable only when the match is
            entailed by the consuming state
  cut     - an oracle picks a single match; sound for bug-finding only
  noneg   - no freed markers (free deletes the cell); sound for
            verification only, and free to drop information
"""

from __future__ import annotations

from ..assertions import Res
from ..evaluation import eval_lexpr
from ..memmodel import (
    Bounds,
    FREED,
    MemoryModelBundle,
    ResourceModel,
    Soundness,
    UnknownActionError,
)
from ..outcomes import ABORT, ERR, OK
from ..syntax import InVal, LVar, NIL_E, eq
from ..values import NIL, is_nat, is_value
from .maps import (
    MISSING_CELL,
    MapConcrete,
    MapSymbolic,
    bipartitions,
    fresh_addresses,
    missing,
    produce_new,
    without,
)


class LinearConcrete(MapConcrete):
    actions = {"lookup": (1, 1), "mutate": (2, 0), "new": (0, 1), "free": (1, 0)}

    def __init__(self, track_freed: bool = True):
        self.track_freed = track_freed

    def payload_ok(self, v) -> bool:
        return is_value(v)

    def exec_action(self, mem, name, args, max_addresses):
        if name == "lookup":
            (addr,) = args
            return self._match(mem, addr, "MissingCell", True, lambda v: [(OK, mem, (v,))])
        if name == "mutate":
            addr, val = args
            return self._match(
                mem, addr, "MissingCell", True, lambda v: [(OK, {**mem, addr: val}, ())]
            )
        if name == "new":
            return [
                (OK, {**mem, n: NIL}, (n,))
                for n in fresh_addresses(mem, max_addresses)
            ]
        if name == "free":
            (addr,) = args

            def freed(v):
                if self.track_freed:
                    return [(OK, {**mem, addr: FREED}, ())]
                return [(OK, without(mem, addr), ())]

            return self._match(mem, addr, "MissingCell", True, freed)
        raise UnknownActionError(name)

    def enumerate_splits(self, mem):
        return bipartitions(mem)

    def payload_states(self, bounds: Bounds):
        states = list(bounds.sorted_domain())
        if self.track_freed:
            states.append(FREED)
        return states

    def action_cases(self, bounds: Bounds):
        addrs = list(range(bounds.max_addresses + 1))
        vals = bounds.sorted_domain()[:3]
        junk = next((v for v in bounds.sorted_domain() if not is_nat(v)), "x")
        cases = [("new", ())]
        for a in addrs:
            cases.append(("lookup", (a,)))
            cases.append(("free", (a,)))
            for v in vals:
                cases.append(("mutate", (a, v)))
        cases.append(("lookup", (junk,)))
        cases.append(("mutate", (junk, 0)))
        cases.append(("free", (junk,)))
        return cases

    def payload_values(self, v):
        return (v,)


class LinearResources(ResourceModel):
    def __init__(self, track_freed: bool = True):
        self.track_freed = track_freed
        self.arities = {"cell": (1, 1)}
        if track_freed:
            self.arities["freed"] = (1, 0)

    def footprint(self, name, ins, outs):
        if name == "cell":
            (addr,), (val,) = ins, outs
            return {addr: val} if is_nat(addr) else None
        if name == "freed" and self.track_freed:
            (addr,) = ins
            return {addr: FREED} if is_nat(addr) else None
        return None


class LinearSymbolic(MapSymbolic):
    def __init__(self, variant: str = "exact"):
        assert variant in ("exact", "unique", "cut", "noneg")
        self.variant = variant
        self.track_freed = variant != "noneg"
        # noneg mirrors the traditional verification-only model: it drops
        # the evaluation information of overwritten cells
        self.keep_info = variant != "noneg"
        if variant == "noneg":
            # verification only: no bi-abductive fixes
            self.fixes = None

    def payload_exprs(self, v):
        return (v,)

    def eval_payload(self, v, theta):
        return eval_lexpr(v, theta, {})

    def lift_payload(self, v, name):
        return name(v)

    def payload_assertions(self, k, v):
        return [Res("cell", (k,), (v,))]

    def exec_action(self, smem, name, args, fresh):
        if name == "lookup":
            (e,) = args
            return self._matching(
                smem, e, MISSING_CELL, None, lambda k, v: [(OK, smem, (eq(e, k),), (v,))]
            )
        if name == "mutate":
            e, val = args

            def hit(k, v):
                pc = [eq(e, k)]
                if self.keep_info:
                    pc.append(InVal(v))
                return [(OK, {**smem, k: val}, tuple(pc), ())]

            return self._matching(smem, e, MISSING_CELL, None, hit)
        if name == "new":
            x = LVar(fresh())
            return [(OK, {**smem, x: NIL_E}, (InVal(x),), (x,))]
        if name == "free":
            (e,) = args

            def hit(k, v):
                pc = [eq(e, k)]
                if self.keep_info:
                    pc.append(InVal(v))
                mem = {**smem, k: FREED} if self.track_freed else without(smem, k)
                return [(OK, mem, tuple(pc), ())]

            return self._matching(smem, e, MISSING_CELL, None, hit)
        raise UnknownActionError(name)

    def _order(self, branches):
        # every hit before every use-after-free; cut keeps the first of each
        hits = [b for b in branches if b[0] is OK]
        uafs = [b for b in branches if b[0] is ERR]
        if self.variant == "cut":
            return hits[:1] + uafs[:1]
        return hits + uafs

    # consume / produce -------------------------------------------------------

    def consume_res(self, mode, oracle, name, ins, smem):
        want_freed = name == "freed"
        (e,) = ins
        matches = [
            (k, v) for k, v in self._entries(smem) if (v is FREED) == want_freed
        ]
        wrong = [(k, v) for k, v in self._entries(smem) if (v is FREED) != want_freed]
        out = []
        if self.variant == "cut":
            if matches:
                (k, v), oracle2 = oracle.pick(matches)
                outs = () if want_freed else (v,)
                out.append((OK, oracle2, outs, (without(smem, k), (), (eq(e, k),))))
        else:
            check = self.variant == "unique"
            for k, v in matches:
                outs = () if want_freed else (v,)
                cond = (eq(e, k),)
                out.append((OK, oracle, outs, (without(smem, k), cond if check else (), cond)))
        for k, v in wrong:
            out.append((ABORT, oracle, (), (smem, (), (eq(e, k),))))
        out.append(missing(oracle, smem, MISSING_CELL, e))
        return out

    def produce_res(self, name, ins, outs, smem):
        return produce_new(ins[0], smem, outs[0] if name == "cell" else FREED)

    def fixes(self, payload, state, fresh):
        if len(payload) == 2 and payload[0] == MISSING_CELL:
            return [Res("cell", (payload[1],), (LVar(fresh()),))]
        return []


def instantiate_linear(variant: str = "exact") -> MemoryModelBundle:
    names = {
        "exact": "linear",
        "unique": "linear-unique",
        "cut": "linear-cut",
        "noneg": "linear-ox",
    }
    if variant not in names:
        raise ValueError(f"unknown linear variant {variant!r}")
    track = variant != "noneg"
    sound = {
        "exact": Soundness(ox=True, ux=True),
        "unique": Soundness(ox=True, ux=True),
        "cut": Soundness(ox=False, ux=True),
        "noneg": Soundness(ox=True, ux=False),
    }[variant]
    return MemoryModelBundle(
        name=names[variant],
        cmm=LinearConcrete(track),
        rm=LinearResources(track),
        smm=LinearSymbolic(variant),
        declared_soundness=sound,
    )
