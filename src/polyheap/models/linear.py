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
from ..outcomes import ERR, OK
from ..syntax import InVal, NIL_E, eq
from ..values import NIL, is_nat, is_value
from .maps import (
    MISSING_CELL,
    MapConcrete,
    MapSymbolic,
    bipartitions,
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
            return self._new(mem, NIL, max_addresses)
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
    fix_resources = {MISSING_CELL: ("cell", 1, 1, 1)}

    def __init__(self, variant: str = "exact"):
        assert variant in ("exact", "unique", "cut", "noneg")
        self.variant = variant
        self.track_freed = variant != "noneg"
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
            return self._overwrite(smem, e, lambda k: {**smem, k: val})
        if name == "new":
            return self._new(smem, NIL_E, fresh)
        if name == "free":
            (e,) = args
            if self.track_freed:
                return self._overwrite(smem, e, lambda k: {**smem, k: FREED})
            return self._overwrite(smem, e, lambda k: without(smem, k))
        raise UnknownActionError(name)

    def _overwrite(self, smem, e, after):
        """Mutate or free of the cell at `e`, leaving `after(k)` for the
        entry at key `k`. noneg mirrors the traditional verification-only
        model: it drops the evaluation information of the overwritten value."""

        def hit(k, v):
            pc = (eq(e, k),) if self.variant == "noneg" else (eq(e, k), InVal(v))
            return [(OK, after(k), pc, ())]

        return self._matching(smem, e, MISSING_CELL, None, hit)

    def _order(self, branches):
        # every hit before every use-after-free; cut keeps the first of each
        hits = [b for b in branches if b[0] is OK]
        uafs = [b for b in branches if b[0] is ERR]
        if self.variant == "cut":
            return hits[:1] + uafs[:1]
        return hits + uafs

    # consume / produce -------------------------------------------------------

    def consume_res(self, mode, oracle, name, ins, smem):
        (e,) = ins
        freed = name == "freed"

        def hit(k, v):
            cond = (eq(e, k),)
            checks = cond if self.variant == "unique" else ()
            return [(OK, oracle, () if freed else (v,), (without(smem, k), checks, cond))]

        # every match before every abort and the missing branch; cut takes
        # one match, chosen by the oracle
        out = self._consume_at(oracle, smem, e, MISSING_CELL, hit, freed)
        matches = [b for b in out if b[0] is OK]
        if self.variant == "cut" and matches:
            (_, _, outs, after), oracle2 = oracle.pick(matches)
            matches = [(OK, oracle2, outs, after)]
        return matches + [b for b in out if b[0] is not OK]

    def produce_res(self, name, ins, outs, smem):
        return produce_new(ins[0], smem, outs[0] if name == "cell" else FREED)


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
