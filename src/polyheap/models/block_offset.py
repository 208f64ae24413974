"""Block-offset heap for C: block ids map to partial arrays with an
optional size bound.

Blocks may be partial (missing cells, missing bound), which is what makes
the model compositional: resources are single cells, the bound knowledge,
and the freed marker. Empty block entries (no cells, no bound) are
ill-formed; allowing them breaks the frame properties around allocation
and deallocation.
"""

from __future__ import annotations

from ..assertions import Res
from ..memmodel import (
    Bounds,
    FREED,
    MemoryModelBundle,
    ResourceModel,
    Soundness,
    UnknownActionError,
)
from ..outcomes import ABORT, ERR, MISS, OK
from ..syntax import Bin, InType, InVal, Lit, NIL_E, Not, eq, not_in
from ..values import NIL, UNDEF, is_nat, is_value
from ..evaluation import eval_lexpr
from .maps import (
    MISSING_CELL,
    TYPE,
    NestedConcrete,
    NestedSymbolic,
    produce_new,
    sorted_exprs,
)

_MISSING_BLOCK = Lit("MissingBlock")
_MISSING_BOUND = Lit("MissingBound")


def _fits(cells: dict, bound) -> bool:
    return all(i < bound for i in cells)


class BlockConcrete(NestedConcrete):
    actions = {"lookup": (2, 1), "new": (1, 1), "free": (1, 0)}
    fits = staticmethod(_fits)

    def inner_ok(self, o, v) -> bool:
        return is_nat(o) and is_value(v)

    def know_ok(self, bound) -> bool:
        return is_nat(bound)

    def know_values(self, bound):
        return (bound,)

    def exec_action(self, mem, name, args, max_addresses):
        if name == "lookup":
            nb, no = args
            return self._match(
                mem, nb, "MissingBlock", is_nat(no), lambda blk: self._lookup(mem, nb, no, *blk)
            )
        if name == "new":
            (n,) = args
            if not is_nat(n):
                return [(ERR, mem, ("Type",))]
            return self._new(mem, ({i: NIL for i in range(n)}, n), max_addresses)
        if name == "free":
            (nb,) = args
            return self._match(
                mem, nb, "MissingBlock", True, lambda blk: self._free(mem, nb, *blk)
            )
        raise UnknownActionError(name)

    def _lookup(self, mem, nb, no, cells, bound):
        if no in cells:
            return [(OK, mem, (cells[no],))]
        if bound is None or no < bound:
            return [(MISS, mem, ("MissingCell", nb, no))]
        return [(ERR, mem, ("OutOfBounds", nb, no))]

    def _free(self, mem, nb, cells, bound):
        if bound is None:
            return [(MISS, mem, ("MissingBound", nb))]
        if len(cells) != bound:
            return [(MISS, mem, ("MissingCells", nb))]
        return [(OK, {**mem, nb: FREED}, ())]

    def payload_states(self, bounds: Bounds):
        vals = bounds.sorted_domain()[:3]
        offsets = (0, 1)
        cell_maps = [{}]
        for o in offsets:
            cell_maps.extend({o: v} for v in vals)
        for v1 in vals:
            for v2 in vals:
                cell_maps.append({0: v1, 1: v2})
        return [FREED] + self.entries_over(cell_maps, (None, 1, 2))

    def weight(self, blk) -> int:
        return 1 if blk is FREED else len(blk[0])

    def action_cases(self, bounds: Bounds):
        cases = [("new", (0,)), ("new", (1,)), ("new", (2,)), ("new", ("x",))]
        for nb in range(min(bounds.max_addresses, 2) + 1):
            cases.append(("free", (nb,)))
            for no in (0, 1, 2):
                cases.append(("lookup", (nb, no)))
        cases.append(("lookup", ("x", 0)))
        cases.append(("lookup", (0, "x")))
        cases.append(("free", ("x",)))
        return cases


class BlockResources(ResourceModel):
    arities = {"cell": (2, 1), "bound": (1, 1), "freed": (1, 0)}

    def footprint(self, name, ins, outs):
        if name == "cell":
            (nb, no), (v,) = ins, outs
            return {nb: ({no: v}, None)} if is_nat(nb) and is_nat(no) else None
        if name == "bound":
            (nb,), (n,) = ins, outs
            return {nb: ({}, n)} if is_nat(nb) and is_nat(n) else None
        if name == "freed":
            (nb,) = ins
            return {nb: FREED} if is_nat(nb) else None
        return None

    def resource_cases(self, bounds: Bounds):
        vals = bounds.sorted_domain()[:2]
        for nb in (0, 1):
            for no in (0, 1):
                for v in vals:
                    yield "cell", (nb, no), (v,)
            for n in (1, 2):
                yield "bound", (nb,), (n,)
            yield "freed", (nb,), ()


class BlockSymbolic(NestedSymbolic):
    """Symbolic lifting: expr block ids, expr offsets/values, expr bound.

    The denotation is strictly disjoint, as in the linear model: distinct
    symbolic entries denote distinct concrete blocks, and `concretize`
    returns None when two of them evaluate to the same block id.
    """

    fits = staticmethod(_fits)
    inner_key_ok = staticmethod(is_nat)
    fix_resources = {
        _MISSING_BLOCK: ("cell", 1, 2, 1),
        MISSING_CELL: ("cell", 2, 2, 1),
        _MISSING_BOUND: ("bound", 1, 1, 1),
        Lit("MissingCells"): ("cell", 1, 2, 1),
    }

    def eval_know(self, bound, theta):
        b = eval_lexpr(bound, theta, {})
        return b if is_nat(b) else UNDEF

    def know_exprs(self, bound):
        return (bound,)

    def lift_know(self, bound):
        return Lit(bound)

    def payload_assertions(self, k, blk):
        cells, bound = blk
        parts = [Res("cell", (k, o), (cells[o],)) for o in sorted_exprs(cells)]
        if bound is not None:
            parts.append(Res("bound", (k,), (bound,)))
        return parts

    def exec_action(self, smem, name, args, fresh):
        if name == "lookup":
            eb, eo = args
            return self._lookup(smem, eb, eo)
        if name == "new":
            (en,) = args
            if isinstance(en, Lit) and is_nat(en.value):
                return self._new(smem, ({Lit(i): NIL_E for i in range(en.value)}, en), fresh)
            if isinstance(en, Lit):
                return [(ERR, smem, (), (TYPE,))]
            # dynamically sized allocations cannot be represented
            return [(ABORT, smem, (), (Lit("NonConstantAlloc"), en))]
        if name == "free":
            (eb,) = args
            return self._free(smem, eb)
        raise UnknownActionError(name)

    def _lookup(self, smem, eb, eo):
        def hit(k, blk):
            cells, bound = blk
            offs = sorted_exprs(cells)
            out = [(OK, smem, (eq(eb, k), eq(eo, o)), (cells[o],)) for o in offs]
            miss_pc = (eq(eb, k), InType(eo, "nat"), *not_in(eo, offs))
            if bound is None:
                return out + [(MISS, smem, miss_pc, (MISSING_CELL, eb, eo))]
            inside = Bin("<", eo, bound)
            return out + [
                (MISS, smem, (*miss_pc, inside), (MISSING_CELL, eb, eo)),
                (ERR, smem, (*miss_pc, Not(inside)), (Lit("OutOfBounds"), eb, eo)),
            ]

        return self._matching(smem, eb, _MISSING_BLOCK, InType(eo, "nat"), hit)

    def _free(self, smem, eb):
        def hit(k, blk):
            cells, bound = blk
            if bound is None:
                return [(MISS, smem, (eq(eb, k),), (_MISSING_BOUND, eb))]
            size = Lit(len(cells))
            guards = [InVal(v) for v in cells.values()]
            return [
                (
                    OK,
                    {**smem, k: FREED},
                    tuple([eq(eb, k), eq(size, bound)] + guards),
                    (),
                ),
                (MISS, smem, (eq(eb, k), Not(eq(size, bound))), (Lit("MissingCells"), eb)),
            ]

        return self._matching(smem, eb, _MISSING_BLOCK, None, hit)

    # consume / produce --------------------------------------------------------

    def consume_res(self, mode, oracle, name, ins, smem):
        eb = ins[0]
        if name == "freed":
            return self._consume_freed(oracle, eb, smem, _MISSING_BLOCK)
        if name == "bound":

            def take_bound(k, blk):
                if blk[1] is None:
                    return []
                frame, pc = self._take_know(smem, k)
                return [(OK, oracle, (blk[1],), (frame, (), (eq(eb, k), *pc)))]

            return self._consume_at(oracle, smem, eb, _MISSING_BOUND, take_bound)
        return self._consume_inner(oracle, smem, eb, ins[1], _MISSING_BLOCK, MISSING_CELL)

    def produce_res(self, name, ins, outs, smem):
        eb = ins[0]
        if name == "freed":
            return produce_new(eb, smem, FREED)
        if name == "bound":
            return self._produce_know(eb, outs[0], smem)
        eo, (v,) = ins[1], outs

        def merge(k, blk):
            cells, bound = blk
            return [] if eo in cells else [({**smem, k: ({**cells, eo: v}, bound)}, (eq(eb, k),))]

        return self._produce_at(eb, smem, ({eo: v}, None), (), merge)


def instantiate_block_offset() -> MemoryModelBundle:
    return MemoryModelBundle(
        name="block-offset",
        cmm=BlockConcrete(),
        rm=BlockResources(),
        smm=BlockSymbolic(),
        declared_soundness=Soundness(ox=True, ux=True),
    )
