"""Chunk heap: a multiset of points-to and malloc-block chunks.

Composition is multiset union (total), so the monoid laws are free; the
model is sound for verification only: allocation freshness cannot survive
under-approximate framing when arbitrary chunks can be unioned in.

There are no primitive memory actions in this style of model; the usual
four are wired as consume-then-produce macros over the chunk multiset.
Consume and produce implement unique-match branching.
"""

from __future__ import annotations

import itertools

from ..assertions import Res
from ..memmodel import (
    Bounds,
    ConcreteMemoryModel,
    MemoryModelBundle,
    ResourceModel,
    Soundness,
    SymbolicMemoryModel,
    UnknownActionError,
)
from ..outcomes import ABORT, ERR, MISS, OK
from ..syntax import Bin, InType, InVal, LVar, Lit, NIL_E, Not, eq, format_expr, lv_expr, not_in
from ..values import NIL, UNDEF, is_nat, is_value
from ..evaluation import eval_lexpr


def _skey(chunk):
    from ..syntax import Expr

    return tuple(
        format_expr(e) if isinstance(e, Expr) else repr(e) for e in chunk
    )


def _add(mset: dict, chunk, n: int = 1) -> dict:
    out = dict(mset)
    out[chunk] = out.get(chunk, 0) + n
    return out


def _remove(mset: dict, chunk) -> dict:
    out = dict(mset)
    if out[chunk] == 1:
        del out[chunk]
    else:
        out[chunk] -= 1
    return out


def _chunks_at(mem, kind, addr):
    """The `kind` chunks of a concrete memory at address `addr`."""
    return sorted({c for c in mem if c[0] == kind and c[1] == addr}, key=_skey)


def _used_addresses(mem):
    out = set()
    for kind, a, b in mem:
        out.add(a)
        if kind == "mb":
            out.update(range(a, a + b))
    return out


class ChunkConcrete(ConcreteMemoryModel):
    actions = {"lookup": (1, 1), "mutate": (2, 0), "new": (0, 1), "free": (1, 0)}

    @property
    def empty(self):
        return {}

    def is_wf(self, mem) -> bool:
        if not isinstance(mem, dict):
            return False
        pt_addrs = []
        mb_ranges = []
        for chunk, count in mem.items():
            if not (isinstance(chunk, tuple) and len(chunk) == 3 and count >= 1):
                return False
            kind, a, b = chunk
            if kind == "pt":
                if not is_nat(a) or not is_value(b):
                    return False
                pt_addrs.extend([a] * count)
            elif kind == "mb":
                if not is_nat(a) or not is_nat(b) or b < 1:
                    return False
                mb_ranges.extend([range(a, a + b)] * count)
            else:
                return False
        # chunks are disjoint: one cell owner per address, one block per region
        if len(pt_addrs) != len(set(pt_addrs)):
            return False
        covered = set()
        for r in mb_ranges:
            if covered & set(r):
                return False
            covered.update(r)
        return True

    def compose(self, a, b):
        out = dict(a)
        for chunk, count in b.items():
            out[chunk] = out.get(chunk, 0) + count
        return out if self.is_wf(out) else None

    def exec_action(self, mem, name, args, max_addresses):
        if name in ("lookup", "mutate"):
            addr = args[0]
            if not is_nat(addr):
                return [(ERR, mem, ("Type",))]
            hits = _chunks_at(mem, "pt", addr)
            if not hits:
                return [(MISS, mem, ("MissingCell", addr))]
            if name == "lookup":
                return [(OK, mem, (c[2],)) for c in hits]
            return [
                (OK, _add(_remove(mem, c), ("pt", addr, args[1])), ()) for c in hits
            ]
        if name == "new":
            used = _used_addresses(mem)
            out = []
            n = 0
            while len(out) < max_addresses:
                if n not in used:
                    grown = _add(_add(mem, ("pt", n, NIL)), ("mb", n, 1))
                    out.append((OK, grown, (n,)))
                n += 1
            return out
        if name == "free":
            (addr,) = args
            if not is_nat(addr):
                return [(ERR, mem, ("Type",))]
            blocks = _chunks_at(mem, "mb", addr)
            if not blocks:
                return [(MISS, mem, ("MissingBlock", addr))]
            results = []
            for mb in blocks:
                size = mb[2]
                base = _remove(mem, mb)
                results.extend(self._free_cells(base, mem, addr, size))
            return results
        raise UnknownActionError(name)

    def _free_cells(self, mem, orig, addr, remaining):
        # failed frees have no effect: miss results restore the input memory
        if remaining == 0:
            return [(OK, mem, ())]
        hits = _chunks_at(mem, "pt", addr)
        if not hits:
            return [(MISS, orig, ("MissingCell", addr))]
        out = []
        for c in hits:
            out.extend(self._free_cells(_remove(mem, c), orig, addr + 1, remaining - 1))
        return out

    def enumerate_splits(self, mem):
        chunks = sorted(mem, key=_skey)
        ranges = [range(mem[c] + 1) for c in chunks]
        for counts in itertools.product(*ranges):
            left = {c: n for c, n in zip(chunks, counts) if n}
            right = {c: mem[c] - n for c, n in zip(chunks, counts) if mem[c] - n}
            yield left, right

    def generator(self, bounds: Bounds):
        vals = bounds.sorted_domain()[:2]
        addrs = range(bounds.max_addresses)
        chunk_kinds = []
        for a in addrs:
            for v in vals:
                chunk_kinds.append(("pt", a, v))
            chunk_kinds.append(("mb", a, 1))
            chunk_kinds.append(("mb", a, 2))
        for size in range(min(bounds.max_cells, 3) + 1):
            for combo in itertools.combinations(chunk_kinds, size):
                mem = {c: 1 for c in combo}
                if self.is_wf(mem):
                    yield mem

    def action_cases(self, bounds: Bounds):
        cases = [("new", ())]
        vals = bounds.sorted_domain()[:2]
        for a in range(bounds.max_addresses + 1):
            cases.append(("lookup", (a,)))
            cases.append(("free", (a,)))
            for v in vals:
                cases.append(("mutate", (a, v)))
        cases += [("lookup", ("x",)), ("mutate", ("x", 0)), ("free", ("x",))]
        return cases

    def mem_values(self, mem):
        out = set()
        for kind, a, b in mem:
            out.add(a)
            out.add(b)
        return out

    def addr_span(self, mem) -> int:
        return len(_used_addresses(mem))


class ChunkResources(ResourceModel):
    arities = {"pt": (1, 1), "mb": (1, 1)}

    def footprint(self, name, ins, outs):
        if name == "pt":
            (addr,), (val,) = ins, outs
            return {("pt", addr, val): 1} if is_nat(addr) else None
        if name == "mb":
            (addr,), (size,) = ins, outs
            return {("mb", addr, size): 1} if is_nat(addr) and is_nat(size) and size >= 1 else None
        return None

    def resource_cases(self, bounds: Bounds):
        vals = bounds.sorted_domain()[:2]
        for a in (0, 1):
            for v in vals:
                yield "pt", (a,), (v,)
            yield "mb", (a,), (1,)
            yield "mb", (a,), (2,)


class ChunkSymbolic(SymbolicMemoryModel):
    @property
    def empty(self):
        return {}

    def lvars(self, smem) -> frozenset:
        out = frozenset()
        for kind, a, b in smem:
            out |= lv_expr(a) | lv_expr(b)
        return out

    def pure_facts(self, smem) -> list:
        """Every chunk starts at a natural; a points-to chunk holds a value
        and starts where no other one does; a block has a positive size."""
        out = []
        for kind, a, b in smem:
            out.append(InType(a, "nat"))
            if kind == "pt":
                out.append(InVal(b))
            else:
                out += [InType(b, "nat"), Bin("<=", Lit(1), b)]
        pts = [c[1] for c in smem if c[0] == "pt"]
        return out + [Not(eq(a1, a2)) for a1, a2 in itertools.combinations(pts, 2)]

    def concretize(self, theta, smem):
        out = {}
        for (kind, a, b), count in smem.items():
            av = eval_lexpr(a, theta, {})
            bv = eval_lexpr(b, theta, {})
            if not is_nat(av) or bv is UNDEF:
                return None
            if kind == "mb" and not (is_nat(bv) and bv >= 1):
                return None
            chunk = (kind, av, bv)
            out[chunk] = out.get(chunk, 0) + count
        return out if ChunkConcrete().is_wf(out) else None

    def _chunks(self, smem, kind):
        return sorted((c for c in smem if c[0] == kind), key=_skey)

    def _absent(self, smem, e, kind, tag):
        """The miss branch (`e` is a natural that no `kind` chunk starts at)
        and the type error (`e` is not a natural) of an action at `e`."""
        addrs = [c[1] for c in self._chunks(smem, kind)]
        return [
            (MISS, smem, (InType(e, "nat"), *not_in(e, addrs)), (Lit(tag), e)),
            (ERR, smem, (Not(InType(e, "nat")),), (Lit("Type"),)),
        ]

    def exec_action(self, smem, name, args, fresh):
        if name == "lookup":
            (e,) = args
            out = [
                (OK, smem, (eq(e, c[1]),), (c[2],)) for c in self._chunks(smem, "pt")
            ]
            return out + self._absent(smem, e, "pt", "MissingCell")
        if name == "mutate":
            e, val = args
            out = []
            for c in self._chunks(smem, "pt"):
                grown = _add(_remove(smem, c), ("pt", c[1], val))
                out.append((OK, grown, (eq(e, c[1]), InVal(c[2])), ()))
            return out + self._absent(smem, e, "pt", "MissingCell")
        if name == "new":
            x = LVar(fresh())
            grown = _add(_add(smem, ("pt", x, NIL_E)), ("mb", x, Lit(1)))
            return [(OK, grown, (InVal(x),), (x,))]
        if name == "free":
            (e,) = args
            return self._free(smem, e)
        raise UnknownActionError(name)

    def _free(self, smem, e):
        out = []
        for mb in self._chunks(smem, "mb"):
            if not (isinstance(mb[2], Lit) and is_nat(mb[2].value)):
                out.append((ABORT, smem, (eq(e, mb[1]),), (Lit("NonConstantSize"), e)))
                continue
            base = _remove(smem, mb)
            out.extend(
                self._free_cells(base, smem, e, mb[1], (eq(e, mb[1]),), mb[2].value, 0)
            )
        return out + self._absent(smem, e, "mb", "MissingBlock")

    def _free_cells(self, mem, orig, e, base_addr, pc, size, i):
        if i == size:
            return [(OK, mem, pc, ())]
        offset = base_addr if i == 0 else Bin("+", base_addr, Lit(i))
        out = []
        pts = sorted((c for c in mem if c[0] == "pt"), key=_skey)
        for c in pts:
            out.extend(
                self._free_cells(
                    _remove(mem, c), orig, e, base_addr, pc + (eq(offset, c[1]),), size, i + 1
                )
            )
        out.append(
            (
                MISS,
                orig,
                tuple(list(pc) + [InType(offset, "nat")] + not_in(offset, [c[1] for c in pts])),
                (Lit("MissingCell"), offset),
            )
        )
        return out

    def consume_res(self, mode, oracle, name, ins, smem):
        (e,) = ins
        out = []
        for c in self._chunks(smem, name):
            cond = (eq(e, c[1]),)
            out.append((OK, oracle, (c[2],), (_remove(smem, c), cond, cond)))
        out.append(
            (
                ABORT,
                oracle,
                (Lit("MissingCell" if name == "pt" else "MissingBlock"), e),
                (smem, (), tuple(not_in(e, [c[1] for c in self._chunks(smem, name)]))),
            )
        )
        return out

    def produce_res(self, name, ins, outs, smem):
        return [(_add(smem, (name, ins[0], outs[0])), ())]

    def mem_to_assertion(self, smem) -> list:
        parts = []
        for chunk in sorted(smem, key=_skey):
            for _ in range(smem[chunk]):
                parts.append(Res(chunk[0], (chunk[1],), (chunk[2],)))
        return parts

    def lift(self, mem, fresh, ground: bool):
        smem, theta = {}, {}
        for chunk in sorted(mem, key=_skey):
            kind, a, b = chunk
            for _ in range(mem[chunk]):
                if ground:
                    key = (kind, Lit(a), Lit(b))
                    smem[key] = smem.get(key, 0) + 1
                else:
                    ka, kb = fresh(), fresh()
                    theta[ka] = a
                    theta[kb] = b
                    key = (kind, LVar(ka), LVar(kb))
                    smem[key] = smem.get(key, 0) + 1
        return smem, theta

    fixes = None


def instantiate_chunks() -> MemoryModelBundle:
    return MemoryModelBundle(
        name="chunks",
        cmm=ChunkConcrete(),
        rm=ChunkResources(),
        smm=ChunkSymbolic(),
        declared_soundness=Soundness(ox=True, ux=False),
    )
