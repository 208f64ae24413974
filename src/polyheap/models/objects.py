"""Object heap for dynamic languages: objects map string fields to values.

Reading a field that was never set (or was deleted) yields nil, mirroring
how dynamic languages evaluate absent properties. To keep the frame
properties, unset/deleted fields are marked rather than removed, and an
optional domain set records which fields may be set at all: absence from
the domain set is positive knowledge that a field is unset.

Resources: field(o, f; v), unset(o, f;), domain(o, fields-list;).
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
from ..outcomes import ABORT, MISS, OK
from ..syntax import InType, InVal, Lit, LstE, NIL_E, eq, not_in
from ..values import NIL, UNDEF, is_nat, is_string, is_value
from ..evaluation import eval_lexpr
from .maps import (
    NestedConcrete,
    NestedSymbolic,
    one_of,
    sorted_exprs,
)

_MISSING_FIELD = Lit("MissingField")
_MISSING_OBJECT = Lit("MissingObject")


def _fits(fields: dict, dom) -> bool:
    return set(fields) <= dom


class ObjectConcrete(NestedConcrete):
    actions = {"newObj": (0, 1), "lookup": (2, 1), "mutate": (3, 0), "deleteField": (2, 0)}
    track_freed = False
    fits = staticmethod(_fits)

    def inner_ok(self, f, v) -> bool:
        return is_string(f) and (v is FREED or is_value(v))

    def know_ok(self, dom) -> bool:
        return isinstance(dom, frozenset) and all(is_string(f) for f in dom)

    def know_values(self, dom):
        return dom

    def exec_action(self, mem, name, args, max_addresses):
        if name == "newObj":
            return self._new(mem, ({}, frozenset()), max_addresses)
        if name == "lookup":
            o, f = args
            return self._with_field(mem, o, f, self._read)
        if name == "mutate":
            o, f, v = args
            return self._with_field(mem, o, f, lambda *a: self._write(v, *a))
        if name == "deleteField":
            o, f = args
            return self._with_field(mem, o, f, lambda *a: self._write(FREED, *a))
        raise UnknownActionError(name)

    def _with_field(self, mem, o, f, k):
        return self._match(mem, o, "MissingObject", is_string(f), lambda e: k(mem, o, f, *e))

    def _read(self, mem, o, f, fields, dom):
        if f in fields:
            v = fields[f]
            return [(OK, mem, (NIL if v is FREED else v,))]
        if dom is not None and f not in dom:
            return [(OK, mem, (NIL,))]
        return [(MISS, mem, ("MissingField", o, f))]

    def _write(self, v, mem, o, f, fields, dom):
        """Set field `f` to `v`, or delete it when `v` is FREED."""
        if f in fields:
            return [(OK, {**mem, o: ({**fields, f: v}, dom)}, ())]
        if dom is not None and f not in dom:
            return [(OK, {**mem, o: ({**fields, f: v}, dom | {f})}, ())]
        return [(MISS, mem, ("MissingField", o, f))]

    def payload_states(self, bounds: Bounds):
        vals = bounds.sorted_domain()[:2]
        names = ("f", "g")
        field_maps = [{}]
        for f in names:
            field_maps.extend({f: v} for v in list(vals) + [FREED])
        for v1 in list(vals) + [FREED]:
            field_maps.append({"f": v1, "g": vals[0]})
        doms = (None, frozenset(), frozenset({"f"}), frozenset(names))
        return self.entries_over(field_maps, doms)

    def weight(self, entry) -> int:
        return max(len(entry[0]), 1)

    def action_cases(self, bounds: Bounds):
        vals = bounds.sorted_domain()[:2]
        cases = [("newObj", ())]
        for o in range(min(bounds.max_addresses, 2) + 1):
            for f in ("f", "g", "h"):
                cases.append(("lookup", (o, f)))
                cases.append(("deleteField", (o, f)))
                for v in vals:
                    cases.append(("mutate", (o, f, v)))
        cases.append(("lookup", ("x", "f")))
        cases.append(("lookup", (0, 1)))
        return cases


class ObjectResources(ResourceModel):
    arities = {"field": (2, 1), "unset": (2, 0), "domain": (2, 0)}

    def footprint(self, name, ins, outs):
        if name == "field":
            (o, f), (v,) = ins, outs
            return {o: ({f: v}, None)} if is_nat(o) and is_string(f) else None
        if name == "unset":
            (o, f) = ins
            return {o: ({f: FREED}, None)} if is_nat(o) and is_string(f) else None
        if name == "domain":
            (o, d) = ins
            if not (is_nat(o) and isinstance(d, tuple) and all(is_string(f) for f in d)):
                return None
            if len(set(d)) != len(d) or tuple(sorted(d)) != d:
                return None
            return {o: ({}, frozenset(d))}
        return None

    def resource_cases(self, bounds: Bounds):
        vals = bounds.sorted_domain()[:2]
        for o in (0, 1):
            for f in ("f", "g"):
                for v in vals:
                    yield "field", (o, f), (v,)
                yield "unset", (o, f), ()
            for d in ((), ("f",), ("f", "g")):
                yield "domain", (o, d), ()


class ObjectSymbolic(NestedSymbolic):
    fits = staticmethod(_fits)
    inner_key_ok = staticmethod(is_string)
    fix_resources = {_MISSING_OBJECT: ("field", 1, 2, 1), _MISSING_FIELD: ("field", 2, 2, 1)}

    def eval_know(self, dom, theta):
        d = set()
        for e in dom:
            f = eval_lexpr(e, theta, {})
            if not is_string(f):
                return UNDEF
            d.add(f)
        return frozenset(d)

    def know_exprs(self, dom):
        return dom

    def lift_know(self, dom):
        return frozenset(Lit(f) for f in sorted(dom))

    def payload_assertions(self, k, entry):
        fields, dom = entry
        parts = []
        for fe in sorted_exprs(fields):
            v = fields[fe]
            if v is FREED:
                parts.append(Res("unset", (k, fe), ()))
            else:
                parts.append(Res("field", (k, fe), (v,)))
        if dom is not None:
            items = tuple(sorted_exprs(dom))
            parts.append(Res("domain", (k, LstE(items)), ()))
        return parts

    def exec_action(self, smem, name, args, fresh):
        if name == "newObj":
            return self._new(smem, ({}, frozenset()), fresh)
        if name == "lookup":
            eo, ef = args
            return self._field_action(smem, eo, ef, self._sym_read)
        if name == "mutate":
            eo, ef, ev = args
            return self._field_action(smem, eo, ef, lambda *a: self._sym_write(ev, *a))
        if name == "deleteField":
            eo, ef = args
            return self._field_action(smem, eo, ef, lambda *a: self._sym_write(FREED, *a))
        raise UnknownActionError(name)

    def _field_action(self, smem, eo, ef, hit):
        def at(k, entry):
            fields, dom = entry
            names = sorted_exprs(fields)
            out = []
            for fe in names:
                out.extend(hit(smem, k, (eq(eo, k), eq(ef, fe)), fe, fields, dom, ef))
            # provably-unset: outside the domain set
            base = [eq(eo, k), InType(ef, "str")] + not_in(ef, names)
            if dom is not None:
                unknown = sorted_exprs(set(dom) - set(names))
                pc_unset = base + not_in(ef, sorted_exprs(dom))
                out.extend(hit(smem, k, tuple(pc_unset), None, fields, dom, ef))
                if unknown:
                    out.append(
                        (MISS, smem, tuple(base + [one_of(ef, unknown)]), (_MISSING_FIELD, eo, ef))
                    )
            else:
                out.append((MISS, smem, tuple(base), (_MISSING_FIELD, eo, ef)))
            return out

        return self._matching(smem, eo, _MISSING_OBJECT, InType(ef, "str"), at)

    def _sym_read(self, smem, k, pc, fe, fields, dom, ef):
        if fe is None:
            return [(OK, smem, pc, (NIL_E,))]
        v = fields[fe]
        if v is FREED:
            return [(OK, smem, pc, (NIL_E,))]
        return [(OK, smem, pc, (v,))]

    def _sym_write(self, ev, smem, k, pc, fe, fields, dom, ef):
        """Set the queried field to `ev`, or delete it when `ev` is FREED;
        overwriting a set field needs its old value to be a value."""
        if fe is None:
            # provably unset: set the queried field, extending the domain
            smem2 = {**smem, k: ({**fields, ef: ev}, dom | {ef})}
            return [(OK, smem2, pc, ())]
        old = fields[fe]
        guards = (InVal(old),) if old is not FREED and ev is not FREED else ()
        smem2 = {**smem, k: ({**fields, fe: ev}, dom)}
        return [(OK, smem2, pc + guards, ())]

    # consume / produce --------------------------------------------------------

    def consume_res(self, mode, oracle, name, ins, smem):
        if name == "domain":
            return self._consume_domain(oracle, ins, smem)
        return self._consume_inner(oracle, smem, *ins, _MISSING_OBJECT, _MISSING_FIELD, name == "unset")

    def _consume_domain(self, oracle, ins, smem):
        eo, elist = ins
        items = _list_items(elist)
        want = None if items is None else _ground_strings(items)

        def hit(k, entry):
            dom = entry[1]
            if dom is None:
                return []
            have = _ground_strings(dom)
            if want is None or have is None or want != have:
                return [(ABORT, oracle, (), (smem, (), (eq(eo, k),)))]
            # a bare domain entry composes with field-only frames
            frame, pc = self._take_know(smem, k)
            return [(OK, oracle, (), (frame, (), (eq(eo, k), *pc)))]

        return self._consume_at(oracle, smem, eo, Lit("MissingDomain"), hit)

    def produce_res(self, name, ins, outs, smem):
        if name == "domain":
            items = _list_items(ins[1])
            if items is None:
                return []
            # satisfaction rejects models whose fields escape the domain
            return self._produce_know(ins[0], frozenset(items), smem)
        eo, ef = ins
        payload = outs[0] if name == "field" else FREED

        def merge(k, entry):
            fields, dom = entry
            # produced fields must be covered by the domain knowledge
            if ef in fields or dom is not None and not dom:
                return []
            pc = (eq(eo, k),) if dom is None else (eq(eo, k), one_of(ef, sorted_exprs(dom)))
            return [({**smem, k: ({**fields, ef: payload}, dom)}, pc)]

        return self._produce_at(eo, smem, ({ef: payload}, None), (), merge)


def _ground_strings(exprs):
    out = set()
    for e in exprs:
        if not (isinstance(e, Lit) and is_string(e.value)):
            return None
        out.add(e.value)
    return out


def _list_items(elist):
    if isinstance(elist, LstE):
        return elist.items
    if isinstance(elist, Lit) and isinstance(elist.value, tuple):
        return tuple(Lit(v) for v in elist.value)
    return None


def instantiate_objects() -> MemoryModelBundle:
    return MemoryModelBundle(
        name="objects",
        cmm=ObjectConcrete(),
        rm=ObjectResources(),
        smm=ObjectSymbolic(),
        declared_soundness=Soundness(ox=True, ux=True),
    )
