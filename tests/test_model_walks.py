"""The models' shared walks, checked against the per-model copies they
replaced.

The `_old_*` functions below are those copies, kept as references: the
linear model's own consume walk and symbolic actions, the map models'
hand-written consume of a `freed` resource (with the consume walk of the
time), block-offset's and objects' own consumes of an inner key, the map
models' allocations, and the chunk model's concrete and symbolic actions,
each of which wrote its miss and type branches out. Branch order is observable (witnesses
and the oracle search follow it), so the branch lists must be equal in
order, and under `linear-cut` the oracles' read logs must be equal too.

Every case runs on the ground and the variable lift of every generated
memory, with ground and variable arguments.
"""

import copy
from fractions import Fraction
import types

import pytest

from polyheap.conformance import _arg_styles, _lift_styles, _Namer, _resource_cases
from polyheap.memmodel import FREED, Bounds, UnknownActionError
from polyheap.models import get_model
from polyheap.models.chunks import _add, _remove, _skey, _used_addresses
from polyheap.models.maps import MISSING_CELL, missing, sorted_exprs, without
from polyheap.oracle import Oracle
from polyheap.outcomes import ABORT, ERR, MISS, OK
from polyheap.syntax import InType, InVal, LVar, Lit, NIL_E, Not, eq, not_in
from polyheap.values import NIL, Rat, is_nat

BOUNDS = Bounds(value_domain=(NIL, 0, 1), max_cells=2, max_addresses=3)
LINEAR = ("linear", "linear-unique", "linear-cut", "linear-ox")
# a cut consume picks by the oracle's first answer
PREFIXES = ((), (1,), (2,))


# --- references ------------------------------------------------------------


def _old_consume_at(self, oracle, smem, e, tag, hit):
    out = []
    for k, v in self._entries(smem):
        if v is FREED:
            out.append((ABORT, oracle, (), (smem, (), (eq(e, k),))))
        else:
            out.extend(hit(k, v))
    out.append(missing(oracle, smem, tag, e))
    return out


def _old_consume_freed(self, oracle, e, smem, tag):
    out = []
    for k, v in self._entries(smem):
        if v is FREED:
            out.append((OK, oracle, (), (without(smem, k), (), (eq(e, k),))))
        else:
            out.append((ABORT, oracle, (), (smem, (), (eq(e, k),))))
    out.append(missing(oracle, smem, tag, e))
    return out


def _old_linear_consume_res(self, mode, oracle, name, ins, smem):
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


def _old_linear_exec_action(self, smem, name, args, fresh):
    keep_info = self.variant != "noneg"
    if name == "lookup":
        (e,) = args
        return self._matching(
            smem, e, MISSING_CELL, None, lambda k, v: [(OK, smem, (eq(e, k),), (v,))]
        )
    if name == "mutate":
        e, val = args

        def hit(k, v):
            pc = [eq(e, k)]
            if keep_info:
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
            if keep_info:
                pc.append(InVal(v))
            mem = {**smem, k: FREED} if self.track_freed else without(smem, k)
            return [(OK, mem, tuple(pc), ())]

        return self._matching(smem, e, MISSING_CELL, None, hit)
    raise UnknownActionError(name)


def _old_chunk_concrete_exec_action(self, mem, name, args, max_addresses):
    if name == "lookup":
        (addr,) = args
        if not is_nat(addr):
            return [(ERR, mem, ("Type",))]
        hits = sorted(
            {c for c in mem if c[0] == "pt" and c[1] == addr}, key=_skey
        )
        if not hits:
            return [(MISS, mem, ("MissingCell", addr))]
        return [(OK, mem, (c[2],)) for c in hits]
    if name == "mutate":
        addr, val = args
        if not is_nat(addr):
            return [(ERR, mem, ("Type",))]
        hits = sorted(
            {c for c in mem if c[0] == "pt" and c[1] == addr}, key=_skey
        )
        if not hits:
            return [(MISS, mem, ("MissingCell", addr))]
        return [
            (OK, _add(_remove(mem, c), ("pt", addr, val)), ()) for c in hits
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
        blocks = sorted({c for c in mem if c[0] == "mb" and c[1] == addr}, key=_skey)
        if not blocks:
            return [(MISS, mem, ("MissingBlock", addr))]
        results = []
        for mb in blocks:
            size = mb[2]
            base = _remove(mem, mb)
            results.extend(_old_chunk_free_cells(base, mem, addr, size))
        return results
    raise UnknownActionError(name)


def _old_chunk_free_cells(mem, orig, addr, remaining):
    if remaining == 0:
        return [(OK, mem, ())]
    hits = sorted({c for c in mem if c[0] == "pt" and c[1] == addr}, key=_skey)
    if not hits:
        return [(MISS, orig, ("MissingCell", addr))]
    out = []
    for c in hits:
        out.extend(_old_chunk_free_cells(_remove(mem, c), orig, addr + 1, remaining - 1))
    return out


def _old_chunk_symbolic_exec_action(self, smem, name, args, fresh):
    if name == "lookup":
        (e,) = args
        out = [
            (OK, smem, (eq(e, c[1]),), (c[2],)) for c in self._chunks(smem, "pt")
        ]
        out.append(
            (
                MISS,
                smem,
                tuple([InType(e, "nat")] + not_in(e, [c[1] for c in self._chunks(smem, "pt")])),
                (Lit("MissingCell"), e),
            )
        )
        out.append((ERR, smem, (Not(InType(e, "nat")),), (Lit("Type"),)))
        return out
    if name == "mutate":
        e, val = args
        out = []
        for c in self._chunks(smem, "pt"):
            grown = _add(_remove(smem, c), ("pt", c[1], val))
            out.append((OK, grown, (eq(e, c[1]), InVal(c[2])), ()))
        out.append(
            (
                MISS,
                smem,
                tuple([InType(e, "nat")] + not_in(e, [c[1] for c in self._chunks(smem, "pt")])),
                (Lit("MissingCell"), e),
            )
        )
        out.append((ERR, smem, (Not(InType(e, "nat")),), (Lit("Type"),)))
        return out
    if name == "new":
        x = LVar(fresh())
        grown = _add(_add(smem, ("pt", x, NIL_E)), ("mb", x, Lit(1)))
        return [(OK, grown, (InVal(x),), (x,))]
    if name == "free":
        (e,) = args
        return _old_chunk_free(self, smem, e)
    raise UnknownActionError(name)


def _old_chunk_free(self, smem, e):
    out = []
    for mb in self._chunks(smem, "mb"):
        if not (isinstance(mb[2], Lit) and is_nat(mb[2].value)):
            out.append((ABORT, smem, (eq(e, mb[1]),), (Lit("NonConstantSize"), e)))
            continue
        base = _remove(smem, mb)
        out.extend(
            self._free_cells(base, smem, e, mb[1], (eq(e, mb[1]),), mb[2].value, 0)
        )
    out.append(
        (
            MISS,
            smem,
            tuple([InType(e, "nat")] + not_in(e, [c[1] for c in self._chunks(smem, "mb")])),
            (Lit("MissingBlock"), e),
        )
    )
    out.append((ERR, smem, (Not(InType(e, "nat")),), (Lit("Type"),)))
    return out


def _old_block_consume_cell(self, oracle, ins, smem):
    eb, eo = ins

    def hit(k, blk):
        cells = blk[0]
        offs = sorted_exprs(cells)
        out = []
        for o in offs:
            frame, pc = self._take_inner(smem, k, o)
            out.append((OK, oracle, (cells[o],), (frame, (), (eq(eb, k), eq(eo, o), *pc))))
        absent_pc = tuple([eq(eb, k)] + not_in(eo, offs))
        out.append((ABORT, oracle, (MISSING_CELL, eb, eo), (smem, (), absent_pc)))
        return out

    return self._consume_at(oracle, smem, eb, Lit("MissingBlock"), hit)


def _old_consume_field(self, oracle, ins, smem, want_unset):
    eo, ef = ins

    def hit(k, entry):
        fields = entry[0]
        names = sorted_exprs(fields)
        out = []
        for fe in names:
            v = fields[fe]
            if (v is FREED) != want_unset:
                out.append((ABORT, oracle, (), (smem, (), (eq(eo, k), eq(ef, fe)))))
                continue
            frame, pc = self._take_inner(smem, k, fe)
            outs = () if want_unset else (v,)
            out.append((OK, oracle, outs, (frame, (), (eq(eo, k), eq(ef, fe), *pc))))
        absent_pc = tuple([eq(eo, k)] + not_in(ef, names))
        out.append((ABORT, oracle, (Lit("MissingField"), eo, ef), (smem, (), absent_pc)))
        return out

    return self._consume_at(oracle, smem, eo, Lit("MissingObject"), hit)


def _old_nested_consume_res(self, mode, oracle, name, ins, smem):
    if name == "cell":
        return _old_block_consume_cell(self, oracle, ins, smem)
    if name in ("field", "unset"):
        return _old_consume_field(self, oracle, ins, smem, name == "unset")
    return type(self).consume_res(self, mode, oracle, name, ins, smem)


def _old_fresh_addresses(mem, count):
    out = []
    n = 0
    while len(out) < count:
        if n not in mem:
            out.append(n)
        n += 1
    return out


# model: (allocating action, its concrete payload, its symbolic payload),
# each payload a function of the action's arguments
_OLD_NEW = {
    "linear": ("new", lambda args: NIL, lambda args: NIL_E),
    "frac": ("new", lambda args: (NIL, Fraction(1)), lambda args: (NIL_E, Lit(Rat(1)))),
    "block-offset": (
        "new",
        lambda args: ({i: NIL for i in range(args[0])}, args[0]),
        lambda args: ({Lit(i): NIL_E for i in range(args[0].value)}, args[0]),
    ),
    "objects": ("newObj", lambda args: ({}, frozenset()), lambda args: ({}, frozenset())),
}


def _old_concrete_new(payload, mem, max_addresses):
    return [(OK, {**mem, n: payload}, (n,)) for n in _old_fresh_addresses(mem, max_addresses)]


def _old_symbolic_new(payload, smem, fresh):
    x = LVar(fresh())
    return [(OK, {**smem, x: payload}, (InVal(x),), (x,))]


# --- the comparisons ---------------------------------------------------------


def _lifted(bundle):
    """The ground and the variable lift of every generated memory."""
    for mem in bundle.cmm.generator(BOUNDS):
        for smem, _ in _lift_styles(bundle.smm, mem):
            yield smem


def _same_consumes(old, new, bundle, cases):
    """`cases` are (resource, ins values) pairs."""
    for smem in _lifted(bundle):
        for name, ins_v in cases:
            for ins, _ in _arg_styles(ins_v):
                for prefix in PREFIXES:
                    o_old, o_new = Oracle(prefix), Oracle(prefix)
                    want = old(None, o_old, name, ins, smem)
                    assert new(None, o_new, name, ins, smem) == want, (smem, name, ins, prefix)
                    assert o_new.sizes == o_old.sizes, (smem, name, ins, prefix)


def _same_actions(old, new, bundle):
    cases = list(bundle.cmm.action_cases(BOUNDS))
    for smem in _lifted(bundle):
        for name, args_v in cases:
            for args, _ in _arg_styles(args_v):
                want = old(smem, name, args, _Namer("f"))
                assert new(smem, name, args, _Namer("f")) == want, (smem, name, args)


@pytest.mark.parametrize("model", LINEAR)
def test_linear_consume_matches_reference(model):
    bundle = get_model(model)
    smm = bundle.smm
    old = types.MethodType(_old_linear_consume_res, smm)
    # `freed` under linear-ox too, which has no such resource: all abort
    cases = [(name, (v,)) for name in ("cell", "freed") for v in BOUNDS.sorted_domain()]
    _same_consumes(old, smm.consume_res, bundle, cases)


@pytest.mark.parametrize("model", ("frac", "block-offset"))
def test_map_consume_matches_reference(model):
    bundle = get_model(model)
    old = copy.copy(bundle.smm)
    old._consume_at = types.MethodType(_old_consume_at, old)
    old._consume_freed = types.MethodType(_old_consume_freed, old)
    cases = []
    for name, ins, _ in _resource_cases(bundle.rm, BOUNDS):
        if (name, ins) not in cases:
            cases.append((name, ins))
    assert "freed" in {name for name, _ in cases}
    _same_consumes(old.consume_res, bundle.smm.consume_res, bundle, cases)


@pytest.mark.parametrize("model", ("block-offset", "objects"))
def test_inner_key_consume_matches_reference(model):
    """Block-offset's cell consume and objects' field and unset consumes
    through `NestedSymbolic._consume_inner`; the generated memories hold
    unset fields, so objects' aborts at a part of the wrong kind are seen."""
    bundle = get_model(model)
    old = types.MethodType(_old_nested_consume_res, bundle.smm)
    cases = []
    for name, ins, _ in _resource_cases(bundle.rm, BOUNDS):
        if name in ("cell", "field", "unset") and (name, ins) not in cases:
            cases.append((name, ins))
    assert cases
    _same_consumes(old, bundle.smm.consume_res, bundle, cases)
    if model == "objects":
        assert any(
            v is FREED for smem in _lifted(bundle) for entry in smem.values() for v in entry[0].values()
        )


@pytest.mark.parametrize("model", sorted(_OLD_NEW))
def test_allocation_matches_reference(model):
    """`MapConcrete._new` and `MapSymbolic._new` against each model's own
    allocation, in allocation windows of 1 to 5 addresses."""
    bundle = get_model(model)
    cmm, smm = bundle.cmm, bundle.smm
    name, concrete, symbolic = _OLD_NEW[model]
    cases = [args for n, args in cmm.action_cases(BOUNDS) if n == name and all(map(is_nat, args))]
    assert cases
    for mem in cmm.generator(BOUNDS):
        for args in cases:
            for window in range(1, 6):
                want = _old_concrete_new(concrete(args), mem, window)
                assert cmm.exec_action(mem, name, args, window) == want, (mem, args, window)
    for smem in _lifted(bundle):
        for args_v in cases:
            args = tuple(map(Lit, args_v))
            want = _old_symbolic_new(symbolic(args), smem, _Namer("f"))
            assert smm.exec_action(smem, name, args, _Namer("f")) == want, (smem, args)


@pytest.mark.parametrize("model", LINEAR)
def test_linear_actions_match_reference(model):
    bundle = get_model(model)
    old = types.MethodType(_old_linear_exec_action, bundle.smm)
    _same_actions(old, bundle.smm.exec_action, bundle)


def test_chunk_actions_match_reference():
    bundle = get_model("chunks")
    cmm, smm = bundle.cmm, bundle.smm
    # the cases type every action wrongly
    cases = cmm.action_cases(BOUNDS)
    assert {("lookup", ("x",)), ("mutate", ("x", 0)), ("free", ("x",))} <= set(cases)
    for mem in cmm.generator(BOUNDS):
        for name, args in cases:
            want = _old_chunk_concrete_exec_action(cmm, mem, name, args, BOUNDS.max_addresses)
            assert cmm.exec_action(mem, name, args, BOUNDS.max_addresses) == want, (mem, name, args)
    old = types.MethodType(_old_chunk_symbolic_exec_action, smm)
    _same_actions(old, smm.exec_action, bundle)


def test_references_see_every_branch_kind():
    """The generated memories reach a freed entry ahead of a live one, so
    the walks' order between matches and aborts is tested."""
    smm = get_model("linear").smm
    smem = {Lit(0): FREED, Lit(1): Lit(0)}
    out = smm.consume_res(None, Oracle(), "cell", (LVar("a0"),), smem)
    assert [b[0] for b in out] == [OK, ABORT, ABORT]
    assert smem in list(_lifted(get_model("linear")))
