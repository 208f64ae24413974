"""Finite maps from keys to payloads: the carrier shared by the linear,
fractional, block-offset and object models.

A concrete memory is a dict from natural-number keys to payloads or the
FREED marker. A symbolic memory is a dict from key expressions to symbolic
payloads or FREED, and denotes the concrete memory obtained by evaluating
every key and payload (keys must be distinct naturals). The bases below
implement that lifting once; a model supplies per-payload hooks, its
actions and resources, and per entry what an action, a consume or a
produce does there.

Concrete hooks (`MapConcrete`):
  payload_ok(v)          well-formedness of one payload
  payload_states(bounds) the payloads the generator places at each key
  payload_values(v)      the values occurring in a payload
  join(u, v)             two payloads at one key composed, or None
  split_payload(v)       the (left, right) ways to split one payload,
                         None for an absent side
Symbolic hooks (`MapSymbolic`):
  payload_exprs(v)          the expressions occurring in a payload
  eval_payload(v, theta)    its concrete payload, or UNDEF
  lift_payload(v, name)     a symbolic payload, naming each value by `name`
  payload_assertions(k, v)  the resource assertions owning the entry
  fix_resources             miss tag -> (resource, n, in-arity, out-arity),
                            the table `fixes` reads
`_new(mem, payload, ...)` on both sides allocates `payload` at the least
free keys (concrete) or at a fresh key (symbolic).
Per-key walks (`MapSymbolic`), each taking the per-entry step `hit`/`merge`:
  _matching(smem, e, tag, guard, hit)        an action on the entry at `e`
  _consume_at(oracle, smem, e, tag, hit, freed=False)
                                             consuming a resource at `e`
  _produce_at(e, smem, new, new_pc, merge)   producing a resource at `e`
`_consume_freed`, the consume of a `freed` resource, is `_consume_at` with
`freed=True`.

`NestedConcrete`/`NestedSymbolic` specialise both to entries that are an
inner map plus optional knowledge about it (block-offset, objects).
`NestedSymbolic._consume_inner(oracle, smem, e, i, tag, inner_tag,
freed=False)` is `_consume_at` one level down, at inner key `i`.

Enumeration order is observable (witnesses print memories, samplers pick
by index), so every enumeration here keeps key order and option order.
"""

from __future__ import annotations

import itertools

from ..assertions import Res
from ..evaluation import eval_lexpr
from ..memmodel import FREED, Bounds, ConcreteMemoryModel, SymbolicMemoryModel
from ..outcomes import ABORT, ERR, MISS, OK
from ..syntax import Bin, InType, InVal, LVar, Lit, Not, eq, format_expr, lv_expr, not_in
from ..values import UNDEF, is_nat

MISSING_CELL = Lit("MissingCell")
USE_AFTER_FREE = Lit("UseAfterFree")
TYPE = Lit("Type")


def bipartitions(d: dict):
    """Every (left, right) split of `d`, by growing left key sets in
    `itertools.combinations` order over the sorted keys."""
    keys = sorted(d)
    for r in range(len(keys) + 1):
        for left in itertools.combinations(keys, r):
            l = set(left)
            yield (
                {k: d[k] for k in keys if k in l},
                {k: d[k] for k in keys if k not in l},
            )


def sorted_exprs(exprs) -> list:
    return sorted(exprs, key=format_expr)


def without(d: dict, k) -> dict:
    return {k2: v2 for k2, v2 in d.items() if k2 != k}


def absent(e, smem) -> list:
    """Conjuncts saying `e` is none of the keys of `smem`."""
    return not_in(e, sorted(smem, key=format_expr))


def missing(oracle, smem, tag, e):
    """The consume branch for a resource at `e` that no entry holds."""
    return (ABORT, oracle, (tag, e), (smem, (), tuple(absent(e, smem))))


def produce_new(e, smem, payload) -> list:
    """Production that only adds a new entry: none when `e` is a key."""
    return [] if e in smem else [({**smem, e: payload}, ())]


def one_of(e, options):
    """`e = o1 or ... or e = on` over the non-empty `options`."""
    out = None
    for o in options:
        t = eq(e, o)
        out = t if out is None else Bin("or", out, t)
    return out


class MapConcrete(ConcreteMemoryModel):
    """Finite maps from naturals to payloads or, when `track_freed`, FREED."""

    track_freed = True

    @property
    def empty(self):
        return {}

    def is_wf(self, mem) -> bool:
        if not isinstance(mem, dict):
            return False
        for k, v in mem.items():
            if not is_nat(k):
                return False
            if v is FREED:
                if not self.track_freed:
                    return False
            elif not self.payload_ok(v):
                return False
        return True

    def compose(self, a, b):
        out = dict(a)
        for k, v in b.items():
            if k in out:
                v = self.join(out[k], v)
                if v is None:
                    return None
            out[k] = v
        return out

    def join(self, u, v):
        """Payloads are owned whole: keys of two parts must be disjoint."""
        return None

    def enumerate_splits(self, mem):
        keys = sorted(mem)
        for combo in itertools.product(*(self.split_payload(mem[k]) for k in keys)):
            left, right = {}, {}
            for k, (l, r) in zip(keys, combo):
                if l is not None:
                    left[k] = l
                if r is not None:
                    right[k] = r
            yield left, right

    def split_payload(self, v):
        return [(v, None), (None, v)]

    def key_count(self, bounds: Bounds) -> int:
        return bounds.max_addresses

    def weight(self, v) -> int:
        """Cells a payload counts for against `max_cells`."""
        return 1

    def generator(self, bounds: Bounds):
        states = self.payload_states(bounds)
        n = self.key_count(bounds)
        for size in range(min(bounds.max_cells, n) + 1):
            for keys in itertools.combinations(range(n), size):
                for vals in itertools.product(states, repeat=size):
                    if sum(map(self.weight, vals)) <= bounds.max_cells:
                        yield dict(zip(keys, vals))

    def positions(self, mem, bounds: Bounds) -> list:
        """The generator yields `mem` at (size, sorted keys, the index in
        `payload_states` of each payload), once for each tuple of indices
        whose states equal the payloads: a repeated state repeats it."""
        n = self.key_count(bounds)
        if len(mem) > min(bounds.max_cells, n) or not all(is_nat(k) and k < n for k in mem):
            return []
        keys = sorted(mem)
        states = self.payload_states(bounds)
        choices = [[i for i, s in enumerate(states) if s == mem[k]] for k in keys]
        if not all(choices) or sum(self.weight(mem[k]) for k in keys) > bounds.max_cells:
            return []
        return [(len(keys), tuple(keys), idx) for idx in itertools.product(*choices)]

    def generated_values(self, bounds: Bounds) -> set:
        # weights are non-negative, so an entry of a generated memory is
        # also generated alone
        out = set()
        if bounds.max_cells >= 1:
            states = [v for v in self.payload_states(bounds) if self.weight(v) <= bounds.max_cells]
            for k in range(self.key_count(bounds)):
                for v in states:
                    out |= self.mem_values({k: v})
        return out

    def mem_values(self, mem):
        out = set()
        for k, v in mem.items():
            out.add(k)
            if v is not FREED:
                out.update(self.payload_values(v))
        return out

    def _match(self, mem, addr, tag, ok, hit):
        """An action on the entry at `addr`, whose other arguments are
        well-typed when `ok`: `hit(payload)` when it is live."""
        if not (is_nat(addr) and ok):
            return [(ERR, mem, ("Type",))]
        if addr not in mem:
            return [(MISS, mem, (tag, addr))]
        v = mem[addr]
        if v is FREED:
            return [(ERR, mem, ("UseAfterFree", addr))]
        return hit(v)

    def _new(self, mem, payload, max_addresses):
        """Allocation: `payload` at each of the `max_addresses` least keys
        not in `mem`, which is the output."""
        free = (n for n in itertools.count() if n not in mem)
        return [(OK, {**mem, n: payload}, (n,)) for n in itertools.islice(free, max_addresses)]


class MapSymbolic(SymbolicMemoryModel):
    """The pointwise lifting of `MapConcrete` to expression keys."""

    fix_resources = {}

    @property
    def empty(self):
        return {}

    def _entries(self, smem):
        return sorted(smem.items(), key=lambda kv: format_expr(kv[0]))

    def lvars(self, smem) -> frozenset:
        out = frozenset()
        for k, v in smem.items():
            out |= lv_expr(k)
            if v is not FREED:
                for e in self.payload_exprs(v):
                    out |= lv_expr(e)
        return out

    def pure_facts(self, smem) -> list:
        """Every key is a natural, and no two keys are equal."""
        return [InType(k, "nat") for k in smem] + [
            Not(eq(k1, k2)) for k1, k2 in itertools.combinations(smem, 2)
        ]

    def concretize(self, theta, smem):
        out = {}
        for k, v in smem.items():
            key = eval_lexpr(k, theta, {})
            if not is_nat(key) or key in out:
                return None
            if v is not FREED:
                v = self.eval_payload(v, theta)
                if v is UNDEF:
                    return None
            out[key] = v
        return out

    def lift(self, mem, fresh, ground: bool):
        smem, theta = {}, {}

        def name(v):
            if ground:
                return Lit(v)
            x = fresh()
            theta[x] = v
            return LVar(x)

        for k in sorted(mem):
            v = mem[k]
            key = name(k)
            smem[key] = FREED if v is FREED else self.lift_payload(v, name)
        return smem, theta

    def mem_to_assertion(self, smem) -> list:
        parts = []
        for k, v in self._entries(smem):
            if v is FREED:
                parts.append(Res("freed", (k,), ()))
            else:
                parts.extend(self.payload_assertions(k, v))
        return parts

    def _matching(self, smem, e, tag, guard, hit):
        """An action on the entry at `e`, whose other arguments are
        well-typed under `guard` (None when there are none): per entry, in
        key order, a use-after-free error on FREED or the `hit(k, payload)`
        branches; then a missing entry when `e` is a natural naming none,
        and a type error when it is not a natural or the guard fails."""
        guards = () if guard is None else (guard,)
        branches = []
        for k, v in self._entries(smem):
            if v is FREED:
                branches.append((ERR, smem, (eq(e, k), *guards), (USE_AFTER_FREE, e)))
            else:
                branches.extend(hit(k, v))
        out = self._order(branches)
        out.append((MISS, smem, (InType(e, "nat"), *guards, *absent(e, smem)), (tag, e)))
        out.append((ERR, smem, (Not(InType(e, "nat")),), (TYPE,)))
        if guard is not None:
            out.append((ERR, smem, (InType(e, "nat"), Not(guard)), (TYPE,)))
        return out

    def _order(self, branches):
        return branches

    def _new(self, smem, payload, fresh):
        """Allocation: `payload` at a fresh key, which is the output."""
        x = LVar(fresh())
        return [(OK, {**smem, x: payload}, (InVal(x),), (x,))]

    def _consume_at(self, oracle, smem, e, tag, hit, freed=False):
        """Consuming a resource at key `e`: per entry, in key order, the
        `hit(k, payload)` branches when the entry is FREED exactly when
        `freed` is, else an abort; then `missing`."""
        out = []
        for k, v in self._entries(smem):
            if (v is FREED) != freed:
                out.append((ABORT, oracle, (), (smem, (), (eq(e, k),))))
            else:
                out.extend(hit(k, v))
        out.append(missing(oracle, smem, tag, e))
        return out

    def _produce_at(self, e, smem, new, new_pc, merge):
        """Producing a resource at key `e`: the entry `new` under `new_pc`
        when `e` is not a key, then per live entry, in key order, the
        `merge(k, payload)` results."""
        results = [] if e in smem else [({**smem, e: new}, new_pc)]
        for k, v in self._entries(smem):
            if v is not FREED:
                results.extend(merge(k, v))
        return results

    def _consume_freed(self, oracle, e, smem, tag):
        def hit(k, _):
            return [(OK, oracle, (), (without(smem, k), (), (eq(e, k),)))]

        return self._consume_at(oracle, smem, e, tag, hit, freed=True)

    def fixes(self, payload, state, fresh):
        """Bi-abduction: a payload `(tag, e1, ..., en)` whose row in
        `fix_resources` is `(resource, n, in-arity, out-arity)` asks for
        one resource. Its first ins are `e1 ... en`; its other ins, then
        its outs, are fresh. Any other payload gets none."""
        row = self.fix_resources.get(payload[0]) if payload else None
        if row is None or len(payload) != row[1] + 1:
            return []
        name, n, n_in, n_out = row
        ins = (*payload[1:], *(LVar(fresh()) for _ in range(n_in - n)))
        return [Res(name, ins, tuple(LVar(fresh()) for _ in range(n_out)))]


class _Nested:
    """Entries (inner map, knowledge or None), where the knowledge (a size
    bound, a domain set) is a resource of its own. An entry must own
    something, and its inner keys must fit the knowledge it carries."""

    def fits(self, inner, know) -> bool:
        """Whether the inner keys are allowed by the (non-None) knowledge."""
        raise NotImplementedError

    def allows(self, inner, know) -> bool:
        return know is None or self.fits(inner, know)

    def wf_entry(self, inner, know) -> bool:
        return self.allows(inner, know) and (bool(inner) or know is not None)


def _part(inner, know):
    return (inner, know) if inner or know is not None else None


class NestedConcrete(_Nested, MapConcrete):
    """Hooks: inner_ok(i, v), know_ok(know), know_values(know), fits."""

    def key_count(self, bounds: Bounds) -> int:
        return min(bounds.max_addresses, 2)

    def payload_ok(self, entry) -> bool:
        if not isinstance(entry, tuple):
            return False
        inner, know = entry
        if know is not None and not self.know_ok(know):
            return False
        if not all(self.inner_ok(i, v) for i, v in inner.items()):
            return False
        return self.wf_entry(inner, know)

    def join(self, u, v):
        if u is FREED or v is FREED:
            return None
        (c1, k1), (c2, k2) = u, v
        if c1.keys() & c2.keys():
            return None
        if k1 is not None and k2 is not None:
            return None
        # cross well-formedness: each part fits the other's knowledge
        if not (self.allows(c1, k2) and self.allows(c2, k1)):
            return None
        return ({**c1, **c2}, k1 if k1 is not None else k2)

    def split_payload(self, entry):
        if entry is FREED:
            return super().split_payload(entry)
        inner, know = entry
        sides = ((know, None), (None, know)) if know is not None else ((None, None),)
        return [
            (_part(c1, k1), _part(c2, k2))
            for c1, c2 in bipartitions(inner)
            for k1, k2 in sides
        ]

    def entries_over(self, inners, knows) -> list:
        """The well-formed entries pairing each inner map with each knowledge."""
        return [(i, k) for i in inners for k in knows if self.wf_entry(i, k)]

    def payload_values(self, entry):
        inner, know = entry
        for i, v in inner.items():
            yield i
            if v is not FREED:
                yield v
        if know is not None:
            yield from self.know_values(know)


class NestedSymbolic(_Nested, MapSymbolic):
    """Hooks: inner_key_ok(i), eval_know(know, theta) (UNDEF when
    ill-typed), know_exprs(know), lift_know(know), fits."""

    def concretize(self, theta, smem):
        # strictly disjoint denotation: two entries never denote parts of
        # one concrete entry (mirrors the linear model's disjoint union);
        # the result lists keys in symbolic key order
        return super().concretize(theta, dict(self._entries(smem)))

    def payload_exprs(self, entry):
        inner, know = entry
        out = [*inner, *(v for v in inner.values() if v is not FREED)]
        if know is not None:
            out.extend(self.know_exprs(know))
        return out

    def eval_payload(self, entry, theta):
        inner, know = entry
        c = {}
        for ie, ve in inner.items():
            i = eval_lexpr(ie, theta, {})
            if not self.inner_key_ok(i) or i in c:
                return UNDEF
            v = ve if ve is FREED else eval_lexpr(ve, theta, {})
            if v is UNDEF:
                return UNDEF
            c[i] = v
        k = None if know is None else self.eval_know(know, theta)
        if k is UNDEF or not self.wf_entry(c, k):
            return UNDEF
        return (c, k)

    def lift_payload(self, entry, name):
        inner, know = entry
        lifted = {Lit(i): FREED if inner[i] is FREED else name(inner[i]) for i in sorted(inner)}
        return (lifted, None if know is None else self.lift_know(know))

    def _take_inner(self, smem, k, i):
        """The frame left by taking inner key `i` of entry `k`, and the
        conjuncts it adds: an entry left owning nothing is dropped, and
        its key then differs from every key of the frame."""
        inner, know = smem[k]
        if len(inner) == 1 and know is None:
            frame = without(smem, k)
            return frame, absent(k, frame)
        return {**smem, k: (without(inner, i), know)}, []

    def _consume_inner(self, oracle, smem, e, i, tag, inner_tag, freed=False):
        """`_consume_at` one level down: consuming inner key `i` of the
        entry at `e`. Per inner key, in key order, that part is taken when
        its value is FREED exactly when `freed` is, else an abort; then
        the abort `(inner_tag, e, i)` for an `i` that is none of them."""

        def hit(k, entry):
            inner = entry[0]
            keys = sorted_exprs(inner)
            out = []
            for ie in keys:
                v = inner[ie]
                at = (eq(e, k), eq(i, ie))
                if (v is FREED) != freed:
                    out.append((ABORT, oracle, (), (smem, (), at)))
                else:
                    frame, pc = self._take_inner(smem, k, ie)
                    out.append((OK, oracle, () if freed else (v,), (frame, (), (*at, *pc))))
            out.append((ABORT, oracle, (inner_tag, e, i), (smem, (), (eq(e, k), *not_in(i, keys)))))
            return out

        return self._consume_at(oracle, smem, e, tag, hit)

    def _take_know(self, smem, k):
        """As `_take_inner`, for the knowledge of entry `k`. Removing a
        bare knowledge entry drops disjointness knowledge (knowledge
        composes with frames lacking it), so that is recorded."""
        inner, _ = smem[k]
        if not inner:
            frame = without(smem, k)
            return frame, absent(k, frame)
        return {**smem, k: (inner, None)}, []

    def _produce_know(self, e, know, smem):
        def merge(k, entry):
            inner, know2 = entry
            return [({**smem, k: (inner, know)}, (eq(e, k),))] if inner and know2 is None else []

        return self._produce_at(e, smem, ({}, know), (), merge)
