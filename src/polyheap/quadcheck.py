"""Brute-force validity oracle for function quadruples.

Enumerates interpretations and heaps within bounds and replays the
concrete interpreter:

  SL   every terminating execution from a precondition model lands in the
       matching postcondition and never misses;
  ISL  every postcondition model is reached from some precondition model;
  ESL  both.

Deliberately independent of the symbolic engine: the only semantics used
are `run_function` and the satisfaction relation.

Pure conjuncts prune the search. The `Bool` leaves at the top of an
assertion's star tree (`pure_conjuncts`) must all be true for it to hold on
any heap, so they are evaluated before any heap is visited: once per
interpretation for the precondition, once per interpretation and value for
a postcondition. An interpretation whose precondition fails them has no
precondition heap, and a value whose postcondition fails them meets no
heap. Survivors go through `holds` on the whole assertion in the same
heap-outer, value-inner order, so the verdict and the first counterexample
are those of checking every heap. The one exception: a false conjunct next
to a predicate that exceeds its unfolding depth now rules the pair out
instead of truncating the enumeration, so such a check can be definite
where it used to be Inconclusive.

Footprints prune it further. A star of pure conjuncts, `emp` and resources
holds on at most one heap (`satisfaction.footprint`). It is computed once
per interpretation for the precondition, once per run result for the SL
post check and once per interpretation and value for the ISL one. Only
the generated heaps equal to it go to `holds`, found by their frozen form
and visited in the same order. A star with a predicate, `exists`, a disjunction, an
implication or `True` in it has no footprint, and every heap is visited,
so depth exhaustion shows exactly where it did.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .assertions import Quadruple, lv_assertion
from .concrete import BudgetExhausted, run_function
from .memmodel import Bounds, MemoryModelBundle
from .outcomes import ERR, MISS, OK
from .satisfaction import UNKNOWN, DepthExceeded, footprint, holds, may_hold, pure_conjuncts, pure_holds
from .syntax import ImplContext
from .values import value_key


class Valid:
    def __repr__(self):
        return "Valid"


class Inconclusive:
    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"Inconclusive({self.reason})"


@dataclass
class CounterExample:
    kind: str  # "miss" | "post-violated" | "unreachable-post"
    theta: dict
    detail: dict = field(default_factory=dict)

    def __repr__(self):
        return f"CounterExample({self.kind}, theta={self.theta}, {self.detail})"


_ENUM_CAP = 200_000


def check_quadruple_bounded(
    gamma: ImplContext,
    q: Quadruple,
    bounds: Bounds,
    bundle: MemoryModelBundle,
    preds=None,
    budget: int = 16,
):
    preds = preds if preds is not None else {}
    q.check_external_shape()
    if q.fid not in gamma:
        raise KeyError(f"no implementation for {q.fid!r}")
    f = gamma[q.fid]
    lvars = sorted(lv_assertion(q.pre) | lv_assertion(q.post_ok) | lv_assertion(q.post_err))
    domain = bounds.sorted_domain()
    if len(domain) ** len(lvars) > _ENUM_CAP:
        return Inconclusive("interpretation space exceeds the enumeration cap")
    from .assertions import split_external_pre

    param_map, _ = split_external_pre(q.pre, q.params)
    heaps = list(bundle.cmm.generator(bounds))
    where = {}  # frozen heap -> its positions in generator order
    for i, h in enumerate(heaps):
        where.setdefault(_freeze(h), []).append(i)
    complete = True
    run_cache = {}

    def runs(args, mem):
        key = (args, _freeze(mem))
        if key not in run_cache:
            run_cache[key] = run_function(
                gamma, q.fid, args, mem, bundle.cmm, budget, bounds.max_addresses
            )
        return run_cache[key]

    sat = lambda theta, store, mem, a: holds(
        theta, store, mem, a, cmm=bundle.cmm, rm=bundle.rm, preds=preds, bounds=bounds
    )
    fp = lambda theta, store, a: footprint(theta, store, a, bundle.cmm, bundle.rm)

    def visit(theta, store, a):
        """Positions of the heaps on which `a` may hold, in generator order."""
        a_fp = fp(theta, store, a)
        if a_fp is UNKNOWN:
            return range(len(heaps))
        return where.get(_freeze(a_fp), ()) if a_fp is not None else ()

    pre_pure = pure_conjuncts(q.pre)
    posts = [
        (o, post, var, pure_conjuncts(post))
        for o, post, var in ((OK, q.post_ok, "ret"), (ERR, q.post_err, "err"))
    ]
    # the ISL value list: the domain and every value some heap holds
    isl_vals = set(domain)
    for h in heaps:
        isl_vals |= bundle.cmm.mem_values(h)
    isl_vals = sorted(isl_vals, key=value_key)

    for combo in itertools.product(domain, repeat=len(lvars)):
        theta = dict(zip(lvars, combo))
        args = tuple(theta.get(param_map[x]) for x in q.params)
        store = dict(zip(q.params, args))
        pre_heaps = []
        if pure_holds(pre_pure, theta, store):
            try:
                pre_heaps = [
                    heaps[i] for i in visit(theta, store, q.pre) if sat(theta, store, heaps[i], q.pre)
                ]
            except DepthExceeded:
                complete = False
                continue

        if q.flavor in ("SL", "ESL"):
            for h in pre_heaps:
                try:
                    results = runs(args, h)
                except BudgetExhausted:
                    complete = False
                    continue
                for o, out, h2 in results:
                    if o is MISS:
                        return CounterExample(
                            "miss", theta, {"heap": h, "payload": out}
                        )
                    post = q.post_ok if o is OK else q.post_err
                    var = "ret" if o is OK else "err"
                    try:
                        ok = may_hold(fp(theta, {var: out}, post), h2) and sat(theta, {var: out}, h2, post)
                    except DepthExceeded:
                        complete = False
                        continue
                    if not ok:
                        return CounterExample(
                            "post-violated",
                            theta,
                            {"heap": h, "outcome": o.value, var: out, "final-heap": h2},
                        )

        if q.flavor in ("ISL", "ESL"):
            for o, post, var, post_pure in posts:
                vals = [v for v in isl_vals if pure_holds(post_pure, theta, {var: v})]
                # heap-outer, value-inner, as if every pair were visited
                pairs = sorted((i, k) for k, v in enumerate(vals) for i in visit(theta, {var: v}, post))
                for i, k in pairs:
                    h2, v = heaps[i], vals[k]
                    try:
                        if not sat(theta, {var: v}, h2, post):
                            continue
                    except DepthExceeded:
                        complete = False
                        continue
                    reached = False
                    for h in pre_heaps:
                        try:
                            results = runs(args, h)
                        except BudgetExhausted:
                            complete = False
                            continue
                        if any(
                            o2 is o and out == v and h3 == h2
                            for o2, out, h3 in results
                        ):
                            reached = True
                            break
                    if not reached:
                        return CounterExample(
                            "unreachable-post",
                            theta,
                            {"outcome": o.value, var: v, "final-heap": h2},
                        )
    return Valid() if complete else Inconclusive("bounded enumeration was truncated")


def _freeze(mem):
    if isinstance(mem, dict):
        return tuple(sorted(((_freeze(k), _freeze(v)) for k, v in mem.items()), key=repr))
    if isinstance(mem, tuple):
        return tuple(_freeze(v) for v in mem)
    if isinstance(mem, (set, frozenset)):
        return ("set", tuple(sorted((_freeze(v) for v in mem), key=repr)))
    return mem
