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
interpretation for the precondition, and for a postcondition once per
interpretation and value, or once per interpretation for a conjunct that
does not mention `ret`/`err`. An interpretation whose precondition fails
them has no precondition heap, and a value whose postcondition fails them
meets no heap. Survivors go through `holds` on the whole assertion in the
same heap-outer, value-inner order, so the verdict and the first
counterexample are those of checking every heap. The one exception: a
false conjunct next to a predicate that exceeds its unfolding depth now
rules the pair out instead of truncating the enumeration, so such a check
can be definite where it used to be Inconclusive.

Footprints prune it further. A star of pure conjuncts, `emp` and resources
holds on at most one heap (`satisfaction.footprint`). It is computed once
per interpretation for the precondition, once per run result for the SL
post check, and for the ISL one once per interpretation and value, or once
per interpretation when the post's resources do not mention `ret`/`err`.
The model says where its generator yields that heap (`positions`; the map
models work it out without running the generator), and `holds` checks it
once per position, in generator order. A star with a predicate, `exists`,
a disjunction, an implication or `True` in it has no footprint: then the
generated heaps are listed, once per call, and every one is visited, so
depth exhaustion shows exactly where it did. The ISL values are the domain
and the values the generated heaps hold (`generated_values`).

Interpretations are total and come from `itertools.product` over the
domain, within `solver._ENUM_CAP`, the one enumeration cap: a larger space
is Inconclusive. They cannot come from `solver.models` over the
precondition's pure part, because the ISL half needs the interpretations
the precondition rules out too: a post model under one of them is an
`unreachable-post` counterexample. The product is also cheaper per
interpretation than the backtracking search when nothing is pruned.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from . import solver
from .assertions import Quadruple, Res, lv_assertion, split_external_pre, star_conjuncts
from .concrete import BudgetExhausted, run_function
from .evaluation import all_true
from .memmodel import Bounds, MemoryModelBundle
from .outcomes import ERR, MISS, OK
from .satisfaction import UNKNOWN, DepthExceeded, footprint, holds, may_hold, pure_conjuncts
from .syntax import ImplContext, pv_expr


class Valid:
    def __repr__(self):
        return "Valid"


class Inconclusive:
    """No verdict within the bounds, and why; `check_quadruple_bounded`
    and `analyses.verify_ox` both give it."""

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
    if len(domain) ** len(lvars) > solver._ENUM_CAP:
        return Inconclusive("interpretation space exceeds the enumeration cap")
    param_map, _ = split_external_pre(q.pre, q.params)
    cmm = bundle.cmm
    complete = True
    run_cache = {}

    def runs(args, mem):
        key = (args, _freeze(mem))
        if key not in run_cache:
            run_cache[key] = run_function(
                gamma, q.fid, args, mem, cmm, budget, bounds.max_addresses
            )
        return run_cache[key]

    sat = lambda theta, store, mem, a: holds(
        theta, store, mem, a, cmm=cmm, rm=bundle.rm, preds=preds, bounds=bounds
    )
    fp = lambda theta, store, a: footprint(theta, store, a, cmm, bundle.rm)

    @functools.cache
    def generated():
        return list(enumerate(cmm.generator(bounds)))

    def visit(theta, store, a):
        """(position, heap) for each generated heap on which `a` may
        hold, in generator order."""
        a_fp = fp(theta, store, a)
        if a_fp is UNKNOWN:
            return generated()
        return [(p, a_fp) for p in cmm.positions(a_fp, bounds)] if a_fp is not None else []

    pre_pure = pure_conjuncts(q.pre)
    posts = []
    for o, post, var in ((OK, q.post_ok, "ret"), (ERR, q.post_err, "err")):
        pure = pure_conjuncts(post)
        # what does not mention the value is checked once per interpretation
        fixed_pure = [e for e in pure if var not in pv_expr(e)]
        var_pure = [e for e in pure if var in pv_expr(e)]
        fixed_fp = not any(
            var in pv_expr(e)
            for a in star_conjuncts(post) if isinstance(a, Res)
            for e in a.ins + a.outs
        )
        posts.append((o, post, var, fixed_pure, var_pure, fixed_fp))
    # the ISL value list: the domain and every value some heap holds
    isl_vals = bounds.domain_with(cmm.generated_values(bounds))

    for combo in itertools.product(domain, repeat=len(lvars)):
        theta = dict(zip(lvars, combo))
        args = tuple(theta.get(param_map[x]) for x in q.params)
        store = dict(zip(q.params, args))
        pre_heaps = []
        if all_true(pre_pure, theta, store):
            try:
                pre_heaps = [h for _, h in visit(theta, store, q.pre) if sat(theta, store, h, q.pre)]
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
            for o, post, var, fixed_pure, var_pure, fixed_fp in posts:
                if not all_true(fixed_pure, theta):
                    continue
                vals = [v for v in isl_vals if all_true(var_pure, theta, {var: v})]
                if not vals:
                    continue
                # heap-outer, value-inner, as if every pair were visited
                if fixed_fp:
                    pairs = [(h2, v) for _, h2 in visit(theta, {}, post) for v in vals]
                else:
                    spots = sorted(
                        ((p, k, h2) for k, v in enumerate(vals) for p, h2 in visit(theta, {var: v}, post)),
                        key=lambda t: t[:2],
                    )
                    pairs = [(h2, vals[k]) for _, k, h2 in spots]
                for h2, v in pairs:
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
