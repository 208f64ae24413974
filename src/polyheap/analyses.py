"""The two analyses: function-specification verification (over-approximate)
and bi-abductive true bug-finding (under-approximate).

Verification produces the precondition into a fresh symbolic state,
executes the body, and consumes the postcondition on every ending of a
path (`_endings`, which bug-finding shares); a path verifies when all
surviving consume aborts are unsatisfiable and every successful
consumption leaves nothing behind. A top-level `True` conjunct of an SL
postcondition absorbs leftovers; an ESL postcondition keeps the check.

Bug-finding executes from an empty heap; missing-resource faults are
patched by the model's fixes, which accumulate into an anti-heap that
becomes the synthesized precondition. Every emitted report is replayed
against the concrete semantics over bounded models.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .assertions import (
    Assertion,
    Bool,
    FALSE_A,
    Pred as PredAssertion,
    Quadruple,
    SpecContext,
    TrueA,
    format_assertion,
    lv_assertion,
    normalize,
    split_external_pre,
    star_all,
    star_conjuncts,
    subst_assertion_pvars,
)
from .concrete import ConcreteState, endings, run, unreached
from .engine import (
    Branch,
    EngineContext,
    EngineError,
    Mode,
    SymbolicState,
    consume,
    models_of,
    models_under,
    produce,
    sym_eval,
    sym_exec,
)
from .memmodel import Bounds, MemoryModelBundle
from .oracle import Oracle, explore
from .outcomes import ABORT, ERR, MISS, OK
from .quadcheck import Inconclusive, check_quadruple_bounded
from .satisfaction import DepthExceeded, heap_models
from .solver import UNSAT, check_sat
from .syntax import (
    FunctionDef,
    ImplContext,
    InVal,
    LVar,
    Lit,
    NIL_E,
    Not,
    PVar,
    called_fids,
    eq,
    format_expr,
    lv_expr,
    prog_vars,
)
from .values import is_nat


class UnsupportedCapability(Exception):
    pass


class Verified:
    def __repr__(self):
        return "Verified"


@dataclass
class Failed:
    paths: list  # {reason, outcome, pc} summaries

    def __repr__(self):
        return f"Failed({len(self.paths)} paths)"


def _reachable(gamma: ImplContext, fid: str) -> frozenset:
    seen = set()
    work = [fid]
    while work:
        f = work.pop()
        if f in seen or f not in gamma:
            continue
        seen.add(f)
        work.extend(called_fids(gamma[f].body))
    return frozenset(seen)


# the most angelic-choice runs verify_ox tries before it gives up
ORACLE_RUNS = 40


def verify_ox(
    gamma: ImplContext,
    specs: SpecContext,
    fid: str,
    q: Quadruple,
    bundle: MemoryModelBundle,
    preds=None,
    bounds: Bounds = None,
):
    """Verify an SL or ESL quadruple against the implementation."""
    preds = preds if preds is not None else {}
    bounds = bounds if bounds is not None else Bounds()
    if not bundle.declared_soundness.ox:
        raise UnsupportedCapability(f"{bundle.name} does not declare verification soundness")
    if q.flavor == "ISL":
        raise ValueError("verification applies to SL/ESL specifications")
    if fid not in gamma:
        raise KeyError(fid)
    f = gamma[fid]
    q.check_external_shape()
    if tuple(q.params) != tuple(f.params):
        return Failed([{"reason": "spec/definition parameter mismatch", "outcome": "-", "pc": []}])
    callees = called_fids(f.body)
    if any(fid in _reachable(gamma, g) for g in callees):
        return Failed([{"reason": "recursive functions are not supported", "outcome": "-", "pc": []}])

    # the spec under verification must not justify its own calls
    specs2 = SpecContext()
    for g, qs in specs.items():
        kept = [s for s in qs if not (g == fid and s == q)]
        if kept:
            specs2[g] = kept

    mode = Mode.EX if q.flavor == "ESL" else Mode.OX
    param_map, spatial_pre = split_external_pre(q.pre, q.params)
    state0 = _entry_state(f, param_map, bundle.smm)

    # one run per distinct resolution of the angelic choices, breadth
    # first; most verifications need only the first
    best = None
    for n, oracle in enumerate(explore()):
        if n == ORACLE_RUNS:
            return Inconclusive(f"no oracle run verified within {ORACLE_RUNS} runs")
        verdict = _verify_once(specs2, f, q, bundle, preds, bounds, mode, spatial_pre, state0, oracle)
        if isinstance(verdict, Verified):
            return verdict
        if best is None or isinstance(best, Failed) and isinstance(verdict, Inconclusive):
            best = verdict
    return best


def _entry_state(f, lvar_of, smm) -> SymbolicState:
    """The state the body of `f` starts from: each parameter `x` holds the
    logical variable `lvar_of[x]`, a value, and each local holds nil."""
    store = {x: LVar(lvar_of[x]) for x in f.params}
    for z in f.locals():
        store[z] = NIL_E
    pc = tuple(InVal(LVar(lvar_of[x])) for x in f.params)
    return SymbolicState(store, smm.empty, (), pc)


def _endings(ctx, f, br: Branch):
    """(outcome, state, value) for each ending of `f` on the finished
    branch `br`, the symbolic twin of `concrete.endings`: an ok branch
    ends ok or with ExprEval, as its return expression evaluates or not, on
    each path the mode keeps; any other branch ends with its payload."""
    if br.outcome is not OK:
        yield br.outcome, br.state, br.state.store.get("err", Lit("Unknown"))
        return
    ret = sym_eval(f.ret, br.state.store)
    for outcome, fact, value in ((OK, InVal(ret), ret), (ERR, Not(InVal(ret)), Lit("ExprEval"))):
        state = br.state.extend_pc([fact])
        if ctx.keep_path(state):
            yield outcome, state, value


def _verify_once(specs, f, q, bundle, preds, bounds, mode, spatial_pre, state0, oracle):
    ctx = EngineContext(mode, specs, bundle, preds, bounds)
    # engine names must not capture any variable of the quadruple
    ctx.seed_fresh(lv_assertion(q.pre) | lv_assertion(q.post_ok) | lv_assertion(q.post_err))
    subst = {x: LVar(x) for x in lv_assertion(q.pre)}
    try:
        produced = produce(ctx, spatial_pre, subst, state0)
    except EngineError as exc:
        return Inconclusive(f"precondition not producible: {exc}")
    failing = []
    unknown = []
    for st in produced:
        for br in sym_exec(ctx, oracle, st, f.body):
            _verify_branch(ctx, f, q, subst, br, failing, unknown)
    if failing:
        return Failed(failing)
    if unknown:
        return Inconclusive(f"{len(unknown)} paths undecided by the solver")
    return Verified()


def _verify_branch(ctx, f, q, subst, br: Branch, failing, unknown):
    def classify(state, reason, outcome):
        # a failing path needs a bounded state-level model to count: the
        # path condition alone over-approximates satisfiability (memory
        # and store constrain the same variables)
        if check_sat(state.pc, ctx.bounds) is UNSAT:
            return
        if models_of(state, ctx.bundle, ctx.preds, ctx.bounds):
            failing.append({
                "reason": reason,
                "outcome": outcome.value,
                "pc": [format_expr(c) for c in state.pc],
            })

    for outcome, state, value in _endings(ctx, f, br):
        if outcome in (ABORT, MISS):
            what = "abort" if outcome is ABORT else "missing resource"
            classify(state, f"{what}: {_fmt_reason(br.reason)}", outcome)
            continue
        var, post = ("ret", q.post_ok) if outcome is OK else ("err", q.post_err)
        # an SL post with a top-level True absorbs whatever is left over
        absorbs = ctx.mode is Mode.OX and any(isinstance(a, TrueA) for a in star_conjuncts(post))
        post = subst_assertion_pvars(post, {var: value})
        subst2 = {**subst, **{x: LVar(x) for x in lv_expr(value) if x not in subst}}
        for o, _, _, st, reason in consume(ctx, br.oracle, post, subst2, state):
            # failure models live in the branch state (full memory) under the
            # consume result's path condition: consumption only removes state,
            # and removed cells carry aliasing information with them
            witness_state = state.with_(pc=st.pc)
            if o is ABORT:
                classify(witness_state, f"postcondition not consumed: {_fmt_reason(reason)}", outcome)
            elif not absorbs and (st.mem != ctx.bundle.smm.empty or st.preds):
                classify(witness_state, "state left over after the postcondition", outcome)


def _fmt_reason(reason) -> str:
    parts = []
    for r in reason:
        try:
            parts.append(format_expr(r))
        except TypeError:
            parts.append(repr(r))
    return " ".join(parts) if parts else "-"


# ---------------------------------------------------------------------------
# Bi-abduction
# ---------------------------------------------------------------------------


@dataclass
class BugReport:
    fid: str
    outcome: str  # "ok" | "err" | "miss" | "abort"
    quadruple: Quadruple = None
    anti_heap: Assertion = None
    witness_pc: list = field(default_factory=list)
    replayed: bool = None
    quadruple_verdict: str = None
    unrecoverable: bool = False
    detail: str = ""

    def key(self):
        qk = None
        if self.quadruple is not None:
            qk = (
                format_assertion(normalize(self.quadruple.pre)),
                format_assertion(normalize(self.quadruple.post_ok)),
                format_assertion(normalize(self.quadruple.post_err)),
            )
        return (self.fid, self.outcome, qk)


def biabduct(
    gamma: ImplContext,
    specs: SpecContext,
    target,
    bundle: MemoryModelBundle,
    preds=None,
    bounds: Bounds = None,
    budget: int = 64,
    validate: bool = True,
) -> list:
    """Run bi-abductive bug-finding on a function id or a command."""
    preds = preds if preds is not None else {}
    bounds = bounds if bounds is not None else Bounds()
    if not bundle.declared_soundness.ux:
        raise UnsupportedCapability(f"{bundle.name} does not declare bug-finding soundness")
    if bundle.smm.fixes is None:
        raise UnsupportedCapability(f"{bundle.name} provides no fixes")
    if isinstance(target, str):
        fid = target
        f = gamma[fid]
        gamma2 = gamma
    else:
        fid = "anon"
        f = FunctionDef(fid, tuple(sorted(prog_vars(target))), target, NIL_E)
        gamma2 = ImplContext({**gamma})
        gamma2[fid] = f

    state0 = _entry_state(f, {x: x for x in f.params}, bundle.smm)
    ctx = EngineContext(Mode.UX, specs, bundle, preds, bounds, budget=budget, fixing=True)
    ctx.seed_fresh(state0.lvars(bundle.smm))

    reports = []
    for br in sym_exec(ctx, Oracle.constant(0), state0, f.body):
        reports.extend(_branch_reports(ctx, gamma2, f, state0, br, bounds, validate))
    # de-duplicate by normalised quadruple
    unique = {}
    for r in reports:
        unique.setdefault(r.key(), r)
    return list(unique.values())


def _branch_reports(ctx, gamma, f, state0, br: Branch, bounds, validate):
    out = []
    for outcome, state, value in _endings(ctx, f, br):
        if outcome in (MISS, ABORT):
            out.append(BugReport(
                fid=f.fid,
                outcome=outcome.value,
                anti_heap=star_all(br.fixes),
                witness_pc=[format_expr(c) for c in state.pc],
                unrecoverable=True,
                detail=_fmt_reason(br.reason),
            ))
            continue
        if outcome is ERR:
            # the report's models read the payload from the store
            state = state.with_(store={**state.store, "err": value})
        binding = Bool(eq(PVar("ret" if outcome is OK else "err"), value))
        out.append(_make_report(ctx, gamma, f, state0, state, br, outcome, binding, bounds, validate))
    return out


def _make_report(ctx, gamma, f, state0, final_state, br: Branch, outcome, binding, bounds, validate):
    anti = star_all(br.fixes)
    pc_bools = [Bool(c) for c in final_state.pc]
    pre_parts = [Bool(eq(PVar(x), LVar(x))) for x in f.params] + pc_bools + [anti]
    pre = star_all(pre_parts)
    post_parts = ctx.bundle.smm.mem_to_assertion(final_state.mem)
    post_parts += [PredAssertion(i.name, i.ins, i.outs) for i in final_state.preds]
    post_parts += pc_bools + [binding]
    post = star_all(post_parts)
    if outcome is OK:
        quad = Quadruple("ISL", f.fid, f.params, pre, post, FALSE_A)
    else:
        quad = Quadruple("ISL", f.fid, f.params, pre, FALSE_A, post)
    report = BugReport(
        fid=f.fid,
        outcome=outcome.value,
        quadruple=quad,
        anti_heap=anti,
        witness_pc=[format_expr(c) for c in final_state.pc],
    )
    report.replayed = _replay(ctx, gamma, f, state0, final_state, outcome, anti, bounds)
    if validate:
        try:
            verdict = check_quadruple_bounded(gamma, quad, bounds, ctx.bundle, ctx.preds)
            report.quadruple_verdict = type(verdict).__name__
        except Exception as exc:  # noqa: BLE001 - verdicts become diagnostics
            report.quadruple_verdict = f"error: {exc}"
    return report


def _replay(ctx, gamma, f, state0, final_state, outcome, anti, bounds) -> bool:
    """Soundness replay: every bounded model of the final state is
    concretely reachable from an initial model extended with anti-heap
    resources."""
    bundle = ctx.bundle
    initial = state0.with_(pc=final_state.pc)

    def runs_from(theta, target):
        # the fix heap may involve values that only occur in this model
        vals = bounds.domain_with(theta.values(), bundle.cmm.mem_values(target.mem))
        fix_bounds = replace(
            bounds,
            value_domain=tuple(vals),
            max_cells=max(bounds.max_cells, len(star_conjuncts(anti))),
            max_addresses=max(
                [bounds.max_addresses] + [v + 1 for v in vals if is_nat(v) and v < 8]
            ),
        )
        for start in models_under(theta, initial, bundle, ctx.preds, bounds):
            try:
                fix_heaps = heap_models(
                    theta, start.store, anti,
                    cmm=bundle.cmm, rm=bundle.rm, preds=ctx.preds, bounds=fix_bounds,
                )
            except DepthExceeded:
                continue
            for fix_mem in fix_heaps:
                whole = bundle.cmm.compose(start.mem, fix_mem)
                if whole is not None:
                    runs = run(
                        gamma, ConcreteState(start.store, whole), f.body, bundle.cmm,
                        budget=ctx.budget, max_addresses=bounds.max_addresses,
                    )
                    yield [(o, st) for o, st, _ in endings(f, runs)]

    return unreached(models_of(final_state, bundle, ctx.preds, bounds), runs_from, outcome) is None
