"""The memory-model-parametric symbolic execution engine.

Symbolic states pair a symbolic store, a model-owned symbolic memory, a
multiset of user-defined predicate instances and a path condition. The
engine executes commands in one of three modes:

  OX  over-approximate: keeps every path (unknown satisfiability included),
      consumes boolean assertions by entailment; basis for verification.
  UX  under-approximate: may drop paths (and does so on solver Unknowns),
      consumes boolean assertions by conjoining them; basis for
      bug-finding.
  EX  exact: results valid in both readings; only exact specifications
      are used for calls.

Angelic choices (specification selection, match selection, disjunct
selection) are resolved through an Oracle; choice sets are
deterministically ordered so oracle prefixes identify paths.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from enum import Enum

from .assertions import (
    Assertion,
    Bool,
    Emp,
    Exists,
    Implies,
    Or,
    Pred,
    PredTable,
    Res,
    SpecContext,
    Star,
    TrueA,
    disjuncts,
    format_assertion,
    lv_assertion,
    pv_assertion,
    split_external_pre,
    subst_assertion_pvars,
)
from .concrete import ConcreteState
from .evaluation import eval_lexpr
from .memmodel import Bounds, MemoryModelBundle
from .oracle import Oracle
from .outcomes import ABORT, ERR, MISS, OK, Outcome
from .satisfaction import heap_models
from .solver import (
    Entail, Sat, _literals_in, check_sat, entails, enumeration_domain, models, pc_extend, pc_lvars,
    refuted,
)
from .syntax import (
    Action,
    Assign,
    Bin,
    Cmd,
    Expr,
    Fold,
    FunCall,
    IfElse,
    InType,
    InVal,
    LVar,
    Lit,
    LstE,
    Not,
    Seq,
    Skip,
    Unfold,
    conj,
    eq,
    format_expr,
    lv_expr,
    pv_expr,
    subst_expr,
    subst_pvars,
)
from .values import FALSE, TRUE, UNDEF


class Mode(Enum):
    OX = "ox"
    UX = "ux"
    EX = "ex"


class EngineError(Exception):
    pass


class ProduceUndefined(EngineError):
    """The model has no such resource with these arities, or produce_res
    yielded no result (e.g. a duplicated exclusive cell)."""


class UnsupportedAssertion(EngineError):
    pass


@dataclass(frozen=True)
class PredInstance:
    name: str
    ins: tuple
    outs: tuple

    def key(self):
        return (
            self.name,
            tuple(format_expr(e) for e in self.ins),
            tuple(format_expr(e) for e in self.outs),
        )


_KEEP = object()  # a field `SymbolicState.with_` leaves as it is


@dataclass(frozen=True)
class SymbolicState:
    store: dict
    mem: object
    preds: tuple  # multiset of PredInstance
    pc: tuple  # conjunction of pv-free expressions

    def with_(self, store=_KEEP, mem=_KEEP, preds=_KEEP, pc=_KEEP) -> "SymbolicState":
        """`dataclasses.replace(self, ...)`, built directly."""
        return SymbolicState(
            self.store if store is _KEEP else store,
            self.mem if mem is _KEEP else mem,
            self.preds if preds is _KEEP else preds,
            self.pc if pc is _KEEP else pc,
        )

    def extend_pc(self, conjuncts) -> "SymbolicState":
        return self.with_(pc=pc_extend(self.pc, conjuncts))

    def lvars(self, smm) -> frozenset:
        out = frozenset()
        for e in self.store.values():
            out |= lv_expr(e)
        out |= smm.lvars(self.mem)
        for inst in self.preds:
            for e in inst.ins + inst.outs:
                out |= lv_expr(e)
        return out | pc_lvars(self.pc)


def initial_state(smm, store=None, pc=()) -> SymbolicState:
    return SymbolicState(dict(store or {}), smm.empty, (), tuple(pc))


@dataclass(frozen=True)
class Branch:
    outcome: Outcome
    oracle: Oracle
    state: SymbolicState
    reason: tuple = ()  # abort payloads and similar diagnostics
    fixes: tuple = ()  # assertions produced bi-abductively along this path


# bi-abductive fixes a UX path may apply in a row at one action
MAX_FIXES = 4


@dataclass
class EngineContext:
    mode: Mode
    specs: SpecContext
    bundle: MemoryModelBundle
    preds: PredTable
    bounds: Bounds
    budget: int = 64
    fixing: bool = False
    trace: list = None
    _fresh_counter: int = 0

    def fresh(self) -> str:
        name = f"fresh_{self._fresh_counter}"
        self._fresh_counter += 1
        return name

    def seed_fresh(self, names):
        """Start the fresh counter above every fresh_<n> among `names`, the
        logical variables already in use."""
        for name in names:
            m = re.fullmatch(r"fresh_(\d+)", name)
            if m:
                self._fresh_counter = max(self._fresh_counter, int(m.group(1)) + 1)

    def note(self, rule, outcome, pc_delta):
        if self.trace is not None:
            self.trace.append(
                {
                    "rule": rule,
                    "outcome": outcome.value,
                    "pc_delta": [format_expr(c) for c in pc_delta],
                }
            )

    # path policy -------------------------------------------------------------

    def keep_path(self, state: SymbolicState) -> bool:
        """UX keeps a path the solver shows satisfiable; OX and EX keep
        every path its core does not refute."""
        if self.mode is Mode.UX:
            return isinstance(check_sat(state.pc, self.bounds), Sat)
        return not refuted(state.pc, self.bounds)

    def branch(self, rule, outcome, oracle, state, delta) -> list:
        """[the branch] when the mode keeps its path, noting `rule` with
        the path-condition conjuncts `delta`; [] otherwise."""
        if not self.keep_path(state):
            return []
        self.note(rule, outcome, delta)
        return [Branch(outcome, oracle, state)]

    def implied(self, state: SymbolicState, e: Expr) -> bool:
        return entails(state.pc, e, self.bounds) is Entail.YES

    def pure_holds(self, state: SymbolicState, e: Expr):
        """consume of a boolean assertion: [state'] on success, [] on a
        UX-style drop, or None to signal an OX entailment failure."""
        if self.mode is Mode.OX:
            if self.implied(state, e):
                return [state]
            return None
        st2 = state.extend_pc([e])
        if self.keep_path(st2):
            return [st2]
        return []


def sym_eval(e: Expr, store: dict) -> Expr:
    """Evaluate program variables against the symbolic store. Logical
    variables pass through; definedness is the engine's obligation, via
    path-condition guards."""
    missing = pv_expr(e) - store.keys()
    if missing:
        raise EngineError(f"unbound program variables {sorted(missing)} in {format_expr(e)}")
    return subst_pvars(e, store)


def _guards(exprs) -> list:
    return [InVal(e) for e in exprs]


def sym_exec(ctx: EngineContext, oracle: Oracle, state: SymbolicState, cmd: Cmd) -> list:
    """All engine branches for cmd from state: a list of Branch records."""
    if isinstance(cmd, Skip):
        ctx.note("skip", OK, ())
        return [Branch(OK, oracle, state)]
    if isinstance(cmd, Assign):
        return _exec_assign(ctx, oracle, state, cmd)
    if isinstance(cmd, IfElse):
        return _exec_if(ctx, oracle, state, cmd)
    if isinstance(cmd, Seq):
        out = []
        for br in sym_exec(ctx, oracle, state, cmd.first):
            if br.outcome is OK:
                for br2 in sym_exec(ctx, br.oracle, br.state, cmd.second):
                    out.append(replace(br2, fixes=br.fixes + br2.fixes))
            else:
                out.append(br)
        return out
    if isinstance(cmd, Action):
        return _exec_action(ctx, oracle, state, cmd)
    if isinstance(cmd, FunCall):
        return _exec_call(ctx, oracle, state, cmd)
    if isinstance(cmd, Fold):
        return _exec_fold(ctx, oracle, state, cmd)
    if isinstance(cmd, Unfold):
        return _exec_unfold(ctx, oracle, state, cmd)
    raise TypeError(f"not a command: {cmd!r}")


def _exec_assign(ctx, oracle, state, cmd: Assign):
    e = sym_eval(cmd.expr, state.store)
    ok_guards = _guards([e])
    st_ok = state.with_(store={**state.store, cmd.var: e}).extend_pc(ok_guards)
    out = ctx.branch("assign", OK, oracle, st_ok, ok_guards)
    return out + _eval_error(ctx, oracle, state, [e], "assign-err-eval")


def _eval_error(ctx, oracle, state, exprs, rule) -> list:
    """The error branch on which some of `exprs` fails to evaluate, when
    it is feasible."""
    bad = Not(conj([InVal(e) for e in exprs]))
    st = state.with_(store={**state.store, "err": Lit("ExprEval")}).extend_pc([bad])
    return ctx.branch(rule, ERR, oracle, st, (bad,))


def _exec_if(ctx, oracle, state, cmd: IfElse):
    e = sym_eval(cmd.cond, state.store)
    out = []
    for val, branch_cmd, rule in ((TRUE, cmd.then, "if-then"), (FALSE, cmd.els, "if-else")):
        guard = (eq(e, Lit(val)),)
        for br in ctx.branch(rule, OK, oracle, state.extend_pc(guard), guard):
            out.extend(sym_exec(ctx, oracle, br.state, branch_cmd))
    out += _eval_error(ctx, oracle, state, [e], "if-err-eval")
    ty = [InVal(e), Not(InType(e, "bool"))]
    st_ty = state.with_(store={**state.store, "err": Lit("Type")}).extend_pc(ty)
    return out + ctx.branch("if-err-type", ERR, oracle, st_ty, ty)


def _exec_action(ctx, oracle, state, cmd: Action, fix_depth: int = 0):
    args = [sym_eval(a, state.store) for a in cmd.args]
    smm = ctx.bundle.smm
    out = []
    for o, mem2, pc_frag, outs in smm.exec_action(state.mem, cmd.name, tuple(args), ctx.fresh):
        if o is OK and len(outs) == len(cmd.targets):
            old = [state.store[x] for x in cmd.targets if x in state.store]
            st = state.with_(store={**state.store, **dict(zip(cmd.targets, outs))}, mem=mem2)
            st = st.extend_pc([*pc_frag, *_guards([*old, *args, *outs])])
            out += ctx.branch("action", OK, oracle, st, pc_frag)
        elif o is OK:
            st = state.with_(store={**state.store, "err": Lit("ActionArgsLength")}, mem=mem2)
            st = st.extend_pc([*pc_frag, *_guards([*args, *outs])])
            out += ctx.branch("action-err-length", ERR, oracle, st, pc_frag)
        else:
            st = state.with_(store={**state.store, "err": LstE(tuple(outs))}, mem=mem2)
            st = st.extend_pc([*pc_frag, *_guards(args)])
            if not ctx.keep_path(st):
                continue
            if ctx.fixing and o in (MISS, ABORT) and fix_depth < MAX_FIXES:
                fixed = _fix_and_retry(ctx, oracle, state, cmd, st, outs, fix_depth)
                if fixed is not None:
                    out.extend(fixed)
                    continue
            ctx.note(f"action-{o.value}", o, pc_frag)
            out.append(Branch(o, oracle, st, reason=tuple(outs)))
    if args:
        out += _eval_error(ctx, oracle, state, args, "action-err-eval")
    return out


def _fix_and_retry(ctx, oracle, state, cmd, miss_state, payload, fix_depth):
    """Bi-abduction: ask the model for fixes, produce each into the state
    preceding the failing action, and retry. None when no fix applies."""
    smm = ctx.bundle.smm
    if smm.fixes is None:
        return None
    # the payload and the faulting state view travel to the model
    candidates = smm.fixes(tuple(payload), miss_state, ctx.fresh)
    if not candidates:
        return None
    out = []
    for idx, fix_assertion in enumerate(candidates):
        subst = {x: LVar(x) for x in lv_assertion(fix_assertion)}
        try:
            produced = produce(ctx, fix_assertion, subst, state)
        except EngineError:
            continue
        for st2 in produced:
            for br in _exec_action(ctx, oracle, st2, cmd, fix_depth + 1):
                out.append(replace(br, fixes=(fix_assertion,) + br.fixes))
    return out if out else None


def _exec_call(ctx, oracle, state, cmd: FunCall):
    specs = ctx.specs.compatible(cmd.fid, ctx.mode)
    if not specs:
        return [_abort_branch(ctx, "call-no-spec", oracle, state, (Lit("NoSpec"), Lit(cmd.fid)))]
    q, oracle = oracle.pick(specs)
    if len(cmd.args) != len(q.params):
        st = state.with_(store={**state.store, "err": Lit("FuncArgsLength")})
        ctx.note("call-err-arity", ERR, ())
        return [Branch(ERR, oracle, st)]
    args = [sym_eval(a, state.store) for a in cmd.args]
    param_map, spatial_pre = split_external_pre(q.pre, q.params)
    subst = {param_map[x]: e for x, e in zip(q.params, args)}
    st0 = state.extend_pc(_guards(args))
    if not ctx.keep_path(st0):
        return []
    out = []
    for o_c, oracle2, subst2, st_frame, reason in consume(ctx, oracle, spatial_pre, subst, st0):
        if o_c is not OK:
            out.append(_abort_branch(ctx, "call-consume-abort", oracle2, st_frame, reason))
            continue
        out.extend(
            _call_post(ctx, oracle2, st_frame, subst2, cmd.target, "ret", q.post_ok, OK)
        )
        out.extend(
            _call_post(ctx, oracle2, st_frame, subst2, "err", "err", q.post_err, ERR)
        )
    return out


def _call_post(ctx, oracle, state, subst, target_var, post_var, post, outcome):
    """Produce one postcondition of a call and bind its distinguished
    variable (ret / err) to a fresh symbol assigned to the target."""
    fresh_name = ctx.fresh()
    sym = LVar(fresh_name)
    post_assertion = subst_assertion_pvars(post, {post_var: LVar(fresh_name + "_v")})
    subst2 = {**subst, fresh_name + "_v": sym}
    st = state.extend_pc([InVal(sym)])
    try:
        produced = produce(ctx, post_assertion, subst2, st)
    except EngineError as exc:
        reason = (Lit("ProduceFailed"), Lit(str(exc)))
        return [_abort_branch(ctx, "call-produce-abort", oracle, state, reason)]
    out = []
    for st2 in produced:
        guards = _guards([st2.store[target_var]]) if target_var in st2.store else []
        st3 = st2.with_(store={**st2.store, target_var: sym}).extend_pc(guards)
        out += ctx.branch(f"call-{outcome.value}", outcome, oracle, st3, ())
    return out


def _abort_branch(ctx, rule, oracle, state, reason) -> Branch:
    """An abort branch, noted as `rule`."""
    ctx.note(rule, ABORT, ())
    return Branch(ABORT, oracle, state, reason=reason)


def _pred_cmd_abort(ctx, oracle, state, cmd, keyword):
    """The abort of a fold or unfold outside OX mode or of an unknown
    predicate; None when neither applies."""
    if ctx.mode is not Mode.OX:
        reason = (Lit("UnsupportedInMode"), Lit(keyword))
        return [_abort_branch(ctx, f"{keyword}-unsupported", oracle, state, reason)]
    if cmd.pred not in ctx.preds:
        reason = (Lit("UnknownPredicate"), Lit(cmd.pred))
        return [_abort_branch(ctx, f"{keyword}-unknown-pred", oracle, state, reason)]
    return None


def _exec_fold(ctx, oracle, state, cmd: Fold):
    aborted = _pred_cmd_abort(ctx, oracle, state, cmd, "fold")
    if aborted:
        return aborted
    d = ctx.preds[cmd.pred]
    if len(cmd.args) != len(d.ins):
        return [_abort_branch(ctx, "fold-arity", oracle, state, (Lit("PredArity"), Lit(cmd.pred)))]
    args = [sym_eval(a, state.store) for a in cmd.args]
    st0 = state.extend_pc(_guards(args))
    if not ctx.keep_path(st0):
        return []
    options = disjuncts(d.body)
    chosen, oracle = oracle.pick(options)
    subst = dict(zip(d.ins, args))
    out = []
    for o_c, oracle2, subst2, st2, reason in consume(ctx, oracle, chosen, subst, st0):
        if o_c is not OK:
            out.append(_abort_branch(ctx, "fold-consume-abort", oracle2, st2, reason))
            continue
        outs = tuple(subst2[x] for x in d.outs)
        inst = PredInstance(cmd.pred, tuple(args), outs)
        st3 = st2.with_(preds=st2.preds + (inst,)).extend_pc(_guards(outs))
        out += ctx.branch("fold", OK, oracle2, st3, ())
    return out


def _exec_unfold(ctx, oracle, state, cmd: Unfold):
    aborted = _pred_cmd_abort(ctx, oracle, state, cmd, "unfold")
    if aborted:
        return aborted
    d = ctx.preds[cmd.pred]
    args = [sym_eval(a, state.store) for a in cmd.args]
    st0 = state.extend_pc(_guards(args))
    if not ctx.keep_path(st0):
        return []
    candidates = _instances(st0, cmd.pred)
    if not candidates:
        reason = (Lit("NoPredInstance"), Lit(cmd.pred))
        return [_abort_branch(ctx, "unfold-no-instance", oracle, state, reason)]
    inst, oracle = oracle.pick(candidates)
    if len(args) != len(inst.ins):
        return [_abort_branch(ctx, "unfold-arity", oracle, state, (Lit("PredArity"), Lit(cmd.pred)))]
    check = conj([eq(a, i) for a, i in zip(args, inst.ins)])
    matched = ctx.pure_holds(st0, check)
    if matched is None or not matched:
        reason = (Lit("PredInsMismatch"), Lit(cmd.pred))
        return [_abort_branch(ctx, "unfold-ins-mismatch", oracle, st0, reason)]
    st1 = _without(matched[0], inst)
    subst = dict(zip(d.ins, inst.ins)) | dict(zip(d.outs, inst.outs))
    try:
        produced = produce(ctx, d.body, subst, st1)
    except EngineError as exc:
        reason = (Lit("ProduceFailed"), Lit(str(exc)))
        return [_abort_branch(ctx, "unfold-produce-abort", oracle, st1, reason)]
    out = []
    for st2 in produced:
        ctx.note("unfold", OK, ())
        out.append(Branch(OK, oracle, st2))
    return out


# ---------------------------------------------------------------------------
# consume / produce
# ---------------------------------------------------------------------------


def consume(ctx: EngineContext, oracle: Oracle, assertion: Assertion, subst: dict, state: SymbolicState):
    """Remove the assertion's state. Yields (outcome, oracle, subst, state,
    reason) with outcome ok or abort; the final substitution covers every
    logical variable of the assertion.

    Logical variables of the assertion not bound by the substitution are
    *pending*: they are learned during consumption, through resource and
    predicate out-parameters or through one-sided equalities. Logical
    variables that the caller substituted in (e.g. a return-value
    expression) pass through untouched.
    """
    if pv_assertion(assertion):
        raise EngineError(f"consume of an assertion with program variables: {format_assertion(assertion)}")
    pending = frozenset(lv_assertion(assertion) - subst.keys())
    out = []
    for o, or2, s2, st2, reason in _consume(ctx, oracle, assertion, dict(subst), state, pending):
        if o is OK:
            # any existential still unlearned denotes an arbitrary value
            for x in sorted(lv_assertion(assertion) - s2.keys()):
                s2, st2 = _witness(ctx, s2, st2, x)
        out.append((o, or2, s2, st2, reason))
    return out


def _witness(ctx, subst, state, x):
    """Bind the unlearned variable `x` to a fresh value."""
    witness = LVar(ctx.fresh())
    return {**subst, x: witness}, state.extend_pc([InVal(witness)])


def _abort(oracle, state, *reason):
    return (ABORT, oracle, {}, state, tuple(Lit(r) if isinstance(r, str) else r for r in reason))


def _consume(ctx, oracle, assertion, subst, state, pending):
    if isinstance(assertion, Emp):
        return [(OK, oracle, subst, state, ())]
    if isinstance(assertion, TrueA):
        # over-approximation may take the empty sub-heap; an information-
        # preserving reading does not exist, so UX aborts
        if ctx.mode is Mode.UX:
            return [_abort(oracle, state, "UnsupportedInMode", "True")]
        return [(OK, oracle, subst, state, ())]
    if isinstance(assertion, Bool):
        return _consume_bool(ctx, oracle, assertion.expr, subst, state, pending)
    if isinstance(assertion, Star):
        out = []
        for o, or2, s2, st2, reason in _consume(ctx, oracle, assertion.left, subst, state, pending):
            if o is not OK:
                out.append((o, or2, s2, st2, reason))
                continue
            out.extend(_consume(ctx, or2, assertion.right, s2, st2, pending))
        return out
    if isinstance(assertion, Exists):
        if ctx.mode is not Mode.OX:
            return [_abort(oracle, state, "UnsupportedInMode", "exists")]
        inner_subst = {k: v for k, v in subst.items() if k != assertion.var}
        results = _consume(
            ctx, oracle, assertion.body, inner_subst, state, pending | {assertion.var}
        )
        out = []
        for o, or2, s2, st2, reason in results:
            if o is OK:
                if assertion.var not in s2:
                    s2, st2 = _witness(ctx, s2, st2, assertion.var)
                # restore the caller's binding for a shadowed name
                if assertion.var in subst:
                    s2 = {**s2, assertion.var: subst[assertion.var]}
            out.append((o, or2, s2, st2, reason))
        return out
    if isinstance(assertion, Res):
        return _consume_resource(ctx, oracle, assertion, subst, state, pending)
    if isinstance(assertion, Pred):
        return _consume_pred(ctx, oracle, assertion, subst, state, pending)
    if isinstance(assertion, (Or, Implies)):
        return [_abort(oracle, state, "UnsupportedAssertion", format_assertion(assertion))]
    raise TypeError(f"not an assertion: {assertion!r}")


def _consume_bool(ctx, oracle, expr, subst, state, pending):
    e = subst_expr(expr, subst)
    open_vars = lv_expr(e) & pending - subst.keys()
    if open_vars:
        # learn a pending variable from a one-sided equality
        if isinstance(e, Bin) and e.op == "=":
            for var_side, val_side in ((e.left, e.right), (e.right, e.left)):
                if (
                    isinstance(var_side, LVar)
                    and var_side.name in open_vars
                    and not (lv_expr(val_side) & pending - subst.keys())
                ):
                    subst2 = {**subst, var_side.name: val_side}
                    return [(OK, oracle, subst2, state, ())]
        return [_abort(oracle, state, "UnboundLVar", *sorted(open_vars))]
    res = ctx.pure_holds(state, e)
    if res is None:
        return [_abort(oracle, state, "NotEntailed", e)]
    return [(OK, oracle, subst, st, ()) for st in res]


def _open_in(exprs, subst, pending):
    out = frozenset()
    for e in exprs:
        out |= lv_expr(e) & pending - subst.keys()
    return out


def _consume_resource(ctx, oracle, assertion: Res, subst, state, pending):
    smm = ctx.bundle.smm
    unbound = _open_in(assertion.ins, subst, pending)
    if unbound:
        return [_abort(oracle, state, "UnboundLVar", *sorted(unbound))]
    ins = tuple(subst_expr(e, subst) for e in assertion.ins)
    n_in, n_out = ctx.bundle.rm.arities.get(assertion.name, (None, None))
    if n_in == len(ins):
        branches = smm.consume_res(ctx.mode, oracle, assertion.name, ins, state.mem)
    else:
        # the model has no such resource: one abort without a reason
        branches = [(ABORT, oracle, (), (state.mem, (), ()))]
    out = []
    for o, oracle2, outs, (mem2, checks, pc_frag) in branches:
        if o is not OK:
            st = state.extend_pc(pc_frag)
            if not refuted(st.pc, ctx.bounds):
                out.append((ABORT, oracle2, dict(subst), st, tuple(outs)))
            continue
        # the check conjuncts must already be implied by the consuming state
        if not all(ctx.implied(state, c) for c in checks):
            continue
        st = state.with_(mem=mem2).extend_pc(pc_frag)
        if not ctx.keep_path(st):
            continue
        if n_out != len(assertion.outs):
            out.append(_abort(oracle2, state, "ResourceArity", assertion.name))
            continue
        out.extend(_unify_outs(ctx, oracle2, subst, st, assertion.outs, outs, pending))
    return out


def _unify_outs(ctx, oracle, subst, state, out_exprs, learned, pending):
    """Bind pending out-parameters; check already-determined ones as pure
    facts in the current mode."""
    subst2 = dict(subst)
    states = [state]
    for a_out, got in zip(out_exprs, learned):
        if isinstance(a_out, LVar) and a_out.name in pending and a_out.name not in subst2:
            subst2[a_out.name] = got
            continue
        unbound = lv_expr(a_out) & pending - subst2.keys()
        if unbound:
            return [_abort(oracle, state, "UnboundLVar", *sorted(unbound))]
        want = subst_expr(a_out, subst2)
        next_states = []
        for st in states:
            res = ctx.pure_holds(st, eq(want, got))
            if res is None:
                return [_abort(oracle, st, "NotEntailed", eq(want, got))]
            next_states.extend(res)
        states = next_states
    return [(OK, oracle, subst2, st, ()) for st in states]


def _consume_pred(ctx, oracle, assertion: Pred, subst, state, pending):
    unbound = _open_in(assertion.ins, subst, pending)
    if unbound:
        return [_abort(oracle, state, "UnboundLVar", *sorted(unbound))]
    ins = tuple(subst_expr(e, subst) for e in assertion.ins)
    candidates = _instances(state, assertion.name)
    if not candidates:
        return [_abort(oracle, state, "NoPredInstance", assertion.name)]
    inst, oracle2 = oracle.pick(candidates)
    if len(inst.ins) != len(ins) or len(inst.outs) != len(assertion.outs):
        return [_abort(oracle2, state, "PredArity", assertion.name)]
    check = conj([eq(a, b) for a, b in zip(ins, inst.ins)])
    matched = ctx.pure_holds(state, check)
    if matched is None:
        return [_abort(oracle2, state, "NotEntailed", check)]
    out = []
    for st in matched:
        out.extend(_unify_outs(ctx, oracle2, subst, _without(st, inst), assertion.outs, inst.outs, pending))
    return out


def _instances(state, name) -> list:
    """The state's instances of predicate `name`, in a fixed order."""
    return sorted((inst for inst in state.preds if inst.name == name), key=PredInstance.key)


def _without(state, inst):
    """The state with one occurrence of the instance `inst` removed."""
    remaining = list(state.preds)
    remaining.remove(inst)
    return state.with_(preds=tuple(remaining))


def produce(ctx: EngineContext, assertion: Assertion, subst: dict, state: SymbolicState) -> list:
    """Add the assertion's state; branches over disjunctions and model
    choices, pruning unsatisfiable results."""
    if pv_assertion(assertion):
        raise EngineError(f"produce of an assertion with program variables: {format_assertion(assertion)}")
    unbound = lv_assertion(assertion) - subst.keys()
    if unbound:
        raise EngineError(f"produce with unbound logical variables {sorted(unbound)}")
    return _produce(ctx, assertion, dict(subst), state)


def _produce(ctx, assertion, subst, state):
    if isinstance(assertion, Emp):
        return [state]
    if isinstance(assertion, TrueA):
        raise UnsupportedAssertion("cannot produce True")
    if isinstance(assertion, Implies):
        raise UnsupportedAssertion("cannot produce an implication")
    if isinstance(assertion, Bool):
        e = subst_expr(assertion.expr, subst)
        st = state.extend_pc([e])
        return [st] if not refuted(st.pc, ctx.bounds) else []
    if isinstance(assertion, Star):
        out = []
        for st in _produce(ctx, assertion.left, subst, state):
            out.extend(_produce(ctx, assertion.right, subst, st))
        return out
    if isinstance(assertion, Or):
        return _produce(ctx, assertion.left, subst, state) + _produce(
            ctx, assertion.right, subst, state
        )
    if isinstance(assertion, Exists):
        witness = LVar(ctx.fresh())
        subst2 = {**subst, assertion.var: witness}
        return _produce(ctx, assertion.body, subst2, state)
    if isinstance(assertion, Res):
        ins = tuple(subst_expr(e, subst) for e in assertion.ins)
        outs = tuple(subst_expr(e, subst) for e in assertion.outs)
        results = []
        if ctx.bundle.rm.arities.get(assertion.name) == (len(ins), len(outs)):
            results = ctx.bundle.smm.produce_res(assertion.name, ins, outs, state.mem)
        if not results:
            raise ProduceUndefined(assertion.name)
        # resource parameters denote values in every model of the result
        guards = [InVal(e) for e in ins + outs]
        out = []
        for mem2, pc_frag in results:
            st = state.with_(mem=mem2).extend_pc(list(pc_frag) + guards)
            if not refuted(st.pc, ctx.bounds):
                out.append(st)
        return out
    if isinstance(assertion, Pred):
        ins = tuple(subst_expr(e, subst) for e in assertion.ins)
        outs = tuple(subst_expr(e, subst) for e in assertion.outs)
        inst = PredInstance(assertion.name, ins, outs)
        guards = [InVal(e) for e in ins + outs]
        return [state.with_(preds=state.preds + (inst,)).extend_pc(guards)]
    raise TypeError(f"not an assertion: {assertion!r}")


# ---------------------------------------------------------------------------
# Bounded model enumeration for symbolic states
# ---------------------------------------------------------------------------


def models_of(
    state: SymbolicState,
    bundle: MemoryModelBundle,
    preds: PredTable,
    bounds: Bounds,
    extra_lvars=(),
):
    """Bounded enumeration of (interpretation, concrete state) models of a
    symbolic state; the ground-truth relation for the soundness harnesses.
    The search also asks the memory's `pure_facts`, which every model
    makes true, so an interpretation under which the memory denotes
    nothing is cut off at the variable that decides it. The domain stays
    the path condition's: the result is that of searching `state.pc`
    alone, in the same order."""
    lvars = sorted(state.lvars(bundle.smm) | set(extra_lvars))
    domain = enumeration_domain(state.pc, bounds, _state_values(state))
    facts = tuple(bundle.smm.pure_facts(state.mem))
    out = []
    for theta in models(state.pc + facts, lvars, domain, bounds):
        for st in models_under(theta, state, bundle, preds, bounds):
            out.append((theta, st))
    return out


def models_under(theta, state: SymbolicState, bundle, preds, bounds) -> list:
    """Concrete states related to the symbolic state under a fixed
    interpretation. The caller must pass a `theta` that makes every
    conjunct of `state.pc` true: it is not checked again here."""
    mem_part = bundle.smm.concretize(theta, state.mem)
    if mem_part is None:
        return []
    store = {}
    for x, e in state.store.items():
        v = eval_lexpr(e, theta, {})
        if v is UNDEF:
            return []
        store[x] = v
    out = []
    for pred_mem in _pred_models(theta, state.preds, bundle, preds, bounds):
        mem = bundle.cmm.compose(mem_part, pred_mem)
        if mem is None or not bundle.cmm.is_wf(mem):
            continue
        out.append(ConcreteState(store, mem))
    return out


def _state_values(state: SymbolicState):
    out = set()
    for e in state.store.values():
        _literals_in(e, out)
    for inst in state.preds:
        for e in inst.ins + inst.outs:
            _literals_in(e, out)
    return out


def _pred_models(theta, instances, bundle, preds, bounds):
    """Concrete memories satisfying the predicate multiset under theta."""
    if not instances:
        return [bundle.cmm.empty]
    first, rest = instances[0], instances[1:]
    if first.name not in preds:
        return []
    body = preds[first.name].instantiate(first.ins, first.outs)
    out = []
    for mem1 in heap_models(
        theta, {}, body, cmm=bundle.cmm, rm=bundle.rm, preds=preds, bounds=bounds
    ):
        for mem2 in _pred_models(theta, rest, bundle, preds, bounds):
            composed = bundle.cmm.compose(mem1, mem2)
            if composed is not None:
                out.append(composed)
    return out
