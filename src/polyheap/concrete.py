"""Big-step concrete semantics, parametric on a concrete memory model.

`run` returns every derivable (outcome, state) pair: the only sources of
nondeterminism are memory actions (e.g. the choice of fresh address in
allocation, enumerated up to `max_addresses`). Results are ordered
deterministically. Used both for direct execution and as the ground-truth
oracle in the differential soundness harnesses.

`unreached` states under-approximate validity once, for the engine
harness and the replay of bug reports: each model of a result is reached
by a run, from a model of the start, with a state that `covers` it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .evaluation import eval_expr
from .memmodel import ConcreteMemoryModel
from .outcomes import ERR, MISS, OK
from .syntax import (
    Action,
    Assign,
    Cmd,
    Fold,
    FunCall,
    IfElse,
    ImplContext,
    Seq,
    Skip,
    Unfold,
)
from .values import NIL, TRUE, UNDEF, VBool


class BudgetExhausted(Exception):
    """Function-call nesting exceeded the budget (not a language outcome)."""


@dataclass(frozen=True)
class ConcreteState:
    store: dict
    mem: object

    def with_store(self, **updates) -> "ConcreteState":
        return ConcreteState({**self.store, **updates}, self.mem)

    def covers(self, final: "ConcreteState") -> bool:
        """The same memory as `final`, and every variable of `final`'s
        store at its value here (this store may bind more)."""
        return self.mem == final.mem and all(self.store.get(x) == v for x, v in final.store.items())


def unreached(models, runs_from, outcome):
    """The first `(theta, final)` of `models` that no result list of
    `runs_from(theta, final)` reaches with `outcome` and a state that
    covers `final`, or None. Lazy: `models` is read no further than the
    answer, and `runs_from`'s lists are asked for one at a time and no
    further than the first that reaches, so a generator runs no more."""
    for theta, final in models:
        ends = (st for results in runs_from(theta, final) for o, st in results if o is outcome)
        if not any(st.covers(final) for st in ends):
            return theta, final
    return None


def run(
    gamma: ImplContext,
    state: ConcreteState,
    cmd: Cmd,
    cmm: ConcreteMemoryModel,
    budget: int = 32,
    max_addresses: int = 3,
):
    """All derivable (Outcome, ConcreteState) pairs of running cmd."""
    if isinstance(cmd, Skip):
        return [(OK, state)]
    if isinstance(cmd, (Fold, Unfold)):
        # ghost commands: no-ops concretely
        return [(OK, state)]
    if isinstance(cmd, Assign):
        v = eval_expr(cmd.expr, state.store)
        if v is UNDEF:
            return [(ERR, state.with_store(err="ExprEval"))]
        return [(OK, state.with_store(**{cmd.var: v}))]
    if isinstance(cmd, IfElse):
        v = eval_expr(cmd.cond, state.store)
        if v is UNDEF:
            return [(ERR, state.with_store(err="ExprEval"))]
        if not isinstance(v, VBool):
            return [(ERR, state.with_store(err="Type"))]
        branch = cmd.then if v is TRUE or v.b else cmd.els
        return run(gamma, state, branch, cmm, budget, max_addresses)
    if isinstance(cmd, Seq):
        results = []
        for o, st in run(gamma, state, cmd.first, cmm, budget, max_addresses):
            if o is OK:
                results.extend(run(gamma, st, cmd.second, cmm, budget, max_addresses))
            else:
                results.append((o, st))
        return results
    if isinstance(cmd, Action):
        return _run_action(state, cmd, cmm, max_addresses)
    if isinstance(cmd, FunCall):
        return _run_call(gamma, state, cmd, cmm, budget, max_addresses)
    raise TypeError(f"not a command: {cmd!r}")


def _run_action(state, cmd: Action, cmm, max_addresses):
    args = [eval_expr(a, state.store) for a in cmd.args]
    if any(a is UNDEF for a in args):
        return [(ERR, state.with_store(err="ExprEval"))]
    results = []
    for o, mem2, outs in cmm.exec_action(state.mem, cmd.name, tuple(args), max_addresses):
        if o is OK:
            if len(outs) != len(cmd.targets):
                results.append(
                    (ERR, ConcreteState({**state.store, "err": "ActionArgsLength"}, mem2))
                )
            else:
                updates = dict(zip(cmd.targets, outs))
                results.append((OK, ConcreteState({**state.store, **updates}, mem2)))
        else:
            results.append((o, ConcreteState({**state.store, "err": tuple(outs)}, mem2)))
    return results


def _run_call(gamma, state, cmd: FunCall, cmm, budget, max_addresses):
    if cmd.fid not in gamma:
        return [(ERR, state.with_store(err="FuncMissing"))]
    f = gamma[cmd.fid]
    if len(cmd.args) != len(f.params):
        return [(ERR, state.with_store(err="FuncArgsLength"))]
    args = [eval_expr(a, state.store) for a in cmd.args]
    if any(a is UNDEF for a in args):
        return [(ERR, state.with_store(err="ExprEval"))]
    if budget <= 0:
        raise BudgetExhausted(cmd.fid)
    results = []
    for o, out, mem2 in run_function(
        gamma, cmd.fid, tuple(args), state.mem, cmm, budget, max_addresses
    ):
        if o is OK:
            results.append((OK, ConcreteState({**state.store, cmd.target: out}, mem2)))
        else:
            results.append((o, ConcreteState({**state.store, "err": out}, mem2)))
    return results


def run_function(
    gamma: ImplContext,
    fid: str,
    args: tuple,
    mem,
    cmm: ConcreteMemoryModel,
    budget: int = 32,
    max_addresses: int = 3,
):
    """All (Outcome, return-value-or-err-payload, memory) results of calling
    fid with already-evaluated arguments."""
    f = gamma[fid]
    if len(args) != len(f.params):
        return [(ERR, "FuncArgsLength", mem)]
    callee_store = dict(zip(f.params, args))
    for z in f.locals():
        callee_store[z] = NIL
    runs = run(gamma, ConcreteState(callee_store, mem), f.body, cmm, budget - 1, max_addresses)
    return [(o, v, st.mem) for o, st, v in endings(f, runs)]


def endings(f, runs):
    """The (Outcome, state, return-value-or-err-payload) ends of `f` after
    the (Outcome, state) runs of its body: an ok run whose return
    expression fails to evaluate ends in an ExprEval error."""
    for o, st in runs:
        if o is not OK:
            yield o, st, st.store.get("err")
            continue
        ret = eval_expr(f.ret, st.store)
        if ret is UNDEF:
            yield ERR, st.with_store(err="ExprEval"), "ExprEval"
        else:
            yield OK, st, ret
