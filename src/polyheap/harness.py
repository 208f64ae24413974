"""Differential soundness harnesses.

Random command programs (`_trials`) run both concretely and symbolically
from related states; over-approximate soundness demands every concrete run
has a matching symbolic path, under-approximate soundness demands every
model of a symbolic result is concretely reachable (`concrete.unreached`).
The command-level frame property is checked directly against the
interpreter, with the same `conformance.frame_breach` as for actions.

Programs are generated over the core constructs plus memory actions; the
side conditions are applied literally: abort-free (over-approximate
direction) and, for missing-resource outcomes, an empty predicate
multiset.
"""

from __future__ import annotations

import itertools
from random import Random

from .concrete import ConcreteState, run, unreached
from .conformance import frame_breach
from .engine import (
    EngineContext,
    Mode,
    SymbolicState,
    models_of,
    models_under,
    sym_exec,
)
from .memmodel import Bounds, MemoryModelBundle
from .oracle import Oracle
from .outcomes import ABORT
from .satisfaction import witness_domain
from .solver import Sat, check_sat, extensions
from .syntax import (
    Action,
    Assign,
    Bin,
    Cmd,
    IfElse,
    InVal,
    LVar,
    Lit,
    PVar,
    Seq,
    Skip,
)

_PVARS = ("x", "y", "z")


def random_expr(rng: Random, bounds: Bounds, depth: int = 2):
    roll = rng.random()
    if depth == 0 or roll < 0.45:
        return Lit(rng.choice(bounds.sorted_domain()))
    if roll < 0.75:
        return PVar(rng.choice(_PVARS))
    op = rng.choice(("+", "-", "=", "<", "<="))
    return Bin(op, random_expr(rng, bounds, depth - 1), random_expr(rng, bounds, depth - 1))


def random_command(rng: Random, bundle: MemoryModelBundle, bounds: Bounds, size: int = 3) -> Cmd:
    cmds = [_random_basic(rng, bundle, bounds) for _ in range(max(1, size))]
    out = cmds[-1]
    for c in reversed(cmds[:-1]):
        out = Seq(c, out)
    return out


def _random_basic(rng: Random, bundle, bounds) -> Cmd:
    roll = rng.random()
    if roll < 0.15:
        return Skip()
    if roll < 0.4:
        return Assign(rng.choice(_PVARS), random_expr(rng, bounds))
    if roll < 0.55:
        return IfElse(
            random_expr(rng, bounds, 1),
            _random_basic(rng, bundle, bounds),
            _random_basic(rng, bundle, bounds),
        )
    cases = list(bundle.cmm.action_cases(bounds))
    name, args = rng.choice(cases)
    targets = tuple(rng.sample(_PVARS, bundle.cmm.actions[name][1]))
    arg_exprs = tuple(
        PVar(rng.choice(_PVARS)) if rng.random() < 0.3 else Lit(v) for v in args
    )
    return Action(targets, name, arg_exprs)


def random_state_pair(rng: Random, bundle, bounds: Bounds, mems: list):
    """A concrete state, a symbolic state it satisfies, and the tying
    interpretation."""
    store = {x: rng.choice(bounds.sorted_domain()) for x in _PVARS}
    mem = rng.choice(mems)
    names = iter(f"s{i}" for i in itertools.count())
    sym_store = {}
    theta = {}
    for x, v in store.items():
        if rng.random() < 0.5:
            sym_store[x] = Lit(v)
        else:
            name = next(names)
            theta[name] = v
            sym_store[x] = LVar(name)
    ground = rng.random() < 0.5
    smem, theta2 = bundle.smm.lift(mem, lambda: next(names), ground)
    theta.update(theta2)
    pc = tuple(InVal(LVar(n)) for n in sorted(theta))
    sym = SymbolicState(sym_store, smem, (), pc)
    return ConcreteState(store, mem), sym, theta


def _branch_matches(bundle, preds, bounds, branch, theta, known, final: ConcreteState) -> bool:
    state = branch.state
    new = state.lvars(bundle.smm) - known
    domain = witness_domain(final.store, final.mem, bundle.cmm, bounds)
    return any(
        model.covers(final)
        for th in extensions(state.pc, theta, new, domain)
        for model in models_under(th, state, bundle, preds, bounds)
    )


def _trials(mode, bundle, bounds: Bounds, trials: int, seed: int, preds, specs):
    """`(trial, cmd, concrete, sym, theta, branches)` per trial: a random
    program, related start states, and the program's branches in `mode`
    from `sym`. Both modes draw the same random numbers in the same order."""
    rng = Random(seed)
    mems = list(bundle.cmm.generator(bounds))
    for trial in range(trials):
        cmd = random_command(rng, bundle, bounds, size=rng.randint(1, 3))
        concrete, sym, theta = random_state_pair(rng, bundle, bounds, mems)
        ctx = EngineContext(mode, specs or {}, bundle, preds, bounds)
        ctx.seed_fresh(sym.lvars(bundle.smm))
        yield trial, cmd, concrete, sym, theta, sym_exec(ctx, Oracle.constant(0), sym, cmd)


def check_engine_ox(bundle, bounds: Bounds, trials: int, seed: int, preds=None, specs=None):
    """Bounded over-approximate engine soundness over random programs.
    Returns a list of failure descriptions (empty = no counterexample)."""
    preds = preds or {}
    failures = []
    for trial, cmd, concrete, sym, theta, branches in _trials(
        Mode.OX, bundle, bounds, trials, seed, preds, specs
    ):
        # side conditions: no satisfiable abort; missing-resource outcomes
        # only with an empty predicate multiset (always true here)
        if any(
            br.outcome is ABORT and isinstance(check_sat(br.state.pc, bounds), Sat)
            for br in branches
        ):
            continue
        known = sym.lvars(bundle.smm) | set(theta)
        for o, final in run(
            {}, concrete, cmd, bundle.cmm, budget=8, max_addresses=bounds.max_addresses
        ):
            if not any(
                br.outcome is o
                and _branch_matches(bundle, preds, bounds, br, theta, known, final)
                for br in branches
            ):
                failures.append(
                    {
                        "trial": trial,
                        "cmd": cmd,
                        "state": concrete,
                        "outcome": o.value,
                        "final": final,
                    }
                )
                break
    return failures


def check_engine_ux(bundle, bounds: Bounds, trials: int, seed: int, preds=None, specs=None):
    """Bounded under-approximate engine soundness over random programs: each
    model of a branch is reached from a model of the start under the same
    interpretation. At most one failure per branch."""
    preds = preds or {}
    failures = []
    for trial, cmd, _, sym, _, branches in _trials(
        Mode.UX, bundle, bounds, trials, seed, preds, specs
    ):
        def runs_from(th, final):
            for start in models_under(th, sym, bundle, preds, bounds):
                yield run({}, start, cmd, bundle.cmm, budget=8, max_addresses=bounds.max_addresses)

        extra = sorted(sym.lvars(bundle.smm))
        for br in branches:
            if br.outcome is ABORT:
                continue
            miss = unreached(
                models_of(br.state, bundle, preds, bounds, extra_lvars=extra),
                runs_from, br.outcome,
            )
            if miss is not None:
                th, final = miss
                failures.append({"trial": trial, "cmd": cmd, "outcome": br.outcome.value,
                                 "final": final, "theta": th})
    return failures


def _cmd_runs(cmd, store, mem, cmm, window) -> list:
    """The runs of `cmd` from `store` and `mem` (none when `mem` is
    undefined) as `frame_breach` results: a run's observation is its store."""
    if mem is None:
        return []
    return [(o, st.mem, tuple(sorted(st.store.items())))
            for o, st in run({}, ConcreteState(store, mem), cmd, cmm, 8, window)]


def check_cmd_frame(bundle, bounds: Bounds, trials: int, seed: int, mode: str):
    """Command-level frame property, checked directly on the interpreter."""
    rng = Random(seed)
    mems = list(bundle.cmm.generator(bounds))
    cmm = bundle.cmm
    failures = []
    for trial in range(trials):
        cmd = random_command(rng, bundle, bounds, size=rng.randint(1, 3))
        store = {x: rng.choice(bounds.sorted_domain()) for x in _PVARS}
        mu = rng.choice(mems)
        frame = rng.choice(mems)
        composed = cmm.compose(mu, frame)
        if mode == "ox" and composed is None:
            continue
        # the existential side searches the window widened by the frame
        wide = bounds.max_addresses + cmm.addr_span(frame)
        full_window, inner_window = (
            (bounds.max_addresses, wide) if mode == "ox" else (wide, bounds.max_addresses)
        )
        full = _cmd_runs(cmd, store, composed, cmm, full_window)
        inner = _cmd_runs(cmd, store, mu, cmm, inner_window)
        if frame_breach(cmm, mode, frame, full, inner) is not None:
            failures.append({"trial": trial, "cmd": cmd, "mem": mu, "frame": frame})
    return failures
