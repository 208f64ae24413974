"""Differential engine-soundness harnesses at unit scale (the acceptance
module runs them at the full advertised trial counts)."""

from random import Random

import pytest

from polyheap.assertions import PredTable
from polyheap.concrete import ConcreteState, run
from polyheap.engine import (
    EngineContext,
    Mode,
    PredInstance,
    SymbolicState,
    models_of,
    models_under,
    sym_exec,
)
from polyheap.harness import (
    check_cmd_frame,
    check_engine_ox,
    check_engine_ux,
    random_command,
    random_state_pair,
)
from polyheap.memmodel import Bounds
from polyheap.models import get_model, sabotage
from polyheap.oracle import Oracle
from polyheap.outcomes import ABORT, MISS, OK
from polyheap.parser import parse_program
from polyheap.satisfaction import witness_domain
from polyheap.solver import Sat, check_sat, extensions
from polyheap.syntax import Action, Lit
from polyheap.values import NIL
from test_mutations import drops_miss_branch, invents_results

B = Bounds(value_domain=(NIL, 0, 1), max_cells=2, max_addresses=3, trials=100, seed=5)


def test_engine_ox_soundness_sample():
    assert check_engine_ox(get_model("linear"), B, 40, 5) == []


def test_engine_ux_soundness_sample():
    assert check_engine_ux(get_model("linear"), B, 25, 5) == []


def test_cmd_level_frame_sample():
    b = get_model("linear")
    assert check_cmd_frame(b, B, 60, 5, "ox") == []
    assert check_cmd_frame(b, B, 60, 5, "ux") == []


def test_side_condition_regression():
    """The predicate-hidden-cell example: concrete execution succeeds, the
    symbolic engine misses, and the miss carries a non-empty predicate
    multiset, so both soundness statements exclude it."""
    b = get_model("linear")
    preds = parse_program("pred foo(;) { cell(1; 1) }").preds
    cmd = Action(("x",), "lookup", (Lit(1),))
    sym = SymbolicState({"x": Lit(NIL)}, {}, (PredInstance("foo", (), ()),), ())
    concrete = ConcreteState({"x": NIL}, {1: 1})

    # the concrete state is a model of the symbolic state
    assert any(
        s.store == concrete.store and s.mem == concrete.mem
        for _, s in models_of(sym, b, preds, B)
    )

    # concrete execution: ok only
    outcomes = {o for o, _ in run({}, concrete, cmd, b.cmm)}
    assert outcomes == {OK}

    # symbolic execution: a satisfiable miss only
    ctx = EngineContext(Mode.OX, {}, b, preds, B)
    branches = [
        br
        for br in sym_exec(ctx, Oracle.constant(0), sym, cmd)
        if isinstance(check_sat(br.state.pc, B), Sat)
    ]
    assert [br.outcome for br in branches] == [MISS]
    # ... and the side condition fires: the miss has predicates left
    assert branches[0].state.preds


def test_engine_soundness_on_other_models():
    """The differential harnesses run against every fully sound bundle."""
    cases = [
        ("frac", Bounds(value_domain=(NIL, 0, 1), max_cells=2, max_addresses=2, seed=9)),
        ("block-offset", Bounds(value_domain=(NIL, 0), max_cells=2, max_addresses=2, seed=9)),
        ("objects", Bounds(value_domain=(NIL, 0, "f"), max_cells=2, max_addresses=2, seed=9)),
    ]
    for name, bounds in cases:
        b = get_model(name)
        assert check_engine_ox(b, bounds, 25, 9) == [], name
        assert check_engine_ux(b, bounds, 12, 9) == [], name


# ---------------------------------------------------------------------------
# check_cmd_frame before it shared conformance.frame_breach, kept as the
# reference: each mode's side condition written out against the interpreter.
# ---------------------------------------------------------------------------


def _old_check_cmd_frame(bundle, bounds, trials, seed, mode):
    rng = Random(seed)
    mems = list(bundle.cmm.generator(bounds))
    cmm = bundle.cmm
    failures = []
    for trial in range(trials):
        cmd = random_command(rng, bundle, bounds, size=rng.randint(1, 3))
        store = {x: rng.choice(bounds.sorted_domain()) for x in ("x", "y", "z")}
        mu = rng.choice(mems)
        frame = rng.choice(mems)
        composed = cmm.compose(mu, frame)
        wide = bounds.max_addresses + cmm.addr_span(frame)
        if mode == "ox":
            if composed is None:
                continue
            full = run({}, ConcreteState(store, composed), cmd, cmm, 8, bounds.max_addresses)
            inner = run({}, ConcreteState(store, mu), cmd, cmm, 8, wide)
            for o, st in full:
                ok = any(
                    o2 is MISS
                    or (o2 is o and st2.store == st.store and cmm.compose(st2.mem, frame) == st.mem)
                    for o2, st2 in inner
                )
                if not ok:
                    failures.append({"trial": trial, "cmd": cmd, "mem": mu, "frame": frame})
                    break
        else:
            inner = run({}, ConcreteState(store, mu), cmd, cmm, 8, bounds.max_addresses)
            full = (
                run({}, ConcreteState(store, composed), cmd, cmm, 8, wide)
                if composed is not None
                else []
            )
            for o, st in inner:
                if o is MISS:
                    continue
                lifted = cmm.compose(st.mem, frame)
                if lifted is None:
                    continue
                if not any(
                    o2 is o and st2.store == st.store and st2.mem == lifted for o2, st2 in full
                ):
                    failures.append({"trial": trial, "cmd": cmd, "mem": mu, "frame": frame})
                    break
    return failures


CMD_FRAME_BUNDLES = {
    "linear": lambda: get_model("linear"),
    "linear-ox": lambda: get_model("linear-ox"),
    "chunks": lambda: get_model("chunks"),
    "frac": lambda: get_model("frac"),
    "sabotaged-compose": lambda: sabotage(get_model("linear")),
}


@pytest.mark.parametrize("name", CMD_FRAME_BUNDLES)
def test_cmd_frame_matches_reference(name):
    """The same failures, trial by trial, as the reference in both modes at
    three seeds; linear-ox (in ux) and the broken composition fail some
    trials at every seed."""
    bundle = CMD_FRAME_BUNDLES[name]()
    for mode in ("ox", "ux"):
        for seed in (1, 3, 7):
            assert check_cmd_frame(bundle, B, 60, seed, mode) == _old_check_cmd_frame(
                bundle, B, 60, seed, mode
            ), (mode, seed)


# ---------------------------------------------------------------------------
# check_engine_ox and check_engine_ux before they shared `_trials` and
# `concrete.unreached`, kept as the reference: each trial loop and the
# reachability test written out by hand.
# ---------------------------------------------------------------------------


def _old_branch_matches(bundle, preds, bounds, branch, theta, known, final):
    state = branch.state
    new = state.lvars(bundle.smm) - known
    domain = witness_domain(final.store, final.mem, bundle.cmm, bounds)
    for th in extensions(state.pc, theta, new, domain):
        for model in models_under(th, state, bundle, preds, bounds):
            if model.mem == final.mem and all(
                model.store.get(x) == v for x, v in final.store.items()
            ):
                return True
    return False


def _old_check_engine_ox(bundle, bounds, trials, seed, preds=None, specs=None):
    preds = preds or {}
    specs = specs or {}
    rng = Random(seed)
    mems = list(bundle.cmm.generator(bounds))
    failures = []
    for trial in range(trials):
        cmd = random_command(rng, bundle, bounds, size=rng.randint(1, 3))
        concrete, sym, theta = random_state_pair(rng, bundle, bounds, mems)
        ctx = EngineContext(Mode.OX, specs, bundle, preds, bounds)
        ctx.seed_fresh(sym.lvars(bundle.smm))
        branches = sym_exec(ctx, Oracle.constant(0), sym, cmd)
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
                and _old_branch_matches(bundle, preds, bounds, br, theta, known, final)
                for br in branches
            ):
                failures.append(
                    {"trial": trial, "cmd": cmd, "state": concrete, "outcome": o.value, "final": final}
                )
                break
    return failures


def _old_check_engine_ux(bundle, bounds, trials, seed, preds=None, specs=None):
    preds = preds or {}
    specs = specs or {}
    rng = Random(seed)
    mems = list(bundle.cmm.generator(bounds))
    failures = []
    for trial in range(trials):
        cmd = random_command(rng, bundle, bounds, size=rng.randint(1, 3))
        concrete, sym, theta = random_state_pair(rng, bundle, bounds, mems)
        ctx = EngineContext(Mode.UX, specs, bundle, preds, bounds)
        ctx.seed_fresh(sym.lvars(bundle.smm))
        branches = sym_exec(ctx, Oracle.constant(0), sym, cmd)
        for br in branches:
            if br.outcome is ABORT:
                continue
            for th, final in models_of(
                br.state, bundle, preds, bounds, extra_lvars=sorted(sym.lvars(bundle.smm))
            ):
                reachable = False
                for start in models_under(th, sym, bundle, preds, bounds):
                    results = run(
                        {}, start, cmd, bundle.cmm, budget=8,
                        max_addresses=bounds.max_addresses,
                    )
                    if any(
                        o is br.outcome
                        and st.mem == final.mem
                        and all(st.store.get(x) == v for x, v in final.store.items())
                        for o, st in results
                    ):
                        reachable = True
                        break
                if not reachable:
                    failures.append(
                        {
                            "trial": trial,
                            "cmd": cmd,
                            "outcome": br.outcome.value,
                            "final": final,
                            "theta": th,
                        }
                    )
                    break
    return failures


ENGINE_BUNDLES = {
    "linear": lambda: get_model("linear"),
    "frac": lambda: get_model("frac"),
    "drops_miss_branch": drops_miss_branch,
    "invents_results": invents_results,
}


@pytest.mark.parametrize("name", ENGINE_BUNDLES)
def test_engine_checks_match_reference(name):
    """The same failures, trial by trial, as the reference in both
    directions at three seeds; the mutant that drops miss branches fails
    the over-approximate check and the one that invents lookup results
    fails the under-approximate check at every seed."""
    bundle = ENGINE_BUNDLES[name]()
    for seed in (1, 3, 7):
        ox = check_engine_ox(bundle, B, 40, seed)
        ux = check_engine_ux(bundle, B, 25, seed)
        assert ox == _old_check_engine_ox(bundle, B, 40, seed), seed
        assert ux == _old_check_engine_ux(bundle, B, 25, seed), seed
        if name == "drops_miss_branch":
            assert ox, seed
        if name == "invents_results":
            assert ux, seed
