"""The memories' pure facts, and the `models_of` search that uses them.

`SymbolicMemoryModel.pure_facts(smem)` states conditions that every
interpretation under which `smem` denotes a memory makes true. The
contract test checks that on every bundled model and on the symbolic
mutants of `test_mutations`: whenever `concretize` gives a memory, every
fact evaluates to TRUE. `_old_models_of` below is `engine.models_of` as it
was before it searched the facts too, kept as a reference: the two must
give equal lists in equal order, in the enumerated and in the sampled
regime of `solver.models`.

The states are those `harness.check_engine_ux` meets: random programs run
symbolically from random lifted states, plus both lifts of every
generated memory.
"""

import itertools
from dataclasses import replace
from random import Random

import pytest

from polyheap.conformance import _Namer
from polyheap.engine import (
    EngineContext,
    Mode,
    SymbolicState,
    _state_values,
    models_of,
    models_under,
    sym_exec,
)
from polyheap.evaluation import all_true
from polyheap.harness import random_command, random_state_pair
from polyheap.memmodel import Bounds
from polyheap.models import MODEL_NAMES, get_model
from polyheap.oracle import Oracle
from polyheap.solver import _ENUM_CAP, _OMIT, enumeration_domain, models
from polyheap.syntax import InVal, LVar, eq, lv_expr
from polyheap.values import NIL, TRUE

from test_mutations import consume_wrong_out, drops_miss_branch, invents_results, produce_ignores_input

BOUNDS = Bounds(value_domain=(NIL, 0, 1), max_cells=2, max_addresses=3, trials=300, seed=0)
BUNDLED = tuple(m for m in MODEL_NAMES if m != "cheri")
MUTANTS = (drops_miss_branch, invents_results, consume_wrong_out, produce_ignores_input)
BUNDLES = [pytest.param(lambda m=m: get_model(m), id=m) for m in BUNDLED] + [
    pytest.param(f, id=f.__name__) for f in MUTANTS
]
# interpretations of a memory's variables: a non-natural, naturals that
# collide, and no value at all
VALUES = (NIL, TRUE, 0, 1, _OMIT)
SAMPLES = 200


# --- reference ---------------------------------------------------------------


def _old_models_of(state, bundle, preds, bounds, extra_lvars=()):
    lvars = sorted(state.lvars(bundle.smm) | set(extra_lvars))
    domain = enumeration_domain(state.pc, bounds, _state_values(state))
    out = []
    for theta in models(state.pc, lvars, domain, bounds):
        for st in models_under(theta, state, bundle, preds, bounds):
            out.append((theta, st))
    return out


# --- states ------------------------------------------------------------------


def _states(bundle, trials, seed=5):
    """(state, extra_lvars) pairs: each random start state, the branches
    a random program reaches from it in both modes, and both lifts of
    every generated memory."""
    rng = Random(seed)
    mems = list(bundle.cmm.generator(BOUNDS))
    out = []
    for _ in range(trials):
        cmd = random_command(rng, bundle, BOUNDS, size=rng.randint(1, 3))
        _, sym, _ = random_state_pair(rng, bundle, BOUNDS, mems)
        start = sorted(sym.lvars(bundle.smm))
        out.append((sym, ()))
        for mode in (Mode.OX, Mode.UX):
            ctx = EngineContext(mode, {}, bundle, {}, BOUNDS)
            ctx.seed_fresh(sym.lvars(bundle.smm))
            out += [(br.state, start) for br in sym_exec(ctx, Oracle.constant(0), sym, cmd)]
    lifted = {}  # memories of one shape have one variable lift
    for mem in mems:
        for ground in (True, False):
            smem, _ = bundle.smm.lift(mem, _Namer("h"), ground)
            lifted.setdefault(repr(smem), smem)
    return out + [(SymbolicState({}, smem, (), ()), ()) for smem in lifted.values()]


def _interpretations(lvars, rng):
    """Every partial interpretation of `lvars` over `VALUES`, or `SAMPLES`
    random ones when there are more."""
    lvars = sorted(lvars)
    if len(VALUES) ** len(lvars) <= SAMPLES:
        combos = itertools.product(VALUES, repeat=len(lvars))
    else:
        combos = ([rng.choice(VALUES) for _ in lvars] for _ in range(SAMPLES))
    for combo in combos:
        yield {x: v for x, v in zip(lvars, combo) if v is not _OMIT}


# --- the contract ------------------------------------------------------------


@pytest.mark.parametrize("make", BUNDLES)
def test_pure_facts_hold_wherever_the_memory_denotes(make):
    bundle = make()
    smm = bundle.smm
    rng = Random(11)
    denoted = refuted = 0
    for state, _ in _states(bundle, trials=25):
        facts = smm.pure_facts(state.mem)
        lvars = smm.lvars(state.mem)
        for f in facts:
            assert lv_expr(f) <= lvars, f
        for theta in _interpretations(lvars, rng):
            holds = all_true(facts, theta)
            if smm.concretize(theta, state.mem) is not None:
                assert holds, (state.mem, theta)
                denoted += 1
            elif not holds:
                refuted += 1
    # the check is not vacuous, and the facts do cut interpretations off
    assert denoted and refuted


@pytest.mark.parametrize("name", ["linear", "frac", "block-offset", "objects", "chunks"])
def test_aliased_addresses_fail_the_facts(name):
    """The variable lift of a memory with two addresses, `#a` and `#b`,
    denotes nothing under `#a = #b`, and the facts say so."""
    bundle = get_model(name)
    mem = next(m for m in bundle.cmm.generator(BOUNDS) if len(_addresses(bundle, m)) == 2)
    smem, theta = bundle.smm.lift(mem, _Namer("h"), False)
    a, b = _addresses(bundle, smem)
    together = {**theta, b.name: theta[a.name]}
    facts = bundle.smm.pure_facts(smem)
    assert bundle.smm.concretize(theta, smem) is not None and all_true(facts, theta)
    assert bundle.smm.concretize(together, smem) is None and not all_true(facts, together)
    state = SymbolicState({}, smem, (), (eq(b, a),))
    assert models_of(state, bundle, {}, BOUNDS) == [] == _old_models_of(state, bundle, {}, BOUNDS)


def _addresses(bundle, mem):
    """The addresses of a memory's entries, or of its points-to chunks."""
    if bundle.name == "chunks":
        return [c[1] for c in mem if c[0] == "pt"]
    return list(mem)


# --- the search --------------------------------------------------------------


def _assert_same(got, old):
    """Equal models in equal order, each interpretation with equal key order."""
    assert got == old
    assert [list(th) for th, _ in got] == [list(th) for th, _ in old]


@pytest.mark.parametrize("make", BUNDLES)
def test_models_of_matches_the_unpruned_search(make):
    bundle = make()
    found = 0
    for state, extra in _states(bundle, trials=10):
        got = models_of(state, bundle, {}, BOUNDS, extra_lvars=extra)
        _assert_same(got, _old_models_of(state, bundle, {}, BOUNDS, extra_lvars=extra))
        found += len(got)
    assert found


def test_models_of_matches_the_unpruned_search_when_sampled():
    """Nine variables over four options exceed `_ENUM_CAP`, so `models`
    samples: the facts filter the sample as `concretize` would."""
    bundle = get_model("linear")
    bounds = replace(BOUNDS, trials=1000)
    keys, vals = [LVar("k0"), LVar("k1")], [LVar("v0"), LVar("v1")]
    store = {f"x{i}": LVar(f"s{i}") for i in range(5)}
    pc = tuple(InVal(e) for e in [*keys, *vals, *store.values()])
    state = SymbolicState(store, dict(zip(keys, vals)), (), pc)
    lvars = sorted(state.lvars(bundle.smm))
    domain = enumeration_domain(pc, bounds, _state_values(state))
    assert (len(domain) + 1) ** len(lvars) > _ENUM_CAP
    got = models_of(state, bundle, {}, bounds)
    assert got
    _assert_same(got, _old_models_of(state, bundle, {}, bounds))
    # the facts cut some of the sample off
    assert len(list(models(pc, lvars, domain, bounds))) > len(got)
