"""Conformance harness behaviour: passing models pass, broken models are
refuted with small witnesses, and the declared-soundness pattern holds."""

import pytest

from polyheap.conformance import (
    check_action_soundness,
    check_cp_soundness,
    check_frame,
    check_pcm_laws,
)
from polyheap.memmodel import Bounds
from polyheap.models import get_model, sabotage
from polyheap.values import NIL

SMALL = Bounds(value_domain=(NIL, 0, 1), max_cells=2, max_addresses=3, trials=400, seed=0)


def test_pcm_laws_linear_pass():
    r = check_pcm_laws(get_model("linear").cmm, SMALL)
    assert r.passed and r.trials > 0


def test_broken_compose_fails_with_small_witness():
    broken = sabotage(get_model("linear"))
    r = check_pcm_laws(broken.cmm, SMALL)
    assert not r.passed
    assert r.witness["law"] in ("commutativity", "associativity")
    # shrinking keeps the witness at two cells or fewer per memory
    for mem in r.witness["mems"]:
        assert mem.count(":") <= 2


def test_frame_checks_linear_both_modes():
    cmm = get_model("linear").cmm
    assert check_frame(cmm, "ox", SMALL, cap=30000).passed
    assert check_frame(cmm, "ux", SMALL, cap=30000).passed


def test_noneg_fails_ux_frame_only():
    cmm = get_model("linear-ox").cmm
    assert check_frame(cmm, "ox", SMALL, cap=30000).passed
    r = check_frame(cmm, "ux", SMALL, cap=30000)
    assert not r.passed
    assert r.witness["action"] in ("free", "new")


def test_cut_fails_ox_action_soundness():
    b = get_model("linear-cut")
    assert check_action_soundness(b, "ux", SMALL, cap=600).passed
    r = check_action_soundness(b, "ox", SMALL, cap=2000)
    assert not r.passed


def test_chunks_fail_ux_frame():
    cmm = get_model("chunks").cmm
    assert check_frame(cmm, "ox", SMALL, cap=30000).passed
    assert not check_frame(cmm, "ux", SMALL, cap=30000).passed


@pytest.mark.parametrize("name", ["linear", "linear-unique", "frac", "block-offset", "objects"])
def test_fully_sound_models_pass_everything(name):
    bundle = get_model(name)
    bounds = SMALL if name != "objects" else Bounds(
        value_domain=(NIL, 0, "f"), max_cells=2, max_addresses=2, trials=400, seed=0
    )
    assert check_pcm_laws(bundle.cmm, bounds).passed
    for mode in ("ox", "ux"):
        assert check_frame(bundle.cmm, mode, bounds, cap=15000).passed, (name, mode)
        assert check_action_soundness(bundle, mode, bounds, cap=300).passed, (name, mode)
        assert check_cp_soundness(bundle, mode, bounds, cap=150).passed, (name, mode)



def _materialised_sample(items, cap, seed):
    """The sampler the harness used before it drew indices lazily."""
    from random import Random

    if len(items) <= cap:
        return items
    rng = Random(seed)
    return [items[i] for i in sorted(rng.sample(range(len(items)), cap))]


@pytest.mark.parametrize("cap", [50, 10**9])
def test_lazy_frame_sample_matches_materialised_sample(cap):
    """check_frame's trials, in order, are those of sampling the full list of
    mems x mems x cases index tuples."""
    import itertools

    from polyheap.conformance import _mems, _sample_product

    cmm = get_model("linear").cmm
    sizes = (len(_mems(cmm, SMALL)),) * 2 + (len(list(cmm.action_cases(SMALL))),)
    full = list(itertools.product(*map(range, sizes)))
    expected = _materialised_sample(full, cap, SMALL.seed)
    assert (len(expected) < len(full)) == (cap == 50)
    assert list(_sample_product(sizes, cap, SMALL.seed)) == expected
    assert check_frame(cmm, "ox", SMALL, cap=50).trials == 50


def test_unit_law_instance():
    cmm = get_model("linear").cmm
    assert cmm.compose({1: 5}, cmm.empty) == {1: 5}


@pytest.mark.parametrize("name", ["linear", "linear-unique", "frac", "block-offset", "objects", "chunks"])
def test_produce_consume_round_trip_per_model(name):
    """Producing a resource onto the empty memory and consuming it back
    yields an empty frame with the produced out-parameters."""
    from polyheap.conformance import _resource_cases
    from polyheap.oracle import Oracle
    from polyheap.outcomes import OK
    from polyheap.syntax import Lit

    bundle = get_model(name)
    bounds = Bounds(value_domain=(NIL, 0, 1, "f"), max_cells=2, max_addresses=2)
    for rname, ins_v, outs_v in _resource_cases(bundle.rm, bounds):
        ins = tuple(Lit(v) for v in ins_v)
        outs = tuple(Lit(v) for v in outs_v)
        produced = bundle.smm.produce_res(rname, ins, outs, bundle.smm.empty)
        assert produced, (name, rname)
        for smem, _pc in produced:
            results = bundle.smm.consume_res(None, Oracle.constant(0), rname, ins, smem)
            ok = [r for r in results if r[0] is OK]
            assert any(r[3][0] == bundle.smm.empty for r in ok), (name, rname, smem)
            if outs:
                assert any(r[2] == outs for r in ok), (name, rname)
