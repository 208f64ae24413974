"""Conformance harness behaviour: passing models pass, broken models are
refuted with small witnesses, and the declared-soundness pattern holds."""

import functools
import itertools

import pytest

from polyheap.conformance import (
    CheckResult,
    _arg_styles,
    _consume_branches,
    _eval_vec,
    _frame_witness,
    _lift_styles,
    _mems,
    _Namer,
    _outs_present,
    _resource_cases,
    _sample_product,
    check_action_soundness,
    check_cp_soundness,
    check_frame,
    check_pcm_laws,
)
from polyheap.engine import Mode
from polyheap.evaluation import all_true as _holds_all
from polyheap.memmodel import Bounds, MemoryModelBundle
from polyheap.models import MODEL_NAMES, get_model, sabotage
from polyheap.oracle import Oracle
from polyheap.outcomes import ABORT, MISS, OK
from polyheap.syntax import Lit, lv_expr
from polyheap.values import NIL, value_key
from test_mutations import consume_wrong_out, drops_miss_branch, invents_results, produce_ignores_input

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
    from polyheap.syntax import Lit, lv_expr

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


# ---------------------------------------------------------------------------
# The symbolic checks before they shared per-call work (lifts, resource
# heaps, witness domains) across trials, skipped replayed consume seeds and
# took a step's new variables from the names it minted, kept as the
# reference for the differential tests below: they find new variables by
# walking each branch.
# ---------------------------------------------------------------------------


def _branch_lvars(smm, smem2, pc, outs):
    """Every logical variable of a branch: of its memory, its conjuncts and
    its outputs. The references take a branch's new variables as these
    minus the variables of the lifted memory and of `theta`."""
    out = smm.lvars(smem2)
    for e in (*pc, *outs):
        out |= lv_expr(e)
    return out


def _extensions(theta, new_lvars, domain):
    """`theta` extended by every assignment of `domain` values to the
    sorted `new_lvars` (`itertools.product` order); `theta` alone when
    there are none. The enumerator the conformance searches used before
    they shared the solver's."""
    new_lvars = sorted(new_lvars)
    if not new_lvars:
        yield dict(theta)
        return
    for combo in itertools.product(domain, repeat=len(new_lvars)):
        yield {**theta, **dict(zip(new_lvars, combo))}


def _old_action_soundness(bundle: MemoryModelBundle, mode: str, bounds: Bounds, cap: int = 4000) -> CheckResult:
    assert mode in ("ox", "ux")
    cmm, smm = bundle.cmm, bundle.smm
    mems = _mems(cmm, bounds, cap=256)
    cases = list(cmm.action_cases(bounds))
    trials = 0
    for i, c, s in _sample_product((len(mems), len(cases), 2), cap, bounds.seed):
        mem = mems[i]
        name, args = cases[c]
        for smem, theta0 in _lift_styles(smm, mem):
            sym_args, theta_a = _arg_styles(args)[s]
            theta = {**theta0, **theta_a}
            trials += 1
            witness = _old_action_case(
                bundle, mode, bounds, mem, smem, theta, name, args, sym_args
            )
            if witness is not None:
                witness.update({"action": name, "args": [repr(a) for a in args], "mem": repr(mem)})
                return CheckResult("action", mode, "fail", trials, witness)
    return CheckResult("action", mode, "pass", trials)


def _old_action_case(bundle, mode, bounds, mem, smem, theta, name, args, sym_args):
    cmm, smm = bundle.cmm, bundle.smm
    branches = smm.exec_action(smem, name, sym_args, _Namer("f"))
    known = smm.lvars(smem) | set(theta)
    domain = sorted(set(bounds.value_domain) | cmm.mem_values(mem) | set(args), key=value_key)
    wide = bounds.max_addresses + bounds.max_cells

    # side condition: miss/abort branches leave the memory unchanged
    for o, smem2, pc, outs in branches:
        if o in (MISS, ABORT) and smem2 != smem:
            return {"kind": "miss-changes-memory", "outcome": o.value}

    if mode == "ox":
        # vacuous when some abort branch is plausible under an extension
        for o, smem2, pc, outs in branches:
            if o is ABORT:
                for th in _extensions(theta, _branch_lvars(smm, smem2, pc, outs) - known, domain):
                    if _holds_all(pc, th) and _eval_vec(outs, th) is not None:
                        return None
        concrete = cmm.exec_action(mem, name, args, bounds.max_addresses)
        for o, mem2, outs_c in concrete:
            extra = sorted(set(mem2.keys()) - set(mem.keys())) if isinstance(mem2, dict) else []
            search_domain = sorted(
                set(domain) | cmm.mem_values(mem2) | set(outs_c) | set(extra), key=value_key
            )
            if not _old_ox_matched(smm, branches, theta, known, search_domain, o, mem2, outs_c):
                return {
                    "kind": "unmatched-concrete-step",
                    "outcome": o.value,
                    "returns": [repr(v) for v in outs_c],
                    "result-mem": repr(mem2),
                }
        return None

    # UX: satisfiable symbolic steps must be concretely realisable
    for o, smem2, pc, outs in branches:
        if o is ABORT:
            continue
        new = _branch_lvars(smm, smem2, pc, outs) - known
        for th in _extensions(theta, new, domain):
            if not _holds_all(pc, th):
                continue
            mem2 = smm.concretize(th, smem2)
            if mem2 is None:
                continue
            outs_v = _eval_vec(outs, th)
            args_v = _eval_vec(sym_args, th)
            if outs_v is None or args_v is None or tuple(args_v) != tuple(args):
                continue
            mem0 = smm.concretize(th, smem)
            if mem0 is None:
                return {"kind": "no-initial-model", "outcome": o.value}
            results = cmm.exec_action(mem0, name, args_v, wide)
            if (o, mem2, outs_v) not in [(x, y, tuple(z)) for x, y, z in results]:
                return {
                    "kind": "unrealisable-symbolic-step",
                    "outcome": o.value,
                    "returns": [repr(v) for v in outs_v],
                    "result-mem": repr(mem2),
                }
    return None


def _old_ox_matched(smm, branches, theta, known, domain, o, mem2, outs_c):
    for o2, smem2, pc, outs in branches:
        if o2 is not o or len(outs) != len(outs_c):
            continue
        new = _branch_lvars(smm, smem2, pc, outs) - known
        for th in _extensions(theta, new, domain):
            if not _holds_all(pc, th):
                continue
            if _eval_vec(outs, th) != tuple(outs_c):
                continue
            if smm.sat_mem(th, mem2, smem2):
                return True
    return False


def _old_resource_heaps(rm, heaps, name, ins, outs) -> list:
    return [m for m in heaps if rm.holds_resource(m, name, ins, outs)]


def _old_consume_branches(smm, mode, name, ins, smem, fanout: int):
    """Union of consume results over oracle first-choices."""
    seen = []
    for seed in range(max(fanout, 1)):
        for branch in smm.consume_res(mode, Oracle.constant(seed), name, ins, smem):
            if branch not in seen:
                seen.append(branch)
    return seen


def _old_cp_soundness(bundle: MemoryModelBundle, mode: str, bounds: Bounds, cap: int = 2500) -> CheckResult:
    assert mode in ("ox", "ux")
    emode = Mode.OX if mode == "ox" else Mode.UX
    cmm, rm, smm = bundle.cmm, bundle.rm, bundle.smm
    mems = _mems(cmm, bounds, cap=128)
    heaps = _mems(cmm, bounds, cap=512)  # candidate resource heaps
    cases = list(_resource_cases(rm, bounds))
    trials = 0
    for i, c in _sample_product((len(mems), len(cases)), cap, bounds.seed):
        mem = mems[i]
        name, ins_v, outs_v = cases[c]
        for smem, theta0 in _lift_styles(smm, mem):
            trials += 1
            w = _old_cp_consume_case(bundle, emode, mode, bounds, heaps, mem, smem, theta0, name, ins_v)
            if w is None:
                w = _old_cp_produce_case(bundle, mode, heaps, mem, smem, theta0, name, ins_v, outs_v)
            if w is not None:
                w.update({"resource": name, "ins": [repr(v) for v in ins_v], "mem": repr(mem)})
                return CheckResult("cp", mode, "fail", trials, w)
    return CheckResult("cp", mode, "pass", trials)


def _old_cp_consume_case(bundle, emode, mode, bounds, heaps, mem, smem, theta, name, ins_v):
    cmm, rm, smm = bundle.cmm, bundle.rm, bundle.smm
    ins = tuple(Lit(v) for v in ins_v)
    fanout = (len(mem) if isinstance(mem, dict) else 4) + 1
    branches = _old_consume_branches(smm, emode, name, ins, smem, fanout)
    known = smm.lvars(smem) | set(theta)
    domain = sorted(set(bounds.value_domain) | cmm.mem_values(mem) | set(ins_v), key=value_key)

    if mode == "ux":
        for o, _, outs, (smem_f, checks, pc) in branches:
            if o is not OK:
                continue
            new = _branch_lvars(smm, smem_f, tuple(checks) + tuple(pc), outs) - known
            for th in _extensions(theta, new, domain):
                outs_th = _eval_vec(outs, th)
                if outs_th is None or not _holds_all(pc, th):
                    continue
                mem_f = smm.concretize(th, smem_f)
                if mem_f is None:
                    continue
                for mem_r in _old_resource_heaps(rm, heaps, name, ins_v, outs_th):
                    whole = cmm.compose(mem_r, mem_f)
                    if whole is None:
                        continue
                    if not _holds_all(checks, th) or not smm.sat_mem(th, whole, smem):
                        return {
                            "kind": "consume-ux",
                            "outs": [repr(v) for v in outs_th],
                            "frame": repr(mem_f),
                            "res-heap": repr(mem_r),
                        }
        return None

    # OX: some consume branch must cover the model
    if not smm.sat_mem(theta, mem, smem):
        return None
    plausible_abort = False
    for o, _, outs, (smem_f, checks, pc) in branches:
        if o is ABORT and _holds_all(checks, theta):
            new = _branch_lvars(smm, smem_f, tuple(pc), outs) - known
            for th in _extensions(theta, new, domain):
                if _holds_all(pc, th) and smm.concretize(th, smem_f) is not None:
                    plausible_abort = True
                    break
        if plausible_abort:
            break
    if plausible_abort:
        return None
    covered = False
    for o, _, outs, (smem_f, checks, pc) in branches:
        if o is not OK:
            continue
        if not _holds_all(checks, theta):
            covered = True  # implication vacuous for this branch
            break
        outs_th = _eval_vec(outs, theta)
        if outs_th is None or not _holds_all(pc, theta):
            continue
        mem_f = smm.concretize(theta, smem_f)
        if mem_f is None:
            continue
        for mem_r, mem_f2 in cmm.enumerate_splits(mem):
            if mem_f2 == mem_f and rm.holds_resource(mem_r, name, ins_v, outs_th):
                covered = True
                break
        if covered:
            break
    if not covered and any(o is OK or o is ABORT for o, *_ in branches):
        # only a failure when the resource is actually present in mem
        for mem_r, mem_f in cmm.enumerate_splits(mem):
            outs_any = _outs_present(rm, name, ins_v, mem_r, bounds)
            if outs_any is not None:
                return {"kind": "consume-ox-uncovered", "outs": [repr(v) for v in outs_any]}
    return None


def _old_cp_produce_case(bundle, mode, heaps, mem_f, smem_f, theta, name, ins_v, outs_v):
    cmm, rm, smm = bundle.cmm, bundle.rm, bundle.smm
    ins = tuple(Lit(v) for v in ins_v)
    outs = tuple(Lit(v) for v in outs_v)
    results = smm.produce_res(name, ins, outs, smem_f)
    if mode == "ox":
        if not smm.sat_mem(theta, mem_f, smem_f):
            return None
        for mem_r in _old_resource_heaps(rm, heaps, name, ins_v, outs_v):
            whole = cmm.compose(mem_r, mem_f)
            if whole is None:
                continue
            hit = False
            for smem2, pc in results:
                if _holds_all(pc, theta) and smm.sat_mem(theta, whole, smem2):
                    hit = True
                    break
            if not hit:
                return {"kind": "produce-ox-uncovered", "res-heap": repr(mem_r), "outs": [repr(v) for v in outs_v]}
        return None
    # UX: every produced state's models split into resource + frame models
    for smem2, pc in results:
        if not _holds_all(pc, theta):
            continue
        whole = smm.concretize(theta, smem2)
        if whole is None:
            continue
        found = False
        for mem_r, mem_f2 in cmm.enumerate_splits(whole):
            if rm.holds_resource(mem_r, name, ins_v, outs_v) and smm.sat_mem(theta, mem_f2, smem_f):
                found = True
                break
        if not found:
            return {"kind": "produce-ux-unsplit", "result-mem": repr(whole), "outs": [repr(v) for v in outs_v]}
    return None


# two small search spaces; "f" is the field name the objects model needs
DIFF_BOUNDS = (
    Bounds(value_domain=(NIL, 0, 1, "f"), max_cells=1, max_addresses=2, seed=0),
    Bounds(value_domain=(0, 1, "f"), max_cells=2, max_addresses=2, seed=7),
)
BUNDLES = [n for n in MODEL_NAMES if n != "cheri"]


def _same_result(new, old):
    assert (new.check, new.mode, new.verdict, new.trials, new.witness) == (
        old.check, old.mode, old.verdict, old.trials, old.witness
    )


@pytest.mark.parametrize("bounds", DIFF_BOUNDS, ids=["values-nil..f-cells-1", "values-0..f-cells-2"])
@pytest.mark.parametrize("name", BUNDLES)
def test_symbolic_checks_match_reference(name, bounds):
    """Same verdict, trial count and witness as the reference, in both
    modes. The caps keep the runs short; the second bounds exceed them for
    most models, so those trials are sampled."""
    bundle = get_model(name)
    for mode in ("ox", "ux"):
        _same_result(
            check_action_soundness(bundle, mode, bounds, cap=600),
            _old_action_soundness(bundle, mode, bounds, cap=600),
        )
        _same_result(
            check_cp_soundness(bundle, mode, bounds, cap=300),
            _old_cp_soundness(bundle, mode, bounds, cap=300),
        )


MUTANTS = {
    "drops-miss-branch": drops_miss_branch,
    "invents-results": invents_results,
    "consume-wrong-out": consume_wrong_out,
    "produce-ignores-input": produce_ignores_input,
    "sabotaged-compose": lambda: sabotage(get_model("linear")),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_symbolic_checks_match_reference_on_mutants(mutant):
    """Refuting witnesses are the reference's too."""
    bundle = MUTANTS[mutant]()
    bounds = Bounds(value_domain=(NIL, 0, 1), max_cells=2, max_addresses=3, seed=0)
    refuted = 0
    for mode in ("ox", "ux"):
        for new, old in (
            (check_action_soundness, _old_action_soundness),
            (check_cp_soundness, _old_cp_soundness),
        ):
            r = new(bundle, mode, bounds, cap=800)
            _same_result(r, old(bundle, mode, bounds, cap=800))
            refuted += not r.passed
    assert refuted


CONTRACT_BUNDLES = {
    **{name: functools.partial(get_model, name) for name in BUNDLES},
    **{m: MUTANTS[m] for m in MUTANTS if m != "sabotaged-compose"},
}


@pytest.mark.parametrize("name", CONTRACT_BUNDLES)
def test_steps_add_only_the_variables_they_mint(name):
    """The contract the symbolic checks rely on: every variable of an
    action branch that is neither the lifted memory's nor `theta`'s is a
    name the step's namer returned, and consume and produce add none."""
    bundle = CONTRACT_BUNDLES[name]()
    cmm, rm, smm = bundle.cmm, bundle.rm, bundle.smm
    bounds = Bounds(value_domain=(NIL, 0, 1), max_cells=1, max_addresses=2)
    mems = _mems(cmm, bounds, cap=256)
    cases = list(cmm.action_cases(bounds))
    resources = list(_resource_cases(rm, bounds))
    for mem in mems:
        for smem, theta0 in _lift_styles(smm, mem):
            for act, args in cases:
                for sym_args, theta_a in _arg_styles(args):
                    known = smm.lvars(smem) | set(theta0) | set(theta_a)
                    namer = _Namer("f")
                    for _, smem2, pc, outs in smm.exec_action(smem, act, sym_args, namer):
                        new = _branch_lvars(smm, smem2, pc, outs) - known
                        assert new <= set(namer.minted()), (act, args, smem, new)
            known = smm.lvars(smem) | set(theta0)
            for rname, ins_v, outs_v in resources:
                ins, outs = tuple(Lit(v) for v in ins_v), tuple(Lit(v) for v in outs_v)
                for mode in (Mode.OX, Mode.UX):
                    branches = _consume_branches(smm, mode, rname, ins, smem, len(mem) + 1)
                    for _, _, c_outs, (smem_f, checks, pc) in branches:
                        assert _branch_lvars(smm, smem_f, (*checks, *pc), c_outs) <= known, (rname, ins_v, smem)
                for smem2, pc in smm.produce_res(rname, ins, outs, smem):
                    assert _branch_lvars(smm, smem2, pc, ()) <= known, (rname, ins_v, outs_v, smem)


def _strip(branches):
    """Consume branches without their oracle field, in order, repeats dropped."""
    out = []
    for o, _, outs, rest in branches:
        if (o, outs, rest) not in out:
            out.append((o, outs, rest))
    return out


@pytest.mark.parametrize("name", ["frac", "linear-cut"])
def test_consume_branches_skip_only_replayed_seeds(name, monkeypatch):
    """frac reads no oracle, so one consume run stands for every seed;
    linear-cut picks one match, so each seed that picks another match still
    runs. Either way the branches are the old union's, oracle aside."""
    bundle = get_model(name)
    smm = bundle.smm
    consume = smm.consume_res
    calls = []
    monkeypatch.setattr(smm, "consume_res", lambda *a: calls.append(a) or consume(*a))
    bounds = Bounds(value_domain=(NIL, 0, 1), max_cells=2, max_addresses=3)
    most = 0
    for mem in _mems(bundle.cmm, bounds, cap=128):
        fanout = len(mem) + 1
        for rname, ins_v, _ in _resource_cases(bundle.rm, bounds):
            ins = tuple(Lit(v) for v in ins_v)
            for smem, _theta in _lift_styles(smm, mem):
                for mode in (Mode.OX, Mode.UX):
                    distinct = []  # the differing results of single-seed runs
                    for seed in range(fanout):
                        run = _strip(consume(mode, Oracle.constant(seed), rname, ins, smem))
                        if run not in distinct:
                            distinct.append(run)
                    calls.clear()
                    got = _consume_branches(smm, mode, rname, ins, smem, fanout)
                    assert len(calls) == len(distinct)
                    most = max(most, len(calls))
                    old = _old_consume_branches(smm, mode, rname, ins, smem, fanout)
                    assert _strip(got) == _strip(old)
    assert most == 1 if name == "frac" else most > 1


# ---------------------------------------------------------------------------
# check_frame before it ran each (memory, case, window) once, kept as the
# reference: it runs the inner memory's action again for every frame.
# ---------------------------------------------------------------------------


def _ox_frame_holds(cmm, inner_results, frame, o, mem2, outs):
    for o2, mem3, outs2 in inner_results:
        if o2 is MISS:
            return True
        if o2 is o and tuple(outs2) == tuple(outs) and cmm.compose(mem3, frame) == mem2:
            return True
    return False


def _old_check_frame(cmm, mode: str, bounds: Bounds, cap: int = 200_000) -> CheckResult:
    mems = _mems(cmm, bounds)
    cases = list(cmm.action_cases(bounds))
    trials = 0
    for i, j, c in _sample_product((len(mems), len(mems), len(cases)), cap, bounds.seed):
        mu, frame = mems[i], mems[j]
        composed = cmm.compose(mu, frame)
        name, args = cases[c]
        trials += 1
        wide = bounds.max_addresses + cmm.addr_span(frame)
        if mode == "ox":
            if composed is None:
                continue
            full = cmm.exec_action(composed, name, args, bounds.max_addresses)
            inner = cmm.exec_action(mu, name, args, wide)
            for o, mem2, outs in full:
                if not _ox_frame_holds(cmm, inner, frame, o, mem2, outs):
                    return CheckResult("frame", mode, "fail", trials, _frame_witness(mu, frame, name, args, o, outs))
        else:
            inner = cmm.exec_action(mu, name, args, bounds.max_addresses)
            full = (
                [(x, y, tuple(z)) for x, y, z in cmm.exec_action(composed, name, args, wide)]
                if composed is not None
                else []
            )
            for o, mem2, outs in inner:
                if o is MISS:
                    continue
                lifted = cmm.compose(mem2, frame)
                if lifted is None:
                    continue
                if (o, lifted, tuple(outs)) not in full:
                    return CheckResult("frame", mode, "fail", trials, _frame_witness(mu, frame, name, args, o, outs))
    return CheckResult("frame", mode, "pass", trials)


FRAME_CMMS = {name: (lambda name=name: get_model(name).cmm) for name in BUNDLES}
FRAME_CMMS["sabotaged-compose"] = lambda: sabotage(get_model("linear")).cmm


@pytest.mark.parametrize("bounds", DIFF_BOUNDS, ids=["values-nil..f-cells-1", "values-0..f-cells-2"])
@pytest.mark.parametrize("name", FRAME_CMMS)
def test_frame_check_matches_reference(name, bounds):
    """Same verdict, trial count and witness as the reference in both modes,
    at two caps: the larger one takes every trial of most models at these
    bounds, the smaller one samples."""
    cmm = FRAME_CMMS[name]()
    for mode in ("ox", "ux"):
        for cap in (15_000, 700):
            _same_result(check_frame(cmm, mode, bounds, cap), _old_check_frame(cmm, mode, bounds, cap))


def test_frame_check_runs_each_inner_case_once(monkeypatch):
    """With every trial taken, each (memory, case) runs once for its window
    in ux mode, instead of once per frame."""
    cmm = get_model("frac").cmm
    bounds = DIFF_BOUNDS[0]
    calls = []
    run = cmm.exec_action
    monkeypatch.setattr(cmm, "exec_action", lambda *a: calls.append(a) or run(*a))
    r = check_frame(cmm, "ux", bounds)
    mems, cases = _mems(cmm, bounds), len(list(cmm.action_cases(bounds)))
    assert r.passed and r.trials == len(mems) ** 2 * cases
    # the other calls run each defined composition once
    defined = sum(cmm.compose(m, f) is not None for m in mems for f in mems)
    assert len(calls) == len(mems) * cases + defined * cases
