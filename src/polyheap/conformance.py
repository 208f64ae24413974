"""Conformance harness: bounded testing of a memory model's obligations.

Four checks, each refutation-oriented (Pass means "no counterexample
within bounds", never a proof):

  check_pcm_laws         composition forms a partial commutative monoid
  check_frame            concrete actions satisfy the OX/UX frame property
  check_action_soundness symbolic actions simulate / are realised by the
                         concrete ones
  check_cp_soundness     consume/produce agree with the resource
                         satisfaction relation

Allocation enumerates only the `max_addresses` least fresh addresses, so
existential sides of the checks search a window widened by the frame's
cell count: removing cells from a memory can only lower a fresh address's
rank, hence the widened window covers every choice the bounded universal
side can make.

The symbolic checks keep, per call, what does not depend on the trial:
the lifts of each memory, the argument vectors of each action case and
the heaps on which each resource holds. A step's new logical variables
are the names its namer minted (consume and produce mint none), so a
witness domain is built only when the step minted a name. Model
operations are pure, so sharing changes no verdict, trial count or
witness.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from random import Random

from .evaluation import all_true, eval_lexpr
from .memmodel import FREED, Bounds, MemoryModelBundle
from .oracle import Oracle
from .outcomes import ABORT, MISS, OK
from .solver import extensions
from .syntax import LVar, Lit
from .values import UNDEF, is_value


@dataclass
class CheckResult:
    check: str
    mode: str  # "ox" | "ux" | "-"
    verdict: str  # "pass" | "fail"
    trials: int
    witness: dict = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _sample_product(sizes: tuple, cap: int, seed: int):
    """The index tuples of `itertools.product(*map(range, sizes))`, in order;
    past `cap` of them, a seeded sample of `cap`, still in order. Sampled
    tuples are decoded from their flat index, so the product is never built."""
    total = math.prod(sizes)
    if total <= cap:
        yield from itertools.product(*map(range, sizes))
        return
    for k in sorted(Random(seed).sample(range(total), cap)):
        idx = []
        for n in reversed(sizes):
            k, r = divmod(k, n)
            idx.append(r)
        yield tuple(reversed(idx))


def _mems(cmm, bounds: Bounds, cap: int = 4096) -> list:
    out = []
    for m in cmm.generator(bounds):
        out.append(m)
        if len(out) >= cap:
            break
    return out


# ---------------------------------------------------------------------------
# PCM laws
# ---------------------------------------------------------------------------


def check_pcm_laws(cmm, bounds: Bounds, assoc_cap: int = 12_000_000) -> CheckResult:
    mems = _mems(cmm, bounds)
    trials = 0
    if not cmm.is_wf(cmm.empty):
        return CheckResult("pcm", "-", "fail", 0, {"law": "wf-empty"})

    def unit_fails(a):
        return cmm.compose(a, cmm.empty) != a or cmm.compose(cmm.empty, a) != a

    for a in mems:
        trials += 1
        if unit_fails(a):
            (a2,) = _shrink(lambda xs: unit_fails(xs[0]), (a,), cmm, bounds)
            return CheckResult("pcm", "-", "fail", trials, {"law": "unit", "mem": repr(a2)})

    def commut_fails(pair):
        a, b = pair
        return cmm.compose(a, b) != cmm.compose(b, a)

    for i, j in _sample_product((len(mems), len(mems)), 250_000, bounds.seed):
        trials += 1
        if commut_fails((mems[i], mems[j])):
            w = _shrink(lambda xs: commut_fails(xs), (mems[i], mems[j]), cmm, bounds)
            return CheckResult(
                "pcm", "-", "fail", trials,
                {"law": "commutativity", "mems": [repr(m) for m in w]},
            )
        comp = cmm.compose(mems[i], mems[j])
        if comp is not None and not cmm.is_wf(comp):
            return CheckResult(
                "pcm", "-", "fail", trials,
                {"law": "wf-compose", "mems": [repr(mems[i]), repr(mems[j])]},
            )

    def assoc_fails(triple):
        a, b, c = triple
        ab = cmm.compose(a, b)
        bc = cmm.compose(b, c)
        lhs = cmm.compose(ab, c) if ab is not None else None
        rhs = cmm.compose(a, bc) if bc is not None else None
        return lhs != rhs

    n = len(mems)
    if n**3 <= assoc_cap:
        pair_table = [[cmm.compose(a, b) for b in mems] for a in mems]
        for i in range(n):
            row_i = pair_table[i]
            for j in range(n):
                ab = row_i[j]
                row_j = pair_table[j]
                for k in range(n):
                    trials += 1
                    bc = row_j[k]
                    lhs = cmm.compose(ab, mems[k]) if ab is not None else None
                    rhs = cmm.compose(mems[i], bc) if bc is not None else None
                    if lhs != rhs:
                        w = _shrink(assoc_fails, (mems[i], mems[j], mems[k]), cmm, bounds)
                        return CheckResult(
                            "pcm", "-", "fail", trials,
                            {"law": "associativity", "mems": [repr(m) for m in w]},
                        )
    else:
        rng = Random(bounds.seed)
        for _ in range(bounds.trials):
            trials += 1
            triple = (rng.choice(mems), rng.choice(mems), rng.choice(mems))
            if assoc_fails(triple):
                w = _shrink(assoc_fails, triple, cmm, bounds)
                return CheckResult(
                    "pcm", "-", "fail", trials,
                    {"law": "associativity", "mems": [repr(m) for m in w]},
                )
    return CheckResult("pcm", "-", "pass", trials)


def _shrink(fails, mems_tuple: tuple, cmm, bounds: Bounds) -> tuple:
    """Greedy witness minimisation: drop heap cells, then minimise values."""
    current = tuple(mems_tuple)
    changed = True
    while changed:
        changed = False
        for idx, m in enumerate(current):
            if not isinstance(m, dict):
                continue
            for key in sorted(m, key=lambda k: str(k)):
                smaller = {k: v for k, v in m.items() if k != key}
                cand = current[:idx] + (smaller,) + current[idx + 1 :]
                if fails(cand):
                    current = cand
                    changed = True
                    break
            if changed:
                break
    smallest = bounds.sorted_domain()[0]
    for idx, m in enumerate(current):
        if not isinstance(m, dict):
            continue
        for key in sorted(m, key=lambda k: str(k)):
            if m[key] == smallest:
                continue
            cand_m = {**m, key: smallest}
            cand = current[:idx] + (cand_m,) + current[idx + 1 :]
            if fails(cand):
                current = cand
    return current


# ---------------------------------------------------------------------------
# Frame properties
# ---------------------------------------------------------------------------


def frame_breach(cmm, mode: str, frame, full, inner):
    """The (outcome, observation) of the first result that breaks the
    frame property, or None. `full` and `inner` are the runs from mu . frame
    and from mu, as (outcome, memory, observation) triples; an observation
    is what the run returns besides its memory, as a tuple.

    OX: every run of mu . frame is matched by a run of mu (or mu misses)
    whose memory recomposes with the frame to it. UX: every non-miss run
    of mu whose memory recomposes with the frame is a run of mu . frame.
    """
    if mode == "ox":
        for o, mem, obs in full:
            for o2, mem2, obs2 in inner:
                if o2 is MISS or (o2 is o and obs2 == obs and cmm.compose(mem2, frame) == mem):
                    break
            else:
                return o, obs
        return None
    for o, mem, obs in inner:
        if o is MISS:
            continue
        lifted = cmm.compose(mem, frame)
        if lifted is not None and (o, lifted, obs) not in full:
            return o, obs
    return None


def check_frame(cmm, mode: str, bounds: Bounds, cap: int = 200_000) -> CheckResult:
    assert mode in ("ox", "ux")
    mems = _mems(cmm, bounds)
    cases = list(cmm.action_cases(bounds))
    trials = 0
    # the runs of mems[i] by (case, address window); the sample has i
    # outermost, so they are kept only while i stays the same
    runs, runs_of = {}, None

    def run_mu(c, window):
        if (c, window) not in runs:
            runs[c, window] = cmm.exec_action(mu, name, args, window)
        return runs[c, window]

    for i, j, c in _sample_product((len(mems), len(mems), len(cases)), cap, bounds.seed):
        if i != runs_of:
            runs.clear()
            runs_of = i
        mu, frame = mems[i], mems[j]
        composed = cmm.compose(mu, frame)
        name, args = cases[c]
        trials += 1
        wide = bounds.max_addresses + cmm.addr_span(frame)
        if mode == "ox":
            # the property universally quantifies executions of mu . frame,
            # so undefined compositions are vacuous
            if composed is None:
                continue
            breach = frame_breach(
                cmm, mode, frame, cmm.exec_action(composed, name, args, bounds.max_addresses),
                run_mu(c, wide),
            )
        else:
            # the conclusion executes mu . frame: when the composition is
            # undefined while a non-miss result recomposes with the frame,
            # the property fails (the freed-marker counterexample)
            full = cmm.exec_action(composed, name, args, wide) if composed is not None else []
            breach = frame_breach(cmm, mode, frame, full, run_mu(c, bounds.max_addresses))
        if breach is not None:
            return CheckResult("frame", mode, "fail", trials, _frame_witness(mu, frame, name, args, *breach))
    return CheckResult("frame", mode, "pass", trials)


def _frame_witness(mu, frame, name, args, o, outs):
    return {
        "mem": repr(mu),
        "frame": repr(frame),
        "action": name,
        "args": [repr(a) for a in args],
        "outcome": o.value,
        "returns": [repr(v) for v in outs],
    }


# ---------------------------------------------------------------------------
# Symbolic action soundness
# ---------------------------------------------------------------------------


class _Namer:
    def __init__(self, prefix="h"):
        self.prefix = prefix
        self.n = 0

    def __call__(self):
        name = f"{self.prefix}{self.n}"
        self.n += 1
        return name

    def minted(self) -> list:
        """The names returned so far, in order."""
        return [f"{self.prefix}{k}" for k in range(self.n)]


def _lift_styles(smm, mem):
    """(smem, theta) pairs relating the concrete memory to symbolic ones."""
    out = [smm.lift(mem, _Namer("g"), True)]
    out.append(smm.lift(mem, _Namer("h"), False))
    return out


def _lifts(smm, mems):
    """`i` -> the `_lift_styles` of `mems[i]`, computed on the first request
    for `i`, since a check samples each memory many times."""
    return functools.cache(lambda i: _lift_styles(smm, mems[i]))


def _arg_styles(case_args):
    """Ground and variable-shaped symbolic argument vectors."""
    ground = tuple(Lit(v) for v in case_args)
    lvars = tuple(LVar(f"a{i}") for i in range(len(case_args)))
    theta_l = {f"a{i}": v for i, v in enumerate(case_args)}
    return [(ground, {}), (lvars, theta_l)]


def _eval_vec(exprs, theta):
    vals = []
    for e in exprs:
        v = eval_lexpr(e, theta, {})
        if v is UNDEF:
            return None
        vals.append(v)
    return tuple(vals)


def _branch_models(smm, theta, new, domain, pc, smem, outs, want=None):
    """(th, memory, values) for each extension `th` of `theta` over the
    variables `new` that makes `pc` true and under which `smem` denotes a
    memory and every expression of `outs` a value (the values `want`, when
    given: then no memory is built for other values). `domain` is read
    only when some variable is new: `theta` alone needs no values."""
    for th in extensions(pc, theta, new, domain):
        vals = _eval_vec(outs, th)
        if vals is None or want is not None and vals != want:
            continue
        mem = smm.concretize(th, smem)
        if mem is not None:
            yield th, mem, vals


def check_action_soundness(bundle: MemoryModelBundle, mode: str, bounds: Bounds, cap: int = 4000) -> CheckResult:
    assert mode in ("ox", "ux")
    cmm, smm = bundle.cmm, bundle.smm
    mems = _mems(cmm, bounds, cap=256)
    cases = list(cmm.action_cases(bounds))
    lifts = _lifts(smm, mems)
    arg_styles = [_arg_styles(args) for _, args in cases]
    trials = 0
    for i, c, s in _sample_product((len(mems), len(cases), 2), cap, bounds.seed):
        mem = mems[i]
        name, args = cases[c]
        sym_args, theta_a = arg_styles[c][s]
        for smem, theta0 in lifts(i):
            trials += 1
            witness = _action_case(bundle, mode, bounds, mem, smem, {**theta0, **theta_a}, name, args, sym_args)
            if witness is not None:
                witness.update({"action": name, "args": [repr(a) for a in args], "mem": repr(mem)})
                return CheckResult("action", mode, "fail", trials, witness)
    return CheckResult("action", mode, "pass", trials)


def _action_case(bundle, mode, bounds, mem, smem, theta, name, args, sym_args):
    cmm, smm = bundle.cmm, bundle.smm
    namer = _Namer("f")
    branches = smm.exec_action(smem, name, sym_args, namer)
    # the step's new variables are the names it minted (the contract of
    # `SymbolicMemoryModel.exec_action`), shared by all its branches
    new = namer.minted()
    domain = bounds.domain_with(cmm.mem_values(mem), args) if new else ()
    wide = bounds.max_addresses + bounds.max_cells

    # side condition: miss/abort branches leave the memory unchanged
    for o, smem2, pc, outs in branches:
        if o in (MISS, ABORT) and smem2 != smem:
            return {"kind": "miss-changes-memory", "outcome": o.value}

    if mode == "ox":
        # vacuous when some abort branch is plausible under an extension;
        # an abort branch keeps the lifted memory, which always denotes
        for o, smem2, pc, outs in branches:
            if o is ABORT and any(_branch_models(smm, theta, new, domain, pc, smem2, outs)):
                return None
        concrete = cmm.exec_action(mem, name, args, bounds.max_addresses)
        for o, mem2, outs_c in concrete:
            search_domain = _outcome_domain(cmm, bounds, domain, mem, mem2, outs_c) if new else ()
            if not _ox_matched(smm, branches, new, theta, search_domain, o, mem2, outs_c):
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
        for th, mem2, outs_v in _branch_models(smm, theta, new, domain, pc, smem2, outs):
            args_v = _eval_vec(sym_args, th)
            if args_v is None or tuple(args_v) != tuple(args):
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


def _outcome_domain(cmm, bounds, domain, mem, mem2, outs_c):
    """`domain` widened by the values, results and new addresses of the
    concrete outcome `mem2`, `outs_c` of a step from `mem`."""
    extra = set(mem2.keys()) - set(mem.keys()) if isinstance(mem2, dict) else set()
    return bounds.domain_with(domain, cmm.mem_values(mem2), outs_c, extra)


def _ox_matched(smm, branches, new, theta, domain, o, mem2, outs_c):
    return any(
        m == mem2
        for o2, smem2, pc, outs in branches
        if o2 is o and len(outs) == len(outs_c)
        for _, m, _ in _branch_models(smm, theta, new, domain, pc, smem2, outs, tuple(outs_c))
    )


# ---------------------------------------------------------------------------
# Consume / produce soundness
# ---------------------------------------------------------------------------


def _resource_cases(rm, bounds: Bounds):
    """(name, ins values, outs values) triples worth testing."""
    custom = getattr(rm, "resource_cases", None)
    if custom is not None:
        yield from custom(bounds)
        return
    slice_ = bounds.sorted_domain()[:4]
    for name, (n_in, n_out) in sorted(rm.arities.items()):
        ins_opts = list(itertools.product(slice_, repeat=n_in))[:16]
        outs_opts = list(itertools.product(slice_, repeat=n_out))[:8]
        for ins in ins_opts:
            for outs in outs_opts:
                yield name, ins, outs


def _consume_branches(smm, mode, name, ins, smem, fanout: int):
    """Union of consume results over oracle first-choices 0 .. fanout - 1.
    A seed whose oracle gives every read of an earlier run the same answer
    would replay that run, since a consume's result depends only on the
    oracle answers it reads, so it is skipped: a consume that reads no
    choice runs once."""
    seen, runs = [], []
    for seed in range(max(fanout, 1)):
        oracle = Oracle.constant(seed)
        if any(oracle.replays(run) for run in runs):
            continue
        runs.append(oracle)
        for branch in smm.consume_res(mode, oracle, name, ins, smem):
            if branch not in seen:
                seen.append(branch)
    return seen


def check_cp_soundness(bundle: MemoryModelBundle, mode: str, bounds: Bounds, cap: int = 2500) -> CheckResult:
    assert mode in ("ox", "ux")
    from .engine import Mode

    emode = Mode.OX if mode == "ox" else Mode.UX
    cmm, rm, smm = bundle.cmm, bundle.rm, bundle.smm
    mems = _mems(cmm, bounds, cap=128)
    heaps = _mems(cmm, bounds, cap=512)  # candidate resource heaps
    cases = list(_resource_cases(rm, bounds))
    lifts = _lifts(smm, mems)
    # the candidate heaps on which resource `name(ins; outs)` holds
    res_heaps = functools.cache(
        lambda name, ins, outs: [m for m in heaps if rm.holds_resource(m, name, ins, outs)]
    )
    trials = 0
    for i, c in _sample_product((len(mems), len(cases)), cap, bounds.seed):
        mem = mems[i]
        name, ins_v, outs_v = cases[c]
        for smem, theta0 in lifts(i):
            trials += 1
            w = _cp_consume_case(bundle, emode, mode, bounds, res_heaps, mem, smem, theta0, name, ins_v)
            if w is None:
                w = _cp_produce_case(bundle, mode, res_heaps, mem, smem, theta0, name, ins_v, outs_v)
            if w is not None:
                w.update({"resource": name, "ins": [repr(v) for v in ins_v], "mem": repr(mem)})
                return CheckResult("cp", mode, "fail", trials, w)
    return CheckResult("cp", mode, "pass", trials)


def _cp_consume_case(bundle, emode, mode, bounds, res_heaps, mem, smem, theta, name, ins_v):
    cmm, rm, smm = bundle.cmm, bundle.rm, bundle.smm
    ins = tuple(Lit(v) for v in ins_v)
    fanout = (len(mem) if isinstance(mem, dict) else 4) + 1
    # a consume mints no variable (`SymbolicMemoryModel.consume_res`), so
    # `theta` decides each branch: no variable is new and no domain is read
    branches = _consume_branches(smm, emode, name, ins, smem, fanout)

    if mode == "ux":
        for o, _, outs, (smem_f, checks, pc) in branches:
            if o is not OK:
                continue
            for th, mem_f, outs_th in _branch_models(smm, theta, (), (), pc, smem_f, outs):
                for mem_r in res_heaps(name, ins_v, outs_th):
                    whole = cmm.compose(mem_r, mem_f)
                    if whole is None:
                        continue
                    if not all_true(checks, th) or not smm.sat_mem(th, whole, smem):
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
    # vacuous when some abort branch has a model; its values are not read
    for o, _, outs, (smem_f, checks, pc) in branches:
        if o is ABORT and all_true(checks, theta):
            if any(_branch_models(smm, theta, (), (), pc, smem_f, ())):
                return None
    covered = False
    for o, _, outs, (smem_f, checks, pc) in branches:
        if o is not OK:
            continue
        if not all_true(checks, theta):
            covered = True  # implication vacuous for this branch
            break
        outs_th = _eval_vec(outs, theta)
        if outs_th is None or not all_true(pc, theta):
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


def _outs_present(rm, name, ins_v, mem_r, bounds):
    n_out = rm.arities[name][1]
    held = [v for v in mem_r.values() if v is not FREED and is_value(v)] if isinstance(mem_r, dict) else ()
    for outs in itertools.product(bounds.domain_with(held), repeat=n_out):
        if rm.holds_resource(mem_r, name, ins_v, outs):
            return outs
    return None


def _cp_produce_case(bundle, mode, res_heaps, mem_f, smem_f, theta, name, ins_v, outs_v):
    cmm, rm, smm = bundle.cmm, bundle.rm, bundle.smm
    ins = tuple(Lit(v) for v in ins_v)
    outs = tuple(Lit(v) for v in outs_v)
    results = smm.produce_res(name, ins, outs, smem_f)
    if mode == "ox":
        if not smm.sat_mem(theta, mem_f, smem_f):
            return None
        for mem_r in res_heaps(name, ins_v, outs_v):
            whole = cmm.compose(mem_r, mem_f)
            if whole is None:
                continue
            hit = False
            for smem2, pc in results:
                if all_true(pc, theta) and smm.sat_mem(theta, whole, smem2):
                    hit = True
                    break
            if not hit:
                return {"kind": "produce-ox-uncovered", "res-heap": repr(mem_r), "outs": [repr(v) for v in outs_v]}
        return None
    # UX: every produced state's models split into resource + frame models
    for smem2, pc in results:
        if not all_true(pc, theta):
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


# ---------------------------------------------------------------------------
# Full-suite driver
# ---------------------------------------------------------------------------


def run_conformance(bundle: MemoryModelBundle, bounds: Bounds) -> list:
    """Every check in both modes; the PCM laws have no mode and are
    reported under each."""
    modes = ("ox", "ux")
    pcm = check_pcm_laws(bundle.cmm, bounds)
    results = [CheckResult("pcm", mode, pcm.verdict, pcm.trials, pcm.witness) for mode in modes]
    results += [check_frame(bundle.cmm, mode, bounds) for mode in modes]
    results += [check_action_soundness(bundle, mode, bounds) for mode in modes]
    results += [check_cp_soundness(bundle, mode, bounds) for mode in modes]
    return results
