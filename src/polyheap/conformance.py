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
the heaps on which each resource holds. Witness domains are built only
when a branch has new variables. Model operations are pure, so sharing
changes no verdict, trial count or witness.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from random import Random

from .evaluation import eval_lexpr
from .memmodel import Bounds, MemoryModelBundle
from .oracle import Oracle
from .outcomes import ABORT, MISS, OK
from .solver import _extensions, _holds_all
from .syntax import LVar, Lit, lv_expr
from .values import UNDEF, value_key


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


def _fmt_mem(mem):
    return repr(mem)


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
            return CheckResult("pcm", "-", "fail", trials, {"law": "unit", "mem": _fmt_mem(a2)})

    def commut_fails(pair):
        a, b = pair
        return cmm.compose(a, b) != cmm.compose(b, a)

    for i, j in _sample_product((len(mems), len(mems)), 250_000, bounds.seed):
        trials += 1
        if commut_fails((mems[i], mems[j])):
            w = _shrink(lambda xs: commut_fails(xs), (mems[i], mems[j]), cmm, bounds)
            return CheckResult(
                "pcm", "-", "fail", trials,
                {"law": "commutativity", "mems": [_fmt_mem(m) for m in w]},
            )
        comp = cmm.compose(mems[i], mems[j])
        if comp is not None and not cmm.is_wf(comp):
            return CheckResult(
                "pcm", "-", "fail", trials,
                {"law": "wf-compose", "mems": [_fmt_mem(mems[i]), _fmt_mem(mems[j])]},
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
                            {"law": "associativity", "mems": [_fmt_mem(m) for m in w]},
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
                    {"law": "associativity", "mems": [_fmt_mem(m) for m in w]},
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


def check_frame(cmm, mode: str, bounds: Bounds, cap: int = 200_000) -> CheckResult:
    assert mode in ("ox", "ux")
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
            # the property universally quantifies executions of mu . frame,
            # so undefined compositions are vacuous
            if composed is None:
                continue
            full = cmm.exec_action(composed, name, args, bounds.max_addresses)
            inner = cmm.exec_action(mu, name, args, wide)
            for o, mem2, outs in full:
                if not _ox_frame_holds(cmm, inner, frame, o, mem2, outs):
                    return CheckResult(
                        "frame", mode, "fail", trials,
                        _frame_witness(mu, frame, name, args, o, outs),
                    )
        else:
            # the conclusion executes mu . frame: when the composition is
            # undefined while a non-miss result recomposes with the frame,
            # the property fails (the freed-marker counterexample)
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
                    return CheckResult(
                        "frame", mode, "fail", trials,
                        _frame_witness(mu, frame, name, args, o, outs),
                    )
    return CheckResult("frame", mode, "pass", trials)


def _ox_frame_holds(cmm, inner_results, frame, o, mem2, outs):
    for o2, mem3, outs2 in inner_results:
        if o2 is MISS:
            return True
        if o2 is o and tuple(outs2) == tuple(outs) and cmm.compose(mem3, frame) == mem2:
            return True
    return False


def _frame_witness(mu, frame, name, args, o, outs):
    return {
        "mem": _fmt_mem(mu),
        "frame": _fmt_mem(frame),
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


def _lift_styles(smm, mem):
    """(smem, theta) pairs relating the concrete memory to symbolic ones."""
    out = [smm.lift(mem, _Namer("g"), True)]
    out.append(smm.lift(mem, _Namer("h"), False))
    return out


def _lifts(smm, mems):
    """`i` -> the `_lift_styles` of `mems[i]`, each with its smem's lvars;
    computed on the first request for `i`, since a check samples each
    memory many times."""
    return functools.cache(
        lambda i: [(smem, theta, smm.lvars(smem)) for smem, theta in _lift_styles(smm, mems[i])]
    )


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


class _Lazy:
    """`fn()`, computed on the first call and then kept."""

    __slots__ = ("fn", "value")

    def __init__(self, fn):
        self.fn = fn

    def __call__(self):
        if self.fn is not None:
            self.value, self.fn = self.fn(), None
        return self.value


def _extend(theta, new, domain):
    """`_extensions(theta, new, domain())`, calling `domain` only when some
    variable is new: `theta` alone needs no values."""
    return _extensions(theta, new, domain() if new else ())


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
        for smem, theta0, lvars in lifts(i):
            theta = {**theta0, **theta_a}
            trials += 1
            witness = _action_case(
                bundle, mode, bounds, mem, smem, lvars | set(theta), theta, name, args, sym_args
            )
            if witness is not None:
                witness.update({"action": name, "args": [repr(a) for a in args], "mem": _fmt_mem(mem)})
                return CheckResult("action", mode, "fail", trials, witness)
    return CheckResult("action", mode, "pass", trials)


def _action_case(bundle, mode, bounds, mem, smem, known, theta, name, args, sym_args):
    cmm, smm = bundle.cmm, bundle.smm
    branches = smm.exec_action(smem, name, sym_args, _Namer("f"))
    domain = _Lazy(
        lambda: sorted(set(bounds.value_domain) | cmm.mem_values(mem) | set(args), key=value_key)
    )
    wide = bounds.max_addresses + bounds.max_cells

    # side condition: miss/abort branches leave the memory unchanged
    for o, smem2, pc, outs in branches:
        if o in (MISS, ABORT) and smem2 != smem:
            return {"kind": "miss-changes-memory", "outcome": o.value}

    if mode == "ox":
        # each branch's new variables, shared by the concrete outcomes
        news = [_Lazy(functools.partial(_new_lvars, smm, b, known)) for b in branches]
        # vacuous when some abort branch is plausible under an extension
        for (o, smem2, pc, outs), new in zip(branches, news):
            if o is ABORT:
                for th in _extend(theta, new(), domain):
                    if _holds_all(pc, th) and _eval_vec(outs, th) is not None:
                        return None
        concrete = cmm.exec_action(mem, name, args, bounds.max_addresses)
        for o, mem2, outs_c in concrete:
            search_domain = _Lazy(functools.partial(_outcome_domain, cmm, domain, mem, mem2, outs_c))
            if not _ox_matched(smm, branches, news, theta, search_domain, o, mem2, outs_c):
                return {
                    "kind": "unmatched-concrete-step",
                    "outcome": o.value,
                    "returns": [repr(v) for v in outs_c],
                    "result-mem": _fmt_mem(mem2),
                }
        return None

    # UX: satisfiable symbolic steps must be concretely realisable
    for o, smem2, pc, outs in branches:
        if o is ABORT:
            continue
        new = _branch_lvars(smm, smem2, pc, outs) - known
        for th in _extend(theta, new, domain):
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
                    "result-mem": _fmt_mem(mem2),
                }
    return None


def _outcome_domain(cmm, domain, mem, mem2, outs_c):
    """`domain()` widened by the values, results and new addresses of the
    concrete outcome `mem2`, `outs_c` of a step from `mem`."""
    extra = set(mem2.keys()) - set(mem.keys()) if isinstance(mem2, dict) else set()
    return sorted(set(domain()) | cmm.mem_values(mem2) | set(outs_c) | extra, key=value_key)


def _branch_lvars(smm, smem2, pc, outs):
    out = smm.lvars(smem2)
    for c in pc:
        out |= lv_expr(c)
    for e in outs:
        out |= lv_expr(e)
    return out


def _new_lvars(smm, branch, known):
    _, smem2, pc, outs = branch
    return _branch_lvars(smm, smem2, pc, outs) - known


def _ox_matched(smm, branches, news, theta, domain, o, mem2, outs_c):
    for (o2, smem2, pc, outs), new in zip(branches, news):
        if o2 is not o or len(outs) != len(outs_c):
            continue
        for th in _extend(theta, new(), domain):
            if not _holds_all(pc, th):
                continue
            if _eval_vec(outs, th) != tuple(outs_c):
                continue
            if smm.sat_mem(th, mem2, smem2):
                return True
    return False


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
        for smem, theta0, lvars in lifts(i):
            trials += 1
            known = lvars | set(theta0)
            w = _cp_consume_case(
                bundle, emode, mode, bounds, res_heaps, mem, smem, known, theta0, name, ins_v
            )
            if w is None:
                w = _cp_produce_case(bundle, mode, res_heaps, mem, smem, theta0, name, ins_v, outs_v)
            if w is not None:
                w.update({"resource": name, "ins": [repr(v) for v in ins_v], "mem": _fmt_mem(mem)})
                return CheckResult("cp", mode, "fail", trials, w)
    return CheckResult("cp", mode, "pass", trials)


def _cp_consume_case(bundle, emode, mode, bounds, res_heaps, mem, smem, known, theta, name, ins_v):
    cmm, rm, smm = bundle.cmm, bundle.rm, bundle.smm
    ins = tuple(Lit(v) for v in ins_v)
    fanout = (len(mem) if isinstance(mem, dict) else 4) + 1
    branches = _consume_branches(smm, emode, name, ins, smem, fanout)
    domain = _Lazy(
        lambda: sorted(set(bounds.value_domain) | cmm.mem_values(mem) | set(ins_v), key=value_key)
    )

    if mode == "ux":
        for o, _, outs, (smem_f, checks, pc) in branches:
            if o is not OK:
                continue
            new = _branch_lvars(smm, smem_f, tuple(checks) + tuple(pc), outs) - known
            for th in _extend(theta, new, domain):
                outs_th = _eval_vec(outs, th)
                if outs_th is None or not _holds_all(pc, th):
                    continue
                mem_f = smm.concretize(th, smem_f)
                if mem_f is None:
                    continue
                for mem_r in res_heaps(name, ins_v, outs_th):
                    whole = cmm.compose(mem_r, mem_f)
                    if whole is None:
                        continue
                    if not _holds_all(checks, th) or not smm.sat_mem(th, whole, smem):
                        return {
                            "kind": "consume-ux",
                            "outs": [repr(v) for v in outs_th],
                            "frame": _fmt_mem(mem_f),
                            "res-heap": _fmt_mem(mem_r),
                        }
        return None

    # OX: some consume branch must cover the model
    if not smm.sat_mem(theta, mem, smem):
        return None
    plausible_abort = False
    for o, _, outs, (smem_f, checks, pc) in branches:
        if o is ABORT and _holds_all(checks, theta):
            new = _branch_lvars(smm, smem_f, tuple(pc), outs) - known
            for th in _extend(theta, new, domain):
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


def _outs_present(rm, name, ins_v, mem_r, bounds):
    from .memmodel import FREED
    from .values import is_value

    n_out = rm.arities[name][1]
    vals = set(bounds.sorted_domain())
    if isinstance(mem_r, dict):
        vals.update(v for v in mem_r.values() if v is not FREED and is_value(v))
    for outs in itertools.product(sorted(vals, key=value_key), repeat=n_out):
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
                if _holds_all(pc, theta) and smm.sat_mem(theta, whole, smem2):
                    hit = True
                    break
            if not hit:
                return {"kind": "produce-ox-uncovered", "res-heap": _fmt_mem(mem_r), "outs": [repr(v) for v in outs_v]}
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
            return {"kind": "produce-ux-unsplit", "result-mem": _fmt_mem(whole), "outs": [repr(v) for v in outs_v]}
    return None


# ---------------------------------------------------------------------------
# Full-suite driver
# ---------------------------------------------------------------------------

ALL_CHECKS = ("pcm", "frame", "action", "cp")


def run_conformance(bundle: MemoryModelBundle, bounds: Bounds, checks=ALL_CHECKS, modes=("ox", "ux")) -> list:
    results = []
    for check in checks:
        if check == "pcm":
            r = check_pcm_laws(bundle.cmm, bounds)
            for mode in modes:
                results.append(CheckResult("pcm", mode, r.verdict, r.trials, r.witness))
            continue
        for mode in modes:
            if check == "frame":
                results.append(check_frame(bundle.cmm, mode, bounds))
            elif check == "action":
                results.append(check_action_soundness(bundle, mode, bounds))
            elif check == "cp":
                results.append(check_cp_soundness(bundle, mode, bounds))
    return results
