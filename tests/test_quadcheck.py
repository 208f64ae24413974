import dataclasses
import itertools
import os

import pytest

from conftest import programs_dir
from polyheap import quadcheck, solver
from polyheap.analyses import biabduct
from polyheap.assertions import Res, Star, lv_assertion, split_external_pre
from polyheap.concrete import BudgetExhausted, run_function
from polyheap.memmodel import Bounds
from polyheap.models import get_model
from polyheap.outcomes import ERR, MISS, OK
from polyheap.parser import parse_program
from polyheap.quadcheck import CounterExample, Inconclusive, Valid, check_quadruple_bounded
from polyheap.satisfaction import DepthExceeded, holds
from polyheap.solver import models
from polyheap.syntax import Bin, LVar
from polyheap.values import NIL, value_key

B = Bounds(value_domain=(NIL, 0, 1, 2), max_cells=2, max_addresses=3, trials=200, seed=0)

SKIP_VALID = "func f() { skip; return 0 }\nspec SL f() { requires: emp; ensures_ok: ret = 0 * emp; }"
LOOKUP_FROM_EMP = """
        func g() { x := lookup(1); return 0 }
        spec SL g() { requires: emp; ensures_ok: True; ensures_err: True; }
        """
ISL_FREE = """
        func h() { free(1); return nil }
        spec ISL h() { requires: cell(1; #v); ensures_ok: ret = nil * freed(1;); }
        """
ISL_UNREACHABLE = """
        func h() { skip; return nil }
        spec ISL h() { requires: emp; ensures_ok: ret = 0 * emp; }
        """
ESL_LOOKUP = """
        func k(x) { y := lookup(x); return y }
        spec ESL k(x) { requires: x = #x * cell(#x; #v); ensures_ok: cell(#x; #v) * ret = #v; }
        """
WRONG_POST = """
        func k(x) { y := lookup(x); return y }
        spec SL k(x) { requires: x = #x * cell(#x; #v); ensures_ok: cell(#x; 0) * ret = #v; }
        """
DEPTH_LOOP = """
        pred loop(;) { loop(;) }
        func f() { skip; return 0 }
        spec SL f() { requires: loop(;); ensures_ok: True; }
        """
# the first unreachable (heap, value) pair shows the enumeration order
ISL_TRUE_POST = """
        func h() { skip; return nil }
        spec ISL h() { requires: emp; ensures_ok: True; }
        """
# the false conjunct rules out every heap before the predicate is unfolded
LOOP_AND_FALSE = """
        pred loop(;) { loop(;) }
        func f() { skip; return 0 }
        spec SL f() { requires: loop(;) * (false); ensures_ok: True; }
        """
CASES = {
    "skip-valid": SKIP_VALID,
    "lookup-from-emp": LOOKUP_FROM_EMP,
    "isl-free": ISL_FREE,
    "isl-unreachable": ISL_UNREACHABLE,
    "esl-lookup": ESL_LOOKUP,
    "wrong-post": WRONG_POST,
    "depth-loop": DEPTH_LOOP,
    "isl-true-post": ISL_TRUE_POST,
}


@pytest.fixture
def lin():
    return get_model("linear")


def check(src, lin, bounds=B):
    prog = parse_program(src)
    fid = next(iter(prog.specs))
    return check_quadruple_bounded(prog.functions, prog.specs[fid][0], bounds, lin, prog.preds)


def test_sl_skip_valid(lin):
    assert isinstance(check(SKIP_VALID, lin), Valid)


def test_sl_lookup_from_emp_misses(lin):
    r = check(LOOKUP_FROM_EMP, lin)
    assert isinstance(r, CounterExample) and r.kind == "miss"


def test_isl_free_valid_within_bounds(lin):
    assert isinstance(check(ISL_FREE, lin), Valid)


def test_isl_unreachable_post_detected(lin):
    r = check(ISL_UNREACHABLE, lin)
    assert isinstance(r, CounterExample) and r.kind == "unreachable-post"


def test_esl_checks_both_directions(lin):
    assert isinstance(check(ESL_LOOKUP, lin), Valid)


def test_wrong_post_refuted(lin):
    r = check(WRONG_POST, lin)
    assert isinstance(r, CounterExample) and r.kind == "post-violated"


def test_depth_exhaustion_is_inconclusive(lin):
    assert isinstance(check(DEPTH_LOOP, lin), Inconclusive)


def test_one_enumeration_cap(monkeypatch, lin):
    """`models` and `check_quadruple_bounded` read one cap: at 16 each
    enumerates its 16 candidates in full, at 15 `models` samples and the
    quadruple is Inconclusive."""
    x, y = LVar("x"), LVar("y")
    pc = (Bin("<=", x, y),)
    domain = [0, 1, 2]  # with a variable left unbound: 4 ** 2 candidates
    full = [{"x": a, "y": b} for a in domain for b in domain if a <= b]
    assert len(B.value_domain) ** 2 == 16  # ESL_LOOKUP has #x and #v
    monkeypatch.setattr(solver, "_ENUM_CAP", 16)
    assert list(models(pc, {"x", "y"}, domain, B)) == full
    assert isinstance(check(ESL_LOOKUP, lin), Valid)
    monkeypatch.setattr(solver, "_ENUM_CAP", 15)
    sampled = list(models(pc, {"x", "y"}, domain, B))
    assert len(sampled) > len(full) and all(th in full for th in sampled)  # B.trials draws
    r = check(ESL_LOOKUP, lin)
    assert isinstance(r, Inconclusive) and r.reason == "interpretation space exceeds the enumeration cap"


def test_false_pure_conjunct_hides_depth_exhaustion(lin):
    # the precondition has no model, so the quadruple is valid; the loop
    # that checked every heap against the whole assertion unfolded
    # `loop` first and gave Inconclusive
    prog = parse_program(LOOP_AND_FALSE)
    q = prog.specs["f"][0]
    assert isinstance(check(LOOP_AND_FALSE, lin), Valid)
    assert isinstance(_old_check(prog.functions, q, B, lin, prog.preds), Inconclusive)


def test_isl_post_with_false_pure_part_never_calls_holds(lin, monkeypatch):
    src = """
        func f() { skip; return 0 }
        spec ISL f() { requires: emp; ensures_ok: ret = #v * (1 = 2); }
        """
    prog = parse_program(src)
    q = prog.specs["f"][0]
    seen = []

    def counting(theta, store, mem, a, **kw):
        seen.append(a)
        return holds(theta, store, mem, a, **kw)

    monkeypatch.setattr(quadcheck, "holds", counting)
    assert isinstance(check_quadruple_bounded(prog.functions, q, B, lin, prog.preds), Valid)
    assert seen and all(a is q.pre for a in seen)


# ---------------------------------------------------------------------------
# Differential against the loop that checked every theta x heap x value with
# the whole assertion
# ---------------------------------------------------------------------------


def _old_check(gamma, q, bounds, bundle, preds=None, budget=16):
    """`check_quadruple_bounded` before it pruned by pure conjuncts."""
    preds = preds if preds is not None else {}
    q.check_external_shape()
    lvars = sorted(lv_assertion(q.pre) | lv_assertion(q.post_ok) | lv_assertion(q.post_err))
    domain = bounds.sorted_domain()
    if len(domain) ** len(lvars) > solver._ENUM_CAP:
        return Inconclusive("interpretation space exceeds the enumeration cap")
    param_map, _ = split_external_pre(q.pre, q.params)
    heaps = list(bundle.cmm.generator(bounds))
    complete = True
    run_cache = {}

    def runs(args, mem):
        key = (args, quadcheck._freeze(mem))
        if key not in run_cache:
            run_cache[key] = run_function(gamma, q.fid, args, mem, bundle.cmm, budget, bounds.max_addresses)
        return run_cache[key]

    sat = lambda theta, store, mem, a: holds(
        theta, store, mem, a, cmm=bundle.cmm, rm=bundle.rm, preds=preds, bounds=bounds
    )

    for combo in itertools.product(domain, repeat=len(lvars)):
        theta = dict(zip(lvars, combo))
        args = tuple(theta.get(param_map[x]) for x in q.params)
        store = dict(zip(q.params, args))
        try:
            pre_heaps = [h for h in heaps if sat(theta, store, h, q.pre)]
        except DepthExceeded:
            complete = False
            continue
        if q.flavor in ("SL", "ESL"):
            for h in pre_heaps:
                try:
                    results = runs(args, h)
                except BudgetExhausted:
                    complete = False
                    continue
                for o, out, h2 in results:
                    if o is MISS:
                        return CounterExample("miss", theta, {"heap": h, "payload": out})
                    post = q.post_ok if o is OK else q.post_err
                    var = "ret" if o is OK else "err"
                    try:
                        ok = sat(theta, {var: out}, h2, post)
                    except DepthExceeded:
                        complete = False
                        continue
                    if not ok:
                        return CounterExample(
                            "post-violated", theta, {"heap": h, "outcome": o.value, var: out, "final-heap": h2}
                        )
        if q.flavor in ("ISL", "ESL"):
            for o, post, var in ((OK, q.post_ok, "ret"), (ERR, q.post_err, "err")):
                vals = set(domain)
                for h2 in heaps:
                    vals |= bundle.cmm.mem_values(h2)
                for h2 in heaps:
                    for v in sorted(vals, key=value_key):
                        try:
                            if not sat(theta, {var: v}, h2, post):
                                continue
                        except DepthExceeded:
                            complete = False
                            continue
                        reached = False
                        for h in pre_heaps:
                            try:
                                results = runs(args, h)
                            except BudgetExhausted:
                                complete = False
                                continue
                            if any(o2 is o and out == v and h3 == h2 for o2, out, h3 in results):
                                reached = True
                                break
                        if not reached:
                            return CounterExample(
                                "unreachable-post", theta, {"outcome": o.value, var: v, "final-heap": h2}
                            )
    return Valid() if complete else Inconclusive("bounded enumeration was truncated")


def _same_verdict(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, CounterExample):
        assert (got.kind, got.theta, got.detail) == (want.kind, want.theta, want.detail)
    if isinstance(want, Inconclusive):
        assert got.reason == want.reason


@pytest.mark.parametrize("src", CASES.values(), ids=CASES.keys())
def test_matches_old_loop_on_cases(src, lin):
    prog = parse_program(src)
    for specs in prog.specs.values():
        for q in specs:
            _same_verdict(
                check_quadruple_bounded(prog.functions, q, B, lin, prog.preds),
                _old_check(prog.functions, q, B, lin, prog.preds),
            )


STRAIGHT_8 = "func inc(x) {\n" + "  x := x + 1;\n" * 8 + "  return x\n}\n"
USE_AFTER_FREE = """
func uaf(p) {
  mutate(1, p);
  if (p = 2) { free(1) } else { skip };
  y := lookup(1);
  return y
}
"""
FRESH_CELL = "func fresh() {\n  a := new();\n  mutate(a, 1);\n  free(a);\n  return nil\n}\n"
# the biabduced precondition stars two cells, so footprints compose
READ_TWO = "func read_two() {\n  x := lookup(1);\n  y := lookup(2);\n  return y\n}\n"


def _bugs_ph():
    with open(os.path.join(programs_dir(), "bugs.ph"), encoding="utf-8") as fh:
        return fh.read()


# The post gives the first cell's value where the function returns the
# second's, so the counterexamples lie on heaps that own both cells.
TWO_CELLS = {
    "linear": "cell(1; #a) * cell(2; #b)",
    "frac": "cell(1, 1q; #a) * cell(2, 1q; #b)",
    "chunks": "pt(1; #a) * pt(2; #b)",
}


@pytest.mark.parametrize("model", TWO_CELLS)
def test_two_cell_counterexamples_match_old_loop(model):
    cells = TWO_CELLS[model]
    prog = parse_program(
        READ_TWO
        + "".join(
            f"spec {f} read_two() {{ requires: {cells}; ensures_ok: {cells} * ret = #a; }}\n"
            for f in ("SL", "ISL")
        )
    )
    bounds = Bounds(value_domain=(0, 1)) if model == "frac" else B
    bundle = get_model(model)
    kinds = []
    for q in prog.specs["read_two"]:
        got = check_quadruple_bounded(prog.functions, q, bounds, bundle, prog.preds)
        _same_verdict(got, _old_check(prog.functions, q, bounds, bundle, prog.preds))
        kinds.append(got.kind)
    assert kinds == ["post-violated", "unreachable-post"]


def _pt(a):
    """The assertion with every cell as a chunk-model points-to; None when
    it owns a freed cell, which the chunk model cannot state."""
    if isinstance(a, Star):
        left, right = _pt(a.left), _pt(a.right)
        return None if left is None or right is None else Star(left, right)
    if isinstance(a, Res):
        return Res("pt", a.ins, a.outs) if a.name == "cell" else None
    return a


def _chunk_quadruples(quads):
    """Linear quadruples restated over the chunk model, which has no
    bug-finding of its own."""
    for q in quads:
        pre, post_ok, post_err = _pt(q.pre), _pt(q.post_ok), _pt(q.post_err)
        if None not in (pre, post_ok, post_err):
            yield dataclasses.replace(q, pre=pre, post_ok=post_ok, post_err=post_err)


BIABDUCT_CASES = {
    # source, linear and chunk value domain, frac value domain: frac has a
    # heap per value and fraction, so its reference gets slow past a few
    "bugs.ph": (_bugs_ph(), None, (0, 1)),
    "straight-8": (STRAIGHT_8, (0, 1, NIL), (0, NIL)),
    "use-after-free": (USE_AFTER_FREE, (0, 1, 2, 3), (1, 2)),
    "fresh-cell": (FRESH_CELL, None, (0, 1, NIL)),
    "read-two": (READ_TWO, (0, 1, NIL), (0, 1)),
}


def _matches_old_loop_on_biabduct_quadruples(case, model):
    src, values, frac_values = BIABDUCT_CASES[case]
    values = frac_values if model == "frac" else values
    bounds = Bounds() if values is None else Bounds(value_domain=values)
    bundle = get_model(model)
    prog = parse_program(src)
    quads = [
        r.quadruple
        for fid in sorted(prog.functions)
        for r in biabduct(
            prog.functions, prog.specs, fid, get_model("linear" if model == "chunks" else model),
            prog.preds, bounds, budget=32, validate=False,
        )
    ]
    if model == "chunks":
        quads = list(_chunk_quadruples(quads))
    assert quads
    # the SL and ESL readings of each quadruple reach the other branches
    for q in (dataclasses.replace(q, flavor=f) for q in quads for f in ("ISL", "SL", "ESL")):
        _same_verdict(
            check_quadruple_bounded(prog.functions, q, bounds, bundle, prog.preds),
            _old_check(prog.functions, q, bounds, bundle, prog.preds),
        )


@pytest.mark.parametrize("case", BIABDUCT_CASES)
def test_matches_old_loop_on_biabduct_quadruples(case):
    _matches_old_loop_on_biabduct_quadruples(case, "linear")


@pytest.mark.parametrize("model", ["frac", "chunks"])
@pytest.mark.parametrize("case", BIABDUCT_CASES)
def test_matches_old_loop_on_biabduct_quadruples_of_other_models(case, model):
    _matches_old_loop_on_biabduct_quadruples(case, model)
