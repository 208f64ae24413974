import itertools
import os

import pytest

from polyheap import analyses
from polyheap.analyses import (
    Failed,
    Inconclusive,
    UnsupportedCapability,
    Verified,
    biabduct,
    verify_ox,
)
from polyheap.assertions import Emp, format_assertion, normalize, star_conjuncts
from polyheap.cli import main
from polyheap.concrete import ConcreteState, run
from polyheap.engine import models_of, models_under
from polyheap.memmodel import Bounds
from polyheap.models import get_model
from polyheap.oracle import Oracle
from polyheap.parser import parse_program
from polyheap.quadcheck import Valid, check_quadruple_bounded
from polyheap.satisfaction import DepthExceeded, heap_models
from polyheap.syntax import Action, Lit, Seq, Skip
from polyheap.values import NIL, is_nat

from conftest import programs_dir

B = Bounds(value_domain=(NIL, 0, 1, 2), max_cells=2, max_addresses=3, trials=200, seed=0)


def load(name):
    return parse_program(open(os.path.join(programs_dir(), name), encoding="utf-8").read())


def test_trivial_spec_verifies():
    prog = parse_program(
        "func f(x) { skip; return x }\nspec SL f(x) { requires: x = #x * emp; ensures_ok: ret = #x * emp; }"
    )
    r = verify_ox(prog.functions, prog.specs, "f", prog.specs["f"][0], get_model("linear"), prog.preds, B)
    assert isinstance(r, Verified)


def test_lookup_spec_verifies_and_cross_checks():
    prog = parse_program(
        """
        func k(x) { y := lookup(x); return y }
        spec SL k(x) { requires: x = #x * cell(#x; #v); ensures_ok: cell(#x; #v) * ret = #v; }
        """
    )
    b = get_model("linear")
    q = prog.specs["k"][0]
    assert isinstance(verify_ox(prog.functions, prog.specs, "k", q, b, prog.preds, B), Verified)
    assert isinstance(check_quadruple_bounded(prog.functions, q, B, b, prog.preds), Valid)


def test_wrong_post_fails_with_paths():
    prog = parse_program(
        """
        func k(x) { y := lookup(x); return y }
        spec SL k(x) { requires: x = #x * cell(#x; #v); ensures_ok: cell(#x; 0) * ret = #v; }
        """
    )
    r = verify_ox(prog.functions, prog.specs, "k", prog.specs["k"][0], get_model("linear"), prog.preds, B)
    assert isinstance(r, Failed)
    assert r.paths and all("pc" in p and "reason" in p for p in r.paths)


def test_recursive_function_rejected():
    prog = parse_program(
        """
        func f(x) { y := f(x); return y }
        spec SL f(x) { requires: x = #x * emp; ensures_ok: True; }
        """
    )
    r = verify_ox(prog.functions, prog.specs, "f", prog.specs["f"][0], get_model("linear"), prog.preds, B)
    assert isinstance(r, Failed)
    assert "recursive" in r.paths[0]["reason"]


def test_verification_needs_declared_soundness():
    prog = parse_program(
        "func f(x) { skip; return x }\nspec SL f(x) { requires: x = #x * emp; ensures_ok: ret = #x * emp; }"
    )
    with pytest.raises(UnsupportedCapability):
        verify_ox(prog.functions, prog.specs, "f", prog.specs["f"][0], get_model("linear-cut"), prog.preds, B)


def test_call_through_spec_verifies():
    prog = parse_program(
        """
        func inner(x) { y := lookup(x); return y }
        func outer(x) { r := inner(x); return r }
        spec SL inner(x) { requires: x = #x * cell(#x; #v); ensures_ok: cell(#x; #v) * ret = #v; }
        spec SL outer(x) { requires: x = #x * cell(#x; #v); ensures_ok: cell(#x; #v) * ret = #v; }
        """
    )
    b = get_model("linear")
    for fid in ("inner", "outer"):
        r = verify_ox(prog.functions, prog.specs, fid, prog.specs[fid][0], b, prog.preds, B)
        assert isinstance(r, Verified), fid



# -- oracle search: differential against the full 40-prefix loop ---------------


def _old_verify_ox(monkeypatch, *args):
    """verify_ox as it was before it skipped replayed prefixes: run every one
    of the 40 prefixes until one verifies. Returns (verdict, passes)."""
    real = analyses._verify_once
    calls = []

    def capture(*a):
        calls.append(a)
        return Verified()

    # run verify_ox's own set-up once and keep the arguments it hands on
    monkeypatch.setattr(analyses, "_verify_once", capture)
    early = verify_ox(*args)
    monkeypatch.setattr(analyses, "_verify_once", real)
    if not calls:
        return early, 0
    setup = calls[0][:-1]
    oracles = [Oracle.constant(0)]
    for depth in range(1, 4):
        for prefix in itertools.product(range(3), repeat=depth):
            oracles.append(Oracle(prefix, 0, 0))
    best = None
    for n, oracle in enumerate(oracles, 1):
        verdict = real(*setup, oracle)
        if isinstance(verdict, Verified):
            return verdict, n
        if best is None or isinstance(best, Failed) and isinstance(verdict, Inconclusive):
            best = verdict
    return best, len(oracles)


def _new_verify_ox(monkeypatch, *args):
    """verify_ox with the prefix of each pass recorded. Returns (verdict, prefixes)."""
    real = analyses._verify_once
    passes = []

    def counted(*a):
        passes.append(a[-1].prefix)
        return real(*a)

    monkeypatch.setattr(analyses, "_verify_once", counted)
    verdict = verify_ox(*args)
    monkeypatch.setattr(analyses, "_verify_once", real)
    return verdict, passes


def _same_verdict(old, new):
    assert type(old) is type(new), (old, new)
    if isinstance(old, Failed):
        assert old.paths == new.paths
    if not isinstance(old, (Failed, Verified)):
        assert old.reason == new.reason


def _fixture_specs():
    from test_acceptance import FIXTURES

    for fname, model, domain in FIXTURES:
        prog = load(fname)
        bounds = Bounds(value_domain=domain, max_cells=2, max_addresses=3, trials=300, seed=0)
        for fid in sorted(prog.specs):
            for q in prog.specs[fid]:
                if q.flavor != "ISL":
                    yield pytest.param(prog, fid, q, model, bounds, id=f"{fname}-{fid}")


@pytest.mark.parametrize("prog, fid, q, model, bounds", list(_fixture_specs()))
def test_oracle_search_matches_full_loop_on_fixtures(monkeypatch, prog, fid, q, model, bounds):
    args = (prog.functions, prog.specs, fid, q, get_model(model), prog.preds, bounds)
    old, old_passes = _old_verify_ox(monkeypatch, *args)
    new, new_passes = _new_verify_ox(monkeypatch, *args)
    _same_verdict(old, new)
    assert len(new_passes) <= old_passes


def test_oracle_search_runs_a_choice_free_failure_once(monkeypatch):
    prog = parse_program(
        """
        func chain(x) {
          y := 0;
          if (x = 5) { y := y + 1 } else { skip };
          if (x = 9) { y := y + 1 } else { skip };
          return y
        }
        spec SL chain(x) { requires: x = #x * emp; ensures_ok: (ret = 0) * emp; }
        """
    )
    args = (prog.functions, prog.specs, "chain", prog.specs["chain"][0], get_model("linear"), prog.preds, B)
    old, old_passes = _old_verify_ox(monkeypatch, *args)
    new, new_passes = _new_verify_ox(monkeypatch, *args)
    assert isinstance(new, Failed) and new.paths
    _same_verdict(old, new)
    assert (old_passes, new_passes) == (40, [()])


TWO_SPECS = """
func inner(x) { y := lookup(x); return y }
func outer(x) { r := inner(x); return r }
func wrong(x) { r := inner(x); return r }
spec SL inner(x) { requires: x = #x * cell(#x; #v); ensures_ok: cell(#x; #v) * ret = #v; }
spec SL inner(x) { requires: x = #x * cell(#x; #v); ensures_ok: cell(#x; #v) * ret = 0; }
spec SL outer(x) { requires: x = #x * cell(#x; #v); ensures_ok: cell(#x; #v) * ret = 0; }
spec SL wrong(x) { requires: x = #x * cell(#x; #v); ensures_ok: cell(#x; #v) * ret = 1; }
"""


@pytest.mark.parametrize(
    "fid, verdict, old_count, new_prefixes",
    [
        # the second spec of inner verifies outer; the first run reads
        # only position 0, a choice between two specs, so (1,) is its one child
        ("outer", Verified, 3, [(), (1,)]),
        # neither spec verifies wrong; position 0 is the only one read, so
        # the search ends after (1,) where the old loop ran all 40 prefixes
        ("wrong", Failed, 40, [(), (1,)]),
    ],
)
def test_oracle_search_branches_only_on_read_positions(monkeypatch, fid, verdict, old_count, new_prefixes):
    prog = parse_program(TWO_SPECS)
    args = (prog.functions, prog.specs, fid, prog.specs[fid][0], get_model("linear"), prog.preds, B)
    old, old_passes = _old_verify_ox(monkeypatch, *args)
    new, new_passes = _new_verify_ox(monkeypatch, *args)
    assert isinstance(new, verdict)
    _same_verdict(old, new)
    assert (old_passes, new_passes) == (old_count, new_prefixes)


@pytest.mark.parametrize("fid, calls, runs", [("one", 1, 4), ("four", 4, 13)])
def test_oracle_search_tries_every_spec_of_a_callee(monkeypatch, fid, calls, runs):
    """Only the fourth spec of g fits, so each call needs the choice 3,
    which the old loop over values below 3 never tried."""
    prog = load("verify_angelic.ph")
    args = (prog.functions, prog.specs, fid, prog.specs[fid][0], get_model("linear"), prog.preds, B)
    old, _ = _old_verify_ox(monkeypatch, *args)
    new, new_passes = _new_verify_ox(monkeypatch, *args)
    assert isinstance(old, Failed) and isinstance(new, Verified)
    assert len(new_passes) == runs and new_passes[-1] == (3,) * calls


def test_oracle_search_out_of_runs_is_inconclusive(monkeypatch, capsys):
    monkeypatch.setattr(analyses, "ORACLE_RUNS", 12)
    prog = load("verify_angelic.ph")
    r = verify_ox(prog.functions, prog.specs, "four", prog.specs["four"][0], get_model("linear"), prog.preds, B)
    assert isinstance(r, Inconclusive) and "12 runs" in str(r.reason)
    assert main(["verify", os.path.join(programs_dir(), "verify_angelic.ph")]) == 4
    assert "four#0 [SL]: Inconclusive" in capsys.readouterr().out


# -- bi-abduction -------------------------------------------------------------


def test_biabduct_missing_cell():
    reports = biabduct({}, {}, Action(("x",), "lookup", (Lit(1),)), get_model("linear"), None, B)
    assert len(reports) == 1
    r = reports[0]
    assert r.outcome == "ok"
    assert format_assertion(r.anti_heap).startswith("cell(1;")
    assert r.replayed is True
    assert r.quadruple_verdict == "Valid"


def test_biabduct_use_after_free():
    cmd = Seq(Action((), "free", (Lit(1),)), Action(("y",), "lookup", (Lit(1),)))
    reports = biabduct({}, {}, cmd, get_model("linear"), None, B)
    errs = [r for r in reports if r.outcome == "err"]
    assert len(errs) == 1
    assert "UseAfterFree" in " ".join(errs[0].witness_pc) or errs[0].quadruple is not None
    assert errs[0].replayed is True
    assert errs[0].quadruple_verdict == "Valid"
    assert format_assertion(errs[0].quadruple.post_err).count("UseAfterFree") == 1


def test_biabduct_skip_has_empty_anti_heap():
    reports = biabduct({}, {}, Skip(), get_model("linear"), None, B)
    assert len(reports) == 1
    assert reports[0].anti_heap == Emp()
    assert reports[0].outcome == "ok"


def test_biabduct_requires_capability():
    with pytest.raises(UnsupportedCapability):
        biabduct({}, {}, Skip(), get_model("chunks"), None, B)
    with pytest.raises(UnsupportedCapability):
        biabduct({}, {}, Skip(), get_model("linear-ox"), None, B)


def test_biabduct_anti_heap_monotone_along_paths():
    cmd = Seq(Action(("x",), "lookup", (Lit(1),)), Action(("z",), "lookup", (Lit(2),)))
    reports = biabduct({}, {}, cmd, get_model("linear"), None, B, validate=False)
    ok = [r for r in reports if r.outcome == "ok"]
    assert ok and all(len(star_conjuncts(r.anti_heap)) == 2 for r in ok)


def test_biabduct_fixture_file():
    prog = load("bugs.ph")
    b = get_model("linear")
    reports = biabduct(prog.functions, prog.specs, "use_after_free", b, prog.preds, B)
    assert any(r.outcome == "err" and r.replayed for r in reports)
    reports2 = biabduct(prog.functions, prog.specs, "read_missing", b, prog.preds, B)
    assert all(r.replayed for r in reports2 if r.quadruple is not None)


def test_assignment_guards_the_value_it_stores():
    """The ok branch of `x := e` needs `e` to be a value, not the value `x`
    held. Guarding the old value let the second increment fail after a
    first one that had already failed: a second, vacuous `err` report."""
    prog = parse_program("func inc(x) { x := x + 1; x := x + 1; return x }")
    reports = biabduct(prog.functions, prog.specs, "inc", get_model("linear"), prog.preds, Bounds())
    errs = [r for r in reports if r.outcome == "err"]
    assert [r.witness_pc for r in errs] == [["#x in Val", "not ((#x + 1) in Val)"]]
    assert errs[0].replayed and errs[0].quadruple_verdict == "Valid"


def test_return_expression_errors_replay():
    """An err report whose error is the return expression's replays: the
    body's run ends ok, and `concrete.endings` turns the failing return
    expression into the ExprEval error the report names."""
    prog = parse_program("func f(x) { skip; return x + 1 }")
    bounds = Bounds(value_domain=(NIL, 0, 1))
    reports = biabduct(prog.functions, prog.specs, "f", get_model("linear"), prog.preds, bounds)
    errs = [r for r in reports if r.outcome == "err"]
    assert [r.witness_pc for r in errs] == [["#x in Val", "not ((#x + 1) in Val)"]]
    assert errs[0].quadruple_verdict == "Valid" and errs[0].replayed


def test_esl_spec_verifies_in_exact_mode():
    prog = parse_program(
        """
        func k(x) { y := lookup(x); return y }
        spec ESL k(x) { requires: x = #x * cell(#x; #v); ensures_ok: cell(#x; #v) * ret = #v; }
        """
    )
    b = get_model("linear")
    q = prog.specs["k"][0]
    assert isinstance(verify_ox(prog.functions, prog.specs, "k", q, b, prog.preds, B), Verified)
    assert isinstance(check_quadruple_bounded(prog.functions, q, B, b, prog.preds), Valid)


def test_fresh_names_do_not_capture_spec_variables():
    """The cell that new() makes must not be named #fresh_0, a variable of
    the pre: the post then wrongly reads as the old cell's value."""
    prog = parse_program(
        """
        func f(x) { y := new(); v := lookup(x); return y }
        spec SL f(x) {
          requires: (x = #x) * cell(#x; #fresh_0);
          ensures_ok: (ret = #fresh_0) * cell(#fresh_0; nil) * cell(#x; #fresh_0);
        }
        """
    )
    b = get_model("linear")
    q = prog.specs["f"][0]
    assert isinstance(verify_ox(prog.functions, prog.specs, "f", q, b, prog.preds, Bounds()), Failed)
    assert not isinstance(check_quadruple_bounded(prog.functions, q, Bounds(), b, prog.preds), Valid)


def test_true_in_sl_post_absorbs_leftovers():
    """A top-level True absorbs the cells the post does not name; an ESL
    post keeps the leftover check, and so does a True under a disjunction."""
    source = """
        func g(x) {{ y := new(); v := lookup(x); return v }}
        spec {} g(x) {{ requires: (x = #x) * cell(#x; #w); ensures_ok: (ret = #w) * {}; }}
    """
    b = get_model("linear")
    for flavor, rest, verdict in (
        ("SL", "True", Verified),
        ("SL", "(True \\/ emp)", Failed),
        ("ESL", "True", Failed),
    ):
        prog = parse_program(source.format(flavor, rest))
        q = prog.specs["g"][0]
        r = verify_ox(prog.functions, prog.specs, "g", q, b, prog.preds, Bounds())
        assert isinstance(r, verdict), (flavor, rest, r)
    oracle_bounds = Bounds(value_domain=(0, 1), max_cells=3)
    prog = parse_program(source.format("SL", "True"))
    q = prog.specs["g"][0]
    assert isinstance(check_quadruple_bounded(prog.functions, q, oracle_bounds, b, prog.preds), Valid)


def test_ux_funcall_uses_isl_spec():
    from polyheap.engine import EngineContext, Mode, SymbolicState, sym_exec
    from polyheap.oracle import Oracle
    from polyheap.outcomes import OK
    from polyheap.syntax import FunCall, InVal, LVar, Lit, PVar

    prog = parse_program(
        """
        func alloc_one() { a := new(); mutate(a, 1); return a }
        spec ISL alloc_one() { requires: emp; ensures_ok: exists #a. (ret = #a) * cell(#a; 1); }
        """
    )
    b = get_model("linear")
    ctx = EngineContext(Mode.UX, prog.specs, b, prog.preds, B)
    st = SymbolicState({"y": Lit(0)}, {}, (), ())
    branches = sym_exec(ctx, Oracle.constant(0), st, FunCall("y", "alloc_one", ()))
    ok = [br for br in branches if br.outcome is OK]
    assert ok, branches
    assert all(len(br.state.mem) == 1 for br in ok)


def test_biabduct_on_frac_model():
    """Fixes carry a fresh permission; a full-permission branch lets the
    retried write go through."""
    from polyheap.values import Rat

    bounds = Bounds(value_domain=(NIL, 0, Rat(1)), max_cells=2, max_addresses=2, seed=0)
    reports = biabduct(
        {}, {}, Action((), "mutate", (Lit(1), Lit(0))), get_model("frac"), None, bounds,
        validate=False,
    )
    ok = [r for r in reports if r.outcome == "ok" and not r.unrecoverable]
    assert ok
    assert all(r.replayed for r in ok)
    assert any("cell(1" in format_assertion(r.anti_heap) for r in ok)


def test_biabduct_on_block_offset_model():
    bounds = Bounds(value_domain=(NIL, 0, 1), max_cells=2, max_addresses=2, seed=0)
    reports = biabduct(
        {}, {}, Action(("x",), "lookup", (Lit(0), Lit(1))), get_model("block-offset"), None, bounds,
        validate=False,
    )
    ok = [r for r in reports if r.outcome == "ok" and not r.unrecoverable]
    assert ok and all(r.replayed for r in ok)
    assert any("cell(0" in format_assertion(r.anti_heap) for r in ok)


# ---------------------------------------------------------------------------
# analyses._replay before it asked `concrete.unreached`, kept as the
# reference: the loop over models, starts and fix heaps written out by hand.
# ---------------------------------------------------------------------------


def _old_replay(ctx, gamma, f, state0, final_state, outcome, anti, bounds) -> bool:
    bundle = ctx.bundle
    initial = state0.with_(pc=final_state.pc)
    models = models_of(final_state, bundle, ctx.preds, bounds)
    for theta, target in models:
        starts = models_under(theta, initial, bundle, ctx.preds, bounds)
        matched = False
        vals = bounds.domain_with(theta.values(), bundle.cmm.mem_values(target.mem))
        addr_cap = max(
            [bounds.max_addresses] + [v + 1 for v in vals if is_nat(v) and v < 8]
        )
        fix_bounds = Bounds(
            value_domain=tuple(vals),
            max_cells=max(bounds.max_cells, len(star_conjuncts(anti))),
            max_addresses=addr_cap,
            trials=bounds.trials,
            seed=bounds.seed,
        )
        for start in starts:
            try:
                fix_heaps = heap_models(
                    theta, start.store, anti,
                    cmm=bundle.cmm, rm=bundle.rm, preds=ctx.preds, bounds=fix_bounds,
                )
            except DepthExceeded:
                continue
            for fix_mem in fix_heaps:
                whole = bundle.cmm.compose(start.mem, fix_mem)
                if whole is None:
                    continue
                results = run(
                    gamma, ConcreteState(start.store, whole), f.body, bundle.cmm,
                    budget=ctx.budget, max_addresses=bounds.max_addresses,
                )
                for o, st in results:
                    if o is outcome and st.mem == target.mem and all(
                        st.store.get(x) == v for x, v in target.store.items()
                    ):
                        matched = True
                        break
                if matched:
                    break
            if matched:
                break
        if not matched:
            return False
    return True


def test_replay_matches_reference(monkeypatch, capsys):
    """Every report of find-bugs of four programs, under the models whose
    fix heaps they exercise, is replayed to the reference's answer; among
    them are reports that replay and reports that do not."""
    new_replay = analyses._replay
    answers = []

    def both(*args):
        new, old = new_replay(*args), _old_replay(*args)
        answers.append((new, old))
        return new

    monkeypatch.setattr(analyses, "_replay", both)
    for program, model in (
        ("bugs.ph", "linear"), ("bugs.ph", "frac"),
        ("read_two.ph", "linear"), ("read_two.ph", "frac"),
        ("verify_block.ph", "block-offset"),
        ("verify_objects.ph", "objects"),
    ):
        main(["find-bugs", os.path.join(programs_dir(), program), "--model", model, "--format", "json"])
    capsys.readouterr()
    assert all(new == old for new, old in answers)
    assert {new for new, _ in answers} == {True, False}
