import pytest

from polyheap.assertions import PredTable, SpecContext
from polyheap.engine import (
    Branch,
    EngineContext,
    Mode,
    PredInstance,
    SymbolicState,
    initial_state,
    models_of,
    sym_exec,
)
from polyheap.memmodel import Bounds
from polyheap.models import get_model
from polyheap.oracle import Oracle
from polyheap.outcomes import ABORT, ERR, MISS, OK
from polyheap.parser import parse_program
from polyheap.solver import Sat, check_sat
from polyheap.syntax import (
    Action,
    Assign,
    Bin,
    Fold,
    FunCall,
    IfElse,
    InVal,
    Lit,
    LVar,
    PVar,
    Seq,
    Skip,
    Unfold,
    eq,
    format_expr,
)
from polyheap.values import FALSE, NIL, TRUE


@pytest.fixture
def ctx():
    b = get_model("linear")
    return EngineContext(
        Mode.OX, SpecContext(), b, PredTable(), Bounds(value_domain=(NIL, 0, 1, 2), max_cells=2, max_addresses=3)
    )


O = Oracle.constant(0)


def sat_branches(ctx, branches):
    return [br for br in branches if isinstance(check_sat(br.state.pc, ctx.bounds), Sat)]


def test_skip(ctx):
    st = initial_state(ctx.bundle.smm)
    assert sym_exec(ctx, O, st, Skip()) == [Branch(OK, O, st)]


def test_assign_tracks_old_value_definedness(ctx):
    st = SymbolicState({"x": LVar("a")}, {}, (), (InVal(LVar("a")),))
    branches = sym_exec(ctx, O, st, Assign("x", Lit(3)))
    ok = [b for b in branches if b.outcome is OK]
    assert len(ok) == 1
    assert InVal(LVar("a")) in ok[0].state.pc
    # the error branch contradicts the literal's definedness and is pruned
    assert all(b.outcome is OK for b in branches)


def test_if_branches_on_guard(ctx):
    st = SymbolicState({"x": LVar("a")}, {}, (), (InVal(LVar("a")),))
    cmd = IfElse(eq(PVar("x"), Lit(1)), Assign("x", Lit(2)), Skip())
    branches = sat_branches(ctx, sym_exec(ctx, O, st, cmd))
    outcomes = sorted(str(b.outcome.value) for b in branches)
    # then, else, and the boolean-guard type error (a may be non-boolean...
    # the guard is an equality so it always evaluates to a boolean)
    assert outcomes.count("ok") == 2


def test_branching_example_exact(ctx):
    x = LVar("x")
    st = SymbolicState(
        {"x": x, "y": Lit(0)},
        {Lit(1): Lit(1), Lit(2): Lit(1)},
        (),
        (Bin("<=", Lit(1), x), Bin("<=", x, Lit(2))),
    )
    branches = sym_exec(ctx, O, st, Action(("y",), "lookup", (PVar("x"),)))
    assert len(branches) == 2
    assert all(b.outcome is OK for b in branches)


def test_branching_example_cut():
    b = get_model("linear-cut")
    ctx = EngineContext(Mode.UX, SpecContext(), b, PredTable(), Bounds(value_domain=(NIL, 0, 1, 2)))
    x = LVar("x")
    st = SymbolicState(
        {"x": x, "y": Lit(0)},
        {Lit(1): Lit(1), Lit(2): Lit(1)},
        (),
        (Bin("<=", Lit(1), x), Bin("<=", x, Lit(2))),
    )
    branches = sym_exec(ctx, O, st, Action(("y",), "lookup", (PVar("x"),)))
    assert len(branches) == 1 and branches[0].outcome is OK


def test_funcall_uses_compatible_spec(ctx):
    prog = parse_program(
        """
        func f(x) { skip; return x }
        spec SL f(x) { requires: x = #a * emp; ensures_ok: ret = #a * emp; }
        """
    )
    ctx.specs = prog.specs
    st = SymbolicState({"y": Lit(0), "z": Lit(7)}, {}, (), ())
    [br] = sym_exec(ctx, O, st, FunCall("y", "f", (PVar("z"),)))
    assert br.outcome is OK
    result = br.state.store["y"]
    assert eq(result, Lit(7)) in br.state.pc or eq(Lit(7), result) in br.state.pc


def test_sl_specs_excluded_in_ux_mode(ctx):
    prog = parse_program(
        """
        func f(x) { skip; return x }
        spec SL f(x) { requires: x = #a * emp; ensures_ok: ret = #a * emp; }
        """
    )
    ctx.specs = prog.specs
    ctx.mode = Mode.UX
    st = SymbolicState({"y": Lit(0)}, {}, (), ())
    [br] = sym_exec(ctx, O, st, FunCall("y", "f", (Lit(1),)))
    assert br.outcome is ABORT
    assert br.reason[0] == Lit("NoSpec")


def test_funcall_arity_error(ctx):
    prog = parse_program(
        """
        func f(x) { skip; return x }
        spec SL f(x) { requires: x = #a * emp; ensures_ok: ret = #a * emp; }
        """
    )
    ctx.specs = prog.specs
    st = SymbolicState({"y": Lit(0)}, {}, (), ())
    [br] = sym_exec(ctx, O, st, FunCall("y", "f", (Lit(1), Lit(2))))
    assert br.outcome is ERR and br.state.store["err"] == Lit("FuncArgsLength")


def test_fold_unfold_round_trip(ctx):
    prog = parse_program("pred p(+#i; #o) { cell(#i; #o) }")
    ctx.preds = prog.preds
    st = SymbolicState({"x": Lit(1)}, {Lit(1): Lit(5)}, (), ())
    [folded] = sym_exec(ctx, O, st, Fold("p", (PVar("x"),)))
    assert folded.outcome is OK
    assert folded.state.mem == {}
    assert folded.state.preds == (PredInstance("p", (Lit(1),), (Lit(5),)),)
    [unfolded] = sym_exec(ctx, folded.oracle, folded.state, Unfold("p", (PVar("x"),)))
    assert unfolded.outcome is OK
    assert unfolded.state.mem == {Lit(1): Lit(5)}
    assert unfolded.state.preds == ()


def test_fold_outside_ox_is_unsupported(ctx):
    prog = parse_program("pred p(+#i; #o) { cell(#i; #o) }")
    ctx.preds = prog.preds
    ctx.mode = Mode.UX
    st = SymbolicState({"x": Lit(1)}, {Lit(1): Lit(5)}, (), ())
    [br] = sym_exec(ctx, O, st, Fold("p", (PVar("x"),)))
    assert br.outcome is ABORT and br.reason[0] == Lit("UnsupportedInMode")


def test_oracle_discipline_spec_choice_shifts_once(ctx):
    prog = parse_program(
        """
        func f(x) { skip; return x }
        spec SL f(x) { requires: x = #a * emp; ensures_ok: ret = #a * emp; }
        spec ESL f(x) { requires: x = #b * emp; ensures_ok: ret = #b * emp; }
        """
    )
    ctx.specs = prog.specs
    st = SymbolicState({"y": Lit(0)}, {}, (), ())
    branches = sym_exec(ctx, Oracle.constant(0), st, FunCall("y", "f", (Lit(1),)))
    assert all(br.oracle.offset == 1 for br in branches)


def test_models_of_examples(ctx):
    st = initial_state(ctx.bundle.smm)
    ms = models_of(st, ctx.bundle, ctx.preds, ctx.bounds)
    assert ({}, st.store) is not None
    assert any(t == {} and s.store == {} and s.mem == {} for t, s in ms)

    v = LVar("v")
    st2 = SymbolicState({}, {Lit(1): v}, (), (eq(v, Lit(5)),))
    bounds = Bounds(value_domain=(NIL, 0, 5), max_cells=2, max_addresses=3)
    ms2 = models_of(st2, ctx.bundle, ctx.preds, bounds)
    assert ms2 and all(s.mem == {1: 5} for _, s in ms2)

    st3 = SymbolicState({}, {}, (), (Lit(FALSE),))
    assert models_of(st3, ctx.bundle, ctx.preds, ctx.bounds) == []


def test_entailment_reads_only_the_path_condition(ctx):
    """Entailment during consumption cannot use memory knowledge."""
    from polyheap.engine import consume
    from polyheap.assertions import Bool

    v = LVar("v")
    st = SymbolicState({}, {Lit(1): v}, (), ())
    goal = Bool(InVal(v))
    [(o1, *_)] = consume(ctx, O, goal, {"v": v}, st)
    assert o1 is ABORT  # pc alone does not know v denotes a value


def test_fold_picks_disjunct_by_oracle(ctx):
    prog = parse_program(
        "pred choice(+#i; #o) { ((#i = 0) * cell(0; #o)) \\/ ((#i = 1) * cell(1; #o)) }"
    )
    ctx.preds = prog.preds
    st = SymbolicState({"x": Lit(1)}, {Lit(1): Lit(9)}, (), ())
    # first disjunct needs #i = 0: not entailed for x = 1, so it aborts
    [first] = sym_exec(ctx, Oracle.of(0), st, Fold("choice", (PVar("x"),)))
    assert first.outcome is ABORT
    # second disjunct matches and consumes the cell at 1
    [second] = sym_exec(ctx, Oracle.of(1), st, Fold("choice", (PVar("x"),)))
    assert second.outcome is OK
    assert second.state.mem == {}
    assert second.state.preds[0].name == "choice"


def test_action_target_arity_mismatch(ctx):
    st = SymbolicState({"x": Lit(0), "y": Lit(0)}, {Lit(1): Lit(5)}, (), ())
    branches = sym_exec(ctx, O, st, Action(("x", "y"), "lookup", (Lit(1),)))
    errs = [b for b in branches if b.outcome is ERR and b.state.store["err"] == Lit("ActionArgsLength")]
    assert errs


@pytest.mark.parametrize("n", [8, 12])
def test_if_chain_explores_linearly_many_paths(ctx, n):
    # clashing guards x = c_i, x = c_j close in the solver core, so the
    # chain has n + 1 feasible paths instead of 2^n
    chain = Assign("y", Lit(0))
    for c in range(5, 5 + 4 * n, 4):
        bump = Assign("y", Bin("+", PVar("y"), Lit(1)))
        chain = Seq(chain, IfElse(eq(PVar("x"), Lit(c)), bump, Skip()))
    st = SymbolicState({"x": LVar("a"), "y": Lit(NIL)}, {}, (), (InVal(LVar("a")),))
    ok = [br for br in sym_exec(ctx, O, st, chain) if br.outcome is OK]
    assert len(ok) == n + 1
    assert len(sat_branches(ctx, ok)) == n + 1


_TRACED = parse_program(
    """
    pred box(+#a; #v) { cell(#a; #v) }
    func g(x) { skip; return x }
    spec ESL g(x) { requires: x = #x; ensures_ok: ret = #x; ensures_err: err = #x; }
    func assign(x) { y := x + 1; return y }
    func branch(c) { if (c) { skip } else { skip }; return c }
    func cond_eval(p) { if (p < 2) { skip } else { skip }; return p }
    func actions(x) { a := new(); v := lookup(a); m := lookup(x); u, w := lookup(a); return v }
    func action_eval(x) { n := lookup(x + 1); return n }
    func freed() { a := new(); free(a); q := lookup(a); return q }
    func call(x) { z := g(x); return z }
    func folds() { a := new(); fold box(a); return a }
    func fold_empty(x) { fold box(x); return x }
    func unfolds(x) { unfold box(x); return x }
    """
)

_TRACES = {
    "ox-assign": [
        ("assign", "ok", ["(#x + 1) in Val"]),
        ("assign-err-eval", "err", ["not ((#x + 1) in Val)"]),
    ],
    "ox-branch": [
        ("if-then", "ok", ["#c = true"]),
        ("skip", "ok", []),
        ("if-else", "ok", ["#c = false"]),
        ("skip", "ok", []),
        ("if-err-type", "err", ["#c in Val", "not (#c in Bool)"]),
    ],
    "ox-cond_eval": [
        ("if-then", "ok", ["#p < 2 = true"]),
        ("skip", "ok", []),
        ("if-else", "ok", ["#p < 2 = false"]),
        ("skip", "ok", []),
        ("if-err-eval", "err", ["not ((#p < 2) in Val)"]),
    ],
    "ox-actions": [
        ("action", "ok", ["#fresh_0 in Val"]),
        ("action", "ok", ["#fresh_0 = #fresh_0"]),
        ("action-err", "err", ["not (#fresh_0 in Nat)"]),
        ("action", "ok", ["#x = #fresh_0"]),
        ("action-miss", "miss", ["#x in Nat", "not (#x = #fresh_0)"]),
        ("action-err", "err", ["not (#x in Nat)"]),
        ("action-err-length", "err", ["#fresh_0 = #fresh_0"]),
        ("action-err", "err", ["not (#fresh_0 in Nat)"]),
    ],
    "ox-action_eval": [
        ("action-miss", "miss", ["(#x + 1) in Nat"]),
        ("action-err", "err", ["not ((#x + 1) in Nat)"]),
        ("action-err-eval", "err", ["not ((#x + 1) in Val)"]),
    ],
    "ox-freed": [
        ("action", "ok", ["#fresh_0 in Val"]),
        ("action", "ok", ["#fresh_0 = #fresh_0", "nil in Val"]),
        ("action-err", "err", ["not (#fresh_0 in Nat)"]),
        ("action-err", "err", ["#fresh_0 = #fresh_0"]),
        ("action-err", "err", ["not (#fresh_0 in Nat)"]),
    ],
    "ox-call": [
        ("call-ok", "ok", []),
        ("call-err", "err", []),
    ],
    "ox-folds": [
        ("action", "ok", ["#fresh_0 in Val"]),
        ("fold", "ok", []),
    ],
    "ox-fold_empty": [
        ("fold-consume-abort", "abort", []),
    ],
    "ox-unfolds": [
        ("unfold-no-instance", "abort", []),
    ],
    "ux-assign": [
        ("assign", "ok", ["(#x + 1) in Val"]),
        ("assign-err-eval", "err", ["not ((#x + 1) in Val)"]),
    ],
    "ux-branch": [
        ("if-then", "ok", ["#c = true"]),
        ("skip", "ok", []),
        ("if-else", "ok", ["#c = false"]),
        ("skip", "ok", []),
        ("if-err-type", "err", ["#c in Val", "not (#c in Bool)"]),
    ],
    "ux-cond_eval": [
        ("if-then", "ok", ["#p < 2 = true"]),
        ("skip", "ok", []),
        ("if-else", "ok", ["#p < 2 = false"]),
        ("skip", "ok", []),
        ("if-err-eval", "err", ["not ((#p < 2) in Val)"]),
    ],
    "ux-actions": [
        ("action", "ok", ["#fresh_0 in Val"]),
        ("action", "ok", ["#fresh_0 = #fresh_0"]),
        ("action-err", "err", ["not (#fresh_0 in Nat)"]),
        ("action", "ok", ["#x = #fresh_0"]),
        ("action-miss", "miss", ["#x in Nat", "not (#x = #fresh_0)"]),
        ("action-err", "err", ["not (#x in Nat)"]),
        ("action-err-length", "err", ["#fresh_0 = #fresh_0"]),
        ("action-err", "err", ["not (#fresh_0 in Nat)"]),
    ],
    "ux-action_eval": [
        ("action-miss", "miss", ["(#x + 1) in Nat"]),
        ("action-err-eval", "err", ["not ((#x + 1) in Val)"]),
    ],
    "ux-freed": [
        ("action", "ok", ["#fresh_0 in Val"]),
        ("action", "ok", ["#fresh_0 = #fresh_0", "nil in Val"]),
        ("action-err", "err", ["not (#fresh_0 in Nat)"]),
        ("action-err", "err", ["#fresh_0 = #fresh_0"]),
        ("action-err", "err", ["not (#fresh_0 in Nat)"]),
    ],
    "ux-call": [
        ("call-ok", "ok", []),
        ("call-err", "err", []),
    ],
    "ux-folds": [
        ("action", "ok", ["#fresh_0 in Val"]),
        ("fold-unsupported", "abort", []),
    ],
    "ux-unfolds": [
        ("unfold-unsupported", "abort", []),
    ],
}


@pytest.mark.parametrize("key", sorted(_TRACES))
def test_engine_trace_is_pinned(key):
    """Every rule that keeps a path, and every abort, records (rule,
    outcome, pc_delta) in the trace; these bodies reach each such rule, in
    OX and in UX."""
    from polyheap.analyses import _entry_state

    mode, fid = key.split("-", 1)
    f = _TRACED.functions[fid]
    b = get_model("linear")
    ctx = EngineContext(
        Mode(mode), _TRACED.specs, b, _TRACED.preds,
        Bounds(value_domain=(NIL, 0, 1, 2), max_cells=2, max_addresses=3), trace=[],
    )
    sym_exec(ctx, O, _entry_state(f, {x: x for x in f.params}, b.smm), f.body)
    got = [(r["rule"], r["outcome"], r["pc_delta"]) for r in ctx.trace]
    assert got == _TRACES[key]
