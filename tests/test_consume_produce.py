import pytest

from polyheap.assertions import (
    Bool,
    Emp,
    Exists,
    Or,
    PredTable,
    Res,
    SpecContext,
    Star,
    TrueA,
)
from polyheap.engine import (
    EngineContext,
    Mode,
    ProduceUndefined,
    SymbolicState,
    UnsupportedAssertion,
    consume,
    initial_state,
    produce,
)
from polyheap.conformance import _resource_cases
from polyheap.memmodel import Bounds
from polyheap.models import MODEL_NAMES, get_model
from polyheap.oracle import Oracle
from polyheap.outcomes import ABORT, OK
from polyheap.syntax import Bin, InVal, Lit, LVar, eq
from polyheap.values import NIL

O = Oracle.constant(0)


def make_ctx(mode=Mode.OX, model="linear"):
    b = get_model(model)
    return EngineContext(
        mode, SpecContext(), b, PredTable(),
        Bounds(value_domain=(NIL, 0, 1, 2), max_cells=2, max_addresses=3),
    )


def test_consume_emp_is_identity():
    ctx = make_ctx()
    st = initial_state(ctx.bundle.smm)
    assert consume(ctx, O, Emp(), {}, st) == [(OK, O, {}, st, ())]


def test_consume_cell_learns_out_and_constrains_address():
    ctx = make_ctx()
    a, b, x = LVar("a"), LVar("b"), LVar("x")
    st = SymbolicState({}, {a: b}, (), (InVal(a), InVal(b)))
    results = [r for r in consume(ctx, O, Res("cell", (x,), (LVar("v"),)), {"x": x}, st) if r[0] is OK]
    assert len(results) == 1
    _, _, subst, st2, _ = results[0]
    assert subst["v"] == b
    assert st2.mem == {}
    assert eq(x, a) in st2.pc


def test_produce_then_consume_round_trip():
    ctx = make_ctx()
    st = initial_state(ctx.bundle.smm)
    [produced] = produce(ctx, Res("cell", (Lit(1),), (Lit(2),)), {}, st)
    assert produced.mem == {Lit(1): Lit(2)}
    back = [r for r in consume(ctx, O, Res("cell", (Lit(1),), (LVar("w"),)), {}, produced) if r[0] is OK]
    assert len(back) == 1
    assert back[0][3].mem == {}
    assert back[0][2]["w"] == Lit(2)


def test_produce_disjunction_branches():
    ctx = make_ctx()
    st = initial_state(ctx.bundle.smm)
    a = Res("cell", (Lit(1),), (Lit(2),))
    b = Res("cell", (Lit(2),), (Lit(3),))
    both = produce(ctx, Or(a, b), {}, st)
    only_a = produce(ctx, a, {}, st)
    only_b = produce(ctx, b, {}, st)
    assert [s.mem for s in both] == [s.mem for s in only_a] + [s.mem for s in only_b]


def test_produce_duplicate_cell_is_undefined():
    ctx = make_ctx()
    st = initial_state(ctx.bundle.smm)
    [once] = produce(ctx, Res("cell", (Lit(1),), (Lit(2),)), {}, st)
    with pytest.raises(ProduceUndefined):
        produce(ctx, Res("cell", (Lit(1),), (Lit(3),)), {}, once)


def test_produce_true_unsupported():
    ctx = make_ctx()
    with pytest.raises(UnsupportedAssertion):
        produce(ctx, TrueA(), {}, initial_state(ctx.bundle.smm))


def test_consume_exists_outside_ox_unsupported():
    ctx = make_ctx(Mode.UX)
    st = initial_state(ctx.bundle.smm)
    [(o, _, _, _, reason)] = consume(ctx, O, Exists("x", Emp()), {}, st)
    assert o is ABORT and reason[0] == Lit("UnsupportedInMode")


def test_consume_exists_learns_through_equality():
    ctx = make_ctx()
    st = SymbolicState({}, {Lit(1): Lit(5)}, (), ())
    a = Exists("p", Star(Bool(eq(LVar("p"), Lit(1))), Res("cell", (LVar("p"),), (LVar("v"),))))
    ok = [r for r in consume(ctx, O, a, {}, st) if r[0] is OK]
    assert len(ok) == 1
    assert ok[0][2]["p"] == Lit(1)
    assert ok[0][3].mem == {}


def test_consume_pure_modes():
    ox, ux = make_ctx(Mode.OX), make_ctx(Mode.UX)
    st = SymbolicState({}, {}, (), (Bin("<=", Lit(1), LVar("x")), Bin("<=", LVar("x"), Lit(2))))
    # entailment fails in the over-approximate reading
    assert ox.pure_holds(st, eq(LVar("x"), Lit(1))) is None
    # the under-approximate reading narrows the path instead
    [narrowed] = ux.pure_holds(st, eq(LVar("x"), Lit(1)))
    assert eq(LVar("x"), Lit(1)) in narrowed.pc
    assert ox.pure_holds(st, Bin("<=", LVar("x"), Lit(5))) == [st]


def test_unique_match_requires_entailment():
    ctx = make_ctx(model="linear-unique")
    x = LVar("x")
    st = SymbolicState(
        {}, {Lit(1): Lit(1), Lit(2): Lit(1)}, (),
        (Bin("<=", Lit(1), x), Bin("<=", x, Lit(2))),
    )
    results = consume(ctx, O, Res("cell", (x,), (LVar("v"),)), {"x": x}, st)
    assert [r for r in results if r[0] is OK] == []
    # pinning the address makes the unique match applicable
    st2 = st.extend_pc([eq(x, Lit(1))])
    results2 = consume(ctx, O, Res("cell", (x,), (LVar("v"),)), {"x": x}, st2)
    ok = [r for r in results2 if r[0] is OK]
    assert len(ok) == 1 and ok[0][2]["v"] == Lit(1)


def test_consume_true_ox_vs_ux():
    ctx = make_ctx()
    st = SymbolicState({}, {Lit(1): Lit(5)}, (), ())
    [(o, _, _, st2, _)] = consume(ctx, O, TrueA(), {}, st)
    assert o is OK and st2 == st
    ctx_ux = make_ctx(Mode.UX)
    [(o, _, _, _, reason)] = consume(ctx_ux, O, TrueA(), {}, st)
    assert o is ABORT


def test_frac_partial_and_full_consume():
    ctx = make_ctx(model="frac")
    from polyheap.values import Rat

    le = LVar("l")
    st = SymbolicState({}, {le: (LVar("v"), Lit(Rat(1)))}, (), (InVal(le), InVal(LVar("v"))))
    results = [
        r
        for r in consume(
            ctx, O, Res("cell", (LVar("a"), Lit(Rat(1, 2))), (LVar("w"),)), {"a": le}, st
        )
        if r[0] is OK
    ]
    # only the partial take applies: the whole-permission branch needs
    # the consumed fraction to equal the stored one
    assert len(results) == 1
    (entry,) = results[0][3].mem.values()
    assert entry[1] == Bin("-", Lit(Rat(1)), Lit(Rat(1, 2)))
    assert results[0][2]["w"] == LVar("v")

    # consuming the full permission empties the cell
    full = [
        r
        for r in consume(
            ctx, O, Res("cell", (LVar("a"), Lit(Rat(1))), (LVar("w"),)), {"a": le}, st
        )
        if r[0] is OK
    ]
    assert any(r[3].mem == {} for r in full)


BUNDLES = [m for m in MODEL_NAMES if m != "cheri"]


def malformed(res):
    """An unknown resource name, one in-parameter too many and one
    out-parameter too many, each beside `res`."""
    return (
        Res("nosuch", res.ins, res.outs),
        Res(res.name, res.ins + (Lit(0),), res.outs),
        Res(res.name, res.ins, res.outs + (Lit(0),)),
    )


@pytest.mark.parametrize("model", BUNDLES)
def test_malformed_resource_outcomes(model):
    ctx = make_ctx(model=model)
    bounds = Bounds(value_domain=(0, 1))
    name, ins_v, outs_v = next(iter(_resource_cases(ctx.bundle.rm, bounds)))
    res = Res(name, tuple(map(Lit, ins_v)), tuple(map(Lit, outs_v)))
    [st] = produce(ctx, res, {}, initial_state(ctx.bundle.smm))
    unknown, wide_in, wide_out = malformed(res)
    # a resource the model does not have: one abort without a reason
    assert consume(ctx, O, unknown, {}, st) == [(ABORT, O, {}, st, ())]
    assert consume(ctx, O, wide_in, {}, st) == [(ABORT, O, {}, st, ())]
    # a known resource with the wrong out-arity: one abort per match, after
    # the oracle read with which linear-cut picks it
    picked = O.shift(1) if model == "linear-cut" else O
    assert consume(ctx, O, wide_out, {}, st) == [
        (ABORT, picked, {}, st, (Lit("ResourceArity"), Lit(name)))
    ]
    for bad in malformed(res):
        with pytest.raises(ProduceUndefined):
            produce(ctx, bad, {}, st)
