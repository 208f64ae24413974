from hypothesis import given, strategies as st

from polyheap.oracle import Oracle


@given(st.lists(st.integers(0, 9), max_size=6), st.integers(0, 4), st.integers(0, 4), st.integers(1, 5))
def test_shift_law(prefix, k, n, size):
    o = Oracle(tuple(prefix), default=7)
    options = list(range(size))
    assert o.shift(k).shift(n).pick(options)[0] == o.shift(n + k).pick(options)[0]
    assert o.sizes == [(n + k, size), (n + k, size)]


def test_pick_is_deterministic_and_shifts():
    o = Oracle.of(2, 0)
    chosen, o2 = o.pick(["a", "b", "c"])
    assert chosen == "c"
    assert o2.offset == 1
    chosen2, o3 = o2.pick(["a", "b", "c"])
    assert chosen2 == "a"
    assert o3.offset == 2


def test_constant_oracle_picks_first():
    o = Oracle.constant(0)
    assert o.pick([10, 20])[0] == 10



def test_read_log_survives_shift_and_pick():
    o = Oracle.of(1, 2)
    _, o2 = o.pick(["a", "b"])
    o3 = o2.shift(2)
    o3.shift(1).pick(["a", "b", "c", "d"])
    _, o4 = o3.pick(["c"])
    assert o4.sizes is o.sizes
    assert o.sizes == [(0, 2), (4, 4), (3, 1)]


def test_read_log_does_not_affect_equality_or_hash():
    a, b = Oracle.of(1, 2), Oracle.of(1, 2)
    a.shift(5).pick(["a"])
    assert a.sizes != b.sizes
    assert a == b and hash(a) == hash(b)
    assert a.shift(1) == b.shift(1)
    assert repr(a) == repr(b)
    assert a != Oracle.of(1, 3)


def test_size_log_records_choice_set_sizes():
    o = Oracle.of(1, 2)
    _, o2 = o.pick(["a", "b"])
    o2.shift(2).pick(["a"])
    _, o3 = o2.pick(["c", "d", "e"])
    assert o3.sizes is o.sizes
    assert o.sizes == [(0, 2), (3, 1), (1, 3)]
    b = Oracle.of(1, 2)
    assert o == b and hash(o) == hash(b) and repr(o) == repr(b)


def test_replays_compares_picks_modulo_their_size():
    run = Oracle.of()
    run.pick(["a", "b"])
    assert Oracle.of(2).replays(run)  # 2 % 2 == 0 picks "a" again
    assert not Oracle.of(1).replays(run)
    assert Oracle.of(0, 5).replays(run)  # position 1 was never read
    wide = Oracle.of()
    wide.pick(list(range(5)))
    assert not Oracle.of(2).replays(wide)  # 2 % 5 picks another element
    assert Oracle.of(5).replays(wide)


def test_trace_collector_records_rules():
    from polyheap.assertions import PredTable, SpecContext
    from polyheap.engine import EngineContext, Mode, initial_state, sym_exec
    from polyheap.memmodel import Bounds
    from polyheap.models import get_model
    from polyheap.syntax import Assign, Lit, Seq, Skip
    import json

    ctx = EngineContext(Mode.OX, SpecContext(), get_model("linear"), PredTable(), Bounds(), trace=[])
    st0 = initial_state(ctx.bundle.smm, {"x": Lit(0)})
    sym_exec(ctx, Oracle.constant(0), st0, Seq(Skip(), Assign("x", Lit(1))))
    rules = [t["rule"] for t in ctx.trace]
    assert "skip" in rules and "assign" in rules
    for record in ctx.trace:
        assert set(record) == {"rule", "outcome", "pc_delta", "oracle_index"}
        json.dumps(record)  # JSON-lines ready
