import itertools

from hypothesis import given, strategies as st

from polyheap.oracle import Oracle, explore


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


# a synthetic deterministic computation: a tree of reads, where a read of
# size n picks one of its n subtrees at the next position, and a fork runs
# both of its subtrees from the same position, as sibling paths do
reads = st.recursive(
    st.just(("leaf",)),
    lambda sub: st.one_of(
        st.tuples(st.just("fork"), sub, sub),
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(st.just("read"), st.lists(sub, min_size=n, max_size=n))
        ),
    ),
    max_leaves=8,
)


def _run(tree, oracle) -> tuple:
    """The run of `tree` under `oracle`: each read's size and answer, in order."""
    out = []

    def walk(t, o):
        if t[0] == "read":
            k, o2 = o.pick(list(range(len(t[1]))))
            out.append((len(t[1]), k))
            walk(t[1][k], o2)
        elif t[0] == "fork":
            walk(t[1], o)
            walk(t[2], o)

    walk(tree, oracle)
    return tuple(out)


def _depth(t) -> int:
    if t[0] == "read":
        return 1 + max(_depth(c) for c in t[1])
    if t[0] == "fork":
        return max(_depth(t[1]), _depth(t[2]))
    return 0


def _widest(oracle) -> dict:
    widest = {}
    for i, n in oracle.sizes:
        widest[i] = max(n, widest.get(i, 0))
    return widest


@given(reads)
def test_explore_yields_each_distinct_run_once(tree):
    depth = _depth(tree)
    runs = []
    # no more than 4 ** depth runs are distinct: a search that repeats one
    # fails here instead of running on
    for oracle in itertools.islice(explore(), 4**depth + 1):
        runs.append(_run(tree, oracle))
    assert len(set(runs)) == len(runs)
    # brute force over every oracle up to the tree's depth; `explore`
    # answers each position below the largest size read there
    every, below_widest, uniform = set(), set(), True
    for prefix in itertools.product(range(4), repeat=depth):
        oracle = Oracle(prefix, 0, 0)
        run = _run(tree, oracle)
        every.add(run)
        widest = _widest(oracle)
        if all(v < widest.get(i, 1) for i, v in enumerate(prefix)):
            below_widest.add(run)
        uniform = uniform and len(set(oracle.sizes)) == len(widest)
    assert set(runs) == below_widest
    if uniform:  # no position is read with two sizes: nothing is missed
        assert below_widest == every


def test_explore_widens_a_shared_position_to_its_largest_size():
    def run(oracle):
        oracle.pick(["a", "b"])
        oracle.pick(["a", "b", "c"])  # a sibling path reads position 0 too

    prefixes = []
    for oracle in itertools.islice(explore(), 10):
        run(oracle)
        prefixes.append(oracle.prefix)
    assert prefixes == [(), (1,), (2,)]


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
        assert set(record) == {"rule", "outcome", "pc_delta"}
        json.dumps(record)  # JSON-lines ready
