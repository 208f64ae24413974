import itertools
import math

from hypothesis import assume, example, given, strategies as st

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


def _sizes(t) -> set:
    """The choice-set sizes of every read in `t`."""
    if t[0] == "read":
        return {len(t[1])}.union(*map(_sizes, t[1]))
    if t[0] == "fork":
        return _sizes(t[1]) | _sizes(t[2])
    return set()


LEAF = ("leaf",)


@given(reads)
# sibling reads of sizes 2 and 3 at one position: six runs, three of which
# need an answer of 3 or more
@example(("fork", ("read", [LEAF] * 2), ("read", [LEAF] * 3)))
def test_explore_yields_each_distinct_run_once(tree):
    depth = _depth(tree)
    # brute force: a read of size n sees its answer modulo n, so answers
    # below the least common multiple of the tree's sizes give every run
    width = math.lcm(*_sizes(tree))
    assume(width**depth <= 12**4)  # keeps the brute force short
    every = {_run(tree, Oracle(p, 0, 0)) for p in itertools.product(range(width), repeat=depth)}
    # a search that repeats a run fails here instead of running on
    runs = [_run(tree, oracle) for oracle in itertools.islice(explore(), len(every) + 1)]
    assert len(set(runs)) == len(runs)
    assert set(runs) == every


def test_explore_widens_a_shared_position_to_the_lcm_of_its_sizes():
    def run(oracle):
        oracle.pick(["a", "b"])
        oracle.pick(["a", "b", "c"])  # a sibling path reads position 0 too

    prefixes = []
    for oracle in itertools.islice(explore(), 10):
        run(oracle)
        prefixes.append(oracle.prefix)
    # (5,) picks "b" of 2 and "c" of 3, which no answer below 3 does
    assert prefixes == [(), (1,), (2,), (3,), (4,), (5,)]


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
