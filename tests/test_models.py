"""Per-model behaviours pinned from the model descriptions."""

from fractions import Fraction

import pytest

from polyheap.memmodel import FREED, Bounds
from polyheap.models import MODEL_NAMES, get_model
from polyheap.outcomes import ERR, MISS, OK
from polyheap.values import FALSE, NIL, Rat
from conftest import sat_mem


def test_registry_contents():
    assert set(MODEL_NAMES) == {
        "linear", "linear-unique", "linear-cut", "linear-ox",
        "frac", "block-offset", "objects", "chunks", "cheri",
    }
    with pytest.raises(NotImplementedError):
        get_model("cheri")
    with pytest.raises(KeyError):
        get_model("nope")


def test_declared_soundness_matrix():
    expect = {
        "linear": (True, True),
        "linear-unique": (True, True),
        "linear-cut": (False, True),
        "linear-ox": (True, False),
        "frac": (True, True),
        "block-offset": (True, True),
        "objects": (True, True),
        "chunks": (True, False),
    }
    for name, (ox, ux) in expect.items():
        d = get_model(name).declared_soundness
        assert (d.ox, d.ux) == (ox, ux), name


# -- linear ------------------------------------------------------------------


def test_linear_compose_unit():
    cmm = get_model("linear").cmm
    assert cmm.compose({1: 5}, {}) == {1: 5}
    assert cmm.compose({1: 5}, {1: 6}) is None


def test_linear_noneg_removes_on_free():
    cmm = get_model("linear-ox").cmm
    [(o, mem, outs)] = cmm.exec_action({1: 5}, "free", (1,), 3)
    assert o is OK and mem == {}
    assert not cmm.is_wf({1: FREED})


# -- fractional --------------------------------------------------------------


def test_frac_compose_adds_permissions():
    cmm = get_model("frac").cmm
    half = Fraction(1, 2)
    got = cmm.compose({1: (5, half)}, {1: (5, half)})
    assert got == {1: (5, Fraction(1))}
    assert cmm.compose({1: (5, half)}, {1: (6, half)}) is None
    assert cmm.compose({1: (5, Fraction(1))}, {1: (5, half)}) is None


def test_frac_read_any_write_full():
    cmm = get_model("frac").cmm
    half = {1: (5, Fraction(1, 2))}
    [(o, _, outs)] = cmm.exec_action(half, "lookup", (1,), 3)
    assert o is OK and outs == (5,)
    [(o, mem, outs)] = cmm.exec_action(half, "mutate", (1, 9), 3)
    assert o is MISS and outs == ("InsufficientPermission", 1)
    full = {1: (5, Fraction(1))}
    [(o, mem, _)] = cmm.exec_action(full, "mutate", (1, 9), 3)
    assert o is OK and mem == {1: (9, Fraction(1))}


def test_frac_produce_merges_permissions():
    b = get_model("frac")
    from polyheap.syntax import Lit

    [(smem, pc)] = b.smm.produce_res("cell", (Lit(1), Lit(Rat(1, 2))), (Lit(5),), {})
    results = b.smm.produce_res("cell", (Lit(1), Lit(Rat(1, 2))), (Lit(5),), smem)
    merged = [m for m, _ in results if list(m.values())[0][1] != Lit(Rat(1, 2))]
    assert merged, "expected a permission-merging production"


def test_frac_total_permission_never_exceeds_one():
    b = get_model("frac")
    bounds = Bounds(value_domain=(NIL, 0), max_cells=2, max_addresses=2)
    mems = list(b.cmm.generator(bounds))
    for m1 in mems:
        for m2 in mems:
            got = b.cmm.compose(m1, m2)
            if got is None:
                continue
            for v in got.values():
                if v is not FREED:
                    assert 0 < v[1] <= 1


_PERMS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]
_PAYLOADS = [(v, q) for q in _PERMS for v in (0, 1)]


def test_frac_join_agrees_with_fraction_sums():
    """`join` adds permissions on numerators and denominators; it must
    give what `Fraction` addition gives, payload bytes included."""
    cmm = get_model("frac").cmm
    for v1, q1 in _PAYLOADS:
        for v2, q2 in _PAYLOADS:
            want = (v1, q1 + q2) if v1 == v2 and q1 + q2 <= 1 else None
            got = cmm.join((v1, q1), (v2, q2))
            assert got == want and repr(got) == repr(want), (v1, q1, v2, q2)
            if got is not None:
                assert type(got[1]) is Fraction


def test_frac_whole_and_eval_payload_agree_with_fraction_tests():
    """Writes need q = 1, and a symbolic payload denotes a cell only when
    0 < q <= 1, over the permissions of the join grid and their sums."""
    from polyheap.syntax import Lit
    from polyheap.values import UNDEF

    b = get_model("frac")
    qs = sorted(set(_PERMS) | {q1 + q2 for q1 in _PERMS for q2 in _PERMS})
    for v in (0, 1):
        for q in qs:
            if q <= 1:
                [(o, _, _)] = b.cmm._whole({0: (v, q)}, 0, (v, q), FREED)
                assert (o is OK) == (q == 1), q
            got = b.smm.eval_payload((Lit(v), Lit(Rat(q))), {})
            assert got == ((v, q) if 0 < q <= 1 else UNDEF), q


# -- block-offset ------------------------------------------------------------


def test_block_composition_example():
    cmm = get_model("block-offset").cmm
    m1 = {2: ({1: 3, 2: FALSE}, None)}
    m2 = {2: ({0: 1, 3: 0}, 4)}
    assert cmm.compose(m1, m2) == {2: ({1: 3, 2: FALSE, 0: 1, 3: 0}, 4)}
    # overlap and bound violations make composition undefined
    m3 = {2: ({1: 12}, 2)}
    assert cmm.compose(m1, m3) is None


def test_block_empty_block_ill_formed():
    cmm = get_model("block-offset").cmm
    assert not cmm.is_wf({3: ({}, None)})
    assert cmm.is_wf({3: ({}, 2)})
    assert not cmm.is_wf({3: ({0: 1, 1: 0}, 1)})


def test_block_new_and_free():
    cmm = get_model("block-offset").cmm
    [(o, mem, outs)] = cmm.exec_action({}, "new", (2,), 1)
    assert o is OK and mem == {0: ({0: NIL, 1: NIL}, 2)} and outs == (0,)
    [(o, mem2, _)] = cmm.exec_action(mem, "free", (0,), 1)
    assert o is OK and mem2 == {0: FREED}


def test_block_error_taxonomy():
    cmm = get_model("block-offset").cmm
    probe = lambda mem, args: cmm.exec_action(mem, "lookup", args, 1)[0][:1] + (
        cmm.exec_action(mem, "lookup", args, 1)[0][2],
    )
    assert probe({}, (0, 0)) == (MISS, ("MissingBlock", 0))
    assert probe({0: FREED}, (0, 0)) == (ERR, ("UseAfterFree", 0))
    assert probe({0: ({}, 2)}, (0, 1)) == (MISS, ("MissingCell", 0, 1))
    assert probe({0: ({}, 2)}, (0, 5)) == (ERR, ("OutOfBounds", 0, 5))
    assert probe({0: ({1: 7}, None)}, (0, 0)) == (MISS, ("MissingCell", 0, 0))
    free = lambda mem: cmm.exec_action(mem, "free", (0,), 1)[0]
    assert free({0: ({0: 1}, None)})[::2] == (MISS, ("MissingBound", 0))
    assert free({0: ({0: 1}, 2)})[::2] == (MISS, ("MissingCells", 0))


def test_block_concretize_is_strictly_disjoint():
    from polyheap.syntax import Lit, LVar

    smm = get_model("block-offset").smm
    # two entries with disjoint offsets: a denotation that let them be parts
    # of one block would give {0: ({0: 5, 1: 6}, None)}
    smem = {LVar("a"): ({Lit(0): Lit(5)}, None), LVar("b"): ({Lit(1): Lit(6)}, None)}
    assert smm.concretize({"a": 0, "b": 1}, smem) == {0: ({0: 5}, None), 1: ({1: 6}, None)}
    assert smm.concretize({"a": 0, "b": 0}, smem) is None


def test_block_symbolic_new_needs_constant():
    smm = get_model("block-offset").smm
    from polyheap.outcomes import ABORT
    from polyheap.syntax import LVar

    [(o, _, _, outs)] = smm.exec_action({}, "new", (LVar("n"),), lambda: "f0")
    assert o is ABORT


# -- objects -----------------------------------------------------------------


def test_objects_repl_transcript():
    cmm = get_model("objects").cmm
    [(_, mem, (o,))] = cmm.exec_action({}, "newObj", (), 1)
    [(outcome, _, outs)] = cmm.exec_action(mem, "lookup", (o, "foo"), 1)
    assert (outcome, outs) == (OK, (NIL,))
    [(_, mem, _)] = cmm.exec_action(mem, "mutate", (o, "foo", 5), 1)
    [(_, mem, _)] = cmm.exec_action(mem, "mutate", (o, "bar", 1), 1)
    assert mem[o][0] == {"foo": 5, "bar": 1}
    [(_, mem, _)] = cmm.exec_action(mem, "deleteField", (o, "foo"), 1)
    [(outcome, _, outs)] = cmm.exec_action(mem, "lookup", (o, "foo"), 1)
    assert (outcome, outs) == (OK, (NIL,))
    assert mem[o][0]["foo"] is FREED


def test_objects_partial_without_domain_misses():
    cmm = get_model("objects").cmm
    [(o, _, payload)] = cmm.exec_action({0: ({"f": 1}, None)}, "lookup", (0, "g"), 1)
    assert o is MISS and payload == ("MissingField", 0, "g")


def test_objects_domain_set_proves_absence():
    cmm = get_model("objects").cmm
    mem = {0: ({"f": 1}, frozenset({"f"}))}
    [(o, _, outs)] = cmm.exec_action(mem, "lookup", (0, "g"), 1)
    assert (o, outs) == (OK, (NIL,))


# -- chunks ------------------------------------------------------------------


def test_chunk_composition_is_multiset_union_with_disjointness():
    cmm = get_model("chunks").cmm
    a = {("pt", 0, 5): 1}
    b = {("mb", 0, 2): 1}
    assert cmm.compose(a, b) == {("pt", 0, 5): 1, ("mb", 0, 2): 1}
    assert cmm.compose(a, a) is None
    assert cmm.compose({("mb", 0, 2): 1}, {("mb", 1, 1): 1}) is None  # ranges overlap


def test_chunk_actions_are_consume_produce_macros():
    cmm = get_model("chunks").cmm
    [(o, mem, outs)] = cmm.exec_action({}, "new", (), 1)
    assert o is OK and outs == (0,)
    assert mem == {("pt", 0, NIL): 1, ("mb", 0, 1): 1}
    [(o, mem2, _)] = cmm.exec_action(mem, "free", (0,), 1)
    assert o is OK and mem2 == {}
    [(o, _, payload)] = cmm.exec_action({("mb", 0, 2): 1}, "free", (0,), 1)
    assert o is MISS and payload == ("MissingCell", 0)


def test_chunk_unique_match_consume():
    b = get_model("chunks")
    from polyheap.oracle import Oracle
    from polyheap.syntax import Lit

    smem = {("pt", Lit(1), Lit(5)): 1}
    results = b.smm.consume_res(None, Oracle.constant(0), "pt", (Lit(1),), smem)
    ok = [r for r in results if r[0] is OK]
    assert len(ok) == 1
    _, _, outs, (frame, checks, pc) = ok[0]
    assert outs == (Lit(5),) and frame == {} and checks == pc


def test_sat_mem_empty_iff_empty_concrete():
    for name in ("linear", "frac", "block-offset", "objects", "chunks"):
        b = get_model(name)
        assert sat_mem(b.smm, {}, b.cmm.empty, b.smm.empty), name
        nonempty = next(m for m in b.cmm.generator(Bounds(value_domain=(NIL, 0))) if m)
        assert not sat_mem(b.smm, {}, nonempty, b.smm.empty), name


def test_frac_produce_twice_then_mutate():
    """Half permissions merge to a full one, which allows writing."""
    from polyheap.assertions import PredTable, Res, SpecContext
    from polyheap.engine import EngineContext, Mode, initial_state, produce, sym_exec
    from polyheap.oracle import Oracle
    from polyheap.syntax import Action, Lit

    b = get_model("frac")
    ctx = EngineContext(
        Mode.OX, SpecContext(), b, PredTable(),
        Bounds(value_domain=(NIL, 0, 1), max_cells=2, max_addresses=3),
    )
    half = Res("cell", (Lit(1), Lit(Rat(1, 2))), (Lit(0),))
    st = initial_state(b.smm)
    [st1] = produce(ctx, half, {}, st)
    merged = [s for s in produce(ctx, half, {}, st1) if len(s.mem) == 1]
    assert merged, "expected the permissions to merge"
    branches = sym_exec(ctx, Oracle.constant(0), merged[0], Action((), "mutate", (Lit(1), Lit(1))))
    assert any(br.outcome is OK for br in branches)


# every bi-abductive fix of the map models: (payload tag, payload length) to
# the resource asked for, with a1, a2 the payload's expressions and f1, f2
# the names minted in order
_LINEAR_FIXES = {("MissingCell", 1): ("cell", ("a1",), ("f1",))}
FIXES = {
    "linear": _LINEAR_FIXES,
    "linear-unique": _LINEAR_FIXES,
    "linear-cut": _LINEAR_FIXES,
    "frac": {
        ("MissingCell", 1): ("cell", ("a1", "f1"), ("f2",)),
        ("InsufficientPermission", 1): ("cell", ("a1", "f1"), ("f2",)),
    },
    "block-offset": {
        ("MissingBlock", 1): ("cell", ("a1", "f1"), ("f2",)),
        ("MissingCell", 2): ("cell", ("a1", "a2"), ("f1",)),
        ("MissingBound", 1): ("bound", ("a1",), ("f1",)),
        ("MissingCells", 1): ("cell", ("a1", "f1"), ("f2",)),
    },
    "objects": {
        ("MissingObject", 1): ("field", ("a1", "f1"), ("f2",)),
        ("MissingField", 2): ("field", ("a1", "a2"), ("f1",)),
    },
}


def _fixes_of(smm, tag, n):
    from polyheap.syntax import Lit, LVar

    minted = []

    def fresh():
        minted.append(f"f{len(minted) + 1}")
        return minted[-1]

    payload = (Lit(tag), *(LVar(f"a{j + 1}") for j in range(n)))
    return smm.fixes(payload, None, fresh), minted


@pytest.mark.parametrize("model", sorted(FIXES))
def test_map_fixes_follow_their_table(model):
    """Each row gives its one resource, minting exactly the names it uses;
    a row's tag with a payload of any other length, any other tag and the
    empty payload give no fix."""
    from polyheap.assertions import Res
    from polyheap.syntax import LVar

    smm = get_model(model).smm
    rows = FIXES[model]
    for (tag, n), (name, ins, outs) in rows.items():
        fixes, minted = _fixes_of(smm, tag, n)
        assert fixes == [Res(name, tuple(map(LVar, ins)), tuple(map(LVar, outs)))], (tag, n)
        assert minted == [x for x in ("f1", "f2") if x in ins + outs]
    for tag in {t for t, _ in rows} | {"UseAfterFree", "MissingDomain", "Type"}:
        for n in range(5):
            if (tag, n) not in rows:
                assert _fixes_of(smm, tag, n) == ([], []), (tag, n)
    assert smm.fixes((), None, None) == []


def test_verification_only_models_have_no_fixes():
    assert get_model("linear-ox").smm.fixes is None
    assert get_model("chunks").smm.fixes is None
