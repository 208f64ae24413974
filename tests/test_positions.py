"""Footprint heaps are placed, not searched for.

`ConcreteMemoryModel.positions` says where `generator` yields a heap and
`generated_values` what values its heaps hold; the map models compute both
in closed form. Here both are checked against a scan of the generator for
every bundled model over small random bounds, including a repeated value
and zero, one and two cells. `heap_models` and `check_quadruple_bounded`
are then checked against their versions that scanned the generator (kept
below): same heap lists on random star assertions, same verdicts and
counterexamples on the bundled programs' biabducted quadruples."""

import dataclasses
import itertools
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import programs_dir
from polyheap.analyses import UnsupportedCapability, biabduct
from polyheap.assertions import Res, Star, atoms, lv_assertion, split_external_pre
from polyheap.cli import main
from polyheap.concrete import BudgetExhausted, run_function
from polyheap.conformance import _resource_cases
from polyheap.memmodel import Bounds
from polyheap.models import MODEL_NAMES, get_model
from polyheap.models.chunks import ChunkConcrete
from polyheap.models.maps import MapConcrete
from polyheap.outcomes import ERR, MISS, OK
from polyheap.parser import parse_program
from polyheap.evaluation import all_true
from polyheap.quadcheck import CounterExample, Inconclusive, Valid, _freeze, check_quadruple_bounded
from polyheap.satisfaction import (
    UNKNOWN, DepthExceeded, footprint, heap_models, holds, may_hold, pure_conjuncts,
)
from polyheap.solver import _ENUM_CAP
from polyheap.syntax import Action, Lit, basic_cmds
from polyheap.values import NIL, TRUE, value_key
from test_footprint import _assertions, _outcome, _preds
from test_quadcheck import _chunk_quadruples, _same_verdict

BUNDLES = [n for n in MODEL_NAMES if n != "cheri"]


def _bounds(values, cells, addresses):
    """Bounds refuse zero cells, but the generator is defined there: it
    yields the empty heap alone."""
    b = Bounds(value_domain=tuple(values), max_cells=max(cells, 1), max_addresses=addresses)
    object.__setattr__(b, "max_cells", cells)
    return b


# "f" is a field name of the objects model
BOUNDS = st.builds(
    lambda vals, dup, cells, addrs: _bounds(vals + vals[:1] * dup, cells, addrs),
    st.lists(st.sampled_from((NIL, TRUE, 0, 1, 2, "f")), min_size=1, max_size=3),
    st.booleans(),
    st.sampled_from((0, 1, 2)),
    st.integers(1, 3),
)
# a repeated value under each cell count
DUPLICATED = [_bounds((0, 1, 0), cells, 2) for cells in (0, 1, 2)]


def _examples(fn):
    for b in DUPLICATED:
        fn = example(bounds=b)(fn)
    return fn


def _scan_index(cmm, bounds):
    where = {}
    for i, h in enumerate(cmm.generator(bounds)):
        where.setdefault(_freeze(h), []).append(i)
    return where


def _wider(bounds):
    return Bounds(
        value_domain=bounds.value_domain + (3,),
        max_cells=bounds.max_cells + 1,
        max_addresses=bounds.max_addresses + 1,
    )


@pytest.mark.parametrize("name", BUNDLES)
def test_positions_and_values_match_generator_scan(name):
    """For the heaps of the generator and of a wider one: as many
    positions as the scan finds equal heaps, sorted, and sorting every
    heap by its positions gives back the generator's stream."""
    cmm = get_model(name).cmm

    @settings(max_examples=25, deadline=None)
    @_examples
    @given(bounds=BOUNDS)
    def check(bounds):
        heaps = list(cmm.generator(bounds))
        where = _scan_index(cmm, bounds)
        seen, placed = set(), []
        for h in [*heaps, *cmm.generator(_wider(bounds)), {"k": 0}]:
            if _freeze(h) in seen:
                continue
            seen.add(_freeze(h))
            keys = cmm.positions(h, bounds)
            assert len(keys) == len(where.get(_freeze(h), ())), h
            assert keys == sorted(keys), h
            placed += [(k, h) for k in keys]
        placed.sort(key=lambda kh: kh[0])
        assert [h for _, h in placed] == heaps
        want = set()
        for h in heaps:
            want |= cmm.mem_values(h)
        assert cmm.generated_values(bounds) == want

    check()


# ---------------------------------------------------------------------------
# heap_models and check_quadruple_bounded as they were, scanning the generator
# ---------------------------------------------------------------------------


def _old_heap_models(theta, store, assertion, *, cmm, rm, preds=None, bounds=None, depth=4):
    fp = footprint(theta, store, assertion, cmm, rm)
    if fp is None:
        return []
    return [
        mem
        for mem in cmm.generator(bounds)
        if may_hold(fp, mem)
        and holds(theta, store, mem, assertion, cmm=cmm, rm=rm, preds=preds, bounds=bounds, depth=depth)
    ]


def _old_check(gamma, q, bounds, bundle, preds=None, budget=16):
    """`check_quadruple_bounded` when it listed the generator and found a
    footprint's heaps by their frozen form."""
    preds = preds if preds is not None else {}
    q.check_external_shape()
    lvars = sorted(lv_assertion(q.pre) | lv_assertion(q.post_ok) | lv_assertion(q.post_err))
    domain = bounds.sorted_domain()
    if len(domain) ** len(lvars) > _ENUM_CAP:
        return Inconclusive("interpretation space exceeds the enumeration cap")
    param_map, _ = split_external_pre(q.pre, q.params)
    heaps = list(bundle.cmm.generator(bounds))
    where = {}
    for i, h in enumerate(heaps):
        where.setdefault(_freeze(h), []).append(i)
    complete = True
    run_cache = {}

    def runs(args, mem):
        key = (args, _freeze(mem))
        if key not in run_cache:
            run_cache[key] = run_function(gamma, q.fid, args, mem, bundle.cmm, budget, bounds.max_addresses)
        return run_cache[key]

    sat = lambda theta, store, mem, a: holds(
        theta, store, mem, a, cmm=bundle.cmm, rm=bundle.rm, preds=preds, bounds=bounds
    )
    fp = lambda theta, store, a: footprint(theta, store, a, bundle.cmm, bundle.rm)

    def visit(theta, store, a):
        a_fp = fp(theta, store, a)
        if a_fp is UNKNOWN:
            return range(len(heaps))
        return where.get(_freeze(a_fp), ()) if a_fp is not None else ()

    pre_pure = pure_conjuncts(q.pre)
    posts = [
        (o, post, var, pure_conjuncts(post))
        for o, post, var in ((OK, q.post_ok, "ret"), (ERR, q.post_err, "err"))
    ]
    isl_vals = set(domain)
    for h in heaps:
        isl_vals |= bundle.cmm.mem_values(h)
    isl_vals = sorted(isl_vals, key=value_key)

    for combo in itertools.product(domain, repeat=len(lvars)):
        theta = dict(zip(lvars, combo))
        args = tuple(theta.get(param_map[x]) for x in q.params)
        store = dict(zip(q.params, args))
        pre_heaps = []
        if all_true(pre_pure, theta, store):
            try:
                pre_heaps = [heaps[i] for i in visit(theta, store, q.pre) if sat(theta, store, heaps[i], q.pre)]
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
                        ok = may_hold(fp(theta, {var: out}, post), h2) and sat(theta, {var: out}, h2, post)
                    except DepthExceeded:
                        complete = False
                        continue
                    if not ok:
                        return CounterExample(
                            "post-violated", theta, {"heap": h, "outcome": o.value, var: out, "final-heap": h2}
                        )
        if q.flavor in ("ISL", "ESL"):
            for o, post, var, post_pure in posts:
                vals = [v for v in isl_vals if all_true(post_pure, theta, {var: v})]
                pairs = sorted((i, k) for k, v in enumerate(vals) for i in visit(theta, {var: v}, post))
                for i, k in pairs:
                    h2, v = heaps[i], vals[k]
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
                        return CounterExample("unreachable-post", theta, {"outcome": o.value, var: v, "final-heap": h2})
    return Valid() if complete else Inconclusive("bounded enumeration was truncated")


# ---------------------------------------------------------------------------
# The differentials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model", ["linear", "frac", "chunks"])
def test_heap_models_matches_the_scanning_version(model):
    bundle, preds = get_model(model), _preds(model)

    @settings(max_examples=150, deadline=None)
    @given(
        a=_assertions(model),
        bounds=st.one_of(st.sampled_from(DUPLICATED), BOUNDS),
        picks=st.tuples(st.integers(0, 9), st.integers(0, 9)),
    )
    def check(a, bounds, picks):
        dom = bounds.sorted_domain()
        theta = {"x": dom[picks[0] % len(dom)], "y": dom[picks[1] % len(dom)]}
        kw = dict(cmm=bundle.cmm, rm=bundle.rm, preds=preds, bounds=bounds)
        got = _outcome(lambda: heap_models(theta, {}, a, **kw))
        assert got == _outcome(lambda: _old_heap_models(theta, {}, a, **kw)), a

    check()


@pytest.mark.parametrize("name", BUNDLES)
def test_heap_models_of_resources_under_a_repeated_value(name):
    """Each of the harness's resource cases and each star of two: a heap
    built from the repeated value is returned once per position."""
    bundle = get_model(name)
    bounds = _bounds((0, 1, 0, "f"), 2, 2)
    cases = list(_resource_cases(bundle.rm, bounds))[:8]
    res = [Res(n, tuple(map(Lit, ins)), tuple(map(Lit, outs))) for n, ins, outs in cases]
    kw = dict(cmm=bundle.cmm, rm=bundle.rm, bounds=bounds)
    repeated = 0
    for a in [*res, *(Star(a, b) for a in res for b in res)]:
        got = heap_models({}, {}, a, **kw)
        assert got == _old_heap_models({}, {}, a, **kw), a
        repeated += len(got) > 1
    assert repeated


def _fits(prog, bundle) -> bool:
    """The program's actions and spec resources fit the model, as the CLI
    requires."""
    actions = [c for f in prog.functions.values() for c in basic_cmds(f.body) if isinstance(c, Action)]
    resources = [a for qs in prog.specs.values() for q in qs for a, _ in atoms(q.pre) if isinstance(a, Res)]
    return all(bundle.cmm.actions.get(c.name, (None,))[0] == len(c.args) for c in actions) and all(
        bundle.rm.arities.get(a.name) == (len(a.ins), len(a.outs)) for a in resources
    )


def _biabducted(model, bounds):
    """Every bundled program's biabducted quadruples under `model`, with
    their SL and ESL readings; chunks, which has no bug-finding, gets the
    linear model's restated."""
    source = "linear" if model == "chunks" else model
    out = []
    for name in sorted(os.listdir(programs_dir())):
        with open(os.path.join(programs_dir(), name), encoding="utf-8") as fh:
            prog = parse_program(fh.read())
        if not _fits(prog, get_model(source)):
            continue
        quads = []
        for fid in sorted(prog.functions):
            try:
                reports = biabduct(prog.functions, prog.specs, fid, get_model(source), prog.preds,
                                   bounds, budget=32, validate=False)
            except UnsupportedCapability:
                continue
            quads += [r.quadruple for r in reports if r.quadruple is not None]
        if model == "chunks":
            quads = list(_chunk_quadruples(quads))
        out += [(prog, dataclasses.replace(q, flavor=f)) for q in quads for f in ("ISL", "SL", "ESL")]
    return out


# posts whose resource mentions `ret`, so their footprint moves with the
# value, and an SL post that reads the wrong cell
EXTRA = """
func k(x) {{ y := lookup(x); return y }}
spec ISL k(x) {{ requires: x = #x * {cell}; ensures_ok: {at_ret}; }}
spec ISL k(x) {{ requires: x = #x * {cell}; ensures_ok: {at_ret} * ret = #v; }}
spec ESL k(x) {{ requires: x = #x * {cell}; ensures_ok: {at_ret} * (#v = 0); }}
spec SL k(x) {{ requires: x = #x * {cell}; ensures_ok: {cell} * ret = #x; }}
"""
EXTRA_CELLS = {
    "linear": ("cell(#x; #v)", "cell(#x; ret)"),
    "frac": ("cell(#x, 1q; #v)", "cell(#x, 1q; ret)"),
    "chunks": ("pt(#x; #v)", "pt(#x; ret)"),
}


@pytest.mark.parametrize("bounds", [
    Bounds(value_domain=(NIL, 0, 1, 2)),
    Bounds(value_domain=(0, 1, 0), max_addresses=2),
], ids=["distinct", "duplicated"])
@pytest.mark.parametrize("model", ["linear", "linear-cut", "frac", "block-offset", "objects", "chunks"])
def test_quadcheck_matches_the_indexed_version(model, bounds):
    bundle = get_model(model)
    cases = _biabducted(model, bounds)
    family = "linear" if model.startswith("linear") else model
    if family in EXTRA_CELLS:
        cell, at_ret = EXTRA_CELLS[family]
        prog = parse_program(EXTRA.format(cell=cell, at_ret=at_ret))
        cases += [(prog, q) for q in prog.specs["k"]]
    assert cases
    kinds = set()
    for prog, q in cases:
        got = check_quadruple_bounded(prog.functions, q, bounds, bundle, prog.preds)
        _same_verdict(got, _old_check(prog.functions, q, bounds, bundle, prog.preds))
        kinds.add(getattr(got, "kind", type(got).__name__))
    assert "Valid" in kinds and len(kinds) > 1, kinds


def _count_generator(monkeypatch, cls):
    calls = []
    orig = cls.generator

    def counted(self, bounds):
        calls.append(bounds)
        return orig(self, bounds)

    monkeypatch.setattr(cls, "generator", counted)
    return calls


def test_find_bugs_never_runs_the_map_generator(monkeypatch, capsys):
    calls = _count_generator(monkeypatch, MapConcrete)
    assert main(["find-bugs", os.path.join(programs_dir(), "bugs.ph"), "--model", "linear"]) == 3
    assert "BUG" in capsys.readouterr().out
    assert calls == []


def test_chunks_still_scans_its_generator(monkeypatch, capsys):
    """chunks keeps the scanning defaults. Its find-bugs stops before any
    search (no bug-finding soundness), so the oracle is called directly."""
    calls = _count_generator(monkeypatch, ChunkConcrete)
    assert main(["find-bugs", os.path.join(programs_dir(), "bugs.ph"), "--model", "chunks"]) == 5
    assert calls == []
    bundle = get_model("chunks")
    prog = parse_program(
        "func read_two() { x := lookup(1); y := lookup(2); return y }\n"
        "spec ISL read_two() { requires: pt(1; #a) * pt(2; #b); ensures_ok: pt(1; #a) * pt(2; #b) * ret = #b; }\n"
    )
    (q,) = prog.specs["read_two"]
    bounds = Bounds(value_domain=(0, 1))
    assert isinstance(check_quadruple_bounded(prog.functions, q, bounds, bundle), Valid)
    assert calls
    n = len(calls)
    kw = dict(cmm=bundle.cmm, rm=bundle.rm, bounds=bounds)
    assert heap_models({"a": 0, "b": 1}, {}, q.pre, **kw) == [{("pt", 1, 0): 1, ("pt", 2, 1): 1}]
    assert len(calls) > n
