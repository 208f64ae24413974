"""Spans and counters around the public functions of polyheap's layers.

Tracing lives in the benchmark, not in polyheap: `install` replaces each
traced function in every polyheap module namespace that holds it, so
callers that imported the function by name are traced too, and then
checks that no namespace still holds an original.

A span has a name, a start, an end and a parent span. A function that
is already open (recursion through `sym_exec`, `holds`, `run`, or
`run` and `run_function` calling each other) opens no second span, so
`calls` counts outermost entries. A layer's self time is the duration of
its spans minus the time their direct child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import resource
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, function) pairs that get a span.
SPANNED = (
    ("parser", "parse_program"),
    ("analyses", "verify_ox"),
    ("analyses", "biabduct"),
    ("engine", "sym_exec"),
    ("engine", "consume"),
    ("engine", "produce"),
    ("engine", "models_of"),
    ("solver", "check_sat"),
    ("solver", "entails"),
    ("satisfaction", "holds"),
    ("satisfaction", "heap_models"),
    ("quadcheck", "check_quadruple_bounded"),
    ("concrete", "run"),
    ("concrete", "run_function"),
    ("conformance", "run_conformance"),
    ("conformance", "check_pcm_laws"),
    ("conformance", "check_frame"),
    ("conformance", "check_action_soundness"),
    ("conformance", "check_cp_soundness"),
)

# Names that modules import from another layer; each must be traced in
# the importing module's namespace too.
IMPORTED = {
    "analyses": ("check_sat", "models_of", "sym_exec", "consume", "produce", "heap_models", "run"),
    "engine": ("check_sat", "entails", "heap_models"),
    "quadcheck": ("holds", "run_function"),
    "cli": ("parse_program", "verify_ox", "biabduct", "run_conformance"),
}

CHECKS = ("check_pcm_laws", "check_frame", "check_action_soundness", "check_cp_soundness")

# Every per-layer metric, in report order.
METRICS = (
    ("parser.parse_program.calls", "count"),
    ("parser.parse_program.self_s", "s"),
    ("analyses.verify_ox.calls", "count"),
    ("analyses.verify_ox.self_s", "s"),
    ("analyses.verify_ox.oracle_passes", "count"),
    ("analyses.biabduct.calls", "count"),
    ("analyses.biabduct.self_s", "s"),
    ("analyses.reports_replayed_ratio", "ratio"),
    ("engine.sym_exec.calls", "count"),
    ("engine.sym_exec.self_s", "s"),
    ("engine.sym_exec.branches", "count"),
    ("engine.consume.calls", "count"),
    ("engine.consume.self_s", "s"),
    ("engine.produce.calls", "count"),
    ("engine.produce.self_s", "s"),
    ("engine.models_of.calls", "count"),
    ("engine.models_of.self_s", "s"),
    ("engine.models_of.models", "count"),
    ("engine.models_under.calls", "count"),
    ("engine.models_of.yield_ratio", "ratio"),
    ("solver.check_sat.calls", "count"),
    ("solver.check_sat.self_s", "s"),
    ("solver.check_sat.sat", "count"),
    ("solver.check_sat.unsat", "count"),
    ("solver.check_sat.unknown", "count"),
    ("solver.check_sat.distinct_ratio", "ratio"),
    ("solver.entails.calls", "count"),
    ("solver.entails.self_s", "s"),
    ("solver.entails.yes", "count"),
    ("solver.entails.no", "count"),
    ("solver.entails.unknown", "count"),
    ("solver.RewriteCore.builds", "count"),
    ("solver.RewriteCore.self_s", "s"),
    ("solver.RewriteCore.conjuncts_per_build", "count"),
    ("satisfaction.holds.calls", "count"),
    ("satisfaction.holds.self_s", "s"),
    ("satisfaction.holds.true_ratio", "ratio"),
    ("satisfaction.heap_models.calls", "count"),
    ("satisfaction.heap_models.self_s", "s"),
    ("quadcheck.check_quadruple_bounded.calls", "count"),
    ("quadcheck.check_quadruple_bounded.self_s", "s"),
    ("quadcheck.check_quadruple_bounded.valid", "count"),
    ("quadcheck.check_quadruple_bounded.inconclusive", "count"),
    ("quadcheck.check_quadruple_bounded.counterexample", "count"),
    ("concrete.run.calls", "count"),
    ("concrete.run.self_s", "s"),
    ("concrete.run_function.calls", "count"),
    ("concrete.run_function.self_s", "s"),
    ("conformance.run_conformance.calls", "count"),
    *((f"conformance.{c}.self_s", "s") for c in CHECKS),
    *((f"conformance.{c}.trials", "count") for c in CHECKS),
    ("conformance.check_frame.rss_growth_mb", "MB"),
    ("models.enumerate_splits.calls", "count"),
    ("models.compose.calls", "count"),
    ("trace.overhead_s", "s"),
)

# Counters that must be nonzero on a workload: the layers the benchmark
# names as doing that workload's work.
EXPECTED_NONZERO = {
    "verify-pass": (
        "parser.parse_program.calls", "analyses.verify_ox.calls", "engine.sym_exec.calls",
        "engine.models_of.calls", "solver.check_sat.calls", "solver.entails.calls",
        "solver.RewriteCore.builds",
    ),
    "verify-fail": (
        "parser.parse_program.calls", "analyses.verify_ox.calls", "engine.sym_exec.calls",
        "engine.models_of.calls", "engine.models_under.calls", "solver.check_sat.calls",
        "solver.entails.calls", "solver.RewriteCore.builds",
    ),
    "find-bugs": (
        "parser.parse_program.calls", "analyses.biabduct.calls", "engine.sym_exec.calls",
        "engine.models_of.calls", "engine.models_under.calls", "solver.check_sat.calls",
        "solver.RewriteCore.builds", "satisfaction.holds.calls", "satisfaction.heap_models.calls",
        "quadcheck.check_quadruple_bounded.calls", "concrete.run.calls",
        "concrete.run_function.calls", "models.enumerate_splits.calls", "models.compose.calls",
    ),
    "check-model": (
        "conformance.run_conformance.calls", *(f"conformance.{c}.trials" for c in CHECKS),
        "models.enumerate_splits.calls", "models.compose.calls",
    ),
}


class TraceError(RuntimeError):
    pass


class Tracer:
    """Spans in flat arrays (a find-bugs pass opens millions), plus named
    counters that the result hooks fill."""

    def __init__(self):
        self.names = []
        self.active = []  # per span name: 1 while a span of it is open
        self.span_name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.count = Counter()
        self.pcs = set()  # distinct check_sat keys of the current job

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.active.append(0)
        return len(self.names) - 1

    def span(self, name, fn, after=None, before=None):
        """`fn` with a span around each outermost call; `before(args,
        kwargs)` runs on each outermost entry and `after(result, args,
        kwargs)` on each outermost return."""
        key = self.name_id(name)
        active = self.active

        def traced(*args, **kwargs):
            if active[key]:
                return fn(*args, **kwargs)
            active[key] = 1
            if before is not None:
                before(args, kwargs)
            parent = self.current
            idx = self.current = len(self.start)
            self.span_name.append(key)
            self.parent.append(parent)
            self.end.append(0.0)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.current = parent
                active[key] = 0
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, metric, fn, while_open=None):
        """`fn` counting every call in `metric`, and in `metric + ".in"`
        the calls made while a span named `while_open` is open."""
        count = self.count
        inside = self.names.index(while_open) if while_open else None
        active = self.active

        def traced(*args, **kwargs):
            count[metric] += 1
            if inside is not None and active[inside]:
                count[metric + ".in"] += 1
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def is_open(self, name: str) -> bool:
        return bool(self.active[self.names.index(name)])

    def end_job(self):
        """Close the per-job set of distinct check_sat keys: every job
        starts with an empty solver cache."""
        self.count["solver.check_sat.distinct"] += len(self.pcs)
        self.pcs.clear()

    def self_times(self):
        """(calls, self seconds) per span name."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = Counter()
        self_s = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - covered[i]
        return calls, self_s

    def write(self, path: str):
        """All spans as `name,start,end,parent` lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.span_name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]}\n")


def _polyheap_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "polyheap" or name.startswith("polyheap.")) and m is not None]


def _replace_everywhere(original, replacement):
    """Rebind every polyheap module attribute that holds `original`."""
    for module in _polyheap_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def install(tracer: Tracer):
    """Trace every layer function; raise TraceError if a binding escaped."""
    for module in {m for m, _ in SPANNED} | set(IMPORTED) | {"memmodel", "models"}:
        importlib.import_module(f"polyheap.{module}")
    from polyheap import memmodel, models, solver

    count = tracer.count
    originals = []

    def bump(key, n=1):
        count[key] += n

    def on_sym_exec(result, args, kwargs):
        bump("engine.sym_exec.branches", len(result))
        if tracer.is_open("analyses.verify_ox"):
            bump("analyses.verify_ox.sym_exec")

    def on_check_sat(result, args, kwargs):
        verdict = "sat" if isinstance(result, solver.Sat) else "unsat" if result is solver.UNSAT else "unknown"
        bump(f"solver.check_sat.{verdict}")
        pc, bounds = args
        tracer.pcs.add((tuple(pc), bounds.key()))

    def on_biabduct(result, args, kwargs):
        bump("analyses.reports", len(result))
        bump("analyses.reports_replayed", sum(r.replayed is True for r in result))

    rss_before = []

    def on_check(check):
        def after(result, args, kwargs):
            bump(f"conformance.{check}.trials", result.trials)
            if check == "check_frame":
                bump("conformance.check_frame.rss_growth_mb", _rss_mb() - rss_before.pop())
        return after

    after = {
        "sym_exec": on_sym_exec,
        "check_sat": on_check_sat,
        "entails": lambda r, a, k: bump(f"solver.entails.{r.name.lower()}"),
        "models_of": lambda r, a, k: bump("engine.models_of.models", len(r)),
        "holds": lambda r, a, k: bump("satisfaction.holds.true", r is True),
        "check_quadruple_bounded": lambda r, a, k: bump(
            f"quadcheck.check_quadruple_bounded.{type(r).__name__.lower()}"),
        "biabduct": on_biabduct,
        **{c: on_check(c) for c in CHECKS},
    }
    before = {"check_frame": lambda a, k: rss_before.append(_rss_mb())}
    for module, name in SPANNED:
        original = getattr(sys.modules[f"polyheap.{module}"], name)
        originals.append(original)
        _replace_everywhere(original, tracer.span(f"{module}.{name}", original,
                                                  after.get(name), before.get(name)))

    under = sys.modules["polyheap.engine"].models_under
    originals.append(under)
    _replace_everywhere(under, tracer.counted("engine.models_under.calls", under,
                                              while_open="engine.models_of"))

    core = solver.RewriteCore
    originals.append(core)
    build = tracer.span("solver.RewriteCore", core.__init__,
                        lambda r, a, k: bump("solver.RewriteCore.conjuncts", len(a[0].conjuncts)))
    _replace_everywhere(core, type("RewriteCore", (core,), {"__init__": build, "__module__": core.__module__}))

    for cls in _concrete_models(models, memmodel.ConcreteMemoryModel):
        for method in ("enumerate_splits", "compose"):
            if method in vars(cls):
                setattr(cls, method, tracer.counted(f"models.{method}.calls", vars(cls)[method]))

    _check_patch(originals)


def _concrete_models(models_pkg, base):
    out = []
    for module in _polyheap_modules():
        if not module.__name__.startswith(models_pkg.__name__ + "."):
            continue
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, base) and value is not base \
                    and value.__module__ == module.__name__:
                out.append(value)
    if not out:
        raise TraceError("no concrete memory model classes found to count")
    return out


def _check_patch(originals):
    for module in _polyheap_modules():
        for attr, value in vars(module).items():
            if any(value is o for o in originals):
                raise TraceError(f"{module.__name__}.{attr} escaped tracing")
    for module, names in IMPORTED.items():
        mod = sys.modules[f"polyheap.{module}"]
        for name in names:
            if not hasattr(getattr(mod, name), "__wrapped__"):
                raise TraceError(f"polyheap.{module}.{name} is not traced")


def layer_metrics(tracer: Tracer, workload: str) -> dict:
    """Per-layer metrics of one traced pass, by the names in METRICS,
    except trace.overhead_s, which needs an untraced run."""
    calls, self_s = tracer.self_times()
    c = tracer.count

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, _ in METRICS:
        if name.endswith(".calls") and name.rsplit(".", 1)[0] in calls:
            values[name] = calls[name.rsplit(".", 1)[0]]
        elif name.endswith(".self_s"):
            values[name] = float(self_s[name.rsplit(".", 1)[0]])
    values.update({
        "analyses.verify_ox.oracle_passes": ratio(c["analyses.verify_ox.sym_exec"],
                                                  calls["analyses.verify_ox"]),
        "analyses.reports_replayed_ratio": ratio(c["analyses.reports_replayed"], c["analyses.reports"]),
        "engine.models_of.yield_ratio": ratio(c["engine.models_of.models"],
                                              c["engine.models_under.calls.in"]),
        "solver.check_sat.distinct_ratio": ratio(c["solver.check_sat.distinct"],
                                                 calls["solver.check_sat"]),
        "solver.RewriteCore.builds": calls["solver.RewriteCore"],
        "solver.RewriteCore.conjuncts_per_build": ratio(c["solver.RewriteCore.conjuncts"],
                                                        calls["solver.RewriteCore"]),
        "satisfaction.holds.true_ratio": ratio(c["satisfaction.holds.true"],
                                               calls["satisfaction.holds"]),
    })
    for name, _ in METRICS:
        if name != "trace.overhead_s":
            values.setdefault(name, c[name])
    for name in EXPECTED_NONZERO[workload]:
        if not values[name]:
            raise TraceError(f"{name} is zero on {workload}: a traced layer saw no work")
    return values
