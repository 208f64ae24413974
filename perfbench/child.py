"""One workload run in a fresh interpreter; started by run.py.

Modes:
  probe    set up (import polyheap, generate the inputs) and exit
  measure  set up, then run the job list untraced, pass after pass, while
           another pass still fits in the run's seconds (at least one)
  trace    set up, then run the job list once with every layer traced

Right before every job, the child times reference.run() (see there).
The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

import layertrace
import reference
import workloads


def _import_polyheap(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import polyheap.cli
    from polyheap import solver

    if not os.path.abspath(polyheap.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"polyheap was imported from {polyheap.__file__}, not from {src}")
    return polyheap.cli, solver


def _run_job(cli, solver, job) -> dict:
    # a CLI user starts every command with an empty solver cache
    solver.clear_caches()
    gc.collect()
    ref_wall0, ref_cpu0 = time.perf_counter(), time.process_time()
    reference.run()
    ref_wall, ref_cpu = time.perf_counter() - ref_wall0, time.process_time() - ref_cpu0
    out, err = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(job.argv)
    except Exception as exc:  # noqa: BLE001 - a crash is a job that failed
        code, crash = None, f"raised {type(exc).__name__}: {exc}"
    else:
        crash = None
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    text = out.getvalue()
    if crash:
        mismatch = [crash]
    else:
        try:
            mismatch = job.check(code, json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            mismatch = [f"exit {code}, unreadable report ({exc!r}): {err.getvalue().strip()[:200]}"]
    return {
        "name": job.name,
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_wall_s": ref_wall,
        "ref_cpu_s": ref_cpu,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "mismatch": mismatch,
        "defect": job.defect,
    }


def _run_pass(cli, solver, jobs, tracer=None) -> list:
    results = []
    for job in jobs:
        results.append(_run_job(cli, solver, job))
        if tracer is not None:
            tracer.end_job()
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    ns = ap.parse_args(argv)

    cli, solver = _import_polyheap(ns.root)
    jobs = workloads.jobs(ns.workload, ns.seed, os.path.join(ns.root, "programs"))
    work = os.path.join(ns.root, ".perfbench", f"work-{ns.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tracer = None
    try:
        for job in jobs:
            for name, source in job.files.items():
                with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                    fh.write(source)
        os.chdir(work)
        out = {"setup_s": time.monotonic() - ns.spawned_at}
        if ns.mode == "measure":
            passes = []
            started = time.perf_counter()
            while True:
                passes.append(_run_pass(cli, solver, jobs))
                elapsed = time.perf_counter() - started
                if elapsed + sum(j["wall_s"] for j in passes[-1]) > ns.seconds:
                    break
            out["passes"] = passes
        elif ns.mode == "trace":
            tracer = layertrace.Tracer()
            layertrace.install(tracer)
            out["passes"] = [_run_pass(cli, solver, jobs, tracer)]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        os.chdir(ns.root)
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        out["layers"] = layertrace.layer_metrics(tracer, ns.workload)
        tracer.write(os.path.join(ns.root, ".perfbench", f"spans-{ns.workload}.csv.gz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
