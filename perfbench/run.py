"""polyheap benchmark: four CLI workloads with known-answer checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a polyheap checkout; it imports polyheap from
`src/` and reads the fixtures in `programs/`. Each run starts fresh
interpreters, one at a time (see child.py), and every job calls
`polyheap.cli.main` in process with `--format json --seed N`.

With `--trace 0` it reports the end-to-end metrics of the workload:
  wall_ref_s   wall time of the job list at reference speed: for each
               job, the median over passes of its wall time divided by
               the wall time of reference.run() just before it; summed
               over jobs and multiplied by REFERENCE_S
  cpu_ref_s    the same with user+sys CPU time
  peak_rss_mb  peak RSS of the interpreter that ran only this workload
  setup_s      median, over several fresh interpreters, of the time from
               spawn to the first job (start-up, `import polyheap`,
               input generation)
A shared virtual machine switches between fast and slow phases that
last from seconds to minutes, and a slow phase stretches both wall and
CPU time of every computation. Raw times of the same code then spread by
a quarter between runs; their ratio to the reference does not follow the
phases. The raw times are printed too. Every job is short enough for a
run to repeat it several times, and for the reference measured before
it to share its phase.
With `--trace 1` it runs the job list once untraced and once traced, in
two fresh interpreters, and reports the per-layer metrics of
layertrace.py; trace.overhead_s is the difference of the two wall times,
both at reference speed.

Each job is checked against its known answer (workloads.py). The lines
before the last print each job's time, its report's SHA-256 and its
check, and ops_failed_ratio, the share of jobs whose answer differs
from the known one. The last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; `failed` counts those
jobs, and `correct` is false when a job differs for a reason that
workloads.KNOWN_DEFECTS does not list, or a report changes between
passes or under tracing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from layertrace import METRICS
from workloads import KNOWN_DEFECTS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 7  # extra interpreters that only set up, for a steady setup_s
RUN_LIMIT_S = 170  # every child is killed past this point of the run

# reference.run() at its fastest on the machine the benchmark was written
# on (2-vCPU VM, Python 3.11.7); a fixed scale, so that *_ref_s read as
# seconds on that machine in its fast phase
REFERENCE_S = 0.035

END_TO_END = (("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


class RunError(Exception):
    pass


def _spawn(mode: str, ns, seconds: float, deadline: float) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT,
        "--workload", ns.workload, "--seed", str(ns.seed), "--seconds", str(seconds),
        "--mode", mode, "--spawned-at", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise RunError(f"{mode} run of {ns.workload} passed the {RUN_LIMIT_S} s limit") from None
    if proc.returncode != 0:
        raise RunError(f"{mode} run of {ns.workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_jobs(passes: list) -> tuple:
    """(attempted, failed, problems): every job of every pass against its
    known answer, and each job's report against its first pass."""
    attempted = failed = 0
    problems = []
    for p in passes:
        for job, first in zip(p, passes[0]):
            attempted += 1
            if job["mismatch"]:
                failed += 1
                if job["defect"] not in KNOWN_DEFECTS:
                    problems.append(f"{job['name']}: {'; '.join(job['mismatch'])}")
            if job["digest"] != first["digest"]:
                problems.append(f"{job['name']}: report changed between passes")
    return attempted, failed, sorted(set(problems))


def _print_jobs(passes: list):
    for i, job in enumerate(passes[0]):
        walls = [p[i]["wall_s"] for p in passes]
        scaled = REFERENCE_S * statistics.median(p[i]["wall_s"] / p[i]["ref_wall_s"] for p in passes)
        if not job["mismatch"]:
            check = "as known"
        elif job["defect"] in KNOWN_DEFECTS:
            check = f"DIFFERS (known defect {job['defect']}): {'; '.join(job['mismatch'])}"
        else:
            check = f"DIFFERS: {'; '.join(job['mismatch'])}"
        print(f"job {job['name']}: {scaled:.4f} s at reference speed; raw fastest"
              f" {min(walls):.4f} s, median {statistics.median(walls):.4f} s"
              f" sha256={job['digest']} {check}")


def _pass_total(p: list, key: str) -> float:
    return sum(job[key] for job in p)


def _reference_total(passes: list, key: str) -> float:
    """Sum over jobs of the median over passes of the job's `key` time
    divided by the reference's, times REFERENCE_S."""
    return REFERENCE_S * sum(
        statistics.median(p[i][key] / p[i][f"ref_{key}"] for p in passes)
        for i in range(len(passes[0]))
    )


def measure(ns) -> tuple:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [_spawn("probe", ns, 0, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    run = _spawn("measure", ns, ns.seconds, deadline)
    passes = run["passes"]
    metrics = {
        "wall_ref_s": _reference_total(passes, "wall_s"),
        "cpu_ref_s": _reference_total(passes, "cpu_s"),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups + [run["setup_s"]]),
    }
    refs = [job["ref_wall_s"] for p in passes for job in p]
    print(f"{ns.workload}: {len(passes)} passes of {len(passes[0])} jobs, "
          f"{len(setups) + 1} setups")
    print(f"raw wall_s {statistics.median(_pass_total(p, 'wall_s') for p in passes)} s, "
          f"cpu_s {statistics.median(_pass_total(p, 'cpu_s') for p in passes)} s (median pass); "
          f"reference {min(refs):.4f} s fastest, {statistics.median(refs):.4f} s median")
    return passes, metrics, dict(END_TO_END), []


def trace(ns) -> tuple:
    deadline = time.monotonic() + RUN_LIMIT_S
    plain = _spawn("measure", ns, 0, deadline)["passes"][0]
    traced = _spawn("trace", ns, 0, deadline)
    passes = traced["passes"]
    layers = traced["layers"]
    layers["trace.overhead_s"] = (_reference_total(passes[:1], "wall_s")
                                  - _reference_total([plain], "wall_s"))
    metrics = {name: layers[name] for name, _ in METRICS}
    problems = [f"{t['name']}: report changed under tracing"
                for t, u in zip(passes[0], plain) if t["digest"] != u["digest"]]
    print(f"{ns.workload}: traced pass of {len(passes[0])} jobs; spans in "
          f".perfbench/spans-{ns.workload}.csv.gz")
    return passes, metrics, dict(METRICS), problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    try:
        passes, metrics, units, problems = (trace if ns.trace else measure)(ns)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, mismatches = _check_jobs(passes)
    problems += mismatches
    _print_jobs(passes)
    for problem in problems:
        print(f"INCORRECT {problem}")
    print(f"ops_failed_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} jobs)")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
