"""Job lists of the four workloads, each job with its known answer.

A job is one `polyheap` CLI command run in process with `--format json`.
Generated programs come from the workload seed. The seed only picks
literal constants that keep a program's size and search space fixed, so
that every seed gives a job list of comparable cost. Every expected
answer follows from how the program was built; none is read back from
polyheap's own output.

Every job takes at most a few seconds, so that a run repeats each one
several times and its fastest pass is a steady figure (see run.py).
Where an input at default bounds takes longer, the job narrows the value
domain with `--bounds-values`; jobs that show a known defect keep the
bounds the defect needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("verify-pass", "verify-fail", "find-bugs", "check-model")

# Mismatches that the benchmark expects at the commit it was written for.
# They stay in the job lists and count in ops_failed_ratio; a job whose
# mismatch is not listed here makes the run incorrect.
KNOWN_DEFECTS = {
    "unsound-verified": "a failing path with no model inside the bounds is dropped,"
    " so the spec is reported Verified (ROADMAP open item 1)",
    "fresh-type-reports": "symbolic new() constrains the fresh address only by"
    " `in Val`, so find-bugs reports two Type bugs whose witness needs a"
    " non-Nat address, and the real ok path fails replay",
}


@dataclass
class Job:
    name: str
    argv: list
    check: object  # (exit_code, report) -> list of mismatch descriptions
    files: dict = field(default_factory=dict)  # generated file name -> source
    defect: str = None  # KNOWN_DEFECTS key when a mismatch is expected


def expect_verify(verdicts: dict, exit_codes: set):
    """Every spec id in `verdicts` gets one of its allowed verdicts, and no
    other spec is reported."""

    def check(code, report):
        bad = []
        if code not in exit_codes:
            bad.append(f"exit {code}, expected one of {sorted(exit_codes)}")
        got = {r["spec"]: r["verdict"] for r in report["results"]}
        if set(got) != set(verdicts):
            bad.append(f"specs {sorted(got)}, expected {sorted(verdicts)}")
        for spec, allowed in verdicts.items():
            if spec in got and got[spec] not in allowed:
                bad.append(f"{spec}: {got[spec]}, expected one of {sorted(allowed)}")
        return bad

    return check


def expect_bugs(functions: set, buggy: set):
    """find-bugs reports on exactly `functions`, a bug on exactly `buggy`,
    and every replayable report replays concretely."""

    def check(code, report):
        bad = []
        want_code = 3 if buggy else 0
        if code != want_code:
            bad.append(f"exit {code}, expected {want_code}")
        seen = {r["function"] for r in report["results"]}
        if seen != functions:
            bad.append(f"reports on {sorted(seen)}, expected {sorted(functions)}")
        got = {r["function"] for r in report["results"] if r["bug"]}
        if got != buggy:
            bad.append(f"bugs in {sorted(got)}, expected {sorted(buggy)}")
        for r in report["results"]:
            if not r["unrecoverable"] and r["replayed"] is not True:
                bad.append(f"{r['function']} {r['outcome']} report not replayed")
        return bad

    return check


def expect_conformance(cells: set):
    """Every (check, mode) cell passes and nothing else is reported."""

    def check(code, report):
        bad = []
        if code != 0:
            bad.append(f"exit {code}, expected 0")
        got = {(r["check"], r["mode"]): r["verdict"] for r in report["results"]}
        if set(got) != cells:
            bad.append(f"cells {sorted(got)}, expected {sorted(cells)}")
        bad += [f"{c}/{m}: {v}" for (c, m), v in sorted(got.items()) if v != "Pass"]
        return bad

    return check


VERIFIED = {"Verified"}
NOT_VERIFIED = {"Failed", "Inconclusive"}


def if_chain(consts: list, true_post: bool) -> str:
    """`y` counts the branches taken. The constants are distinct, so at
    most one branch is taken and 0 <= ret holds on every path, while
    ret = 0 fails for x = consts[0], a literal of the program and hence
    inside the enumeration domain."""
    lines = ["func chain(x) {", "  y := 0;"]
    lines += [f"  if (x = {c}) {{ y := y + 1 }} else {{ skip }};" for c in consts]
    lines += ["  return y", "}", "", "spec SL chain(x) {", "  requires: x = #x * emp;"]
    lines.append(f"  ensures_ok: {'(0 <= ret)' if true_post else '(ret = 0)'} * emp;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _chain_consts(rng: random.Random, n: int) -> list:
    # outside the default value domain (0..3), so every seed adds exactly
    # n literals to the enumeration domain; sorted, so that each branch's
    # constant has the same rank in the enumeration order for every seed
    return sorted(rng.sample(range(4, 100), n))


# The first cell's address is fixed, which keeps one models_of search
# within a few seconds; the post still fails whenever #x and #y differ.
SWAP_UNCHANGED = """\
func swap(a, b) {
  x := lookup(a);
  y := lookup(b);
  mutate(a, y);
  mutate(b, x);
  return nil
}

spec SL swap(a, b) {
  requires: a = #a * b = #b * (#a = 1) * cell(#a; #x) * cell(#b; #y);
  ensures_ok: cell(#a; #x) * cell(#b; #y) * ret = nil;
}
"""

# ROADMAP open item 1: `f 99` misses, so the spec is not valid.
OPEN_ITEM_1 = """\
func f(x) {
  if (x + 1 = 100) { y := lookup(x) } else { skip };
  return nil
}

spec SL f(x) {
  requires: x = #x * (0 <= #x);
  ensures_ok: ret = nil;
}
"""


def straight_line(n: int) -> str:
    """n increments of a parameter: a non-numeric argument errs at the
    first one, which is a real ExprEval bug."""
    body = "".join("  x := x + 1;\n" for _ in range(n))
    return f"func inc(x) {{\n{body}  return x\n}}\n"


def use_after_free(addr: int, const: int) -> str:
    """A real bug: for p = const the cell is freed, then read."""
    return (
        "func uaf(p) {\n"
        f"  mutate({addr}, p);\n"
        f"  if (p = {const}) {{ free({addr}) }} else {{ skip }};\n"
        f"  y := lookup({addr});\n"
        "  return y\n"
        "}\n"
    )


def fresh_cell(value: int) -> str:
    """No bug: the cell new() returns is written and freed once."""
    return f"func fresh() {{\n  a := new();\n  mutate(a, {value});\n  free(a);\n  return nil\n}}\n"


def jobs(workload: str, seed: int, programs: str) -> list:
    """The job list of `workload` for `seed`; `programs` is the directory
    of the bundled fixtures."""
    rng = random.Random(f"{workload}/{seed}")
    common = ["--format", "json", "--seed", str(seed)]

    def verify(name, path, verdicts, codes, *extra, files=None, defect=None):
        return Job(name, ["verify", path, *extra, *common], expect_verify(verdicts, codes),
                   files or {}, defect)

    def bugs(name, path, functions, buggy, *extra, files=None, defect=None):
        return Job(name, ["find-bugs", path, *extra, *common], expect_bugs(functions, buggy),
                   files or {}, defect)

    if workload == "verify-pass":
        fixtures = [
            ("verify_suite.ph", "linear", ["alloc_pair#0", "identity#0", "read#0", "write_then_read#0"]),
            ("verify_frac.ph", "frac", ["overwrite#0", "read_shared#0"]),
            ("verify_block.ph", "block-offset", ["alloc_block#0", "first#0"]),
            ("verify_objects.ph", "objects", ["fresh_obj#0", "get_field#0"]),
        ]
        out = [
            verify(f"fixture:{fname}", f"{programs}/{fname}", dict.fromkeys(specs, VERIFIED), {0},
                   "--model", model)
            for fname, model, specs in fixtures
        ]
        out.append(verify("swap.ph", f"{programs}/swap.ph",
                          {"get#0": VERIFIED, "swap#0": VERIFIED}, {0}, "--bounds-values", "0,1,2,3"))
        for n in (7, 8):
            src = if_chain(_chain_consts(rng, n), true_post=True)
            out.append(verify(f"chain-true-{n}", f"chain_true_{n}.ph", {"chain#0": VERIFIED}, {0},
                              files={f"chain_true_{n}.ph": src}))
        return out

    if workload == "verify-fail":
        out = []
        for n in (3, 4):
            src = if_chain(_chain_consts(rng, n), true_post=False)
            out.append(verify(f"chain-false-{n}", f"chain_false_{n}.ph", {"chain#0": {"Failed"}}, {1},
                              files={f"chain_false_{n}.ph": src}))
        out.append(verify("swap-unchanged", "swap_unchanged.ph", {"swap#0": {"Failed"}}, {1},
                          "--bounds-values", "0,1", files={"swap_unchanged.ph": SWAP_UNCHANGED}))
        out.append(verify("open-item-1", "open_item_1.ph", {"f#0": NOT_VERIFIED}, {1, 4},
                          files={"open_item_1.ph": OPEN_ITEM_1}, defect="unsound-verified"))
        return out

    if workload == "find-bugs":
        return [
            bugs("bugs.ph", f"{programs}/bugs.ph", {"read_missing", "use_after_free"}, {"use_after_free"}),
            # nil is the non-numeric argument that makes `x + 1` err
            bugs("straight-20", "straight_20.ph", {"inc"}, {"inc"}, "--bounds-values", "0,1,nil",
                 files={"straight_20.ph": straight_line(20)}),
            # the freeing branch's constant is in the domain 0..3
            bugs("use-after-free", "uaf.ph", {"uaf"}, {"uaf"}, "--bounds-values", "0,1,2,3",
                 files={"uaf.ph": use_after_free(rng.choice((1, 2)), rng.randrange(4))}),
            bugs("fresh-cell", "fresh.ph", {"fresh"}, set(),
                 files={"fresh.ph": fresh_cell(rng.randrange(4))}, defect="fresh-type-reports"),
        ]

    if workload == "check-model":
        cells = {(c, m) for c in ("pcm", "frame", "action", "cp") for m in ("ox", "ux")}
        # three small search spaces rather than one large one: every job
        # stays near 1 s (see the module docstring)
        spaces = {
            "frac-values-0": ["--bounds-values", "0"],
            "frac-values-0..2-cells-1": ["--bounds-values", "0,1,2", "--bounds-cells", "1"],
            "frac-values-0..3-cells-1": ["--bounds-values", "0,1,2,3", "--bounds-cells", "1"],
        }
        return [Job(name, ["check-model", "frac", *space, *common], expect_conformance(cells))
                for name, space in spaces.items()]

    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
