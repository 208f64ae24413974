"""Command-line front end.

    polyheap run FILE ENTRY [ARG ...]     run a function concretely
    polyheap verify FILE                  verify every SL/ESL spec in FILE
    polyheap find-bugs FILE               bi-abductive bug-finding
    polyheap check-model MODEL            conformance matrix for a model

Reports are JSON (deterministic for identical file + configuration); the
human format is rendered from the same dictionary. `--smtlib-out DIR`
writes each path condition the solver checks to DIR as an SMT-LIB file.
Exit codes: 0 success, 1 verification failure / conformance mismatch, 2
parse or configuration error (including a program whose actions or
resource atoms do not fit the model, a `--smtlib-out` directory that
cannot be made, and a bound option that gives no bound: a
`--bounds-values` item that is not a literal, a `--bounds-cells` or
`--trials` count below 1, a `POLYHEAP_SEED` that is not an integer), 3
faults or bugs found, 4 inconclusive verification, 5 analysis unsupported
by the model.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import solver
from .analyses import Failed, UnsupportedCapability, biabduct, verify_ox
from .assertions import Res, atoms, format_assertion
from .concrete import BudgetExhausted, run_function
from .conformance import run_conformance
from .memmodel import Bounds
from .models import MODEL_NAMES, get_model
from .outcomes import OK
from .parser import ParseError, _Parser, parse_program
from .quadcheck import Inconclusive, _freeze
from .syntax import Action, Lit, basic_cmds
from .values import value_to_json


def _parse_value(text: str):
    try:
        p = _Parser(text.strip())
        e = p.expr()
        if p.peek().kind == "eof" and isinstance(e, Lit):
            return e.value
    except ParseError:
        pass
    raise ValueError(f"not a literal value: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polyheap", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, model=True, budget=False):
        """The options of every command; check-model takes its model as
        an argument, and only run and find-bugs read a call budget."""
        if model:
            p.add_argument("--model", default="linear", help=f"memory model ({', '.join(MODEL_NAMES)})")
        p.add_argument("--bounds-values", default=None, help="comma-separated literal values")
        p.add_argument("--bounds-cells", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        if budget:
            p.add_argument("--budget", type=int, default=32)
        p.add_argument("--smtlib-out", default=None, metavar="DIR",
                       help="write each path condition the solver checks to DIR as SMT-LIB")
        p.add_argument("--format", choices=("json", "human"), default="human")

    p_run = sub.add_parser("run", help="run a function concretely")
    p_run.add_argument("file")
    p_run.add_argument("entry")
    p_run.add_argument("args", nargs="*")
    common(p_run, budget=True)

    p_verify = sub.add_parser("verify", help="verify function specifications")
    p_verify.add_argument("file")
    common(p_verify)

    p_bugs = sub.add_parser("find-bugs", help="bi-abductive bug finding")
    p_bugs.add_argument("file")
    p_bugs.add_argument("--entry", default=None, help="restrict to one function")
    common(p_bugs, budget=True)

    p_check = sub.add_parser("check-model", help="conformance matrix for a model")
    p_check.add_argument("model_name")
    common(p_check, model=False)
    return ap


def _bounds_from(ns) -> Bounds:
    """The bounds that the options of `ns` give. ValueError when an option
    does not give a value domain, a positive count or a seed."""
    kwargs = {}
    if ns.bounds_values is not None:
        kwargs["value_domain"] = tuple(_parse_value(v) for v in ns.bounds_values.split(","))
    if ns.bounds_cells is not None:
        kwargs["max_cells"] = ns.bounds_cells
        kwargs["max_addresses"] = max(3, ns.bounds_cells + 1)
    if ns.trials is not None:
        kwargs["trials"] = ns.trials
    seed = ns.seed
    if seed is None:
        seed = int(os.environ.get("POLYHEAP_SEED", "0"))
    return Bounds(seed=seed, **kwargs)


def _strip_human(obj):
    if isinstance(obj, dict):
        return {k: _strip_human(v) for k, v in obj.items() if k != "_human"}
    if isinstance(obj, list):
        return [_strip_human(v) for v in obj]
    return obj


def _emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_strip_human(report), sort_keys=True, indent=2) + "\n"
    return _render_human(report)


def _render_human(report: dict) -> str:
    lines = [f"polyheap {report['command']} (model={report.get('model', '-')}, seed={report['seed']})"]
    for item in report["results"]:
        lines.append("  " + item.pop("_human", json.dumps(item, sort_keys=True)))
    return "\n".join(lines) + "\n"


def _load(ns):
    """The model and the parsed program of `ns` (no program under
    check-model); under run, `ns.args` become values. ValueError when an
    action of the program is not in the model's `actions` table, or takes
    another number of arguments there, or when a resource atom of a
    specification or predicate body is not in the resource model's
    `arities` table, or has other in/out counts there."""
    if ns.command == "check-model":
        return get_model(ns.model_name), None
    bundle = get_model(ns.model)
    with open(ns.file, encoding="utf-8") as fh:
        prog = parse_program(fh.read())
    actions = [c for f in prog.functions.values() for c in basic_cmds(f.body)
               if isinstance(c, Action)]
    for c in actions:
        if c.name not in bundle.cmm.actions:
            raise ValueError(f"model {bundle.name} has no action {c.name!r}")
        n_args = bundle.cmm.actions[c.name][0]
        if n_args != len(c.args):
            raise ValueError(
                f"action {c.name!r} takes {n_args} argument(s) under model"
                f" {bundle.name}, not {len(c.args)}"
            )
    bodies = [a for qs in prog.specs.values() for q in qs for a in (q.pre, q.post_ok, q.post_err)]
    bodies += [p.body for p in prog.preds.values()]
    for a in [a for body in bodies for a, _ in atoms(body) if isinstance(a, Res)]:
        if a.name not in bundle.rm.arities:
            raise ValueError(f"model {bundle.name} has no resource {a.name!r}")
        n_in, n_out = bundle.rm.arities[a.name]
        if (n_in, n_out) != (len(a.ins), len(a.outs)):
            raise ValueError(
                f"resource {a.name!r} takes {n_in} in- and {n_out} out-parameter(s)"
                f" under model {bundle.name}, not {len(a.ins)} and {len(a.outs)}"
            )
    if ns.command == "run":
        ns.args = tuple(_parse_value(a) for a in ns.args)
    return bundle, prog


def cmd_run(ns, bounds: Bounds, bundle, prog) -> int:
    if ns.entry not in prog.functions:
        print(f"error: no function {ns.entry!r}", file=sys.stderr)
        return 2
    if len(ns.args) != len(prog.functions[ns.entry].params):
        print("error: argument count does not match the function", file=sys.stderr)
        return 2
    try:
        results = run_function(
            prog.functions, ns.entry, ns.args, bundle.cmm.empty, bundle.cmm,
            budget=ns.budget, max_addresses=bounds.max_addresses,
        )
    except BudgetExhausted:
        print("error: call budget exhausted", file=sys.stderr)
        return 2
    items = []
    all_ok = True
    for o, out, mem in results:
        all_ok = all_ok and o is OK
        items.append(
            {
                "outcome": o.value,
                "value" if o is OK else "error": value_to_json(out) if o is OK else repr(out),
                "memory": repr(_freeze(mem)),
                "_human": f"{o.value}: {out!r}  memory={mem!r}",
            }
        )
    _report(ns, items, bounds)
    return 0 if all_ok else 3


def cmd_verify(ns, bounds: Bounds, bundle, prog) -> int:
    for fid in prog.specs:
        if fid not in prog.functions:
            print(f"error: specification for unknown function {fid!r}", file=sys.stderr)
            return 2
    items = []
    any_failed = any_inconclusive = False
    for fid in sorted(prog.specs):
        for idx, q in enumerate(prog.specs[fid]):
            if q.flavor == "ISL":
                continue
            verdict = verify_ox(prog.functions, prog.specs, fid, q, bundle, prog.preds, bounds)
            item = {
                "spec": f"{fid}#{idx}",
                "flavor": q.flavor,
                "pre": format_assertion(q.pre),
                "verdict": type(verdict).__name__,
            }
            if isinstance(verdict, Failed):
                any_failed = True
                item["failing_paths"] = verdict.paths
            elif isinstance(verdict, Inconclusive):
                any_inconclusive = True
                item["reason"] = str(verdict.reason)
            item["_human"] = f"{fid}#{idx} [{q.flavor}]: {type(verdict).__name__}"
            items.append(item)
    _report(ns, items, bounds)
    if any_failed:
        return 1
    if any_inconclusive:
        return 4
    return 0


def cmd_findbugs(ns, bounds: Bounds, bundle, prog) -> int:
    targets = [ns.entry] if ns.entry else sorted(prog.functions)
    items = []
    bug_count = 0
    for fid in targets:
        if fid not in prog.functions:
            print(f"error: no function {fid!r}", file=sys.stderr)
            return 2
        reports = biabduct(
            prog.functions, prog.specs, fid, bundle, prog.preds, bounds, budget=ns.budget
        )
        for r in sorted(reports, key=lambda r: repr(r.key())):
            is_bug = r.outcome == "err" and not r.unrecoverable
            bug_count += int(is_bug)
            item = {
                "function": r.fid,
                "outcome": r.outcome,
                "bug": is_bug,
                "anti_heap": format_assertion(r.anti_heap) if r.anti_heap else None,
                "witness_pc": r.witness_pc,
                "replayed": r.replayed,
                "unrecoverable": r.unrecoverable,
            }
            if r.quadruple is not None:
                item["spec"] = {
                    "flavor": r.quadruple.flavor,
                    "pre": format_assertion(r.quadruple.pre),
                    "post_ok": format_assertion(r.quadruple.post_ok),
                    "post_err": format_assertion(r.quadruple.post_err),
                    "verdict": r.quadruple_verdict,
                }
            item["_human"] = (
                f"{r.fid}: {'BUG ' if is_bug else ''}{r.outcome}"
                f" anti-heap={format_assertion(r.anti_heap) if r.anti_heap else '-'}"
            )
            items.append(item)
    _report(ns, items, bounds)
    return 3 if bug_count else 0


def cmd_checkmodel(ns, bounds: Bounds, bundle, prog) -> int:
    results = run_conformance(bundle, bounds)
    declared = {"ox": bundle.declared_soundness.ox, "ux": bundle.declared_soundness.ux}
    items = []
    ok = True
    refuted = {"ox": False, "ux": False}
    for r in results:
        cell = {
            "check": r.check,
            "mode": r.mode,
            "verdict": "Pass" if r.passed else "Refuted",
            "trials": r.trials,
        }
        if r.witness:
            cell["witness"] = r.witness
        cell["_human"] = f"{r.check}/{r.mode}: {cell['verdict']} ({r.trials} trials)"
        items.append(cell)
        if not r.passed:
            refuted[r.mode] = True
            if declared[r.mode]:
                ok = False
    for mode, decl in declared.items():
        if not decl and not refuted[mode]:
            ok = False
            items.append(
                {
                    "check": "summary",
                    "mode": mode,
                    "verdict": "NoRefutation",
                    "_human": f"undeclared {mode} soundness was not refuted within bounds",
                }
            )
    _report(ns, items, bounds, declared=declared)
    return 0 if ok else 1


def _report(ns, items, bounds: Bounds, **extra):
    """Write the report of `ns.command` to stdout."""
    report = {
        "tool": "polyheap",
        "command": ns.command,
        "model": ns.model_name if ns.command == "check-model" else ns.model,
        # each analysis fixes its own engine mode; the key is kept for the schema
        "mode": None,
        "seed": bounds.seed,
        "bounds": {
            "values": [value_to_json(v) for v in bounds.sorted_domain()],
            "max_cells": bounds.max_cells,
            "max_addresses": bounds.max_addresses,
            "trials": bounds.trials,
        },
        "results": items,
    }
    report.update(extra)
    sys.stdout.write(_emit(report, ns.format))


_COMMANDS = {"run": cmd_run, "verify": cmd_verify, "find-bugs": cmd_findbugs,
             "check-model": cmd_checkmodel}


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command and return its exit code. The argument parser is
    built once per process, on first use: the bench and the tests call
    `main` many times in one interpreter, and building it costs far more
    than a parse."""
    ns = _parser().parse_args(argv)
    try:
        bounds = _bounds_from(ns)
    except ValueError as exc:
        print(f"error: bad bound option: {exc}", file=sys.stderr)
        return 2
    try:
        try:
            if ns.smtlib_out is not None:
                solver.enable_smtlib_dump(ns.smtlib_out)
            bundle, prog = _load(ns)
        except (ParseError, ValueError, KeyError, NotImplementedError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return _COMMANDS[ns.command](ns, bounds, bundle, prog)
    except UnsupportedCapability as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except RecursionError:
        print("error: program nests too deeply", file=sys.stderr)
        return 2
    finally:
        solver.disable_smtlib_dump()


if __name__ == "__main__":
    sys.exit(main())
