"""Command-line front end.

    polyheap run FILE ENTRY [ARG ...]     run a function concretely
    polyheap verify FILE                  verify every SL/ESL spec in FILE
    polyheap find-bugs FILE               bi-abductive bug-finding
    polyheap check-model MODEL            conformance matrix for a model

Reports are JSON (deterministic for identical file + configuration); the
human format is rendered from the same dictionary. Exit codes: 0 success,
1 verification failure / conformance mismatch, 2 parse or configuration
error (including a program whose actions or resource atoms do not fit the
model), 3 faults or bugs found, 4 inconclusive verification, 5 analysis
unsupported by the model.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import solver
from .analyses import Failed, Inconclusive, UnsupportedCapability, biabduct, verify_ox
from .assertions import Exists, Implies, Or, Res, Star, format_assertion
from .concrete import BudgetExhausted, run_function
from .conformance import run_conformance
from .memmodel import Bounds
from .models import MODEL_NAMES, get_model
from .outcomes import OK
from .parser import ParseError, parse_program
from .quadcheck import _freeze
from .syntax import Action, IfElse, Lit, Seq
from .values import value_to_json


def _parse_value(text: str):
    from .parser import _Parser

    p = _Parser(text.strip())
    e = p.expr()
    if p.peek().kind != "eof" or not isinstance(e, Lit):
        raise ValueError(f"not a literal value: {text!r}")
    return e.value


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polyheap", description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", default="linear", help=f"memory model ({', '.join(MODEL_NAMES)})")
        p.add_argument("--mode", choices=("ox", "ux", "ex"), default=None)
        p.add_argument("--bounds-values", default=None, help="comma-separated literal values")
        p.add_argument("--bounds-cells", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--budget", type=int, default=32)
        p.add_argument("--solver", choices=("builtin", "smtlib-dump"), default="builtin")
        p.add_argument("--smtlib-out", default=None, metavar="DIR")
        p.add_argument("--format", choices=("json", "human"), default="human")

    p_run = sub.add_parser("run", help="run a function concretely")
    p_run.add_argument("file")
    p_run.add_argument("entry")
    p_run.add_argument("args", nargs="*")
    common(p_run)

    p_verify = sub.add_parser("verify", help="verify function specifications")
    p_verify.add_argument("file")
    common(p_verify)

    p_bugs = sub.add_parser("find-bugs", help="bi-abductive bug finding")
    p_bugs.add_argument("file")
    p_bugs.add_argument("--entry", default=None, help="restrict to one function")
    common(p_bugs)

    p_check = sub.add_parser("check-model", help="conformance matrix for a model")
    p_check.add_argument("model_name")
    p_check.add_argument("--sabotage", action="store_true", help=argparse.SUPPRESS)
    common(p_check)
    return ap


def _bounds_from(ns) -> Bounds:
    kwargs = {}
    if ns.bounds_values:
        kwargs["value_domain"] = tuple(_parse_value(v) for v in ns.bounds_values.split(","))
    if ns.bounds_cells:
        kwargs["max_cells"] = ns.bounds_cells
        kwargs["max_addresses"] = max(3, ns.bounds_cells + 1)
    if ns.trials:
        kwargs["trials"] = ns.trials
    seed = ns.seed
    if seed is None:
        seed = int(os.environ.get("POLYHEAP_SEED", "0"))
    kwargs["seed"] = seed
    return Bounds(**kwargs)


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
    """The model and the parsed program of `ns`. ValueError when an action
    of the program is not in the model's `actions` table, or takes another
    number of arguments there, or when a resource atom of a specification
    or predicate body is not in the resource model's `arities` table, or
    has other in/out counts there."""
    bundle = get_model(ns.model)
    prog = parse_program(open(ns.file, encoding="utf-8").read())
    todo = [f.body for f in reversed(prog.functions.values())]
    while todo:
        c = todo.pop()
        if isinstance(c, Seq):
            todo += [c.second, c.first]
        elif isinstance(c, IfElse):
            todo += [c.els, c.then]
        elif isinstance(c, Action):
            if c.name not in bundle.cmm.actions:
                raise ValueError(f"model {bundle.name} has no action {c.name!r}")
            n_args = bundle.cmm.actions[c.name][0]
            if n_args != len(c.args):
                raise ValueError(
                    f"action {c.name!r} takes {n_args} argument(s) under model"
                    f" {bundle.name}, not {len(c.args)}"
                )
    todo = [p.body for p in reversed(prog.preds.values())]
    todo += [a for qs in reversed(prog.specs.values()) for q in reversed(qs)
             for a in (q.post_err, q.post_ok, q.pre)]
    while todo:
        a = todo.pop()
        if isinstance(a, (Star, Or, Implies)):
            todo += [a.right, a.left]
        elif isinstance(a, Exists):
            todo.append(a.body)
        elif isinstance(a, Res):
            if a.name not in bundle.rm.arities:
                raise ValueError(f"model {bundle.name} has no resource {a.name!r}")
            n_in, n_out = bundle.rm.arities[a.name]
            if (n_in, n_out) != (len(a.ins), len(a.outs)):
                raise ValueError(
                    f"resource {a.name!r} takes {n_in} in- and {n_out} out-parameter(s)"
                    f" under model {bundle.name}, not {len(a.ins)} and {len(a.outs)}"
                )
    return bundle, prog


def cmd_run(ns) -> int:
    bounds = _bounds_from(ns)
    try:
        bundle, prog = _load(ns)
        args = tuple(_parse_value(a) for a in ns.args)
    except (ParseError, ValueError, KeyError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.entry not in prog.functions:
        print(f"error: no function {ns.entry!r}", file=sys.stderr)
        return 2
    if len(args) != len(prog.functions[ns.entry].params):
        print("error: argument count does not match the function", file=sys.stderr)
        return 2
    try:
        results = run_function(
            prog.functions, ns.entry, args, bundle.cmm.empty, bundle.cmm,
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
    report = _report(ns, "run", items, bounds)
    sys.stdout.write(_emit(report, ns.format))
    return 0 if all_ok else 3


def cmd_verify(ns) -> int:
    bounds = _bounds_from(ns)
    try:
        bundle, prog = _load(ns)
    except (ParseError, ValueError, KeyError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
            try:
                verdict = verify_ox(
                    prog.functions, prog.specs, fid, q, bundle, prog.preds, bounds
                )
            except UnsupportedCapability as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 5
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
    report = _report(ns, "verify", items, bounds)
    sys.stdout.write(_emit(report, ns.format))
    if any_failed:
        return 1
    if any_inconclusive:
        return 4
    return 0


def cmd_findbugs(ns) -> int:
    bounds = _bounds_from(ns)
    try:
        bundle, prog = _load(ns)
    except (ParseError, ValueError, KeyError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    targets = [ns.entry] if ns.entry else sorted(prog.functions)
    items = []
    bug_count = 0
    for fid in targets:
        if fid not in prog.functions:
            print(f"error: no function {fid!r}", file=sys.stderr)
            return 2
        try:
            reports = biabduct(
                prog.functions, prog.specs, fid, bundle, prog.preds, bounds,
                budget=ns.budget,
            )
        except UnsupportedCapability as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 5
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
    report = _report(ns, "find-bugs", items, bounds)
    sys.stdout.write(_emit(report, ns.format))
    return 3 if bug_count else 0


def cmd_checkmodel(ns) -> int:
    bounds = _bounds_from(ns)
    try:
        bundle = get_model(ns.model_name)
    except (KeyError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.sabotage:
        from .models import sabotage

        bundle = sabotage(bundle)
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
    report = _report(ns, "check-model", items, bounds, model=ns.model_name, declared=declared)
    sys.stdout.write(_emit(report, ns.format))
    return 0 if ok else 1


def _report(ns, command, items, bounds: Bounds, model=None, **extra) -> dict:
    report = {
        "tool": "polyheap",
        "command": command,
        "model": model or getattr(ns, "model", None),
        "mode": getattr(ns, "mode", None),
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
    return report


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    if ns.solver == "smtlib-dump":
        out_dir = ns.smtlib_out or "smtlib-out"
        solver.enable_smtlib_dump(out_dir)
    try:
        if ns.command == "run":
            return cmd_run(ns)
        if ns.command == "verify":
            return cmd_verify(ns)
        if ns.command == "find-bugs":
            return cmd_findbugs(ns)
        if ns.command == "check-model":
            return cmd_checkmodel(ns)
        raise AssertionError(ns.command)
    except RecursionError:
        print("error: program nests too deeply", file=sys.stderr)
        return 2
    finally:
        solver.disable_smtlib_dump()


if __name__ == "__main__":
    sys.exit(main())
