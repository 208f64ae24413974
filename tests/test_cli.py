import json
import os
import subprocess
import sys

import pytest

from conftest import programs_dir

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "polyheap.cli", *args],
        capture_output=True,
        text=True,
        cwd=os.path.join(os.path.dirname(__file__), ".."),
    )
    return proc


def prog(name):
    return os.path.join(programs_dir(), name)


def test_run_ok_exit_zero():
    p = run_cli("run", prog("verify_suite.ph"), "identity", "7")
    assert p.returncode == 0
    assert "ok: 7" in p.stdout


def test_run_fault_exit_three():
    p = run_cli("run", prog("bugs.ph"), "read_missing")
    assert p.returncode == 3
    assert "MissingCell" in p.stdout


def test_run_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.ph"
    bad.write_text("func f( { skip; return 0 }")
    p = run_cli("run", str(bad), "f")
    assert p.returncode == 2


def test_deep_program_exit_two(tmp_path):
    deep = tmp_path / "deep.ph"
    deep.write_text("func f(x) { " + "x := x + 1; " * 1500 + "return x }")
    p = run_cli("run", str(deep), "f", "1")
    assert p.returncode == 2
    assert p.stderr.strip() == "error: program nests too deeply"


def test_verify_fixture_exit_zero():
    p = run_cli("verify", prog("verify_suite.ph"), "--bounds-values", "nil,0,1,2,7")
    assert p.returncode == 0, p.stdout + p.stderr


def test_verify_wrong_post_exit_one(tmp_path):
    f = tmp_path / "wrong.ph"
    f.write_text(
        """
        func k(x) { y := lookup(x); return y }
        spec SL k(x) { requires: x = #x * cell(#x; #v); ensures_ok: cell(#x; 0) * ret = #v; }
        """
    )
    p = run_cli("verify", str(f), "--format", "json")
    assert p.returncode == 1
    report = json.loads(p.stdout)
    (item,) = report["results"]
    assert item["verdict"] == "Failed"
    assert item["failing_paths"]


def test_verify_unknown_function_exit_two(tmp_path):
    f = tmp_path / "ghost.ph"
    f.write_text("spec SL ghost(x) { requires: x = #x * emp; ensures_ok: True; }")
    p = run_cli("verify", str(f))
    assert p.returncode == 2


def test_findbugs_exit_codes():
    p = run_cli("find-bugs", prog("bugs.ph"), "--entry", "use_after_free")
    assert p.returncode == 3
    quiet = run_cli("find-bugs", prog("verify_suite.ph"), "--entry", "identity")
    assert quiet.returncode == 0


def test_findbugs_unsupported_model_exit_five():
    p = run_cli("find-bugs", prog("bugs.ph"), "--model", "chunks")
    assert p.returncode == 5


@pytest.mark.parametrize(
    "argv,error",
    [
        (
            ("find-bugs", prog("bugs.ph"), "--model", "block-offset"),
            "error: action 'lookup' takes 2 argument(s) under model block-offset, not 1",
        ),
        (
            ("find-bugs", prog("bugs.ph"), "--model", "objects"),
            "error: model objects has no action 'free'",
        ),
        (
            ("verify", prog("verify_block.ph")),
            "error: action 'lookup' takes 1 argument(s) under model linear, not 2",
        ),
    ],
    ids=["find-bugs-block-offset", "find-bugs-objects", "verify-linear"],
)
def test_program_that_does_not_fit_the_model_exit_two(argv, error):
    p = run_cli(*argv)
    assert p.returncode == 2
    assert p.stderr == error + "\n"
    assert p.stdout == ""


def test_run_action_argument_count_exit_two(tmp_path):
    f = tmp_path / "wide.ph"
    f.write_text("func f() { x := lookup(1, 2); return x }")
    p = run_cli("run", str(f), "f")
    assert p.returncode == 2
    assert p.stderr == "error: action 'lookup' takes 1 argument(s) under model linear, not 2\n"


def test_run_target_count_stays_a_runtime_error(tmp_path):
    f = tmp_path / "targets.ph"
    f.write_text("func f() { a := new(); x, y := lookup(a); return x }")
    p = run_cli("run", str(f), "f")
    assert p.returncode == 3
    assert "ActionArgsLength" in p.stdout


_LOOKUP = "func f(x) {\n  v := lookup(x);\n  return v\n}\n"


@pytest.mark.parametrize(
    "source,error",
    [
        (
            _LOOKUP + "spec SL f(x) {\n  requires: x = #x * cell(#x; #v, 1);\n  ensures_ok: ret = #v;\n}\n",
            "error: resource 'cell' takes 1 in- and 1 out-parameter(s) under model linear, not 1 and 2",
        ),
        (
            _LOOKUP + "spec SL f(x) {\n  requires: x = #x * cell(#x; #v);\n"
            "  ensures_ok: cell(#x, 0; #v) * ret = #v;\n}\n",
            "error: resource 'cell' takes 1 in- and 1 out-parameter(s) under model linear, not 2 and 1",
        ),
        (
            _LOOKUP + "spec SL f(x) {\n  requires: x = #x * cel(#x; #v);\n  ensures_ok: ret = #v;\n}\n",
            "error: model linear has no resource 'cel'",
        ),
        (
            "pred p(+#x, #v) { cell(#x, 1; #v) }\n" + _LOOKUP
            + "spec SL f(x) {\n  requires: x = #x * p(#x; #v);\n  ensures_ok: ret = #v;\n}\n",
            "error: resource 'cell' takes 1 in- and 1 out-parameter(s) under model linear, not 2 and 1",
        ),
    ],
    ids=["pre-out-arity", "post-in-arity", "unknown-name", "predicate-body"],
)
def test_spec_resource_that_does_not_fit_the_model_exit_two(tmp_path, source, error):
    """Before this check the first three gave Inconclusive (exit 4),
    Failed (exit 1) and Inconclusive (exit 4)."""
    f = tmp_path / "spec.ph"
    f.write_text(source)
    p = run_cli("verify", str(f))
    assert p.returncode == 2
    assert p.stderr == error + "\n"
    assert p.stdout == ""


def test_checkmodel_unknown_exit_two():
    assert run_cli("check-model", "nope").returncode == 2
    assert run_cli("check-model", "cheri").returncode == 2


def test_json_reports_are_deterministic():
    args = (
        "find-bugs", prog("bugs.ph"), "--entry", "use_after_free",
        "--format", "json", "--seed", "3",
    )
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["seed"] == 3


@pytest.mark.skipif(jsonschema is None, reason="jsonschema unavailable")
def test_reports_validate_against_schema():
    schema = json.load(
        open(os.path.join(os.path.dirname(__file__), "..", "schema", "report.json"))
    )
    for args in (
        ("run", prog("verify_suite.ph"), "identity", "1", "--format", "json"),
        ("find-bugs", prog("bugs.ph"), "--entry", "read_missing", "--format", "json"),
        (
            "check-model", "linear", "--format", "json",
            "--bounds-values", "nil,0,1", "--trials", "200",
        ),
    ):
        p = run_cli(*args)
        jsonschema.validate(json.loads(p.stdout), schema)


def test_env_seed_fallback():
    env = dict(os.environ, POLYHEAP_SEED="11")
    p = subprocess.run(
        [sys.executable, "-m", "polyheap.cli", "run", prog("verify_suite.ph"),
         "identity", "1", "--format", "json"],
        capture_output=True, text=True, env=env,
        cwd=os.path.join(os.path.dirname(__file__), ".."),
    )
    assert json.loads(p.stdout)["seed"] == 11


def test_smtlib_dump(tmp_path):
    out = tmp_path / "dumps"
    p = run_cli(
        "verify", prog("verify_suite.ph"), "--solver", "smtlib-dump",
        "--smtlib-out", str(out), "--bounds-values", "nil,0,1,2,7",
    )
    assert p.returncode == 0
    files = sorted(out.glob("*.smt2"))
    assert files
    text = files[0].read_text()
    assert text.startswith("(set-logic ALL)")
    assert text.rstrip().endswith("(check-sat)")


def test_verify_inconclusive_exit_four(tmp_path):
    f = tmp_path / "inc.ph"
    f.write_text(
        """
        func f(x) { skip; return x }
        spec SL f(x) { requires: x = #x * cell(#x; 1) * cell(#x; 2); ensures_ok: True; }
        """
    )
    p = run_cli("verify", str(f))
    assert p.returncode == 4, (p.stdout, p.stderr)
