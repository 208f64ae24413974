import hashlib
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


def test_verify_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.ph"
    bad.write_text("func f( { return 0 }")
    p = run_cli("verify", str(bad))
    assert p.returncode == 2
    assert p.stderr.startswith("error: ") and "Traceback" not in p.stderr


def test_deep_program_exit_two(tmp_path):
    deep = tmp_path / "deep.ph"
    deep.write_text("func f(x) { " + "x := x + 1; " * 1500 + "return x }")
    p = run_cli("run", str(deep), "f", "1")
    assert p.returncode == 2
    assert p.stderr.strip() == "error: program nests too deeply"


def test_verify_fixture_exit_zero():
    p = run_cli("verify", prog("verify_suite.ph"), "--bounds-values", "nil,0,1,2,7")
    assert p.returncode == 0, p.stdout + p.stderr


def test_verify_choice_shared_by_sibling_paths_exit_zero():
    """f calls g (2 specs) on one branch and h (3 specs) on the other, at
    one choice position: only the choice 5 picks the last spec of both."""
    p = run_cli("verify", prog("verify_branch_specs.ph"))
    assert p.returncode == 0, p.stdout + p.stderr
    assert "f#0 [SL]: Verified" in p.stdout


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


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", prog("swap.ph"), "--budget", "1"),
        ("check-model", "frac", "--bounds-values", "0", "--budget", "1"),
        ("check-model", "frac", "--bounds-values", "0", "--model", "linear"),
    ],
    ids=["verify-budget", "check-model-budget", "check-model-model"],
)
def test_option_a_command_does_not_read_exit_two(argv, capsys):
    """`--budget` is read only by run and find-bugs, and check-model takes
    its model from its argument: an option the command would ignore is a
    usage error, exit 2, before any work."""
    from polyheap.cli import main

    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in err


def test_budget_is_read_where_it_is_accepted(tmp_path, capsys):
    """run still reads `--budget`: a budget of one call is exhausted by a
    function that calls another. find-bugs still accepts it."""
    from polyheap.cli import main

    f = tmp_path / "call.ph"
    f.write_text("func g(x) { skip; return x }\nfunc f(x) { y := g(x); return y }\n")
    assert main(["run", str(f), "f", "7", "--budget", "1"]) == 2
    assert capsys.readouterr().err == "error: call budget exhausted\n"
    assert main(["run", str(f), "f", "7", "--budget", "2"]) == 0
    assert main(["find-bugs", prog("bugs.ph"), "--entry", "use_after_free", "--budget", "1"]) == 3


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


_EVERY_COMMAND = (
    ("run", prog("verify_suite.ph"), "identity", "7"),
    ("verify", prog("swap.ph")),
    ("find-bugs", prog("bugs.ph")),
    ("check-model", "frac"),
)


@pytest.mark.parametrize(
    "options, env",
    [
        (("--bounds-values", "1,("), None),
        (("--bounds-values", "foo"), None),
        (("--bounds-cells", "-1"), None),
        (("--bounds-cells", "0"), None),
        (("--trials", "-3"), None),
        (("--trials", "0"), None),
        ((), "abc"),
    ],
    ids=["values-unclosed", "values-not-literal", "cells-negative", "cells-zero",
         "trials-negative", "trials-zero", "env-seed-not-int"],
)
def test_bad_bound_option_exit_two(options, env, monkeypatch, capsys):
    """A bound option that gives no bound is a configuration error under
    every command: exit 2 and one error line, before any work."""
    from polyheap.cli import main

    if env is not None:
        monkeypatch.setenv("POLYHEAP_SEED", env)
    for argv in _EVERY_COMMAND:
        assert main([*argv, *options]) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bad bound option: ") and err.count("\n") == 1


def test_smtlib_dump(tmp_path):
    """`--smtlib-out DIR` alone turns the dump on."""
    out = tmp_path / "dumps"
    p = run_cli(
        "verify", prog("verify_suite.ph"),
        "--smtlib-out", str(out), "--bounds-values", "nil,0,1,2,7",
    )
    assert p.returncode == 0
    files = sorted(out.glob("*.smt2"))
    assert files
    text = files[0].read_text()
    assert text.startswith("(set-logic ALL)")
    assert text.rstrip().endswith("(check-sat)")


# (argv, exit code, file count, SHA-256 of the files' bytes in name order):
# the path conditions the solver is asked about, each once, in first-asked
# order; the bytes do not depend on the hash seed
_SMTLIB_PINS = [
    (("verify", "swap.ph"), 0, 123,
     "e73477aae3858bfc259651bf4201449e616624a4742d2a6db771b876fe995eac"),
    (("verify", "verify_suite.ph", "--bounds-values", "nil,0,1,2,7"), 0, 21,
     "3c2bd875d346922553cf2d1f9e7859f4ac675798483a720e816960b80e69e6b5"),
    (("find-bugs", "bugs.ph"), 3, 5,
     "d1cf8b6c5bae619c0ff666ef1e6046e77de0b3e5cd23f659167f681f8fbbaf4c"),
]


@pytest.mark.parametrize("argv, code, count, sha", _SMTLIB_PINS, ids=["swap", "suite", "bugs"])
def test_smtlib_dump_is_pinned(argv, code, count, sha, tmp_path, capsys):
    from polyheap.cli import main

    out = tmp_path / "dumps"
    command, program, *rest = argv
    assert main([command, prog(program), *rest, "--smtlib-out", str(out)]) == code
    capsys.readouterr()
    files = sorted(out.iterdir())
    assert [f.name for f in files] == [f"pc_{n:05d}.smt2" for n in range(count)]
    assert hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest() == sha


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under-file"])
def test_unmakeable_smtlib_dir_exit_two(sub, tmp_path, capsys):
    """A dump directory that cannot be made (a regular file, or a path
    under one) is a configuration error under every command: exit 2 and
    one error line, before any work."""
    from polyheap.cli import main

    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in _EVERY_COMMAND:
        assert main([*argv, "--smtlib-out", str(blocker / sub)]) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    p = run_cli("verify", prog("swap.ph"), "--smtlib-out", str(blocker / sub))
    assert p.returncode == 2 and p.stdout == ""
    assert p.stderr.startswith("error: ") and p.stderr.count("\n") == 1
    assert "Traceback" not in p.stderr


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


_ONE_PROCESS = [
    ("run", prog("verify_suite.ph"), "identity", "7"),
    ("verify", prog("verify_suite.ph"), "--format", "json"),
    ("verify", prog("swap.ph"), "--budget", "1"),
    ("find-bugs", prog("bugs.ph"), "--entry", "use_after_free", "--format", "json"),
]


def test_one_parser_serves_every_command_of_a_process(capsys):
    """`main` builds its parser once per process: a run with positional
    arguments, a verify, a usage error (exit 2) and a find-bugs in one
    interpreter each print what they print alone and exit as they do."""
    from polyheap import cli

    for argv in _ONE_PROCESS:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        alone = run_cli(*argv)
        assert (code, out) == (alone.returncode, alone.stdout), argv
    assert cli._parser.cache_info().misses == 1
