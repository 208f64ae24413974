"""Byte-identity of CLI reports against committed golden files.

Each case runs `polyheap.cli.main` in process and compares its JSON report
with `tests/golden/<name>.json` byte for byte, and its exit code with the
recorded one. The check-model cases use small bounds so the whole matrix
stays fast; `linear-cut` is also run with two cells, which its action/ox
refutation needs. The find-bugs cases run at default bounds, so their
reports carry the bounded oracle's verdicts; `read_two.ph` makes it compose
the footprints of two resources, and `verify_block.ph` under block-offset
makes the replay compose fix heaps of several cells. `verify_pred.ph` is
the one bundled program that folds, unfolds and consumes a user-defined
predicate.
`swap.ph` runs at the bounds of the benchmark's verify-pass job. To
regenerate a file after an announced change of output:

    PYTHONPATH=src python -m polyheap.cli <argv...> > tests/golden/<name>.json
"""

import os

import pytest

from conftest import programs_dir
from polyheap.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SMALL = ("--bounds-values", "0,1", "--bounds-cells", "1")

CASES = [
    (f"check-model-{m}", ("check-model", m, *SMALL), 1 if m in ("linear-cut", "chunks") else 0)
    for m in (
        "linear", "linear-unique", "linear-cut", "linear-ox",
        "frac", "block-offset", "objects", "chunks",
    )
] + [
    ("check-model-linear-cut-cells2", ("check-model", "linear-cut", "--bounds-values", "0,1"), 0),
] + [
    (f"verify-{p}", ("verify", os.path.join(programs_dir(), f"{p}.ph"), "--model", m), 0)
    for p, m in (
        ("verify_suite", "linear"),
        ("verify_angelic", "linear"),
        ("verify_branch_specs", "linear"),
        ("verify_frac", "frac"),
        ("verify_block", "block-offset"),
        ("verify_objects", "objects"),
    )
] + [
    # aliasing paths: `models_of` searches them with the memory's pure facts
    ("verify-swap", ("verify", os.path.join(programs_dir(), "swap.ph"), "--bounds-values", "0,1,2,3"), 0),
] + [
    # a predicate unfolded and folded back; its third spec fails: exit 1
    ("verify-verify_pred", ("verify", os.path.join(programs_dir(), "verify_pred.ph"), "--model", "linear"), 1),
] + [
    # linear-ox and chunks declare no bug-finding soundness: exit 5, no report
    (f"find-bugs-bugs-{m}", ("find-bugs", os.path.join(programs_dir(), "bugs.ph"), "--model", m),
     5 if m in ("linear-ox", "chunks") else 3)
    for m in ("linear", "linear-unique", "linear-cut", "linear-ox", "frac", "chunks")
] + [
    (name, ("find-bugs", os.path.join(programs_dir(), "read_two.ph"), "--model", m), 0)
    for name, m in (("find-bugs-read_two", "linear"), ("find-bugs-read_two-frac", "frac"))
] + [
    # nested memories: replay composes fix heaps of several cells
    ("find-bugs-verify_block-block-offset",
     ("find-bugs", os.path.join(programs_dir(), "verify_block.ph"), "--model", "block-offset"), 3),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, code, capsys):
    assert main([*argv, "--format", "json"]) == code
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()
