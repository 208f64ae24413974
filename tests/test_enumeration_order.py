"""Yield order of each map model's `generator` and `enumerate_splits`, and
of each model's `consume_res` and `produce_res` results.

The reports of `test_golden.py` print a witness only on a refutation, so
their small bounds do not see the order in which heaps and splits are
enumerated. That order is observable elsewhere: it picks the first
counterexample of `quadcheck` and the witnesses of `check-model` at default
bounds. This test pins it for each map model at `--bounds-values 0,1
--bounds-cells 2`: one line per generated heap, in generator order, with
the number of its splits and a SHA-256 prefix of their ordered listing.
The branch order of consume and produce picks witnesses and oracle
choices in the same way; it is pinned per resource case of the model
(`conformance._resource_cases`), over every generated heap lifted ground
and symbolic, with the number of consume and produce results and a
SHA-256 prefix of their ordered listing.
To regenerate the golden file after an announced change of order:

    PYTHONPATH=src python tests/test_enumeration_order.py > tests/golden/enumeration-order.txt
"""

import hashlib
import os
from fractions import Fraction

import pytest

from polyheap.conformance import _lift_styles, _resource_cases
from polyheap.memmodel import Bounds
from polyheap.models import get_model
from polyheap.oracle import Oracle
from polyheap.syntax import Lit

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "enumeration-order.txt")
MODELS = ("linear", "linear-unique", "frac", "block-offset", "objects")
CP_MODELS = ("linear", "linear-unique", "linear-cut", "frac", "block-offset", "objects", "chunks")
# what `--bounds-values 0,1 --bounds-cells 2` gives on the command line
BOUNDS = Bounds(value_domain=(0, 1), max_cells=2, max_addresses=3)


def canon(x) -> str:
    """A text form that keeps dict insertion order and sorts sets, whose
    iteration order depends on string hashing."""
    if isinstance(x, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in x.items()) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(canon(v) for v in x) + ")"
    if isinstance(x, (set, frozenset)):
        return "<" + ",".join(sorted(canon(v) for v in x)) + ">"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(x)


def splits_listing(cmm, mem) -> list:
    return [f"{canon(m1)} {canon(m2)}" for m1, m2 in cmm.enumerate_splits(mem)]


def lines(model: str) -> list:
    cmm = get_model(model).cmm
    out = []
    for mem in cmm.generator(BOUNDS):
        splits = splits_listing(cmm, mem)
        digest = hashlib.sha256("\n".join(splits).encode()).hexdigest()[:16]
        out.append(f"{canon(mem)} | {len(splits)} {digest}")
    return out


def cp_lines(model: str) -> list:
    b = get_model(model)
    mems = list(b.cmm.generator(BOUNDS))
    out = []
    for name, ins_v, outs_v in _resource_cases(b.rm, BOUNDS):
        ins, outs = tuple(map(Lit, ins_v)), tuple(map(Lit, outs_v))
        listing, n_consumed, n_produced = [], 0, 0
        for mem in mems:
            for smem, _ in _lift_styles(b.smm, mem):
                consumed = b.smm.consume_res(None, Oracle.constant(0), name, ins, smem)
                produced = b.smm.produce_res(name, ins, outs, smem)
                n_consumed += len(consumed)
                n_produced += len(produced)
                listing += [canon(r) for r in consumed] + ["|"] + [canon(r) for r in produced]
        digest = hashlib.sha256("\n".join(listing).encode()).hexdigest()[:16]
        out.append(f"{name}{canon(ins_v)}{canon(outs_v)} | {n_consumed} {n_produced} {digest}")
    return out


def _golden() -> dict:
    out, model = {}, None
    with open(GOLDEN, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# "):
                model = line[2:]
                out[model] = []
            else:
                out[model].append(line)
    return out


@pytest.mark.parametrize("model", MODELS)
def test_enumeration_order_matches_golden(model):
    want = _golden()[model]
    got = lines(model)
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            cmm = get_model(model).cmm
            shown = "\n".join(splits_listing(cmm, list(cmm.generator(BOUNDS))[i]))
            pytest.fail(f"{model}: heap {i} is now\n  {g}\nnot\n  {w}\nits splits now:\n{shown}")
    assert len(got) == len(want)


@pytest.mark.parametrize("model", CP_MODELS)
def test_consume_produce_order_matches_golden(model):
    assert cp_lines(model) == _golden()[f"consume-produce {model}"]


if __name__ == "__main__":
    for m in MODELS:
        print(f"# {m}")
        print("\n".join(lines(m)))
    for m in CP_MODELS:
        print(f"# consume-produce {m}")
        print("\n".join(cp_lines(m)))
