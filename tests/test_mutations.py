"""Mutation tests: deliberately broken models must be refuted by the
matching conformance check (the harness is not vacuously green)."""

import copy

from polyheap.conformance import (
    check_action_soundness,
    check_cp_soundness,
    check_frame,
    check_pcm_laws,
)
from polyheap.memmodel import Bounds, MemoryModelBundle
from polyheap.models import get_model
from polyheap.outcomes import MISS, OK
from polyheap.syntax import Lit
from polyheap.values import NIL

B = Bounds(value_domain=(NIL, 0, 1), max_cells=2, max_addresses=3, trials=600, seed=0)


def rebundle(bundle, cmm=None, smm=None):
    return MemoryModelBundle(
        name=bundle.name + "-mutant",
        cmm=cmm or bundle.cmm,
        rm=bundle.rm,
        smm=smm or bundle.smm,
        declared_soundness=bundle.declared_soundness,
    )


def test_mutant_compose_drops_overlap():
    b = get_model("linear")
    broken = copy.copy(b.cmm)

    class _Broken(type(b.cmm)):
        def compose(self, x, y):
            return {**x, **y}

    broken.__class__ = _Broken
    r = check_pcm_laws(broken, B)
    assert not r.passed and r.witness["law"] in ("commutativity", "associativity")


def test_mutant_action_forgets_frame():
    """A lookup that answers from thin air on misses breaks the frame."""
    b = get_model("linear")
    broken = copy.copy(b.cmm)

    class _Broken(type(b.cmm)):
        def exec_action(self, mem, name, args, max_addresses):
            results = super().exec_action(mem, name, args, max_addresses)
            if name == "lookup":
                fixed = []
                for o, m2, outs in results:
                    if o is MISS:
                        fixed.append((OK, m2, (NIL,)))
                    else:
                        fixed.append((o, m2, outs))
                return fixed
            return results

    broken.__class__ = _Broken
    r = check_frame(broken, "ox", B, cap=30000)
    assert not r.passed


def drops_miss_branch():
    """linear with a symbolic exec_action that drops its miss branches."""
    b = get_model("linear")
    broken = copy.copy(b.smm)

    class _Broken(type(b.smm)):
        def exec_action(self, smem, name, args, fresh):
            return [
                br
                for br in super().exec_action(smem, name, args, fresh)
                if br[0] is not MISS
            ]

    broken.__class__ = _Broken
    return rebundle(b, smm=broken)


def invents_results():
    """linear with a symbolic lookup that returns a constant."""
    b = get_model("linear")
    broken = copy.copy(b.smm)

    class _Broken(type(b.smm)):
        def exec_action(self, smem, name, args, fresh):
            out = []
            for o, m2, pc, outs in super().exec_action(smem, name, args, fresh):
                if name == "lookup" and o is OK:
                    out.append((o, m2, pc, (Lit(0),)))
                else:
                    out.append((o, m2, pc, outs))
            return out

    broken.__class__ = _Broken
    return rebundle(b, smm=broken)


def consume_wrong_out():
    """linear with a consume that returns 1 for every out-parameter."""
    b = get_model("linear")
    broken = copy.copy(b.smm)

    class _Broken(type(b.smm)):
        def consume_res(self, mode, oracle, name, ins, smem):
            out = []
            for o, orc, outs, rest in super().consume_res(mode, oracle, name, ins, smem):
                if o is OK and outs:
                    out.append((o, orc, (Lit(1),) * len(outs), rest))
                else:
                    out.append((o, orc, outs, rest))
            return out

    broken.__class__ = _Broken
    return rebundle(b, smm=broken)


def produce_ignores_input():
    """linear with a produce that forgets the memory it produces into."""
    b = get_model("linear")
    broken = copy.copy(b.smm)

    class _Broken(type(b.smm)):
        def produce_res(self, name, ins, outs, smem):
            return super().produce_res(name, ins, outs, {})

    broken.__class__ = _Broken
    return rebundle(b, smm=broken)


def test_mutant_symbolic_drops_miss_branch():
    r = check_action_soundness(drops_miss_branch(), "ox", B, cap=1500)
    assert not r.passed
    assert r.witness["kind"] == "unmatched-concrete-step"


def test_mutant_symbolic_invents_results():
    """A symbolic lookup that returns a constant breaks realisability."""
    r = check_action_soundness(invents_results(), "ux", B, cap=1500)
    assert not r.passed


def test_mutant_consume_wrong_out():
    r = check_cp_soundness(consume_wrong_out(), "ux", B, cap=800)
    assert not r.passed


def test_mutant_produce_ignores_input():
    r = check_cp_soundness(produce_ignores_input(), "ux", B, cap=800)
    assert not r.passed
