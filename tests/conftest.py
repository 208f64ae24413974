import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import pytest

from polyheap.memmodel import Bounds
from polyheap.models import get_model
from polyheap.values import NIL


@pytest.fixture
def linear():
    return get_model("linear")


@pytest.fixture
def small_bounds():
    return Bounds(value_domain=(NIL, 0, 1, 2), max_cells=2, max_addresses=3, trials=200, seed=0)


def programs_dir():
    return os.path.join(os.path.dirname(__file__), "..", "programs")


def sat_mem(smm, theta, mem, smem) -> bool:
    """smem denotes exactly mem under theta."""
    got = smm.concretize(theta, smem)
    return got is not None and got == mem
