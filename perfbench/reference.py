"""A fixed computation that child.py times right before every job.

A shared virtual machine switches between fast and slow phases that last
from seconds to minutes; a slow phase stretches wall and CPU time of
every computation by up to about 1.6 times. A job's time divided by the
time of this computation, measured a moment earlier, stays put across
phases, so the benchmark reports job times in units of it.

It is plain Python of the kind polyheap runs: recursive evaluation of
tuple-encoded expression trees, with a dict memo keyed on (tree, env).
It imports nothing from polyheap, so no change to polyheap can move it.
"""

from __future__ import annotations

import random


def _tree(rng: random.Random, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.2:
        return ("var", rng.randrange(6)) if rng.random() < 0.5 else ("lit", rng.randrange(4))
    return (rng.choice(("add", "eq", "and", "not")), _tree(rng, depth - 1), _tree(rng, depth - 1))


TREES = [_tree(random.Random(i), 9) for i in range(120)]
ENVS = ((0, 1, 2, 3, 0, 1), (1, 1, 0, 2, 3, 3), (2, 0, 1, 1, 0, 2))
OPS = {
    "add": lambda a, b: a + b,
    "eq": lambda a, b: int(a == b),
    "and": lambda a, b: int(bool(a) and bool(b)),
    "not": lambda a, b: int(not a),
}


def _eval(e: tuple, env: tuple, memo: dict) -> int:
    key = (e, env)
    if key in memo:
        return memo[key]
    if e[0] == "lit":
        v = e[1]
    elif e[0] == "var":
        v = env[e[1]]
    else:
        v = OPS[e[0]](_eval(e[1], env, memo), _eval(e[2], env, memo))
    memo[key] = v
    return v


def run() -> int:
    """Evaluate every tree under every env; about 0.035 s on the machine
    the benchmark was written on (REFERENCE_S in run.py)."""
    total = 0
    for env in ENVS:
        memo = {}
        for t in TREES:
            total += _eval(t, env, memo)
    return total
