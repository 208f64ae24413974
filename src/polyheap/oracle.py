"""Angelic-choice oracles, and `explore`, the one search over them.

An oracle is an indexable infinite stream of naturals. Every angelic
choice (`pick`) reads the value at the oracle's `offset` and shifts by
one, so `shift(k)` picks what the `k`-th later choice would; the `offset`
field lets tests count how many choices a rule consumed. Choice sets are
always deterministically ordered, so a prefix of naturals pins an
execution path. Every oracle carries a read log, `sizes`, shared with
the oracles `shift` derives from it: the `(position, choice-set size)`
of every pick, which `explore` follows. The log is excluded from
equality, hashing and repr.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Oracle:
    prefix: tuple = ()
    default: int = 0
    offset: int = 0
    sizes: list = field(default_factory=list, compare=False, repr=False)

    def at(self, i: int) -> int:
        """The value at absolute position `i`, without logging a read."""
        if i < len(self.prefix):
            return self.prefix[i]
        return self.default

    def shift(self, k: int) -> "Oracle":
        return Oracle(self.prefix, self.default, self.offset + k, self.sizes)

    def pick(self, options: list):
        """One angelic choice: (chosen element, shifted oracle). Sibling
        paths share positions, so two reads at one position can have
        different sizes: each wraps, modulo its size."""
        if not options:
            raise ValueError("cannot pick from an empty choice set")
        self.sizes.append((self.offset, len(options)))
        return options[self.at(self.offset) % len(options)], self.shift(1)

    @classmethod
    def constant(cls, value: int = 0) -> "Oracle":
        return cls((), value, 0)

    @classmethod
    def of(cls, *choices: int) -> "Oracle":
        return cls(tuple(choices), 0, 0)


def explore():
    """One oracle per distinct run of a deterministic computation, breadth
    first; the caller runs each before asking for the next. A run under
    prefix `p` answers 0 past `p`. Each position `i >= len(p)` it read,
    with `n` the least common multiple of the choice-set sizes read there,
    has the children `p` padded with zeros up to `i`, then `v` for `v` in
    `1 .. n-1`: they repeat the run below `i` and differ from it at `i`.
    A read of size `m` sees `v` modulo `m`, and every such `m` divides `n`,
    so `0 .. n-1` give each combination of answers that the reads at `i`
    can see once."""
    queue = deque([()])
    while queue:
        prefix = queue.popleft()
        oracle = Oracle(prefix, 0, 0)
        yield oracle
        width = {}
        for i, n in oracle.sizes:
            if i >= len(prefix):
                width[i] = math.lcm(n, width.get(i, 1))
        for i in sorted(width):
            padded = prefix + (0,) * (i - len(prefix))
            queue.extend(padded + (v,) for v in range(1, width[i]))
