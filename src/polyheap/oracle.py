"""Angelic-choice oracles.

An oracle is an indexable infinite stream of naturals. Every angelic
choice (`pick`) reads the value at the oracle's `offset` and shifts by
one, so `shift(k)` picks what the `k`-th later choice would; the `offset`
field lets tests count how many choices a rule consumed. Choice sets are
always deterministically ordered, so a prefix of naturals pins an
execution path.

Every oracle also carries a read log, `sizes`: the `(position,
choice-set size)` pair of every pick. `shift` (hence `pick`) hands the
list on, so it collects every read made from a root oracle and its
descendants, including reads a memory model makes directly. A `pick` sees
its position only modulo the size of its choice set, so a run behaves the
same under any oracle that gives each of its reads the same answer modulo
that size (`replays`); verification uses this to skip prefixes that would
replay an earlier run. The log is excluded from equality, hashing and
repr, so it never changes how oracles compare.
"""

from __future__ import annotations

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
        """One angelic choice: (chosen element, shifted oracle)."""
        if not options:
            raise ValueError("cannot pick from an empty choice set")
        self.sizes.append((self.offset, len(options)))
        return options[self.at(self.offset) % len(options)], self.shift(1)

    def replays(self, run: "Oracle") -> bool:
        """Every read logged by `run` gets the same answer from this oracle
        modulo its choice-set size, so a deterministic run under this oracle
        repeats `run`."""
        return all(self.at(i) % n == run.at(i) % n for i, n in run.sizes)

    @classmethod
    def constant(cls, value: int = 0) -> "Oracle":
        return cls((), value, 0)

    @classmethod
    def of(cls, *choices: int) -> "Oracle":
        return cls(tuple(choices), 0, 0)
