"""Angelic-choice oracles.

An oracle is an indexable infinite stream of naturals. Every angelic
choice reads index 0 and shifts by one, so `shift(k).query(n) ==
query(n + k)`; the `offset` field lets tests count how many choices a
rule consumed. Choice sets are always deterministically ordered, so a
prefix of naturals pins an execution path.

Every oracle also carries a read log: `query` appends the absolute
position (`offset + n`) it reads, and `shift` (hence `pick`) hands the
same list on, so one log collects every read made from a root oracle
and its descendants, including reads a memory model makes directly. A
run that reads only positions below `k` behaves the same under any
oracle that agrees on those positions; verification uses this to skip
prefixes that would replay an earlier run. The log is excluded from
equality, hashing and repr, so it never changes how oracles compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Oracle:
    prefix: tuple = ()
    default: int = 0
    offset: int = 0
    reads: list = field(default_factory=list, compare=False, repr=False)

    def query(self, n: int) -> int:
        i = self.offset + n
        self.reads.append(i)
        return self.at(i)

    def at(self, i: int) -> int:
        """The value at absolute position `i`, without logging a read."""
        if i < len(self.prefix):
            return self.prefix[i]
        return self.default

    def shift(self, k: int) -> "Oracle":
        return Oracle(self.prefix, self.default, self.offset + k, self.reads)

    def pick(self, options: list):
        """One angelic choice: (chosen element, shifted oracle)."""
        if not options:
            raise ValueError("cannot pick from an empty choice set")
        idx = self.query(0) % len(options)
        return options[idx], self.shift(1)

    @classmethod
    def constant(cls, value: int = 0) -> "Oracle":
        return cls((), value, 0)

    @classmethod
    def of(cls, *choices: int) -> "Oracle":
        return cls(tuple(choices), 0, 0)
