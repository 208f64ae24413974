"""Angelic-choice oracles.

An oracle is an indexable infinite stream of naturals. Every angelic
choice reads index 0 and shifts by one, so `shift(k).query(n) ==
query(n + k)`; the `offset` field lets tests count how many choices a
rule consumed. Choice sets are always deterministically ordered, so a
prefix of naturals pins an execution path.

Every oracle also carries two read logs: `reads`, the absolute position
(`offset + n`) of every read, and `sizes`, the same reads as `(position,
choice-set size)` pairs, with size `None` for a raw `query`. `shift`
(hence `pick`) hands both lists on, so they collect every read made from
a root oracle and its descendants, including reads a memory model makes
directly. A `pick` sees its position only modulo the size of its choice
set, so a run behaves the same under any oracle that gives each of its
reads the same answer (`replays`); verification uses this to skip
prefixes that would replay an earlier run. Both logs are excluded from
equality, hashing and repr, so they never change how oracles compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Oracle:
    prefix: tuple = ()
    default: int = 0
    offset: int = 0
    reads: list = field(default_factory=list, compare=False, repr=False)
    sizes: list = field(default_factory=list, compare=False, repr=False)

    def query(self, n: int) -> int:
        return self._read(n, None)

    def _read(self, n: int, size) -> int:
        i = self.offset + n
        self.reads.append(i)
        self.sizes.append((i, size))
        return self.at(i)

    def at(self, i: int) -> int:
        """The value at absolute position `i`, without logging a read."""
        if i < len(self.prefix):
            return self.prefix[i]
        return self.default

    def shift(self, k: int) -> "Oracle":
        return Oracle(self.prefix, self.default, self.offset + k, self.reads, self.sizes)

    def pick(self, options: list):
        """One angelic choice: (chosen element, shifted oracle)."""
        if not options:
            raise ValueError("cannot pick from an empty choice set")
        idx = self._read(0, len(options)) % len(options)
        return options[idx], self.shift(1)

    def replays(self, run: "Oracle") -> bool:
        """Every read logged by `run` gets the same answer from this oracle
        (the same value, or the same value modulo the choice-set size), so a
        deterministic run under this oracle repeats `run`."""
        return all(
            self.at(i) == run.at(i) if n is None else self.at(i) % n == run.at(i) % n
            for i, n in run.sizes
        )

    @classmethod
    def constant(cls, value: int = 0) -> "Oracle":
        return cls((), value, 0)

    @classmethod
    def of(cls, *choices: int) -> "Oracle":
        return cls(tuple(choices), 0, 0)
