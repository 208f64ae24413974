"""The pluggable memory-model interface.

A memory-model bundle packages:

  * a concrete memory model: the state type the concrete interpreter
    threads, with composition (forming a partial commutative monoid with
    the empty memory) and the concrete semantics of its actions;
  * a resource model: the model's atomic spatial assertions and the one
    heap each of them holds on;
  * a symbolic memory model: the symbolic state type, its satisfaction
    relation against concrete memories, symbolic action semantics, and
    the consume/produce operations the engine lifts into assertion
    consumption;
  * declared soundness: which of the over/under-approximate obligation
    suites (see polyheap.conformance) the model claims to satisfy.

Models are capability records: instances carry no mutable state and every
operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .values import NIL, TRUE, FALSE, value_key


class _Freed:
    """Negative-information marker recording deallocation (or deletion)."""

    __slots__ = ()

    def __repr__(self):
        return "freed"

    def __reduce__(self):
        return (_freed_instance, ())


def _freed_instance():
    return FREED


FREED = _Freed()


@dataclass(frozen=True)
class Bounds:
    """Finite search space for generators, enumeration and trials."""

    value_domain: tuple = (NIL, TRUE, FALSE, 0, 1, 2, 3, "a")
    max_cells: int = 2
    max_addresses: int = 3
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not self.value_domain:
            raise ValueError("value domain must be non-empty")
        if min(self.max_cells, self.max_addresses, self.trials) <= 0:
            raise ValueError("bounds must be positive")

    def key(self):
        return (
            tuple(value_key(v) for v in self.value_domain),
            self.max_cells,
            self.max_addresses,
            self.trials,
            self.seed,
        )

    def sorted_domain(self) -> list:
        return sorted(self.value_domain, key=value_key)

    def domain_with(self, *values) -> list:
        """The value domain widened by every value of the iterables
        `values`, without repeats and sorted by `value_key`: the values a
        bounded search draws from when a state or a condition holds values
        the bounds do not list."""
        return sorted(set(self.value_domain).union(*values), key=value_key)


DEFAULT_BOUNDS = Bounds()


class UnknownActionError(KeyError):
    pass


class ConcreteMemoryModel:
    """Concrete state type + actions. Subclasses provide everything;
    `actions` maps each action name to its (argument, result) counts."""

    actions: dict = {}

    @property
    def empty(self):
        raise NotImplementedError

    def is_wf(self, mem) -> bool:
        raise NotImplementedError

    def compose(self, a, b):
        """The partial composition operator; None when undefined."""
        raise NotImplementedError

    def exec_action(self, mem, name, args, max_addresses: int):
        """All results of running the action: [(Outcome, mem', values)],
        with `values` a tuple. Allocation enumerates the `max_addresses` least fresh addresses."""
        raise NotImplementedError

    def enumerate_splits(self, mem):
        """Bounded enumeration of (m1, m2) with m1 . m2 = mem."""
        raise NotImplementedError

    def generator(self, bounds: Bounds):
        """Deterministic stream of well-formed memories within bounds."""
        raise NotImplementedError

    def positions(self, mem, bounds: Bounds) -> list:
        """One sort key for each time `generator(bounds)` yields a memory
        equal to `mem`, ordered as the generator orders them. Keys from
        one model and one bounds compare with each other. This default
        scans the generator; a model that knows where its generator puts
        a memory computes them directly."""
        return [i for i, m in enumerate(self.generator(bounds)) if m == mem]

    def generated_values(self, bounds: Bounds) -> set:
        """The union of `mem_values` over every memory of `generator(bounds)`."""
        out = set()
        for m in self.generator(bounds):
            out |= self.mem_values(m)
        return out

    def action_cases(self, bounds: Bounds):
        """(name, args) pairs worth testing within bounds."""
        raise NotImplementedError

    def mem_values(self, mem):
        """Values syntactically present in the memory (for witness domains)."""
        raise NotImplementedError

    def addr_span(self, mem) -> int:
        """How many addresses the memory occupies; bounds the widening of
        fresh-address windows in the conformance harness."""
        return len(mem) if isinstance(mem, dict) else 0


class ResourceModel:
    """`arities` maps each resource name to its (in, out) parameter counts;
    the engine passes consume/produce only resources that fit it.

    Every resource is precise (O'Hearn, Yang and Reynolds, POPL 2004): for
    given in and out values it holds on at most one heap, its footprint.
    A model defines `footprint`; `holds_resource` is derived from it, so
    the two cannot disagree, and the bounded oracles may visit only the
    heap a star of resources names (see `satisfaction.footprint`)."""

    arities: dict = {}

    def footprint(self, name, ins, outs):
        """The one heap on which the resource holds, or None when it holds
        on no heap."""
        raise NotImplementedError

    def holds_resource(self, mem, name, ins, outs) -> bool:
        return mem == self.footprint(name, ins, outs)


class SymbolicMemoryModel:
    """Symbolic state type, satisfaction, actions, consume/produce."""

    @property
    def empty(self):
        raise NotImplementedError

    def concretize(self, theta, smem):
        """The unique concrete memory denoted by smem under theta, or None.
        All bundled models are symbolic liftings, so denotation is
        pointwise evaluation plus disjointness of the composition."""
        raise NotImplementedError

    def sat_mem(self, theta, mem, smem) -> bool:
        got = self.concretize(theta, smem)
        return got is not None and got == mem

    def lvars(self, smem) -> frozenset:
        raise NotImplementedError

    def exec_action(self, smem, name, args, fresh):
        """All symbolic results [(Outcome, smem', pc-conjunct tuple, outs)].
        miss/abort results must leave the memory unchanged. `fresh` yields
        fresh logical variable names: every logical variable of a result
        that is in neither `smem` nor `args` is a name that `fresh`
        returned during this call (the conformance harness takes a step's
        new variables from them)."""
        raise NotImplementedError

    def consume_res(self, mode, oracle, name, ins, smem):
        """[(Outcome, oracle', outs, (smem', check-conjuncts, pc-conjuncts))]
        for a resource whose name and in-arity fit the resource model's
        `arities`. check-conjuncts must be implied by the consuming state;
        pc-conjuncts are appended to its path condition. Apart from the
        returned oracles, the result depends only on the answers the oracle
        gives to the reads it makes (the conformance harness skips an
        oracle that would replay an earlier run). It introduces no logical
        variable: every one in a result is in `smem` or `ins`."""
        raise NotImplementedError

    def produce_res(self, name, ins, outs, smem):
        """[(smem', pc-conjuncts)] for a resource that fits the resource
        model's `arities`; empty when production is undefined. It introduces
        no logical variable: every one in a result is in `smem`, `ins` or
        `outs`."""
        raise NotImplementedError

    def mem_to_assertion(self, smem) -> list:
        """Render the memory as a list of resource-assertion conjuncts."""
        raise NotImplementedError

    def lift(self, mem, fresh, ground: bool):
        """Harness helper: a symbolic memory of the same shape as `mem`
        plus the interpretation tying them together. Ground lifting embeds
        values as literals; otherwise fresh logical variables name every
        position."""
        raise NotImplementedError

    # optional capability: bi-abductive fixes
    fixes = None


@dataclass(frozen=True)
class Soundness:
    ox: bool
    ux: bool


@dataclass(frozen=True)
class MemoryModelBundle:
    name: str
    cmm: ConcreteMemoryModel
    rm: ResourceModel
    smm: SymbolicMemoryModel
    declared_soundness: Soundness
