"""Three-valued satisfiability and entailment for path conditions.

The built-in backend is a rewriting core (constant folding, equality
congruence closure, numeric interval closure over literals) on top of
bounded model enumeration:

  * Sat is only ever reported with a witness that replays to true.
  * Unsat is reported when the rewriting core derives a contradiction, or
    when the condition is ground (no logical variables) and false.
  * everything else is Unknown.

The solver answers two questions. `refuted(pc, bounds)` asks the core
alone and is True exactly when `check_sat(pc, bounds)` is Unsat. SL
verification (OX, EX) keeps every path the core does not refute, so the
engine asks `refuted` there, and wherever it reads only "not Unsat" (the
consume and produce prunes). `check_sat` asks the core and then searches
for a bounded witness: ISL bug-finding (UX) keeps only the paths it shows
satisfiable, and the engine harness and `verify`'s failing-path
classifier ask it too. Both read and fill one `_sat_cache` entry per
`(pc, bounds.key())`. When the core does not refute `pc`, `refuted`
stores a marker (`_OPEN`), so a later `check_sat` runs only the search.
The SMT-LIB dump writes `pc` on the first question about that entry,
whichever question it is.

The core looks inside branch guards: a conjunct `g = true` also asserts
`g`, and `g = false` asserts `Not(g)`, which is exact under `eval_lexpr`.
So the guards of two `if`s taken on one path (`x = 7`, `x = 9`) clash in
the core and the path is Unsat instead of Unknown. It also knows that `=`,
`<`, `<=`, `and`, `or`, `not` and the membership tests give a Bool wherever
they are defined, so the `if-err-type` branch of a defined guard is Unsat.

The core resumes from the longest closed prefix. Its first pass reads the
conjuncts in order, and what it has built after a conjunct (union-find,
disequalities, positive and negated atoms, types, intervals, rewritten
conjuncts, whether a rewrite changed anything or clashed) depends only on
the conjuncts read so far. A path condition only grows along a path, so
`RewriteCore(pc)` starts from a copy of the first-pass state stored for
the longest prefix of `pc` closed before, reads only the rest, and stores
its own; the later passes and the sweeps then run over the whole as
before. The result is the one a closure from scratch gives, in the spirit
of incremental congruence closure (Nieuwenhuis and Oliveras, 2007).
Cores are shared: `check_sat` and `entails` get the closed core of a
conjunct tuple from one lookup (`_core`), which builds it on a miss and
stores it next to the tuple's pass-1 state. A closed core is only read,
so `entails(pc, e)` right after `check_sat(pc)` builds no second core
for `pc`. The core's hot paths lean on identity and exact types: `_find`
tells a root by `is`, since no `parent` entry maps a node to an equal
node (`_union` returns on equal roots), and `_fold` and `rewrite`
dispatch on `type(e)`, since the node classes have no subclasses.
`clear_caches` empties the stored states and cores with the `check_sat`
and `entails` verdict caches.

Terms along a path share their subterms: after `x := x + 1` steps the
path condition holds `x + 1 + ... + 1` at every depth. So each node works
a fact out once and keeps it in a slot of `syntax.Expr`: its hash, its
fold (`_fold`), its literal values (`_literals_in`), its variables
(`lv_expr`, `pv_expr`) and its text (`format_expr`). That is exact:
nodes are frozen, so a cached fact never goes stale, and the hash keeps
the dataclass formula, so set and dict orders, and the reports, do not
move. Folding returns a node none of whose children changed as it is, so
`rewrite` folds only the nodes it builds. `evaluation.all_true` evaluates the
conjuncts under one interpretation with one memo keyed by node identity, so
a shared subterm such as `x + 1 + ... + 1` is evaluated once per
interpretation, not once per conjunct; the memo lives only for the call,
while the nodes and the interpretation stay fixed.

Every bounded search for interpretations is one search, `extensions`: it
extends a base interpretation over sorted variables, backtracking, and
checks each conjunct as soon as its last variable is decided, so a failed
conjunct prunes every extension. It yields exactly what filtering the
`itertools.product` of the options by the whole condition yields, in the
same order and with the same key order. An `_OMIT` option leaves a
variable unbound, so `models` is `extensions` of the empty interpretation
with options `domain + [_OMIT]` whenever the space is within `_ENUM_CAP`,
the one enumeration cap (`quadcheck` reads it too); above it `models`
samples. With no variable to decide, `extensions` checks the base
interpretation alone: the engine and conformance harnesses ask that often.
Domains come from `Bounds.domain_with`.

Path conditions are tuples of program-variable-free expressions, read
conjunctively.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from random import Random

from .evaluation import all_true, eval_lexpr
from .syntax import TRUE_E, Bin, Expr, InType, InVal, Lit, LstE, LVar, Not, PVar, lv_expr, pv_expr, set_union
from .values import FALSE, TRUE, UNDEF, is_nat, is_rat, type_name, value_key

FALSE_E = Lit(FALSE)


class PathCondError(ValueError):
    pass


def fold_expr(e: Expr):
    """Bottom-up constant folding. Ground subterms that evaluate to a value
    become literals; the rest keeps its shape."""
    return _fold(e)[0]


def _with_sides(e: Bin, left: Expr, right: Expr) -> Bin:
    """`e` over the given sides: `e` itself when they are its own."""
    return e if left is e.left and right is e.right else Bin(e.op, left, right)


def _with_arg(e, arg: Expr):
    """`e` (a Not, InVal or InType) over `arg`: `e` itself when it is its own."""
    if arg is e.arg:
        return e
    t = type(e)
    return InType(arg, e.tau) if t is InType else t(arg)


def _with_items(e: LstE, items: tuple) -> LstE:
    return e if all(a is b for a, b in zip(items, e.items)) else LstE(items)


_set_f = Expr._f.__set__
_set_l = Expr._l.__set__


def _fold(e: Expr):
    """One pass of `fold_expr`: returns (folded, ground), where ground means
    no logical or program variable occurs. A ground subterm that evaluates
    to UNDEF stays unfolded, yet its parent may still fold (`InVal(1 + nil)`
    is `false`), so groundness comes from the children, not from literals.

    The result is cached on `e`, and on the rebuilt node when that is the
    result (folding is idempotent). A node none of whose children changed
    is its own result, so a folded term refolds in one cache hit and a
    term built from folded parts folds only its new nodes."""
    t = type(e)
    if t is Lit:
        return e, True
    if t is LVar or t is PVar:
        return e, False
    try:
        return e._f
    except AttributeError:
        pass
    if t is Bin:
        (l, gl), (r, gr) = _fold(e.left), _fold(e.right)
        e2, ground = _with_sides(e, l, r), gl and gr
    elif t is Not or t is InVal or t is InType:
        a, ground = _fold(e.arg)
        e2 = _with_arg(e, a)
    elif t is LstE:
        items = [_fold(i) for i in e.items]
        e2, ground = _with_items(e, tuple(i for i, _ in items)), all(g for _, g in items)
    else:
        raise TypeError(f"not an expression: {e!r}")
    out = (e2, ground)
    if ground:
        v = eval_lexpr(e2, {}, {})
        if v is not UNDEF:
            out = (Lit(v), True)
    _set_f(e, out)
    if e2 is not e and out[0] is e2:
        _set_f(e2, out)
    return out


def pc_extend(pc: tuple, conjuncts) -> tuple:
    """Append folded conjuncts, dropping trivial truths and duplicates;
    `pc` itself when nothing is added."""
    out = None
    for c in conjuncts:
        if pv_expr(c):
            raise PathCondError(f"path condition mentions program variables: {c}")
        f = fold_expr(c)
        if f == TRUE_E:
            continue
        if out is None:
            out, seen = list(pc), set(pc)
        if f not in seen:
            out.append(f)
            seen.add(f)
    return tuple(pc) if out is None or len(out) == len(pc) else tuple(out)


def pc_lvars(pc) -> frozenset:
    return frozenset().union(*map(lv_expr, pc))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sat:
    witness: dict  # interpretation making every conjunct true


class _Unsat:
    def __repr__(self):
        return "Unsat"


class _Unknown:
    def __repr__(self):
        return "Unknown"


UNSAT = _Unsat()
UNKNOWN = _Unknown()


class Entail(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# Rewriting core
# ---------------------------------------------------------------------------


class _Interval:
    __slots__ = ("lo", "hi", "integral")

    def __init__(self):
        self.lo = None  # (Fraction bound, strict) or None
        self.hi = None
        self.integral = False

    def copy(self) -> _Interval:
        iv = _Interval()
        iv.lo, iv.hi, iv.integral = self.lo, self.hi, self.integral
        return iv

    def add_lo(self, bound: Fraction, strict: bool) -> bool:
        cur = self.lo
        if cur is None or bound > cur[0] or (bound == cur[0] and strict and not cur[1]):
            self.lo = (bound, strict)
        return self._consistent()

    def add_hi(self, bound: Fraction, strict: bool) -> bool:
        cur = self.hi
        if cur is None or bound < cur[0] or (bound == cur[0] and strict and not cur[1]):
            self.hi = (bound, strict)
        return self._consistent()

    def _consistent(self) -> bool:
        if self.lo is None or self.hi is None:
            return True
        (lo, ls), (hi, hs) = self.lo, self.hi
        if lo > hi:
            return False
        if lo == hi and (ls or hs):
            return False
        if self.integral:
            low = lo + 1 if ls and lo.denominator == 1 else Fraction(math.ceil(lo))
            high = hi - 1 if hs and hi.denominator == 1 else Fraction(math.floor(hi))
            if low > high:
                return False
        return True


def _is_boolean(e: Expr) -> bool:
    return isinstance(e, (Not, InVal, InType)) or (
        isinstance(e, Bin) and e.op in ("=", "<", "<=", "and", "or")
    )


class RewriteCore:
    """One satisfiability core for a conjunction: congruence closure over
    equalities, complement detection, interval closure for numeric
    comparisons against literals. `contradiction` is sound: when True, the
    conjunction has no model over the unbounded domain."""

    def __init__(self, conjuncts):
        conjuncts = tuple(conjuncts)
        k, state = _resume_point(conjuncts)
        self._restore(state)
        if self.contradiction:
            self.conjuncts += [fold_expr(c) for c in conjuncts[k:]]
        else:
            # pass 1 over the conjuncts that the stored prefix has not read
            for c in conjuncts[k:]:
                self.changed |= self._step(fold_expr(c), self.conjuncts)
                if self.contradiction:
                    # as a pass that fails: the input conjuncts stay
                    self.conjuncts = [fold_expr(c) for c in conjuncts]
                    break
        _put(_closed, conjuncts, (self._pass1_state(), None))
        self._close()

    def _pass1_state(self):
        """A copy of everything pass 1 has built; it depends only on the
        conjuncts read so far."""
        return (
            dict(self.parent),
            tuple(self.diseq),
            frozenset(self.pos),
            frozenset(self.neg),
            dict(self.types),
            {n: iv.copy() for n, iv in self.intervals.items()},
            tuple(self.conjuncts),
            self.changed,
            self.contradiction,
        )

    def _restore(self, state):
        """Start from a copy of a stored pass-1 state, or from nothing."""
        if state is None:
            state = ({}, (), (), (), {}, {}, (), False, False)
        parent, diseq, pos, neg, types, intervals, conjuncts, self.changed, self.contradiction = state
        self.parent = dict(parent)
        self.diseq = list(diseq)
        self.pos = set(pos)  # rewritten non-negated conjuncts
        self.neg = set(neg)  # rewritten e with Not(e) a conjunct
        self.types = dict(types)  # node -> type name it must have
        self.intervals = {n: iv.copy() for n, iv in intervals.items()}
        self.conjuncts = list(conjuncts)

    # union-find -------------------------------------------------------------

    def _find(self, e):
        # no key maps to a node equal to it (`_union` returns on equal
        # roots), so a miss returns `e` itself and `is` tells a root
        p = self.parent.get(e, e)
        if p is e:
            return e
        root = self._find(p)
        self.parent[e] = root
        return root

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        # prefer literal representatives
        if isinstance(ra, Lit):
            if isinstance(rb, Lit):
                if value_key(ra.value) != value_key(rb.value):
                    self.contradiction = True
                return
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb

    def _numeric_type(self, e: Expr):
        if isinstance(e, Lit):
            if is_nat(e.value):
                return "nat"
            if is_rat(e.value):
                return "rat"
            return None
        t = self.types.get(e)
        if t in ("nat", "rat"):
            return t
        iv = self.intervals.get(e)
        if iv is not None:
            return "nat" if iv.integral else "rat"
        return None

    def provably_defined(self, e: Expr) -> bool:
        """The expression evaluates to a value in every model of the
        conjunction."""
        if isinstance(e, Lit):
            return True
        if isinstance(e, (InVal, InType)):
            return True  # membership tests are total
        if InVal(e) in self.pos or e in self.types or e in self.intervals:
            return True
        if isinstance(e, Bin):
            if e.op == "=":
                return self.provably_defined(e.left) and self.provably_defined(e.right)
            if e.op in ("<", "<=", "+"):
                lt, rt = self._numeric_type(e.left), self._numeric_type(e.right)
                return lt is not None and lt == rt
        return False

    def rewrite(self, e: Expr) -> Expr:
        """Substitute known-equal literals into e and refold."""
        r = self._find(e)
        if type(r) is Lit:
            return r
        t = type(e)
        if t is Bin:
            e2 = _with_sides(e, self.rewrite(e.left), self.rewrite(e.right))
        elif t is Not or t is InVal or t is InType:
            e2 = _with_arg(e, self.rewrite(e.arg))
        elif t is LstE:
            e2 = _with_items(e, tuple(self.rewrite(i) for i in e.items))
        else:
            e2 = e
        e2 = _fold(e2)[0]  # only the nodes rebuilt above are new to `_fold`
        t = type(e2)
        if t is Bin:
            if e2.op == "=" and e2.left == e2.right and self.provably_defined(e2.left):
                return TRUE_E
        elif t is InVal and self.provably_defined(e2.arg):
            return TRUE_E
        r2 = self._find(e2)
        return r2 if type(r2) is Lit else e2

    # closure ----------------------------------------------------------------

    def _close(self):
        """Passes 2 and 3 over pass 1's output, then the sweeps."""
        changed = self.changed
        for _ in range(2):
            if self.contradiction or not changed:
                break
            changed = self._pass()
        if not self.contradiction:
            self._sweep()

    def _sweep(self):
        """Final contradiction sweeps over the closed state."""
        for a, b in self.diseq:
            ra, rb = self.rewrite(a), self.rewrite(b)
            # `rewrite` substitutes only literal representatives; two
            # variables made equal by absorbed equalities share a class
            if ra == rb or self._find(ra) == self._find(rb):
                self.contradiction = True
                return
        for e in self.pos:
            if e in self.neg:
                self.contradiction = True
                return
        for node, tau in self.types.items():
            n = self.rewrite(node)
            if isinstance(n, Lit):
                if type_name(n.value) != tau:
                    self.contradiction = True
                    return
        for e in self.neg:
            # a typed or numerically-bounded node is defined and typed
            if isinstance(e, InVal) and self.provably_defined(e.arg):
                self.contradiction = True
                return
            if isinstance(e, InType):
                # comparisons, connectives and membership tests give a
                # Bool wherever they are defined
                if e.tau == "bool" and _is_boolean(e.arg) and self.provably_defined(e.arg):
                    self.contradiction = True
                    return
                if self.types.get(e.arg) == e.tau:
                    self.contradiction = True
                    return
                if e.tau == "nat" and self.intervals.get(e.arg) is not None and self.intervals[e.arg].integral:
                    self.contradiction = True
                    return
        self._integer_exclusion()

    def _integer_exclusion(self):
        """Finite integral interval with every member excluded by a
        disequality against a literal."""
        excluded = {}
        for a, b in self.diseq:
            ra, rb = self.rewrite(a), self.rewrite(b)
            for node, lit in ((ra, rb), (rb, ra)):
                if isinstance(lit, Lit) and is_nat(lit.value):
                    excluded.setdefault(node, set()).add(lit.value)
        for node, iv in self.intervals.items():
            if not iv.integral or iv.lo is None or iv.hi is None:
                continue
            (lo, ls), (hi, hs) = iv.lo, iv.hi
            low = int(lo) + 1 if ls and lo.denominator == 1 else math.ceil(lo)
            high = int(hi) - 1 if hs and hi.denominator == 1 else math.floor(hi)
            if high - low > 32:
                continue
            bad = excluded.get(self.rewrite(node), set())
            if all(n in bad for n in range(low, high + 1)):
                self.contradiction = True
                return

    def _pass(self) -> bool:
        changed = False
        new_conjuncts = []
        self.pos = set()
        self.neg = set()
        self.intervals = {}
        for c in self.conjuncts:
            changed |= self._step(c, new_conjuncts)
            if self.contradiction:
                return False
        self.conjuncts = new_conjuncts
        return changed

    def _step(self, c: Expr, out: list) -> bool:
        """Rewrite one conjunct under the state built so far; keep it in
        `out` and absorb it unless it is true. Returns whether the rewrite
        changed it."""
        c2 = self.rewrite(c)
        if c2 != TRUE_E:
            if isinstance(c2, Lit):
                self.contradiction = True  # a non-true literal cannot hold
            elif not lv_expr(c2):
                self.contradiction = eval_lexpr(c2, {}, {}) is not TRUE
            else:
                out.append(c2)
                self._absorb(c2)
        return c2 != c

    def _absorb(self, c: Expr):
        if isinstance(c, Not):
            inner = c.arg
            self.neg.add(inner)
            if isinstance(inner, Bin):
                if inner.op == "=":
                    self.diseq.append((inner.left, inner.right))
                elif inner.op == "<":
                    # not(a < b) true means both numeric and b <= a
                    self._comparison(inner.right, "<=", inner.left)
                elif inner.op == "<=":
                    self._comparison(inner.right, "<", inner.left)
            return
        self.pos.add(c)
        if isinstance(c, Bin):
            if c.op == "=":
                self._union(c.left, c.right)
                # a branch guard: (g = true) holds iff g does, (g = false)
                # iff Not(g) does
                for g, lit in ((c.left, c.right), (c.right, c.left)):
                    if lit == TRUE_E:
                        self._absorb(g)
                    elif lit == FALSE_E:
                        self._absorb(Not(g))
            elif c.op in ("<", "<="):
                self._comparison(c.left, c.op, c.right)
            elif c.op == "and":
                self._absorb(c.left)
                self._absorb(c.right)
        elif isinstance(c, InType):
            tau = self.types.setdefault(c.arg, c.tau)
            if tau != c.tau:
                self.contradiction = True

    def _interval(self, node) -> _Interval:
        iv = self.intervals.get(node)
        if iv is None:
            iv = _Interval()
            self.intervals[node] = iv
        return iv

    def _numeric(self, lit):
        if is_nat(lit):
            return Fraction(lit), True
        if is_rat(lit):
            return lit.q, False
        return None, None

    def _put_type(self, node, tau):
        if isinstance(node, Lit):
            if type_name(node.value) != tau:
                self.contradiction = True
            return
        old = self.types.setdefault(node, tau)
        if old != tau:
            self.contradiction = True

    def _comparison(self, left, op, right):
        strict = op == "<"
        if isinstance(right, Lit):
            bound, integral = self._numeric(right.value)
            if bound is None:
                self.contradiction = True  # comparison against non-numeric literal
                return
            # order is only defined within one numeric type
            self._put_type(left, "nat" if integral else "rat")
            iv = self._interval(left)
            iv.integral = iv.integral or integral
            if integral:
                if not iv.add_lo(Fraction(0), False):
                    self.contradiction = True
            if not iv.add_hi(bound, strict):
                self.contradiction = True
        if isinstance(left, Lit):
            bound, integral = self._numeric(left.value)
            if bound is None:
                self.contradiction = True
                return
            self._put_type(right, "nat" if integral else "rat")
            iv = self._interval(right)
            iv.integral = iv.integral or integral
            if integral and not iv.add_lo(Fraction(0), False):
                self.contradiction = True
            if not iv.add_lo(bound, strict):
                self.contradiction = True

    def entails(self, e: Expr) -> bool:
        """True only when the core proves every model of the conjunction
        makes `e` evaluate to true."""
        if self.contradiction:
            return True
        r = self.rewrite(e)
        if r == TRUE_E:
            return True
        if r in self.pos:
            return True
        neg_core = RewriteCore(self.conjuncts + [Not(r)])
        undef_core = RewriteCore(self.conjuncts + [Not(InVal(r))])
        return neg_core.contradiction and undef_core.contradiction


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

_ENUM_CAP = 250_000


_NO_LITS = frozenset()


def _lits(e: Expr) -> frozenset:
    """The literal values occurring in `e`, cached on each compound node."""
    if isinstance(e, Lit):
        return frozenset((e.value,))
    if isinstance(e, (LVar, PVar)):
        return _NO_LITS
    try:
        return e._l
    except AttributeError:
        pass
    if isinstance(e, Bin):
        out = set_union(_lits(e.left), _lits(e.right))
    elif isinstance(e, (Not, InVal, InType)):
        out = _lits(e.arg)
    elif isinstance(e, LstE):
        out = _NO_LITS
        for i in e.items:
            out = set_union(out, _lits(i))
    else:
        raise TypeError(f"not an expression: {e!r}")
    _set_l(e, out)
    return out


def _literals_in(e: Expr, out: set):
    out |= _lits(e)


def enumeration_domain(pc, bounds, *values) -> list:
    """The values a search for models of `pc` draws from: the bounds'
    domain, the literals of `pc` and every value of the iterables `values`."""
    return bounds.domain_with(*map(_lits, pc), *values)


_OMIT = object()  # interpretations are partial: a variable may stay unbound


def _assignments(lvars, domain, bounds):
    """Deterministic stream of candidate interpretations."""
    lvars = sorted(lvars)
    if not lvars:
        yield {}
        return
    options = list(domain) + [_OMIT]
    total = len(options) ** len(lvars)
    if total <= _ENUM_CAP:
        for combo in itertools.product(options, repeat=len(lvars)):
            yield {x: v for x, v in zip(lvars, combo) if v is not _OMIT}
        return
    rng = Random(bounds.seed)
    for _ in range(max(bounds.trials, 1)):
        combo = [rng.choice(options) for _ in lvars]
        yield {x: v for x, v in zip(lvars, combo) if v is not _OMIT}


def extensions(pc, theta, lvars, options):
    """The extensions of `theta` that give each of the sorted `lvars` one
    of `options` and make every conjunct of `pc` true, in
    `itertools.product` order; `_OMIT`, as an option, leaves a variable
    unbound. Keys keep `{**theta, **new}` order (with `_OMIT`, for a
    `theta` that binds none of `lvars`). With no variable to decide it is
    a list of `theta` alone when `pc` holds: the harnesses ask that most
    often, and a list costs less than a generator. Otherwise it is a lazy
    search (`_backtrack`)."""
    if not lvars:
        return [dict(theta)] if all_true(pc, theta) else []
    return _backtrack(pc, theta, sorted(lvars), options)


def _backtrack(pc, theta, order, options):
    """The search of `extensions` over `order`: it checks each conjunct
    right after the step that decides its last variable (variables of
    `theta` are decided from the start); a conjunct over a variable in
    neither waits for the last step."""
    step = dict.fromkeys(theta, 0)
    step.update((x, i + 1) for i, x in enumerate(order))
    checks = [[] for _ in range(len(order) + 1)]  # checks[i]: after deciding order[i - 1]
    for c in pc:
        vs = lv_expr(c)
        last = len(order) if vs - step.keys() else max((step[x] for x in vs), default=0)
        checks[last].append(c)
    th = dict(theta)

    def extend(i):
        if i == len(order):
            yield dict(th)
            return
        x = order[i]
        for v in options:  # _OMIT comes last and leaves x unbound again
            if v is _OMIT:
                th.pop(x, None)
            else:
                th[x] = v
            if all_true(checks[i + 1], th):
                yield from extend(i + 1)

    if all_true(checks[0], th):
        yield from extend(0)


def models(pc, lvars, domain, bounds):
    """The interpretations of `_assignments(lvars, domain, bounds)` that make
    every conjunct of `pc` true, in the same order and with the same key
    order: `extensions` of the empty interpretation when the space is
    enumerated in full, and the sampled stream filtered as it comes when
    it exceeds `_ENUM_CAP`. An iterator."""
    options = list(domain) + [_OMIT]
    if len(options) ** len(lvars) > _ENUM_CAP:
        return (theta for theta in _assignments(lvars, domain, bounds) if all_true(pc, theta))
    return iter(extensions(pc, {}, lvars, options))


_sat_cache: dict = {}  # (pc, bounds key) -> check_sat's verdict, or _OPEN
_OPEN = object()  # not refuted by the core, no witness sought yet
_entails_cache: dict = {}
_closed: dict = {}  # conjunct tuple -> (RewriteCore pass-1 state after it, closed core or None)
_dump_state = {"dir": None, "n": 0}


def enable_smtlib_dump(directory: str):
    import os

    os.makedirs(directory, exist_ok=True)
    _dump_state["dir"] = directory
    _dump_state["n"] = 0
    clear_caches()


def disable_smtlib_dump():
    _dump_state["dir"] = None


def _maybe_dump(pc):
    if _dump_state["dir"] is None:
        return
    import os

    from .smtlib import export_smtlib

    path = os.path.join(_dump_state["dir"], f"pc_{_dump_state['n']:05d}.smt2")
    _dump_state["n"] += 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_smtlib(pc))


def clear_caches():
    _sat_cache.clear()
    _entails_cache.clear()
    _closed.clear()


def _put(cache: dict, key, value):
    if len(cache) > 100_000:
        cache.clear()
    cache[key] = value


def _resume_point(conjuncts: tuple):
    """(k, state) for the longest prefix `conjuncts[:k]` whose pass-1 state
    is stored, or (0, None)."""
    for k in range(len(conjuncts), 0, -1):
        entry = _closed.get(conjuncts[:k])
        if entry is not None:
            return k, entry[0]
    return 0, None


def _core(pc: tuple) -> RewriteCore:
    """The closed core of `pc`, built on the first call and stored next to
    its pass-1 state. A closed core is only read after it is built (`_find`
    compresses paths without changing an answer), so `check_sat` and
    `entails` share it."""
    entry = _closed.get(pc)
    if entry is not None and entry[1] is not None:
        return entry[1]
    core = RewriteCore(pc)
    _closed[pc] = (_closed[pc][0], core)
    return core


def refuted(pc, bounds) -> bool:
    """Does the rewriting core refute `pc`? Exactly `check_sat(pc, bounds)
    is UNSAT`, without the witness search: the question of an
    over-approximating path (OX, EX), which keeps every path not refuted."""
    pc = tuple(pc)
    key = (pc, bounds.key())
    hit = _sat_cache.get(key)
    if hit is None:
        _maybe_dump(pc)
        hit = UNSAT if _core(pc).contradiction else _OPEN
        _put(_sat_cache, key, hit)
    return hit is UNSAT


def check_sat(pc, bounds):
    """Sat(witness) | UNSAT | UNKNOWN for a conjunction of pv-free exprs:
    the core, then a bounded witness search. After `refuted(pc, bounds)`
    it runs only the search."""
    pc = tuple(pc)
    key = (pc, bounds.key())
    hit = _sat_cache.get(key)
    if hit is None:
        _maybe_dump(pc)
        verdict = _check_sat(pc, bounds)
    elif hit is _OPEN:
        verdict = _witness(pc, bounds)
    else:
        return hit
    _put(_sat_cache, key, verdict)
    return verdict


def _check_sat(pc, bounds):
    return UNSAT if _core(pc).contradiction else _witness(pc, bounds)


def _witness(pc, bounds):
    """Sat(witness) | UNKNOWN for a `pc` the core does not refute."""
    lvars = pc_lvars(pc)
    if not lvars:
        # ground: the core already evaluated every conjunct
        return Sat({})
    # bounded domains never justify Unsat for lvars
    theta = next(models(pc, lvars, enumeration_domain(pc, bounds), bounds), None)
    return UNKNOWN if theta is None else Sat(theta)


def entails(pc, e: Expr, bounds) -> Entail:
    """Does every model of pc make `e` true?  Yes is only returned when the
    rewriting core closes the unbounded case; No carries via a bounded
    countermodel; otherwise Unknown."""
    if pv_expr(e):
        raise PathCondError(f"entailment query mentions program variables: {e}")
    pc = tuple(pc)
    key = (pc, e, bounds.key())
    hit = _entails_cache.get(key)
    if hit is None:
        hit = _entails(pc, fold_expr(e), bounds)
        _put(_entails_cache, key, hit)
    return hit


def _entails(pc, e: Expr, bounds) -> Entail:
    if e == TRUE_E:
        return Entail.YES
    if _core(pc).entails(e):
        return Entail.YES
    # countermodel search
    lvars = pc_lvars(pc) | lv_expr(e)
    domain = enumeration_domain(pc + (e,), bounds)
    for theta in models(pc, lvars, domain, bounds):
        if eval_lexpr(e, theta, {}) is not TRUE:
            return Entail.NO
    return Entail.UNKNOWN
