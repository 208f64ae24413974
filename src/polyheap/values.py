"""Runtime values of the object language.

A value is one of: nil, a boolean, a natural number, a strictly positive
rational, a string, or a (possibly nested) list of values.

Representation choices matter here because values end up as dict keys and
set members all over the toolkit. Python's `True == 1` and
`Fraction(1) == 1` would silently merge distinct values, so booleans and
rationals get tiny wrapper types whose `==`/`hash` never collide with
naturals. With that, plain `==` on values *is* structural value equality
and all containers behave.

    nil       -> NIL (singleton)
    boolean   -> TRUE / FALSE (VBool singletons)
    natural   -> int  (never bool)
    rational  -> Rat  (wraps a positive fractions.Fraction)
    string    -> str
    list      -> tuple of values

Expression evaluation that fails produces the distinguished non-value
UNDEF, which is not a member of the value domain.
"""

from __future__ import annotations

from fractions import Fraction


class _Nil:
    __slots__ = ()

    def __repr__(self):
        return "nil"

    def __reduce__(self):
        return (_nil_instance, ())


def _nil_instance():
    return NIL


NIL = _Nil()


class VBool:
    __slots__ = ("b",)

    def __init__(self, b: bool):
        self.b = bool(b)

    def __eq__(self, other):
        return isinstance(other, VBool) and self.b == other.b

    def __hash__(self):
        return hash(("VBool", self.b))

    def __repr__(self):
        return "true" if self.b else "false"


TRUE = VBool(True)
FALSE = VBool(False)


def vbool(b) -> VBool:
    return TRUE if b else FALSE


class Rat:
    """Strictly positive rational."""

    __slots__ = ("q",)

    def __init__(self, num, den=1):
        q = Fraction(num, den) if den != 1 or not isinstance(num, Fraction) else num
        if q <= 0:
            raise ValueError(f"rationals must be positive, got {q}")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, Rat) and self.q == other.q

    def __hash__(self):
        return hash(("Rat", self.q))

    def __repr__(self):
        if self.q.denominator == 1:
            return f"{self.q.numerator}q"
        return f"{self.q.numerator}/{self.q.denominator}q"


class _Undef:
    __slots__ = ()

    def __repr__(self):
        return "undef"

    def __reduce__(self):
        return (_undef_instance, ())


def _undef_instance():
    return UNDEF


UNDEF = _Undef()


def is_bool(v) -> bool:
    return isinstance(v, VBool)


def is_nat(v) -> bool:
    return type(v) is int and v >= 0


def is_rat(v) -> bool:
    return type(v) is Rat


def is_string(v) -> bool:
    return type(v) is str


def is_value(v) -> bool:
    if v is NIL or isinstance(v, (VBool, Rat)):
        return True
    if type(v) is int:
        return v >= 0
    if type(v) is str:
        return True
    if type(v) is tuple:
        return all(is_value(e) for e in v)
    return False


_TYPE_RANK = {"nil": 0, "bool": 1, "nat": 2, "rat": 3, "str": 4, "list": 5}


# `_Nil`, `VBool` and `Rat` have no subclasses, so a value's exact type names it
_TYPE_NAME = {_Nil: "nil", VBool: "bool", int: "nat", Rat: "rat", str: "str", tuple: "list"}


def type_name(v) -> str:
    t = _TYPE_NAME.get(type(v))
    if t is None:
        raise TypeError(f"not a value: {v!r}")
    return t


def value_key(v):
    """Total order key over values (for deterministic enumeration order)."""
    t = type_name(v)
    rank = _TYPE_RANK[t]
    if t == "nil":
        return (rank, 0)
    if t == "bool":
        return (rank, v.b)
    if t == "nat":
        return (rank, v)
    if t == "rat":
        return (rank, v.q)
    if t == "str":
        return (rank, v)
    return (rank, tuple(value_key(e) for e in v))


def format_value(v) -> str:
    """Render a value in the object language's literal syntax."""
    t = type_name(v)
    if t == "str":
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if t == "list":
        return "[" + ", ".join(format_value(e) for e in v) + "]"
    return repr(v)


def value_to_json(v):
    """JSON-friendly encoding used in reports (injective on values)."""
    t = type_name(v)
    if t == "nil":
        return None
    if t == "bool":
        return v.b
    if t == "nat":
        return v
    if t == "rat":
        return {"rat": [v.q.numerator, v.q.denominator]}
    if t == "str":
        return v
    return [value_to_json(e) for e in v]
