from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polyheap.values import (
    FALSE,
    NIL,
    Rat,
    TRUE,
    UNDEF,
    VBool,
    _Nil,
    is_bool,
    is_nat,
    is_rat,
    is_value,
    type_name,
    value_key,
    vbool,
)


def test_bool_and_nat_never_merge():
    assert TRUE != 1
    assert 1 != TRUE
    assert len({TRUE, 1, FALSE, 0}) == 4
    assert {1: "a"} != {TRUE: "a"}


def test_rat_and_nat_never_merge():
    assert Rat(1) != 1
    assert len({Rat(1), 1}) == 2
    assert Rat(1, 2) == Rat(2, 4)


def test_rats_are_strictly_positive():
    with pytest.raises(ValueError):
        Rat(0)
    with pytest.raises(ValueError):
        Rat(-1, 2)


def test_type_names():
    assert type_name(NIL) == "nil"
    assert type_name(TRUE) == "bool"
    assert type_name(3) == "nat"
    assert type_name(Rat(1, 3)) == "rat"
    assert type_name("s") == "str"
    assert type_name((1, NIL)) == "list"


def test_is_nat_excludes_bools():
    assert is_nat(3)
    assert not is_nat(True)
    assert not is_nat(-1)
    assert is_bool(vbool(1))


values = st.recursive(
    st.one_of(
        st.just(NIL),
        st.sampled_from([TRUE, FALSE]),
        st.integers(min_value=0, max_value=50),
        st.builds(Rat, st.integers(1, 9), st.integers(1, 9)),
        st.text(alphabet="abc", max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)


@given(values, values)
def test_value_key_is_consistent_with_equality(a, b):
    assert is_value(a) and is_value(b)
    assert (value_key(a) == value_key(b)) == (a == b)


def test_undef_is_not_a_value():
    assert not is_value(UNDEF)


def _isinstance_type_name(v):
    """`type_name` as an `isinstance` chain, as it was before it looked the
    exact type up."""
    if v is NIL:
        return "nil"
    if isinstance(v, VBool):
        return "bool"
    if type(v) is int:
        return "nat"
    if isinstance(v, Rat):
        return "rat"
    if type(v) is str:
        return "str"
    if type(v) is tuple:
        return "list"
    raise TypeError(f"not a value: {v!r}")


def test_wrapped_value_types_have_no_subclasses():
    # the exact-type lookup of `type_name` and `is_rat` relies on it
    for cls in (_Nil, VBool, Rat):
        assert cls.__subclasses__() == []


# Python's `True`/`False` are not values (`TRUE`/`FALSE` are): both sides raise
_GRID = [NIL, TRUE, FALSE, 0, 1, 7, Rat(1), Rat(1, 3), "", "s", (), (1, NIL), ((TRUE,),),
         True, False, UNDEF, None, -1.5, Fraction(1, 2), [1], b"s"]


@pytest.mark.parametrize("v", _GRID, ids=repr)
def test_type_name_lookup_agrees_with_isinstance_chain(v):
    try:
        want = _isinstance_type_name(v)
    except TypeError:
        with pytest.raises(TypeError):
            type_name(v)
        assert not is_rat(v)
        return
    assert type_name(v) == want
    assert is_rat(v) == (want == "rat")


@given(values)
def test_type_name_of_any_value_agrees_with_isinstance_chain(v):
    assert type_name(v) == _isinstance_type_name(v)
