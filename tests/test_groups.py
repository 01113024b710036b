import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hienergy import groups
from hienergy.groups import GroupError, cyclic, lattice
from oracles import character


def test_make_group_examples():
    g = cyclic(12)
    assert g.order == 12 and g.dim == 1
    g2 = cyclic(4, 2)
    assert g2.order == 8
    z = lattice(1)
    assert z.order is None


def test_make_group_rejects_bad_moduli():
    with pytest.raises(GroupError):
        groups.make_group("cyclic", [])
    with pytest.raises(GroupError):
        cyclic(1)
    with pytest.raises(GroupError):
        lattice(0)


def test_literal_round_trip():
    for text in ["Z", "Z^3", "Z/12", "Z/4xZ/2", "Z/2xZ/3xZ/5"]:
        g = groups.parse_group(text)
        assert groups.format_group(g) == text
    with pytest.raises(GroupError):
        groups.parse_group("Q/12")


def test_add_neg_examples():
    g5 = cyclic(5)
    assert groups.op_add(g5, (3,), (4,)) == (2,)
    z = lattice(1)
    assert groups.op_add(z, (3,), (4,)) == (7,)
    g42 = cyclic(4, 2)
    assert groups.op_add(g42, (3, 1), (1, 1)) == (0, 0)
    with pytest.raises(GroupError):
        groups.op_add(g5, (1,), (1, 2))


def test_character_examples():
    # the oracles' characters, which the spectrum tests compare the DFT with
    assert character((4,), (1,), (2,)) == pytest.approx(-1)
    assert character((4,), (0,), (3,)) == pytest.approx(1)
    assert character((5,), (1,), (1,)) == pytest.approx(cmath.exp(-2j * math.pi / 5))


def test_enumeration_order():
    assert list(oracles.enumerate_elements((3,))) == [(0,), (1,), (2,)]
    assert list(oracles.enumerate_elements((2, 2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_flat_index_round_trip():
    # oracles.from_flat is the row-major rank order that np.unravel_index reads
    mods = (4, 3, 2)
    for i, x in enumerate(oracles.enumerate_elements(mods)):
        assert oracles.from_flat(mods, i) == x
        assert tuple(int(c) for c in np.unravel_index(i, mods)) == x


small_groups = st.sampled_from([cyclic(5), cyclic(8), cyclic(4, 2), cyclic(3, 3)])


@st.composite
def group_and_elems(draw, count):
    g = draw(small_groups)
    xs = [tuple(draw(st.integers(0, n - 1)) for n in g.moduli) for _ in range(count)]
    return g, xs


@given(group_and_elems(3))
def test_add_associative_commutative(data):
    g, (x, y, z) = data
    assert groups.op_add(g, x, y) == groups.op_add(g, y, x)
    assert groups.op_add(g, groups.op_add(g, x, y), z) == \
        groups.op_add(g, x, groups.op_add(g, y, z))
    assert groups.op_add(g, oracles.sub(g.moduli, groups.zero(g), x), x) == groups.zero(g)


@given(group_and_elems(3))
def test_character_multiplicative(data):
    g, (xi, x, y) = data
    lhs = character(g.moduli, xi, groups.op_add(g, x, y))
    rhs = character(g.moduli, xi, x) * character(g.moduli, xi, y)
    assert abs(lhs - rhs) < 1e-12


@settings(max_examples=20)
@given(small_groups)
def test_character_orthogonality(g):
    n = g.order
    for xi in oracles.enumerate_elements(g.moduli):
        total = sum(character(g.moduli, xi, x) for x in oracles.enumerate_elements(g.moduli))
        expected = n if xi == groups.zero(g) else 0
        assert abs(total - expected) <= 1e-9 * n


class _Str(str):
    pass


class _Int(int):
    def __repr__(self):
        return "_Int!"


class _Float(float):
    def __repr__(self):
        return "_Float!"


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(), st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e16, 1e-7, 1e22, 5e-324]),
    st.text(), st.text(st.characters(max_codepoint=0x1f)),
    st.text(st.characters(min_codepoint=0x7f)),
    st.text().map(_Str), st.integers().map(_Int), st.floats().map(_Float),
    st.floats().map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.fractions())
# the package writes str keys only; a key of another kind is refused (below)
_JSON_KEYS = st.one_of(st.text(), st.text().map(_Str))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_JSON_KEYS, inner, max_size=4)),
    max_leaves=24)


def _stdlib_json(value):
    return json.dumps(value, indent=2, sort_keys=True, default=str)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES)
def test_dumps_json_is_the_stdlib_text(value):
    assert groups.dumps_json(value) == _stdlib_json(value)


def test_dumps_json_examples():
    # each case the property test draws, once by name, alone and nested;
    # a key that is not a str raises TypeError, however the stdlib would write it
    cases = [math.inf, -math.inf, math.nan, -0.0, 1e16, 1e-7, 2 ** 64 + 1, -(2 ** 70), "é\x00\n\"\\\x1f😀",
             _Str("s"), _Int(3), _Float(2.5), np.float64(0.1), np.int64(-7), np.bool_(True),
             Fraction(-1, 3), (), [], {}, (1, [2, ()]), {"null": 1}, {"true": [], "false": {}},
             {"1": "a", "2.5": "b", "-3": "c"}, {"NaN": 1, "Infinity": 2}, {_Str("k"): {"n": [{}]}},
             {"é\x00": 0}]
    bad = [{None: 1}, {True: []}, {1: "a"}, {2.5: "b"}, {math.nan: 1}, {np.float64(1.5): 0}, {np.int64(1): 0},
           {(1, 2): 0}, {Fraction(1, 2): 0}, {1: 0, "a": 0}, {"a": {1: 0}}]
    for value in cases + [cases, {"all": cases}]:
        assert groups.dumps_json(value) == _stdlib_json(value)
    for value in bad:
        with pytest.raises(TypeError):
            groups.dumps_json(value)
    value = {"a": [1, {}, ()], "b": {"c": None}}
    for level in range(4):   # a value written at depth `level`, as the suite report writes its rows
        wrapped = value
        for _ in range(level):
            wrapped = [wrapped]
        lines = _stdlib_json(wrapped).split("\n")
        assert "  " * level + groups.dumps_json(value, level) == "\n".join(lines[level:len(lines) - level])
