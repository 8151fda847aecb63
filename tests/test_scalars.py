"""Exact Gaussian-rational arithmetic: field laws, conjugation, formatting."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintorus import GaussianRational, InvalidScalarError, as_gaussian, format_rational

rationals = st.fractions(max_denominator=32)
gaussians = st.builds(GaussianRational, rationals, rationals)


@given(gaussians, gaussians, gaussians)
def test_addition_and_multiplication_are_associative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(gaussians, gaussians)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians, gaussians, gaussians)
def test_multiplication_distributes_over_addition(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(gaussians)
def test_additive_inverse_and_zero(a):
    zero = GaussianRational()
    assert a + (-a) == zero
    assert a + zero == a
    assert a - a == zero


@given(gaussians)
def test_multiplicative_inverse(a):
    if a == GaussianRational():
        with pytest.raises(InvalidScalarError):
            a.inverse()
    else:
        assert a * a.inverse() == GaussianRational(1)


@given(gaussians)
def test_conjugation_is_an_involution_and_norm_is_rational(a):
    assert a.conjugate().conjugate() == a
    squared = a * a.conjugate()
    assert squared.im == 0
    assert squared.re == a.norm()
    assert a.norm() >= 0


@given(gaussians, gaussians)
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(gaussians)
def test_mod1_lands_in_the_fundamental_square(a):
    r = a.mod1()
    assert 0 <= r.re < 1 and 0 <= r.im < 1
    diff = a - r
    assert diff.re.denominator == 1 and diff.im.denominator == 1


def test_division_agrees_with_inverse():
    a = GaussianRational(Fraction(3, 4), Fraction(-1, 2))
    b = GaussianRational(Fraction(1, 3), Fraction(5, 7))
    assert a / b == a * b.inverse()


def test_string_rendering():
    assert str(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4i"
    assert str(GaussianRational(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4i"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational()) == "0"
    assert str(GaussianRational(5)) == "5"


def test_coercion_helpers():
    assert as_gaussian(3) == GaussianRational(3)
    assert as_gaussian(Fraction(2, 5)) == GaussianRational(Fraction(2, 5))
    x = GaussianRational(1, 2)
    assert as_gaussian(x) is x
    assert format_rational(Fraction(-7, 3)) == "-7/3"
    assert format_rational(Fraction(4)) == "4"


def test_gaussian_integer_predicate():
    assert GaussianRational(2, -3).is_gaussian_integer()
    assert not GaussianRational(Fraction(1, 2), 0).is_gaussian_integer()
    assert GaussianRational(Fraction(4, 2), 1).is_gaussian_integer()


# Differential test: every operation against a plain (Fraction, Fraction) model,
# the reference for the int-triple representation.

parts = st.one_of(st.integers(min_value=-40, max_value=40), st.fractions(max_denominator=60))
reference_gaussians = st.builds(GaussianRational, parts, parts)
operands = st.one_of(reference_gaussians, parts)


def _model(x):
    """The (re, im) Fraction pair of an int, Fraction or GaussianRational."""
    if isinstance(x, GaussianRational):
        return (x.re, x.im)
    return (Fraction(x), Fraction(0))


def _model_inverse(p):
    n = p[0] * p[0] + p[1] * p[1]
    return (p[0] / n, -p[1] / n)


def _model_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _model_str(p):
    re, im = p

    def imag(b):
        return "i" if b == 1 else "-i" if b == -1 else f"{format_rational(b)}i"

    if not im:
        return format_rational(re)
    if not re:
        return imag(im)
    return f"{format_rational(re)}{'+' if im > 0 else '-'}{imag(abs(im))}"


def _model_hash(p):
    return hash(p[0]) if not p[1] else hash(p)


def _assert_matches(g, p):
    """g is the canonical GaussianRational of the model pair p, on every reader."""
    assert isinstance(g, GaussianRational)
    assert (g.re, g.im) == p
    assert g._d >= 1 and gcd(g._a, g._b, g._d) == 1
    assert g == GaussianRational(*p)
    assert hash(g) == _model_hash(p)
    assert str(g) == _model_str(p)
    assert repr(g) == f"GaussianRational({p[0]}, {p[1]})"
    assert bool(g) == bool(p[0] or p[1])
    assert g.is_gaussian_integer() == (p[0].denominator == 1 and p[1].denominator == 1)
    assert g.is_rational() == (p[1] == 0)


@given(operands, operands)
def test_binary_operations_match_the_fraction_pair_model(x, y):
    if not isinstance(x, GaussianRational) and not isinstance(y, GaussianRational):
        x = GaussianRational(x)
    p, q = _model(x), _model(y)
    _assert_matches(x + y, (p[0] + q[0], p[1] + q[1]))
    _assert_matches(x - y, (p[0] - q[0], p[1] - q[1]))
    _assert_matches(x * y, _model_mul(p, q))
    if q != (0, 0):
        _assert_matches(x / y, _model_mul(p, _model_inverse(q)))
    else:
        with pytest.raises(InvalidScalarError):
            x / y
    assert (x == y) == (p == q)
    assert (x != y) == (p != q)
    if x == y:
        assert hash(x) == hash(y)


@given(reference_gaussians, st.integers(min_value=-4, max_value=4))
def test_unary_operations_and_powers_match_the_model(g, exponent):
    p = _model(g)
    _assert_matches(g, p)
    _assert_matches(-g, (-p[0], -p[1]))
    _assert_matches(+g, p)
    _assert_matches(g.conjugate(), (p[0], -p[1]))
    _assert_matches(g.mod1(), (p[0] % 1, p[1] % 1))
    assert g.norm() == p[0] * p[0] + p[1] * p[1]
    assert isinstance(g.norm(), Fraction)
    if p == (0, 0):
        with pytest.raises(InvalidScalarError):
            g.inverse()
        if exponent < 0:
            with pytest.raises(InvalidScalarError):
                g**exponent
        return
    _assert_matches(g.inverse(), _model_inverse(p))
    power = (Fraction(1), Fraction(0))
    base = p if exponent >= 0 else _model_inverse(p)
    for _ in range(abs(exponent)):
        power = _model_mul(power, base)
    _assert_matches(g**exponent, power)


@given(parts)
def test_real_values_equal_and_hash_as_their_int_or_fraction(x):
    g = GaussianRational(x)
    assert g == x and x == g
    assert g == Fraction(x) and Fraction(x) == g
    assert hash(g) == hash(Fraction(x)) == hash(x)
    assert g != GaussianRational(x, 1)
    assert GaussianRational(x, 1) != x


def test_equal_representatives_are_one_canonical_value():
    a = GaussianRational(Fraction(2, 4), Fraction(1, 2))
    b = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    assert (a._a, a._b, a._d) == (b._a, b._b, b._d) == (1, 1, 2)
    assert GaussianRational(Fraction(4, 2), Fraction(-6, 3)) == GaussianRational(2, -2)
    assert hash(GaussianRational(3)) == hash(3) == hash(Fraction(3))
    assert hash(GaussianRational(Fraction(3, 7))) == hash(Fraction(3, 7))
    assert {GaussianRational(Fraction(6, 3)), 2, Fraction(2)} == {2}
    with pytest.raises(AttributeError):
        a.re = Fraction(1)
    with pytest.raises(AttributeError):
        a.im = 0


@pytest.mark.parametrize(
    "args", [(0.5,), (1, 0.5), ("1",), (0, "i"), (1.0, 0), (complex(1, 1),)]
)
def test_constructor_rejects_floats_and_strings(args):
    with pytest.raises(TypeError):
        GaussianRational(*args)


@pytest.mark.parametrize("value", [0.5, "1", 1j])
def test_arithmetic_and_coercion_reject_floats_and_strings(value):
    g = GaussianRational(1, 1)
    with pytest.raises(TypeError):
        as_gaussian(value)
    with pytest.raises(TypeError):
        g + value
    with pytest.raises(TypeError):
        value * g
