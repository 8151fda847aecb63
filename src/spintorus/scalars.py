"""Exact scalars: rationals and elements of Q(i).

``Rational`` is the stdlib :class:`fractions.Fraction`, which already keeps
every value reduced with a positive denominator. :class:`GaussianRational`
holds an element of Q(i) as one canonical int triple ``(a, b, d)`` meaning
``(a + b*i)/d``. Arithmetic runs on the three ints, with an all-int fast path
for Gaussian integers (``d == 1``), which is every entry of the spinor
matrices and every phase; no ``Fraction`` is made inside it. All arithmetic
in this package runs over these two types; nothing is ever rounded.

Values are rendered from int triples too: ``format_gaussian`` writes
``(a + b*i)/d`` with each part in lowest terms by ``gcd``, so rendering a
Gaussian rational, a torus point or a bundle class makes no ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TypeVar

from .errors import InvalidScalarError

Rational = Fraction

_T = TypeVar("_T")


def as_rational(x: int | Fraction) -> Fraction:
    """Coerce an int or Fraction to a Fraction; anything else (floats included) is a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def format_rational(x: Fraction) -> str:
    """Render a rational as ``a/b``, or just ``a`` when the denominator is 1."""
    return _ratio(x.numerator, x.denominator)


def format_gaussian(a: int, b: int, d: int) -> str:
    """Render ``(a + b*i)/d``, for ``d >= 1``, as ``a/b``, ``c/di`` or ``a/b+c/di`` (sign-aware).

    Each part is written in lowest terms, and ``i`` or ``-i`` stands for an
    imaginary part of 1 or -1: the text ``format_rational`` gives each part.
    """
    if not b:
        return _ratio(a, d)
    prefix = ""
    if a:
        prefix = _ratio(a, d) + ("+" if b > 0 else "-")
        b = abs(b)
    if b == d:
        return prefix + "i"
    if b == -d:
        # Only when a is 0: b was made positive otherwise.
        return "-i"
    return f"{prefix}{_ratio(b, d)}i"


def _ratio(n: int, d: int) -> str:
    """``n/d`` for ``d >= 1`` in lowest terms, or just the integer when that is its value."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


def _parts(x: int | Fraction) -> tuple[int, int]:
    """Numerator and positive denominator of an int or Fraction; TypeError otherwise."""
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational:
    """An element ``(a + b*i)/d`` of Q(i), held as three ints.

    The triple is canonical: ``d >= 1`` and ``gcd(a, b, d) == 1``, so two
    values are equal exactly when their triples are. ``re`` and ``im`` are
    read-only and return Fractions; modules of this package read the triple
    itself through the ``_a``, ``_b`` and ``_d`` slots, and build from ints
    with ``_reduced``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0) -> None:
        p, q = _parts(re)
        r, s = _parts(im)
        if q == s:
            self._a, self._b, self._d = p, r, q
        else:
            # Both parts are in lowest terms, so their lcm is the reduced denominator.
            d = lcm(q, s)
            self._a, self._b, self._d = p * (d // q), r * (d // s), d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def conjugate(self) -> GaussianRational:
        return _make(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """The field norm ``re^2 + im^2`` (a nonnegative rational)."""
        a, b, d = self._a, self._b, self._d
        return Fraction(a * a + b * b, d * d)

    def inverse(self) -> GaussianRational:
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if not n:
            raise InvalidScalarError("division by zero in Q(i)")
        return _reduced(d * a, -d * b, n)

    def mod1(self) -> GaussianRational:
        """Reduce both components into [0, 1)."""
        d = self._d
        # gcd(a % d, b % d, d) == gcd(a, b, d) == 1, so the triple stays canonical.
        return _make(self._a % d, self._b % d, d)

    def is_gaussian_integer(self) -> bool:
        return self._d == 1

    def is_rational(self) -> bool:
        return not self._b

    def __add__(self, other: int | Fraction | GaussianRational) -> GaussianRational:
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == 1 and e == 1:
            return _make(self._a + other._a, self._b + other._b, 1)
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: int | Fraction | GaussianRational) -> GaussianRational:
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == 1 and e == 1:
            return _make(self._a - other._a, self._b - other._b, 1)
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other: int | Fraction | GaussianRational) -> GaussianRational:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: int | Fraction | GaussianRational) -> GaussianRational:
        if not isinstance(other, GaussianRational):
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        re, im = a * c - b * e, a * e + b * c
        if d == 1 and f == 1:
            return _make(re, im, 1)
        return _reduced(re, im, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other: int | Fraction | GaussianRational) -> GaussianRational:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: int | Fraction | GaussianRational) -> GaussianRational:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int) -> GaussianRational:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return _binary_power(self, exponent) if exponent else ONE

    def __neg__(self) -> GaussianRational:
        return _make(-self._a, -self._b, self._d)

    def __pos__(self) -> GaussianRational:
        return self

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return self._b == 0 and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # The hashes of the (re, im) Fraction pair, so set and dict orders match it.
        if self._d == 1:
            return hash(self._a) if not self._b else hash((self._a, self._b))
        if not self._b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self) -> str:
        """Literal form: ``a/b``, ``c/di``, or ``a/b+c/di`` (sign-aware); see ``format_gaussian``."""
        return format_gaussian(self._a, self._b, self._d)


def _binary_power(base: _T, exponent: int) -> _T:
    """``base ** exponent`` for ``exponent >= 1`` by repeated squaring.

    It starts from the lowest set bit of the exponent and squares no further
    than the highest, so ``x**4`` costs two products and ``x**1`` none.
    """
    while not exponent & 1:
        base = base * base
        exponent >>= 1
    result = base
    exponent >>= 1
    while exponent:
        base = base * base
        if exponent & 1:
            result = result * base
        exponent >>= 1
    return result


_new = object.__new__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """``(a + b*i)/d`` from a triple that is already canonical: ``d >= 1``, ``gcd(a, b, d) == 1``."""
    g = _new(GaussianRational)
    g._a = a
    g._b = b
    g._d = d
    return g


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """``(a + b*i)/d`` for ints with ``d > 0``, brought to the canonical triple.

    Every denominator the arithmetic forms is a product of positive
    denominators or a nonzero norm, so none is negative.
    """
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


def _coerce(x: object) -> GaussianRational | None:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, int):
        return _make(int(x), 0, 1)
    if isinstance(x, Fraction):
        return _make(x.numerator, 0, x.denominator)
    return None


def as_gaussian(x: int | Fraction | GaussianRational) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational into a GaussianRational."""
    g = _coerce(x)
    if g is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as a Gaussian rational")
    return g


ONE = _make(1, 0, 1)
I = _make(0, 1, 1)
# The units i^t of Z[i], indexed by t = 0..3.
UNITS = (ONE, I, -ONE, -I)
