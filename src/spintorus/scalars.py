"""Exact scalars: rationals and elements of Q(i).

``Rational`` is the stdlib :class:`fractions.Fraction`, which already keeps
every value reduced with a positive denominator. :class:`GaussianRational`
pairs two of them as real and imaginary components. All arithmetic in this
package runs over these two types; nothing is ever rounded.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidScalarError

Rational = Fraction


def as_rational(x: int | Fraction) -> Fraction:
    """Coerce an int or Fraction to a Fraction; anything else (floats included) is a TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def format_rational(x: Fraction) -> str:
    """Render a rational as ``a/b``, or just ``a`` when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class GaussianRational:
    """An element ``re + im*i`` of Q(i), held as two exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0) -> None:
        self.re = as_rational(re)
        self.im = as_rational(im)

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The field norm ``re^2 + im^2`` (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> GaussianRational:
        n = self.norm()
        if not n:
            raise InvalidScalarError("division by zero in Q(i)")
        return GaussianRational(self.re / n, -self.im / n)

    def mod1(self) -> GaussianRational:
        """Reduce both components into [0, 1)."""
        return GaussianRational(self.re % 1, self.im % 1)

    def is_gaussian_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    def is_rational(self) -> bool:
        return not self.im

    def __add__(self, other: int | Fraction | GaussianRational) -> GaussianRational:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: int | Fraction | GaussianRational) -> GaussianRational:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other: int | Fraction | GaussianRational) -> GaussianRational:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other: int | Fraction | GaussianRational) -> GaussianRational:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

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
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __pos__(self) -> GaussianRational:
        return self

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self) -> str:
        """Literal form: ``a/b``, ``c/di``, or ``a/b+c/di`` (sign-aware)."""
        if not self.im:
            return format_rational(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{_imag_str(abs(self.im))}"


def _imag_str(b: Fraction) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{format_rational(b)}i"


def _coerce(x: object) -> GaussianRational | None:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(as_rational(x))
    return None


def as_gaussian(x: int | Fraction | GaussianRational) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational into a GaussianRational."""
    g = _coerce(x)
    if g is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as a Gaussian rational")
    return g


ONE = GaussianRational(1, 0)
I = GaussianRational(0, 1)
