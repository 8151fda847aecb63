"""Complex Clifford algebras with exact Q(i) coefficients.

An algebra is fixed by a :class:`Signature` ``(p, q)`` with ``p + q = 2k``:
the first ``p`` generators square to ``+1`` and the remaining ``q`` to
``-1``. Basis blades are encoded as bitmasks over the generators, with bit
``j - 1`` standing for the ``j``-th generator, so the whole multiplication
table reduces to XORs plus one sign rule.

The sign rule is a sign mask W(a) per blade: the suffix parity of ``a >> 1``
(bit j is the parity of the generators of a above j, which each generator j
of b passes when the word e_a e_b is sorted), XOR the bits of a at or above
p (the shared generators that square to -1). Then
``e_a * e_b = (-1)^popcount(W(a) & b) * e_(a^b)``. W is tabulated once per
``(n, p)``; ``blade_mul``, ``blade_square_sign``, ``element_order``, the
group's ``mul`` and ``inverse`` and the element product all read that table,
the element product once per left term.

An element is one positive denominator and a sparse map from blade to a
pair ``(re, im)`` of integer numerators, none of them ``(0, 0)``, with the
gcd of the denominator and every numerator equal to 1: the coefficient of a
blade is ``(re + im*i) / den``. The form is canonical, so two elements are
equal exactly when their denominators and maps are. Elements are immutable:
products, sums, negation, ``star`` and grade projection work on the ints and
reduce each result by one gcd. ``terms()``, ``coefficient()`` and the hash
rebuild the ``GaussianRational`` coefficients.

The public constructor ``CliffordElement(sig, terms)`` checks its input: each
mask must lie in ``0 .. 2^n - 1``, each coefficient must be an int,
``Fraction`` or ``GaussianRational`` (a float is a TypeError), and zeros are
dropped. ``GeneratorGroupElement.to_element`` checks its blade against the
signature. The operations build their results through the private
``CliffordElement._of`` instead, which takes numerators and a denominator as
they are: the XOR of two in-range masks is in range. Signatures are compared
by identity first and by value only when that fails. Powers start from the
lowest set bit of the exponent and square no further than the highest one,
so ``u**4`` costs two products.

``as_signed_blade`` reads a one-term element with a unit coefficient back as
the signed blade ``i^t * e_I``, and ``signed_terms`` reads each term of an
element as ``blade -> t``. ``clifford_core`` proves the signed blades closed
with 4 * (2k+1) row products of 4^k terms each: each generator x in
{e_1, ..., e_n, i} times S_t, the sum of the 4^k blades i^t * e_I of one
phase t. Their terms never meet, so one ``signed_terms`` reads back a row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Iterator, Mapping

from .errors import IndexOutOfRangeError, SignatureMismatchError
from .scalars import UNITS, GaussianRational, _binary_power, _reduced, as_gaussian

_new = object.__new__


@dataclass(frozen=True)
class Signature:
    """Number of +1 squares ``p`` and -1 squares ``q``; dimension is p + q = 2k."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError("signature components must be nonnegative")
        if (self.p + self.q) % 2 or self.p + self.q < 2:
            raise ValueError("dimension p + q must be even and at least 2")

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def k(self) -> int:
        return (self.p + self.q) // 2

    def is_positive_definite(self) -> bool:
        return self.q == 0

    def square_sign(self, j: int) -> int:
        """Square of the j-th generator (1-indexed): +1 or -1."""
        if not 1 <= j <= self.n:
            raise IndexOutOfRangeError(f"generator index {j} outside 1..{self.n}")
        return 1 if j <= self.p else -1


def _sign_mask(a: int, p: int) -> int:
    """W(a): the sign of e_a * e_b is the parity of ``W(a) & b``.

    The suffix parity of ``a >> 1`` counts the generators of a that each
    generator of b passes; the bits of a at or above p are the generators
    that square to -1 when b shares them.
    """
    suffix = a >> 1
    shift = 1
    while suffix >> shift:
        suffix ^= suffix >> shift
        shift <<= 1
    return suffix ^ (a >> p << p)


@cache
def _sign_masks(n: int, p: int) -> tuple[int, ...]:
    """W(a) for every blade a of the n-generator algebra with p positive squares."""
    return tuple(_sign_mask(a, p) for a in range(1 << n))


def blade_mul(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Product of two basis blades: returns (sign, blade bitmask)."""
    w = _sign_masks(sig.p + sig.q, sig.p)[a]
    return (-1 if (w & b).bit_count() & 1 else 1), a ^ b


def blade_square_sign(mask: int, sig: Signature) -> int:
    """Sign of e_I * e_I: reversion sign times the product of generator squares."""
    w = _sign_masks(sig.p + sig.q, sig.p)[mask]
    return -1 if (w & mask).bit_count() & 1 else 1


def reversion_sign(grade: int) -> int:
    """Sign picked up by writing a grade-g blade in reverse order."""
    return -1 if (grade * (grade - 1) // 2) & 1 else 1


def blade_label(mask: int) -> str:
    """Human-readable blade name like ``e{1,2}``; the empty blade is ``1``."""
    if not mask:
        return "1"
    members = [str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1]
    return "e{" + ",".join(members) + "}"


class CliffordElement:
    """A finite Q(i)-combination of basis blades in a fixed signature."""

    __slots__ = ("sig", "_nums", "_den")

    def __init__(
        self,
        sig: Signature,
        terms: Mapping[int, int | Fraction | GaussianRational] | None = None,
    ) -> None:
        self.sig = sig
        values: dict[int, GaussianRational] = {}
        limit = 1 << sig.n
        for mask, coeff in (terms or {}).items():
            if not 0 <= mask < limit:
                raise IndexOutOfRangeError(f"blade {mask} outside the {sig.n}-generator algebra")
            value = as_gaussian(coeff)
            if value:
                values[mask] = value
        # Each triple is canonical, so their numerators over the lcm of their
        # denominators have no common factor with it.
        den = lcm(*(c._d for c in values.values()))
        self._nums = {m: (c._a * (den // c._d), c._b * (den // c._d)) for m, c in values.items()}
        self._den = den

    @classmethod
    def _of(cls, sig: Signature, nums: dict[int, tuple[int, int]], den: int) -> CliffordElement:
        """An element on ``nums`` over ``den`` as given: canonical, on in-range masks."""
        u = _new(cls)
        u.sig = sig
        u._nums = nums
        u._den = den
        return u

    @classmethod
    def _lowest(cls, sig: Signature, nums: dict[int, tuple[int, int]], den: int) -> CliffordElement:
        """An element on nonzero numerator pairs over ``den > 0``, divided by their common factor."""
        g = den
        if g != 1:
            for re, im in nums.values():
                g = gcd(g, re, im)
                if g == 1:
                    break
            else:
                nums = {m: (re // g, im // g) for m, (re, im) in nums.items()}
                den //= g
        return cls._of(sig, nums, den)

    @classmethod
    def zero(cls, sig: Signature) -> CliffordElement:
        return cls(sig)

    @classmethod
    def scalar(cls, sig: Signature, value: int | Fraction | GaussianRational) -> CliffordElement:
        return cls(sig, {0: value})

    @classmethod
    def blade(
        cls, sig: Signature, mask: int, coeff: int | Fraction | GaussianRational = 1
    ) -> CliffordElement:
        return cls(sig, {mask: coeff})

    @classmethod
    def generator(cls, sig: Signature, j: int) -> CliffordElement:
        if not 1 <= j <= sig.n:
            raise IndexOutOfRangeError(f"generator index {j} outside 1..{sig.n}")
        return cls(sig, {1 << (j - 1): 1})

    def terms(self) -> tuple[tuple[int, GaussianRational], ...]:
        """Blade/coefficient pairs sorted by grade, then by blade mask."""
        den = self._den
        return tuple(
            (m, _reduced(re, im, den))
            for m, (re, im) in sorted(self._nums.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
        )

    def coefficient(self, mask: int) -> GaussianRational:
        re, im = self._nums.get(mask, (0, 0))
        return _reduced(re, im, self._den)

    def scalar_part(self) -> GaussianRational:
        return self.coefficient(0)

    def grades(self) -> set[int]:
        return {mask.bit_count() for mask in self._nums}

    def is_zero(self) -> bool:
        return not self._nums

    def is_scalar(self) -> bool:
        return all(mask == 0 for mask in self._nums)

    def grade_project(self, grade: int) -> CliffordElement:
        return CliffordElement._lowest(
            self.sig, {m: c for m, c in self._nums.items() if m.bit_count() == grade}, self._den
        )

    def star(self) -> CliffordElement:
        """Conjugate coefficients and reverse blades; an anti-automorphism."""
        return CliffordElement._of(
            self.sig,
            {
                m: (re, -im) if reversion_sign(m.bit_count()) > 0 else (-re, im)
                for m, (re, im) in self._nums.items()
            },
            self._den,
        )

    def is_gaussian_integral(self) -> bool:
        """True when every coefficient lies in Z[i]."""
        return self._den == 1

    def _require_same_signature(self, other: CliffordElement) -> None:
        if self.sig != other.sig:
            raise SignatureMismatchError(f"{self.sig} vs {other.sig}")

    def __add__(self, other: object) -> CliffordElement:
        other = _coerce_element(other, self.sig)
        if other is None:
            return NotImplemented
        if other.sig is not self.sig:
            self._require_same_signature(other)
        d, e = self._den, other._den
        g = gcd(d, e)
        s, t = e // g, d // g
        merged = {m: (re * s, im * s) for m, (re, im) in self._nums.items()}
        get = merged.get
        for mask, (re, im) in other._nums.items():
            prev = get(mask)
            merged[mask] = (re * t, im * t) if prev is None else (prev[0] + re * t, prev[1] + im * t)
        return CliffordElement._lowest(
            self.sig, {m: c for m, c in merged.items() if c[0] or c[1]}, d * s
        )

    __radd__ = __add__

    def __sub__(self, other: object) -> CliffordElement:
        other = _coerce_element(other, self.sig)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> CliffordElement:
        other = _coerce_element(other, self.sig)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> CliffordElement:
        return CliffordElement._of(
            self.sig, {m: (-re, -im) for m, (re, im) in self._nums.items()}, self._den
        )

    def __mul__(self, other: object) -> CliffordElement:
        other = _coerce_element(other, self.sig)
        if other is None:
            return NotImplemented
        sig = self.sig
        if other.sig is not sig:
            self._require_same_signature(other)
        signs = _sign_masks(sig.p + sig.q, sig.p)
        acc: dict[int, tuple[int, int]] = {}
        get = acc.get
        right = other._nums.items()
        for ma, (a, b) in self._nums.items():
            w = signs[ma]
            for mb, (c, e) in right:
                re, im = a * c - b * e, a * e + b * c
                if (w & mb).bit_count() & 1:
                    re, im = -re, -im
                mask = ma ^ mb
                prev = get(mask)
                acc[mask] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
        # A product of two nonzero coefficients is nonzero; only sums cancel.
        return CliffordElement._lowest(
            sig, {m: c for m, c in acc.items() if c[0] or c[1]}, self._den * other._den
        )

    def __rmul__(self, other: object) -> CliffordElement:
        other = _coerce_element(other, self.sig)
        if other is None:
            return NotImplemented
        return other * self

    def __pow__(self, exponent: int) -> CliffordElement:
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("negative powers are not defined for general elements")
        if not exponent:
            return CliffordElement.scalar(self.sig, 1)
        return _binary_power(self, exponent)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = CliffordElement.scalar(self.sig, other)
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.sig == other.sig and self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self.sig, frozenset(self.terms())))

    def __repr__(self) -> str:
        if not self._nums:
            return "<0>"
        parts = [f"({c})*{blade_label(m)}" for m, c in self.terms()]
        return "<" + " + ".join(parts) + ">"


def _coerce_element(x: object, sig: Signature) -> CliffordElement | None:
    if isinstance(x, CliffordElement):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return CliffordElement.scalar(sig, x)
    return None


_PHASE_LABELS = ("", "i*", "-", "-i*")
# The numerators (re, im) of each unit i^t over the denominator 1, and back.
_UNIT_NUMS = tuple((u._a, u._b) for u in UNITS)
_UNIT_POWERS = {pair: t for t, pair in enumerate(_UNIT_NUMS)}


@dataclass(frozen=True)
class GeneratorGroupElement:
    """A signed blade ``i^t * e_I``: one of the 2^(2k+2) group generators."""

    blade: int
    i_power: int

    def __post_init__(self) -> None:
        if not 0 <= self.i_power < 4:
            raise ValueError("i_power must lie in 0..3")
        if self.blade < 0:
            raise ValueError("blade mask must be nonnegative")

    @classmethod
    def _of(cls, blade: int, i_power: int) -> GeneratorGroupElement:
        """The element on a nonnegative mask and a power in 0..3, taken as given."""
        g = _new(cls)
        fields = g.__dict__
        fields["blade"] = blade
        fields["i_power"] = i_power
        return g

    @property
    def phase(self) -> GaussianRational:
        return UNITS[self.i_power]

    def mul(self, other: GeneratorGroupElement, sig: Signature) -> GeneratorGroupElement:
        w = _sign_masks(sig.p + sig.q, sig.p)[self.blade]
        t = self.i_power + other.i_power + ((w & other.blade).bit_count() & 1) * 2
        return GeneratorGroupElement._of(self.blade ^ other.blade, t & 3)

    def inverse(self, sig: Signature) -> GeneratorGroupElement:
        extra = 0 if blade_square_sign(self.blade, sig) > 0 else 2
        return GeneratorGroupElement._of(self.blade, (extra - self.i_power) & 3)

    def is_identity(self) -> bool:
        return self.blade == 0 and self.i_power == 0

    def to_element(self, sig: Signature) -> CliffordElement:
        if self.blade >> sig.n:
            raise IndexOutOfRangeError(f"blade {self.blade} outside the {sig.n}-generator algebra")
        return CliffordElement._of(sig, {self.blade: _UNIT_NUMS[self.i_power]}, 1)

    def label(self) -> str:
        """Compact display name such as ``-i*e{1,2}``."""
        prefix = _PHASE_LABELS[self.i_power]
        if not self.blade:
            return {"": "1", "i*": "i", "-": "-1", "-i*": "-i"}[prefix]
        return prefix + blade_label(self.blade)


def signed_terms(u: CliffordElement) -> dict[int, int] | None:
    """Read every term of u as ``blade -> t`` for its coefficient i^t, or None.

    None when some coefficient is not a unit 1, i, -1, -i; zero reads as {}.
    """
    if u._den != 1:
        return None
    powers = {}
    for mask, pair in u._nums.items():
        t = _UNIT_POWERS.get(pair)
        if t is None:
            return None
        powers[mask] = t
    return powers


def as_signed_blade(u: CliffordElement) -> GeneratorGroupElement | None:
    """Read u back as a signed blade ``i^t * e_I``, or None if it is not one.

    A signed blade is exactly one term whose coefficient is a unit 1, i, -1, -i.
    """
    if len(u._nums) != 1 or u._den != 1:
        return None
    ((mask, pair),) = u._nums.items()
    t = _UNIT_POWERS.get(pair)
    return None if t is None else GeneratorGroupElement._of(mask, t)


def element_order(g: GeneratorGroupElement, sig: Signature) -> int:
    """The order of a generator-group element; always 1, 2, or 4."""
    if g.is_identity():
        return 1
    square_is_positive = (blade_square_sign(g.blade, sig) > 0) == (g.i_power % 2 == 0)
    return 2 if square_is_positive else 4


def generator_group(sig: Signature) -> tuple[GeneratorGroupElement, ...]:
    """All 2^(2k+2) elements, blades ascending and phase powers 0..3 within a blade."""
    return tuple(
        GeneratorGroupElement._of(mask, t)
        for mask in range(1 << sig.n)
        for t in range(4)
    )


def grade_project(u: CliffordElement, grade: int) -> CliffordElement:
    return u.grade_project(grade)


def star(u: CliffordElement) -> CliffordElement:
    return u.star()


def basis_blades(sig: Signature) -> Iterator[GeneratorGroupElement]:
    """The signed blades e_I, then i*e_I, blades ascending: a Z[i]-basis of the algebra."""
    for t in (0, 1):
        for mask in range(1 << sig.n):
            yield GeneratorGroupElement(mask, t)


def basis_elements(sig: Signature) -> Iterator[CliffordElement]:
    """The 2 * 4^k integral basis elements e_I and i*e_I, blades ascending."""
    return (g.to_element(sig) for g in basis_blades(sig))
