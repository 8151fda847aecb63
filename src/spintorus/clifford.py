"""Complex Clifford algebras with exact Q(i) coefficients.

An algebra is fixed by a :class:`Signature` ``(p, q)`` with ``p + q = 2k``:
the first ``p`` generators square to ``+1`` and the remaining ``q`` to
``-1``. Basis blades are encoded as bitmasks over the generators, with bit
``j - 1`` standing for the ``j``-th generator, so the whole multiplication
table reduces to XORs plus a transposition sign.

Elements are sparse blade-to-coefficient maps. They are immutable: every
operation returns a fresh element with zero coefficients evicted.

The public constructor ``CliffordElement(sig, terms)`` checks its input: each
mask must lie in ``0 .. 2^n - 1``, each coefficient must be an int,
``Fraction`` or ``GaussianRational`` (a float is a TypeError), and zeros are
dropped. ``GeneratorGroupElement.to_element`` goes through it too. The
operations build their results through the private ``CliffordElement._of``
instead, which takes a dict of nonzero ``GaussianRational`` coefficients as
it is: the XOR of two in-range masks is in range, so products, sums,
negation, ``star`` and grade projection only do the arithmetic. Signatures
are compared by identity first and by value only when that fails. Powers
start from the lowest set bit of the exponent and square no further than the
highest one, so ``u**4`` costs two products.

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
from typing import Iterator, Mapping

from .errors import IndexOutOfRangeError, SignatureMismatchError
from .scalars import UNITS, GaussianRational, _binary_power, as_gaussian

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


def _reorder_sign(a: int, b: int) -> int:
    """Sign from sorting the concatenation of two ascending blades.

    Each generator j of b passes the generators of a above j, so the sign
    is the parity of b against the suffix parities of a shifted by one.
    """
    a >>= 1
    shift = 1
    while a >> shift:
        a ^= a >> shift
        shift <<= 1
    return -1 if (a & b).bit_count() & 1 else 1


def blade_mul(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Product of two basis blades: returns (sign, blade bitmask)."""
    sign = _reorder_sign(a, b)
    # Each shared generator past the first p squares to -1.
    if ((a & b) >> sig.p).bit_count() & 1:
        sign = -sign
    return sign, a ^ b


def blade_square_sign(mask: int, sig: Signature) -> int:
    """Sign of e_I * e_I: reversion sign times the product of generator squares."""
    sign, rest = blade_mul(mask, mask, sig)
    assert rest == 0
    return sign


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

    __slots__ = ("sig", "_terms")

    def __init__(
        self,
        sig: Signature,
        terms: Mapping[int, int | Fraction | GaussianRational] | None = None,
    ) -> None:
        self.sig = sig
        cleaned: dict[int, GaussianRational] = {}
        limit = 1 << sig.n
        for mask, coeff in (terms or {}).items():
            if not 0 <= mask < limit:
                raise IndexOutOfRangeError(f"blade {mask} outside the {sig.n}-generator algebra")
            value = as_gaussian(coeff)
            if value:
                cleaned[mask] = value
        self._terms = cleaned

    @classmethod
    def _of(cls, sig: Signature, terms: dict[int, GaussianRational]) -> CliffordElement:
        """An element on ``terms`` as given: nonzero GaussianRationals on in-range masks."""
        u = _new(cls)
        u.sig = sig
        u._terms = terms
        return u

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
        return tuple(
            sorted(self._terms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))
        )

    def coefficient(self, mask: int) -> GaussianRational:
        return self._terms.get(mask, as_gaussian(0))

    def scalar_part(self) -> GaussianRational:
        return self.coefficient(0)

    def grades(self) -> set[int]:
        return {mask.bit_count() for mask in self._terms}

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return all(mask == 0 for mask in self._terms)

    def grade_project(self, grade: int) -> CliffordElement:
        return CliffordElement._of(
            self.sig, {m: c for m, c in self._terms.items() if m.bit_count() == grade}
        )

    def star(self) -> CliffordElement:
        """Conjugate coefficients and reverse blades; an anti-automorphism."""
        return CliffordElement._of(
            self.sig,
            {
                m: c.conjugate() if reversion_sign(m.bit_count()) > 0 else -c.conjugate()
                for m, c in self._terms.items()
            },
        )

    def is_gaussian_integral(self) -> bool:
        """True when every coefficient lies in Z[i]."""
        return all(c.is_gaussian_integer() for c in self._terms.values())

    def _require_same_signature(self, other: CliffordElement) -> None:
        if self.sig != other.sig:
            raise SignatureMismatchError(f"{self.sig} vs {other.sig}")

    def __add__(self, other: object) -> CliffordElement:
        other = _coerce_element(other, self.sig)
        if other is None:
            return NotImplemented
        if other.sig is not self.sig:
            self._require_same_signature(other)
        merged = dict(self._terms)
        for mask, coeff in other._terms.items():
            prev = merged.get(mask)
            merged[mask] = coeff if prev is None else prev + coeff
        return CliffordElement._of(self.sig, {m: c for m, c in merged.items() if c})

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
        return CliffordElement._of(self.sig, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other: object) -> CliffordElement:
        other = _coerce_element(other, self.sig)
        if other is None:
            return NotImplemented
        sig = self.sig
        if other.sig is not sig:
            self._require_same_signature(other)
        acc: dict[int, GaussianRational] = {}
        get = acc.get
        right = other._terms.items()
        for ma, ca in self._terms.items():
            for mb, cb in right:
                # The module global, so that blade_mul stays the one sign rule.
                sign, mask = blade_mul(ma, mb, sig)
                coeff = ca * cb
                if sign < 0:
                    coeff = -coeff
                prev = get(mask)
                acc[mask] = coeff if prev is None else prev + coeff
        # A product of two nonzero coefficients is nonzero; only sums cancel.
        return CliffordElement._of(sig, {m: c for m, c in acc.items() if c})

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
        return self.sig == other.sig and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.sig, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
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
# The power t of each unit i^t, keyed by its canonical (a, b, d) triple.
_UNIT_POWERS = {(u._a, u._b, u._d): t for t, u in enumerate(UNITS)}


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
        sign, mask = blade_mul(self.blade, other.blade, sig)
        t = (self.i_power + other.i_power + (2 if sign < 0 else 0)) % 4
        return GeneratorGroupElement._of(mask, t)

    def inverse(self, sig: Signature) -> GeneratorGroupElement:
        extra = 0 if blade_square_sign(self.blade, sig) > 0 else 2
        return GeneratorGroupElement(self.blade, (-self.i_power + extra) % 4)

    def is_identity(self) -> bool:
        return self.blade == 0 and self.i_power == 0

    def to_element(self, sig: Signature) -> CliffordElement:
        return CliffordElement.blade(sig, self.blade, self.phase)

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
    powers = {}
    for mask, coeff in u._terms.items():
        t = _UNIT_POWERS.get((coeff._a, coeff._b, coeff._d))
        if t is None:
            return None
        powers[mask] = t
    return powers


def as_signed_blade(u: CliffordElement) -> GeneratorGroupElement | None:
    """Read u back as a signed blade ``i^t * e_I``, or None if it is not one.

    A signed blade is exactly one term whose coefficient is a unit 1, i, -1, -i.
    """
    if len(u._terms) != 1:
        return None
    ((mask, coeff),) = u._terms.items()
    t = _UNIT_POWERS.get((coeff._a, coeff._b, coeff._d))
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
        GeneratorGroupElement(mask, t)
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
