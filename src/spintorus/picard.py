"""The dual torus as character vectors, and the induced bundle actions.

A degree-zero line bundle class is encoded by the values of the
polarization's alternating form against the realified lattice basis,
taken mod 1. Classes and torus points store integer numerators in the same
realified order (u_1..u_g, i*u_1..i*u_g). For a principal polarization the
encoding is a group isomorphism from the torus to its dual, which is what
`point_to_bundle` and `bundle_to_point` implement in both directions: E^T
and its integral inverse E^-T, applied as sparse integer rows to the
numerators modulo their common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .action import act, apply_matrix, group_lattice_matrix, translation_system
from .clifford import CliffordElement, GeneratorGroupElement, element_order
from .errors import NotPrincipalError
from .matrices import Matrix, sparse_matvec_mod
from .scalars import as_rational, format_rational
from .spinrep import RepresentationTable
from .torus import (
    PolarizationData,
    TorusPoint,
    combine_numerators,
    fraction_numerators,
    is_principal,
    lowest_terms,
)


class BundleClass:
    """A degree-zero bundle class: one value in [0, 1) per realified basis vector.

    Stored like a torus point, on the same realified basis: ``den`` (the
    order, an int >= 1) and ``nums``, the 2 * 2^k integer numerators in
    ``[0, den)``, with ``gcd(den, *nums) == 1``; the trivial class has
    ``den == 1``. ``chars`` derives the Fraction values from these integers.
    """

    __slots__ = ("k", "den", "nums", "_chars")

    def __init__(self, k: int, chars: Sequence[Fraction | int]) -> None:
        values = [as_rational(x) for x in chars]
        if len(values) != 2 << k:
            raise ValueError(f"expected {2 << k} components for k={k}, got {len(values)}")
        self.k = k
        self.den, self.nums = fraction_numerators(values)
        self._chars: tuple[Fraction, ...] | None = None

    @classmethod
    def from_numerators(cls, k: int, den: int, nums: Sequence[int]) -> BundleClass:
        """The class ``nums / den`` for numerators already reduced into [0, den)."""
        b = cls.__new__(cls)
        b.k = k
        b.den, b.nums = lowest_terms(den, nums)
        b._chars = None
        return b

    @classmethod
    def trivial(cls, k: int) -> BundleClass:
        return cls.from_numerators(k, 1, (0,) * (2 << k))

    @property
    def chars(self) -> tuple[Fraction, ...]:
        """The component values, each in [0, 1)."""
        if self._chars is None:
            self._chars = tuple(Fraction(x, self.den) for x in self.nums)
        return self._chars

    def tensor(self, other: BundleClass) -> BundleClass:
        self._require_same_dual(other)
        den, nums = combine_numerators(self.den, self.nums, other.den, other.nums, 1)
        return BundleClass.from_numerators(self.k, den, nums)

    def dual(self) -> BundleClass:
        den = self.den
        return BundleClass.from_numerators(self.k, den, [-x % den for x in self.nums])

    def power(self, n: int) -> BundleClass:
        den = self.den
        return BundleClass.from_numerators(self.k, den, [x * n % den for x in self.nums])

    def order(self) -> int:
        """Order in the dual group: the common denominator."""
        return self.den

    def is_trivial(self) -> bool:
        return self.den == 1

    def _require_same_dual(self, other: BundleClass) -> None:
        if self.k != other.k:
            raise ValueError("bundle classes live on duals of different tori")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BundleClass):
            return NotImplemented
        return self.k == other.k and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.k, self.den, self.nums))

    def __repr__(self) -> str:
        return f"BundleClass({self})"

    def __str__(self) -> str:
        return "[" + ", ".join(format_rational(x) for x in self.chars) + "]"


def _require_principal(pol: PolarizationData) -> None:
    if not is_principal(pol):
        raise NotPrincipalError("the duality maps need a principal polarization")


def point_to_bundle(p: TorusPoint, pol: PolarizationData) -> BundleClass:
    """Forward duality: pair the point's lift against the realified basis."""
    _require_principal(pol)
    if p.lattice is not pol.lattice and p.lattice != pol.lattice:
        raise ValueError("point and polarization use different lattices")
    nums = sparse_matvec_mod(pol.bundle_rows(), p.nums, p.den)
    return BundleClass.from_numerators(pol.lattice.k, p.den, nums)


def bundle_to_point(bundle: BundleClass, pol: PolarizationData) -> TorusPoint:
    """Inverse duality, via the integral inverse of the transposed form."""
    _require_principal(pol)
    if bundle.k != pol.lattice.k:
        raise ValueError("bundle and polarization have different dimensions")
    nums = sparse_matvec_mod(pol.point_rows(), bundle.nums, bundle.den)
    return TorusPoint.from_numerators(pol.lattice, bundle.den, nums)


def bundle_action(
    h: CliffordElement,
    bundle: BundleClass,
    table: RepresentationTable,
    pol: PolarizationData,
) -> BundleClass:
    """The action induced on the dual: conjugate the torus action by duality."""
    return point_to_bundle(act(h, bundle_to_point(bundle, pol), table), pol)


@dataclass(frozen=True)
class BundleSystem:
    """The four-bundle translation system attached to an order-4 actor."""

    actor: GeneratorGroupElement
    base: BundleClass
    first_bundle: BundleClass
    second_bundle: BundleClass
    system: tuple[BundleClass, BundleClass, BundleClass, BundleClass]
    steps: tuple[BundleClass, BundleClass, BundleClass, BundleClass]

    def four_step_holds(self) -> bool:
        base, lm, ln = self.base, self.first_bundle, self.second_bundle
        return (
            self.steps[0] == base.tensor(lm)
            and self.steps[1] == base.tensor(lm).tensor(ln)
            and self.steps[2] == base.tensor(ln)
            and self.steps[3] == base
        )

    def dual_square_holds(self) -> bool:
        """(L dual) tensor squared equals the product of the two translation bundles."""
        return self.base.dual().power(2) == self.first_bundle.tensor(self.second_bundle)

    def holds(self) -> bool:
        return self.four_step_holds() and self.dual_square_holds()


def bundle_system(
    g: GeneratorGroupElement,
    bundle: BundleClass,
    table: RepresentationTable,
    pol: PolarizationData,
) -> BundleSystem:
    """Build the translation bundles and the four induced steps for an order-4 actor."""
    if element_order(g, table.sig) != 4:
        raise ValueError("the four-bundle system needs an order-4 actor")
    base_point = bundle_to_point(bundle, pol)
    system = translation_system(g, base_point, table)
    first = point_to_bundle(system.first_translation, pol)
    second = point_to_bundle(system.second_translation, pol)
    steps = tuple(point_to_bundle(q, pol) for q in system.orbit[1:])
    return BundleSystem(
        actor=g,
        base=bundle,
        first_bundle=first,
        second_bundle=second,
        system=(first, first.tensor(second), second, BundleClass.trivial(bundle.k)),
        steps=steps,  # type: ignore[arg-type]
    )


def two_torsion_bundle_check(
    g: GeneratorGroupElement,
    bundle: BundleClass,
    table: RepresentationTable,
    pol: PolarizationData,
    matrix: Matrix | None = None,
) -> bool:
    """For order-2 bundles: both translation bundles agree and are 2-torsion.

    ``matrix`` is the actor's lattice matrix; by default it is looked up
    through ``group_lattice_matrix``, which builds it once per lattice.
    """
    base_point = bundle_to_point(bundle, pol)
    if matrix is None:
        matrix = group_lattice_matrix(g, table, pol.lattice)
    first_point = apply_matrix(matrix, base_point)
    second_point = apply_matrix(matrix, first_point)
    lm = point_to_bundle(first_point - base_point, pol)
    ln = point_to_bundle(second_point - first_point, pol)
    return ln == lm and lm.order() <= 2
