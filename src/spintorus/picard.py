"""The dual torus as character vectors, and the induced bundle actions.

A degree-zero line bundle class is encoded by the values of the
polarization's alternating form against the realified lattice basis,
taken mod 1. A class is the same element type as a torus point, with its
group arithmetic written once in :mod:`spintorus.torus`: the owner is k
instead of a lattice, and the integer numerators are in the same realified
order (u_1..u_g, i*u_1..i*u_g). For a principal polarization the encoding
is a group isomorphism from the torus to its dual, which is what
`point_to_bundle` and `bundle_to_point` implement in both directions: E^T
and its integral inverse E^-T, applied as sparse integer rows to the
numerators modulo their common denominator.

An actor acts on classes through E^T R E^-T, for R the realified rows of its
lattice matrix: ``bundle_action`` applies it to one class, and the bundle
systems and the order-2 class scan apply its powers, composed once per actor
from ``action.lattice_rows`` (``induced_powers``), to a
:class:`~spintorus.torus.TorsionBlock` of classes, which is never converted
to points. On the default lattice those powers are signed permutations that
select columns; otherwise the sparse kernel applies them, column by column
modulo each class's own denominator. The orbits are checked with the
identities of :mod:`spintorus.action`, which hold on bundle blocks as on
point blocks because the duality is a group isomorphism. ``bundle_system``
builds the same steps through the points instead, as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .action import four_step, group_lattice_matrix, lattice_matrix, lattice_rows, translation_system, two_torsion_pair
from .clifford import CliffordElement, GeneratorGroupElement, element_order
from .errors import NotPrincipalError
from .matrices import IntegerRows, Matrix, compose_rows, power_rows
from .scalars import as_rational, format_gaussian
from .spinrep import RepresentationTable
from .torus import (
    PolarizationData,
    TorsionBlock,
    TorusPoint,
    _TorsionElement,
    blocks_of_one,
    is_principal,
)


class BundleClass(_TorsionElement):
    """A degree-zero bundle class: one value in [0, 1) per realified basis vector.

    A torus element owned by ``k``: ``chars`` derives the Fraction values
    from its numerators, and the group operations carry their bundle names.
    """

    __slots__ = ()

    def __init__(self, k: int, chars: Sequence[Fraction | int]) -> None:
        values = [as_rational(x) for x in chars]
        if len(values) != 2 << k:
            raise ValueError(f"expected {2 << k} components for k={k}, got {len(values)}")
        den = math.lcm(*[x.denominator for x in values])
        super().__init__(k, den, [x.numerator * (den // x.denominator) for x in values])

    @property
    def k(self) -> int:
        return self.owner

    @classmethod
    def trivial(cls, k: int) -> BundleClass:
        return cls.from_numerators(k, 1, (0,) * (2 << k))

    @property
    def chars(self) -> tuple[Fraction, ...]:
        """The component values, each in [0, 1)."""
        if self._cache is None:
            self._cache = tuple(Fraction(x, self.den) for x in self.nums)
        return self._cache

    tensor = _TorsionElement.__add__
    dual = _TorsionElement.__neg__
    power = _TorsionElement.__mul__
    is_trivial = _TorsionElement.is_zero

    def __str__(self) -> str:
        den = self.den
        return "[" + ", ".join(format_gaussian(x, 0, den) for x in self.nums) + "]"


def _require_principal(pol: PolarizationData) -> None:
    if not is_principal(pol):
        raise NotPrincipalError("the duality maps need a principal polarization")


def point_to_bundle(p: TorusPoint, pol: PolarizationData) -> BundleClass:
    """Forward duality: pair the point's lift against the realified basis."""
    _require_principal(pol)
    if p.lattice is not pol.lattice and p.lattice != pol.lattice:
        raise ValueError("point and polarization use different lattices")
    return p.transform(pol.bundle_rows(), BundleClass, pol.lattice.k)


def bundle_to_point(bundle: BundleClass, pol: PolarizationData) -> TorusPoint:
    """Inverse duality, via the integral inverse of the transposed form."""
    _require_principal(pol)
    if bundle.k != pol.lattice.k:
        raise ValueError("bundle and polarization have different dimensions")
    return bundle.transform(pol.point_rows(), TorusPoint, pol.lattice)


def _induced_rows(rows: IntegerRows, pol: PolarizationData) -> IntegerRows:
    """E^T R E^-T for the realified lattice rows R: the action induced on bundle numerators."""
    return compose_rows(pol.bundle_rows(), compose_rows(rows, pol.point_rows()))


def bundle_action(
    h: CliffordElement,
    bundle: BundleClass,
    table: RepresentationTable,
    pol: PolarizationData,
) -> BundleClass:
    """The action induced on the dual: the torus action conjugated by duality, E^T R E^-T."""
    _require_principal(pol)
    if bundle.k != pol.lattice.k:
        raise ValueError("bundle and polarization have different dimensions")
    return bundle.transform(_induced_rows(lattice_matrix(h, table, pol.lattice).realified_rows(), pol))


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
        """The steps are L x L_M, L x L_M x L_N, L x L_N and L."""
        return four_step(blocks_of_one(self.base, *self.steps))[0][0]

    def dual_square_holds(self) -> bool:
        """(L dual) tensor squared equals the product of the two translation bundles.

        Checked in the equivalent form that L^2 x L_M x L_N is trivial.
        """
        return four_step(blocks_of_one(self.base, *self.steps))[1][0]

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


def induced_powers(rows: IntegerRows, pol: PolarizationData, steps: int) -> list[IntegerRows]:
    """The rows of E^T R^s E^-T for s = 1..steps, R the realified rows of the actor's lattice matrix.

    The induced map E^T R E^-T is composed once, and its powers from it,
    so image s of a class is the class of g^s applied to the class's point.
    On the default lattice all three are signed permutations, and the
    images are column selections (``TorsionBlock.orbit``).
    """
    _require_principal(pol)
    return power_rows(_induced_rows(rows, pol), steps)


def bundle_systems_hold(
    g: GeneratorGroupElement,
    classes: TorsionBlock,
    table: RepresentationTable,
    pol: PolarizationData,
    powers: list[IntegerRows] | None = None,
) -> tuple[list[bool], TorsionBlock]:
    """Per class of the block: whether ``bundle_system(g, class, ...).holds()``; and the block of L_M.

    ``powers``: the actor's first four ``induced_powers``, when the caller has composed them.
    """
    if element_order(g, table.sig) != 4:
        raise ValueError("the four-bundle system needs an order-4 actor")
    if powers is None:
        powers = induced_powers(lattice_rows(g, table, pol.lattice), pol, 4)
    orbit = classes.orbit(powers[:4])
    steps_hold, closes = four_step(orbit)
    return [a and b for a, b in zip(steps_hold, closes)], orbit[1] - classes


def two_torsion_bundle_scan(
    g: GeneratorGroupElement,
    classes: TorsionBlock,
    table: RepresentationTable,
    pol: PolarizationData,
    powers: list[IntegerRows] | None = None,
) -> list[bool]:
    """Per class of the block: both translation bundles agree and are 2-torsion.

    ``powers``: the actor's ``induced_powers``, at least two, when the caller has composed them.
    """
    if powers is None:
        powers = induced_powers(lattice_rows(g, table, pol.lattice), pol, 2)
    return two_torsion_pair(classes.orbit(powers[:2]))


def two_torsion_bundle_check(
    g: GeneratorGroupElement,
    bundle: BundleClass,
    table: RepresentationTable,
    pol: PolarizationData,
    matrix: Matrix | None = None,
) -> bool:
    """For order-2 bundles: both translation bundles agree and are 2-torsion (``matrix``: the actor's).

    The actor's induced powers are composed on its first class and kept in
    ``pol.induced_memo``, keyed by its realified lattice rows.
    """
    if matrix is None:
        matrix = group_lattice_matrix(g, table, pol.lattice)
    rows = matrix.realified_rows()
    powers = pol.induced_memo.get(rows)
    if powers is None:
        powers = pol.induced_memo[rows] = induced_powers(rows, pol, 2)
    return two_torsion_pair(blocks_of_one(bundle)[0].orbit(powers))[0]
