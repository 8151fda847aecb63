"""The dual torus as character vectors, and the induced bundle actions.

A degree-zero line bundle class is encoded by the values of the
polarization's alternating form against the realified lattice basis,
taken mod 1. For a principal polarization this encoding is a group
isomorphism from the torus to its dual, which is what `point_to_bundle`
and `bundle_to_point` implement in both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .action import act, apply_matrix, group_lattice_matrix, translation_system
from .clifford import CliffordElement, GeneratorGroupElement, element_order
from .errors import NotPrincipalError
from .matrices import Matrix
from .scalars import GaussianRational, as_gaussian, as_rational, format_rational
from .spinrep import RepresentationTable
from .torus import PolarizationData, TorusPoint, is_principal


class BundleClass:
    """A degree-zero bundle class: one value in [0, 1) per realified basis vector."""

    __slots__ = ("k", "chars")

    def __init__(self, k: int, chars: Sequence[Fraction | int]) -> None:
        values = tuple(as_rational(x) % 1 for x in chars)
        if len(values) != 2 << k:
            raise ValueError(f"expected {2 << k} components for k={k}, got {len(values)}")
        self.k = k
        self.chars = values

    @classmethod
    def trivial(cls, k: int) -> BundleClass:
        return cls(k, (0,) * (2 << k))

    def tensor(self, other: BundleClass) -> BundleClass:
        self._require_same_dual(other)
        return BundleClass(self.k, tuple(a + b for a, b in zip(self.chars, other.chars)))

    def dual(self) -> BundleClass:
        return BundleClass(self.k, tuple(-x for x in self.chars))

    def power(self, n: int) -> BundleClass:
        return BundleClass(self.k, tuple(x * n for x in self.chars))

    def order(self) -> int:
        """Order in the dual group: lcm of the component denominators."""
        return math.lcm(*[x.denominator for x in self.chars], 1)

    def is_trivial(self) -> bool:
        return all(not x for x in self.chars)

    def _require_same_dual(self, other: BundleClass) -> None:
        if self.k != other.k:
            raise ValueError("bundle classes live on duals of different tori")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BundleClass):
            return NotImplemented
        return self.k == other.k and self.chars == other.chars

    def __hash__(self) -> int:
        return hash((self.k, self.chars))

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
    if p.lattice != pol.lattice:
        raise ValueError("point and polarization use different lattices")
    reals = [c.re for c in p.coords] + [c.im for c in p.coords]
    gram = pol.imag_gram
    size = len(reals)
    chars = []
    for j in range(size):
        total = Fraction(0)
        for a, x in enumerate(reals):
            if not x:
                continue
            entry = gram[a][j]
            if entry:
                total += x * entry
        chars.append(total % 1)
    return BundleClass(pol.lattice.k, chars)


def bundle_to_point(bundle: BundleClass, pol: PolarizationData) -> TorusPoint:
    """Inverse duality, via the exact inverse of the transposed form."""
    _require_principal(pol)
    if bundle.k != pol.lattice.k:
        raise ValueError("bundle and polarization have different dimensions")
    inverse = pol.inverse_transpose_form()
    solution = inverse.matvec(tuple(as_gaussian(Fraction(x)) for x in bundle.chars))
    reals = [x.re % 1 for x in solution]
    g = pol.g
    coords = tuple(GaussianRational(reals[a], reals[g + a]) for a in range(g))
    return TorusPoint(pol.lattice, coords)


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

    Callers scanning many bundles against one actor may pass the actor's
    lattice matrix to avoid recomputing it per bundle.
    """
    base_point = bundle_to_point(bundle, pol)
    if matrix is None:
        matrix = group_lattice_matrix(g, table, pol.lattice)
    first_point = apply_matrix(matrix, base_point)
    second_point = apply_matrix(matrix, first_point)
    lm = point_to_bundle(first_point - base_point, pol)
    ln = point_to_bundle(second_point - first_point, pol)
    return ln == lm and lm.order() <= 2
