"""Clifford elements acting on the torus, and their translation systems.

An integral element whose matrix preserves the lattice descends to the
quotient. For a group generator g of order 4 the induced map is governed
by two translation points: M moves the base point to its first image and
N moves that image to the second. The full orbit is then

    p -> p + M -> p + M + N -> p + N -> p

and ``2p + M + N = 0`` on the torus. Order-2 actors degenerate to N = -M,
and on two-torsion points both collapse to N = M with 2M = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .clifford import CliffordElement, GeneratorGroupElement, as_signed_blade, element_order
from .errors import LatticeNotPreservedError, NotIntegralError
from .matrices import Matrix
from .spinrep import RepresentationTable
from .torus import (
    DEFAULT_ENUMERATION_CAP,
    LatticeSpec,
    TorusPoint,
    torsion_points,
)


def _lattice_coordinates(ambient: Matrix, lattice: LatticeSpec) -> Matrix:
    """Conjugate an ambient matrix into lattice coordinates; raise if it leaves Z[i]."""
    conjugated = ambient if lattice.is_default else lattice.inverse_basis @ ambient @ lattice.basis
    if not conjugated.is_gaussian_integer():
        raise LatticeNotPreservedError(
            "element does not map the lattice into itself"
        )
    return conjugated


def lattice_matrix(
    h: CliffordElement, table: RepresentationTable, lattice: LatticeSpec
) -> Matrix:
    """The matrix of h in lattice coordinates, validated to preserve the lattice.

    A signed blade goes through ``group_lattice_matrix`` and its memo.
    """
    g = as_signed_blade(h)
    if g is not None:
        return group_lattice_matrix(g, table, lattice)
    if not h.is_gaussian_integral():
        raise NotIntegralError("element has a coefficient outside Z[i]")
    return _lattice_coordinates(table.represent(h), lattice)


def preserves_lattice(
    h: CliffordElement, table: RepresentationTable, lattice: LatticeSpec
) -> bool:
    """Whether the matrix of h maps the lattice into itself."""
    g = as_signed_blade(h)
    try:
        if g is not None:
            group_lattice_matrix(g, table, lattice)
        else:
            _lattice_coordinates(table.represent(h), lattice)
    except LatticeNotPreservedError:
        return False
    return True


def group_lattice_matrix(
    g: GeneratorGroupElement, table: RepresentationTable, lattice: LatticeSpec
) -> Matrix:
    """Lattice-coordinates matrix of a signed blade, built once per lattice and reused.

    Signed blades are always integral, so only the lattice-preservation check
    remains; this is the hot path for orbit scans. The result is memoized in
    ``table.lattice_images`` per (blade, i_power, lattice).
    """
    key = (g.blade, g.i_power, lattice)
    matrix = table.lattice_images.get(key)
    if matrix is None:
        matrix = _lattice_coordinates(table.represent_group_element(g), lattice)
        table.lattice_images[key] = matrix
    return matrix


def apply_matrix(m: Matrix, p: TorusPoint) -> TorusPoint:
    """Apply a lattice-coordinates matrix to a point, on its numerators mod its order.

    The matrix must have entries in Z[i] (NotIntegralError otherwise), as
    every matrix that descends to the torus does.
    """
    dim = p.lattice.dim
    if m.rows != dim or m.cols != dim:
        raise ValueError(f"a {m.rows}x{m.cols} matrix cannot act on a point with {dim} coordinates")
    return p.transform(m.realified_rows())


def act(h: CliffordElement, p: TorusPoint, table: RepresentationTable) -> TorusPoint:
    """The action of an integral, lattice-preserving element on a point."""
    return apply_matrix(lattice_matrix(h, table, p.lattice), p)


@dataclass(frozen=True)
class TranslationSystem:
    """Base point, its two translation points, and the actor's full orbit."""

    actor: GeneratorGroupElement
    order: int
    base: TorusPoint
    first_translation: TorusPoint
    second_translation: TorusPoint
    orbit: tuple[TorusPoint, ...]

    def four_step_holds(self) -> bool:
        """The order-4 translation pattern, checked point by point."""
        p, m, n = self.base, self.first_translation, self.second_translation
        return (
            self.orbit[1] == p + m
            and self.orbit[2] == p + m + n
            and self.orbit[3] == p + n
            and self.orbit[4] == p
        )

    def closure_identity_holds(self) -> bool:
        """For order-4 actors: 2 * base + M + N = 0 on the torus."""
        total = self.base + self.base + self.first_translation + self.second_translation
        return total.is_zero()

    def degenerate_pair_holds(self) -> bool:
        """For order-2 actors: N = -M and the orbit closes after two steps."""
        return (
            self.second_translation == -self.first_translation
            and self.orbit[2] == self.base
        )


def translation_system(
    g: GeneratorGroupElement,
    p: TorusPoint,
    table: RepresentationTable,
) -> TranslationSystem:
    """Compute M, N, and the orbit of p under a generator of order >= 2."""
    order = element_order(g, table.sig)
    if order < 2:
        raise ValueError("translation systems need an actor of order at least 2")
    matrix = group_lattice_matrix(g, table, p.lattice)
    orbit = [p]
    for _ in range(4):
        orbit.append(apply_matrix(matrix, orbit[-1]))
    return TranslationSystem(
        actor=g,
        order=order,
        base=p,
        first_translation=orbit[1] - p,
        second_translation=orbit[2] - orbit[1],
        orbit=tuple(orbit),
    )


@dataclass(frozen=True)
class TwoTorsionReport:
    """Exhaustive (or sampled) two-torsion scan for one actor."""

    actor: GeneratorGroupElement
    checked: int
    failures: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return not self.failures


def verify_two_torsion(
    g: GeneratorGroupElement,
    table: RepresentationTable,
    lattice: LatticeSpec,
    cap: int = DEFAULT_ENUMERATION_CAP,
    points: Iterable[TorusPoint] | None = None,
) -> TwoTorsionReport:
    """On each scanned two-torsion point: both translations coincide and are 2-torsion.

    ``points`` defaults to every two-torsion point, enumerated under ``cap``;
    pass a subset to scan a sample instead.
    """
    order = element_order(g, table.sig)
    if order < 2:
        raise ValueError("the scan needs an actor of order at least 2")
    matrix = group_lattice_matrix(g, table, lattice)
    if points is None:
        points = torsion_points(2, lattice, cap=cap)
    checked = 0
    failures: list[str] = []
    for eps in points:
        first = apply_matrix(matrix, eps)
        second = apply_matrix(matrix, first)
        m = first - eps
        n = second - first
        checked += 1
        if n != m or not (m + m).is_zero():
            failures.append(str(eps))
    return TwoTorsionReport(actor=g, checked=checked, failures=tuple(failures))
