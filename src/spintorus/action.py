"""Clifford elements acting on the torus, and their translation systems.

An integral element whose matrix preserves the lattice descends to the
quotient. For a group generator g of order 4 the induced map is governed
by two translation points: M moves the base point to its first image and
N moves that image to the second. The full orbit is then

    p -> p + M -> p + M + N -> p + N -> p

and ``2p + M + N = 0`` on the torus. Order-2 actors degenerate to N = -M,
and on two-torsion points both collapse to N = M with 2M = 0.

The orbits are computed for a whole :class:`~spintorus.torus.TorsionBlock`
of points at once: the actor's realified lattice rows act on each
coordinate column, and M, N and every identity are column arithmetic
modulo each point's own denominator. Each identity is one predicate over
blocks, returning a verdict per point; a single :class:`TranslationSystem`
checks itself with the same predicates on blocks of one, and
``verify_two_torsion`` on the block of every two-torsion point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .clifford import CliffordElement, GeneratorGroupElement, as_signed_blade, element_order
from .errors import LatticeNotPreservedError, NotIntegralError
from .matrices import Matrix
from .spinrep import RepresentationTable
from .torus import (
    DEFAULT_ENUMERATION_CAP,
    LatticeSpec,
    TorsionBlock,
    TorusPoint,
    blocks_of_one,
    torsion_block,
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


def translation_block(
    matrix: Matrix, block: TorsionBlock, steps: int = 4
) -> tuple[list[TorsionBlock], TorsionBlock, TorsionBlock]:
    """The orbits of a block of points under a lattice matrix, and their translations.

    Returns ``(orbit, M, N)``: ``orbit`` is the block and its first ``steps``
    images (``steps >= 2``), ``M = orbit[1] - orbit[0]`` and
    ``N = orbit[2] - orbit[1]``, every point over its own denominator.
    """
    if matrix.rows != matrix.cols or 2 * matrix.rows != len(block.cols):
        raise ValueError(f"a {matrix.rows}x{matrix.cols} matrix cannot act on {len(block.cols)} numerators")
    rows = matrix.realified_rows()
    orbit = [block]
    for _ in range(steps):
        orbit.append(orbit[-1].transform(rows))
    return orbit, orbit[1] - block, orbit[2] - orbit[1]


def _every(*verdicts: list[bool]) -> list[bool]:
    return [all(per_point) for per_point in zip(*verdicts)]


# The identities below take blocks of points or of bundle classes alike, all
# over the same denominators, and give one verdict per item.


def four_step(
    base: TorsionBlock, m: TorsionBlock, n: TorsionBlock, steps: Sequence[TorsionBlock]
) -> list[bool]:
    """The order-4 pattern: the four steps are base + M, base + M + N, base + N, base."""
    moved = base + m
    return _every(
        steps[0].agrees(moved),
        steps[1].agrees(moved + n),
        steps[2].agrees(base + n),
        steps[3].agrees(base),
    )


def closure(base: TorsionBlock, m: TorsionBlock, n: TorsionBlock) -> list[bool]:
    """2 * base + M + N = 0."""
    return (base + base + m + n).is_zero()


def degenerate_pair(
    base: TorsionBlock, m: TorsionBlock, n: TorsionBlock, second: TorsionBlock
) -> list[bool]:
    """The order-2 pattern: N = -M, and the second step is base again."""
    return _every(n.agrees(-m), second.agrees(base))


def two_torsion_pair(m: TorsionBlock, n: TorsionBlock) -> list[bool]:
    """On two-torsion: N = M and 2M = 0."""
    return _every(n.agrees(m), (m + m).is_zero())


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
        """The order-4 translation pattern."""
        base, m, n, *steps = blocks_of_one(
            self.base, self.first_translation, self.second_translation, *self.orbit[1:]
        )
        return four_step(base, m, n, steps)[0]

    def closure_identity_holds(self) -> bool:
        """For order-4 actors: 2 * base + M + N = 0 on the torus."""
        return closure(*blocks_of_one(self.base, self.first_translation, self.second_translation))[0]

    def degenerate_pair_holds(self) -> bool:
        """For order-2 actors: N = -M and the orbit closes after two steps."""
        return degenerate_pair(
            *blocks_of_one(self.base, self.first_translation, self.second_translation, self.orbit[2])
        )[0]


def translation_system(
    g: GeneratorGroupElement,
    p: TorusPoint,
    table: RepresentationTable,
) -> TranslationSystem:
    """Compute M, N, and the orbit of p under a generator of order >= 2."""
    order = element_order(g, table.sig)
    if order < 2:
        raise ValueError("translation systems need an actor of order at least 2")
    orbit, m, n = translation_block(group_lattice_matrix(g, table, p.lattice), blocks_of_one(p)[0])

    def point(block: TorsionBlock) -> TorusPoint:
        return TorusPoint.from_numerators(p.lattice, *block.item(0))

    return TranslationSystem(
        actor=g,
        order=order,
        base=p,
        first_translation=point(m),
        second_translation=point(n),
        orbit=(p, *(point(q) for q in orbit[1:])),
    )


@dataclass(frozen=True)
class TwoTorsionReport:
    """Exhaustive two-torsion scan for one actor."""

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
) -> TwoTorsionReport:
    """On every two-torsion point: both translations coincide and are 2-torsion.

    The points, enumerated under ``cap``, are scanned as one block, and the
    failures name every failing point in scan order.
    """
    order = element_order(g, table.sig)
    if order < 2:
        raise ValueError("the scan needs an actor of order at least 2")
    matrix = group_lattice_matrix(g, table, lattice)
    block = torsion_block(2, lattice, cap=cap)
    _, m, n = translation_block(matrix, block, steps=2)
    failures = tuple(
        str(TorusPoint.from_numerators(lattice, *block.item(t)))
        for t, ok in enumerate(two_torsion_pair(m, n))
        if not ok
    )
    return TwoTorsionReport(actor=g, checked=len(block), failures=failures)
