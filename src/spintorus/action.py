"""Clifford elements acting on the torus, and their translation systems.

An integral element whose matrix preserves the lattice descends to the
quotient. For a group generator g of order 4 the induced map is governed
by two translation points: M moves the base point to its first image and
N moves that image to the second. The full orbit is then

    p -> p + M -> p + M + N -> p + N -> p

and ``2p + M + N = 0`` on the torus. The closure is g^2 p = -p, and given
it the pattern is g^3 p = -(g p) and g^4 p = p: three comparisons of lists
per coordinate column. Order-2 actors degenerate to N = -M, and on
two-torsion points both collapse to N = M with 2M = 0, which is g^2 p = p
with 2M = 0: on the blocks the suites scan, one comparison of lists per
coordinate column.

The orbits are computed for a whole :class:`~spintorus.torus.TorsionBlock`
of points at once, from the realified rows R of the actor's lattice
matrix (``lattice_rows``). A ladder table's signed blade on the default
lattice gives them from its signed permutation, with no dense matrix;
other tables and lattices read them off the memoized, integrality-checked
lattice matrix. When every row of R is a single +1 or -1 entry, image s
selects columns of the block and of its negation by the rows of R^s, and
the image's negation with them: no arithmetic per step, and the negation
is built once per block. Other actors apply the rows of R^s through the
sparse kernel. A scan composes each actor's powers once and moves every
block it checks with them. Each identity compares whole coordinate
columns of the orbit first; only a column that fails is compared item by
item, modulo each point's own denominator, with a verdict per point; a single
:class:`TranslationSystem` checks itself with the same functions on
blocks of one, and ``verify_two_torsion`` on the block of every
two-torsion point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .clifford import CliffordElement, GeneratorGroupElement, as_signed_blade, element_order
from .errors import LatticeNotPreservedError, NotIntegralError
from .matrices import IntegerRows, Matrix, SignedPermutation, power_rows
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


def _signed_permutation(
    g: GeneratorGroupElement, table: RepresentationTable, lattice: LatticeSpec
) -> SignedPermutation | None:
    """A signed blade's lattice matrix where it is its signed permutation: a ladder table on the default lattice."""
    return table.signed_permutation(g) if table.conjugator is None and lattice.is_default else None


def group_lattice_matrix(
    g: GeneratorGroupElement, table: RepresentationTable, lattice: LatticeSpec
) -> Matrix:
    """Lattice-coordinates matrix of a signed blade, built once per lattice and reused.

    Signed blades are always integral, so only the lattice-preservation check
    remains, and a ``_signed_permutation`` made dense needs none. The result
    is memoized in ``table.lattice_images`` per (blade, i_power, lattice).
    """
    key = (g.blade, g.i_power, lattice)
    matrix = table.lattice_images.get(key)
    if matrix is None:
        perm = _signed_permutation(g, table, lattice)
        matrix = perm.dense() if perm is not None else _lattice_coordinates(table.represent_group_element(g), lattice)
        table.lattice_images[key] = matrix
    return matrix


def lattice_rows(g: GeneratorGroupElement, table: RepresentationTable, lattice: LatticeSpec) -> IntegerRows:
    """The realified rows of ``group_lattice_matrix(g, table, lattice)``: all that the orbit scans read.

    A ladder table on the default lattice gives them from the signed permutation: no dense matrix, no memo entry.
    """
    perm = _signed_permutation(g, table, lattice)
    return perm.realified_rows() if perm is not None else group_lattice_matrix(g, table, lattice).realified_rows()


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


# The identities below take the orbit of a block of points or of bundle
# classes alike: the block and its images, all over the same denominators.
# M = image 1 - base and N = image 2 - image 1 are read off the orbit, so
# each identity compares only what those definitions leave open, in one
# pass per coordinate column with one verdict per item.


def _clear_false(ok: list[bool], holds: Sequence[bool]) -> None:
    """Clear ``ok[t]`` wherever ``holds[t]`` is false: every comparison of the identities lands here."""
    if not all(holds):
        for t, h in enumerate(holds):
            if not h:
                ok[t] = False


def _clear_nonzero(ok: list[bool], values: Sequence[int]) -> None:
    """Clear ``ok[t]`` wherever ``values[t]`` is nonzero: the zero test of the closure identity."""
    if any(values):
        for t, x in enumerate(values):
            if x:
                ok[t] = False


def _columns(orbit: Sequence[TorsionBlock]) -> tuple[list[int], Iterator[tuple[list[int], ...]]]:
    """The common denominators of the orbit's blocks, and its columns zipped across the blocks."""
    dens = orbit[0].dens
    if any(q.dens is not dens and q.dens != dens for q in orbit):
        raise ValueError("blocks over different denominators do not combine")
    return dens, zip(*(q.cols for q in orbit))


def four_step(orbit: Sequence[TorsionBlock]) -> tuple[list[bool], list[bool]]:
    """The order-4 pattern and the closure identity, per item of ``orbit = (base, g base, ..., g^4 base)``.

    The pattern: the four images are base + M, base + M + N, base + N and
    base; the first two hold by the definition of M and N, so the third
    and fourth are compared. The closure: 2 * base + M + N, which is
    base + g^2 base, is zero.

    Given the closure g^2 base = -base, the pattern reads g^3 base =
    -(g base) and g^4 base = base. So a column whose second image equals
    the negated base closes for every item, and if its third image also
    equals the negated first and its fourth the base, the pattern holds
    for every item: three list comparisons, against the negations that a
    column selection builds with its image (``TorsionBlock._select``).
    Only a column that fails one of them is compared item by item.
    """
    dens, columns = _columns(orbit)
    steps_hold, closes = [True] * len(dens), [True] * len(dens)
    fixed, zeros = [True] * len(dens), [0] * len(dens)
    negations = zip((-orbit[0]).cols, (-orbit[1]).cols)
    for (base, first, second, third, fourth), (neg_base, neg_first) in zip(columns, negations):
        closed = second == neg_base
        _clear_nonzero(closes, zeros if closed else [(x + y2) % d for x, y2, d in zip(base, second, dens)])
        _clear_false(steps_hold, fixed if closed and third == neg_first and fourth == base else [
            y3 == (x + y2 - y1) % d and y4 == x
            for x, y1, y2, y3, y4, d in zip(base, first, second, third, fourth, dens)
        ])
    return steps_hold, closes


def degenerate_pair(orbit: Sequence[TorsionBlock]) -> list[bool]:
    """The order-2 pattern on ``orbit = (base, g base, g^2 base, ...)``: N = -M, that is, the second image is base."""
    dens, columns = _columns(orbit[:3])
    ok = [True] * len(dens)
    for base, _, second in columns:
        _clear_false(ok, [y2 == x for x, y2 in zip(base, second)])
    return ok


def two_torsion_pair(orbit: Sequence[TorsionBlock]) -> list[bool]:
    """On two-torsion, per item of ``orbit = (base, g base, g^2 base, ...)``: N = M and 2M = 0.

    Over any denominator the two hold exactly when g^2 base = base and
    2M = 0: given 2M = 0, N = M reads g^2 base = 2 g base - base = base +
    2M = base, and back, N = base - g base = -M = M. So a column whose
    second image equals its base is one list comparison, and only a column
    that differs is compared item by item. 2M = 0 cannot fail over a
    denominator that divides 2, as on every two-torsion block the suites
    scan, so it is compared only on blocks with another denominator.
    """
    dens, columns = _columns(orbit[:3])
    ok = [True] * len(dens)
    fixed = [True] * len(dens)
    doubles = max(dens, default=0) > 2
    for base, first, second in columns:
        _clear_false(ok, fixed if second == base else [y2 == x for x, y2 in zip(base, second)])
        if doubles:
            _clear_false(ok, [2 * (y1 - x) % d == 0 for x, y1, d in zip(base, first, dens)])
    return ok


@dataclass(frozen=True)
class TranslationSystem:
    """Base point, its two translation points, and the actor's full orbit."""

    actor: GeneratorGroupElement
    order: int
    base: TorusPoint
    first_translation: TorusPoint
    second_translation: TorusPoint
    orbit: tuple[TorusPoint, ...]

    def _orbit_blocks(self) -> list[TorsionBlock]:
        return blocks_of_one(*self.orbit)

    def four_step_holds(self) -> bool:
        """The order-4 translation pattern."""
        return four_step(self._orbit_blocks())[0][0]

    def closure_identity_holds(self) -> bool:
        """For order-4 actors: 2 * base + M + N = 0 on the torus."""
        return four_step(self._orbit_blocks())[1][0]

    def degenerate_pair_holds(self) -> bool:
        """For order-2 actors: N = -M and the orbit closes after two steps."""
        return degenerate_pair(self._orbit_blocks())[0]


def translation_system(
    g: GeneratorGroupElement,
    p: TorusPoint,
    table: RepresentationTable,
) -> TranslationSystem:
    """Compute M, N, and the orbit of p under a generator of order >= 2."""
    order = element_order(g, table.sig)
    if order < 2:
        raise ValueError("translation systems need an actor of order at least 2")
    blocks = blocks_of_one(p)[0].orbit(power_rows(lattice_rows(g, table, p.lattice), 4))
    orbit = (p, *(TorusPoint.from_numerators(p.lattice, *block.item(0)) for block in blocks[1:]))
    return TranslationSystem(
        actor=g,
        order=order,
        base=p,
        first_translation=orbit[1] - p,
        second_translation=orbit[2] - orbit[1],
        orbit=orbit,
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
    rows = lattice_rows(g, table, lattice)
    block = torsion_block(2, lattice, cap=cap)
    failures = tuple(
        str(TorusPoint.from_numerators(lattice, *block.item(t)))
        for t, ok in enumerate(two_torsion_pair(block.orbit(power_rows(rows, 2))))
        if not ok
    )
    return TwoTorsionReport(actor=g, checked=len(block), failures=failures)
