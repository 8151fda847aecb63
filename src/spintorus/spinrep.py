"""Spinor matrix modules for the Clifford algebras.

The generator matrices come from the standard tensor ladder over the three
2x2 Hermitian units: with ``X = [[0,1],[1,0]]``, ``Y = [[0,-i],[i,0]]`` and
``Z = [[1,0],[0,-1]]``, the pair for slot ``j`` of ``k`` is

    gamma[2j-1] = Z^(j-1) (x) X (x) I^(k-j)
    gamma[2j]   = Z^(j-1) (x) Y (x) I^(k-j)

and any generator that squares to -1 is multiplied by ``i``. All entries
stay in Z[i], which is what lets these matrices act on Gaussian lattices
later on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .clifford import CliffordElement, GeneratorGroupElement, Signature, basis_blades
from .errors import NotUnitVectorError, SignatureMismatchError
from .matrices import _ZERO, Matrix, rank_of_rows
from .scalars import GaussianRational

if TYPE_CHECKING:
    from .torus import LatticeSpec

PAULI_X = Matrix([[0, 1], [1, 0]])
PAULI_Y = Matrix([[0, GaussianRational(0, -1)], [GaussianRational(0, 1), 0]])
PAULI_Z = Matrix([[1, 0], [0, -1]])


def _tensor_chain(factors: Sequence[Matrix]) -> Matrix:
    out = factors[0]
    for f in factors[1:]:
        out = out.kron(f)
    return out


def clifford_relation_failure(
    sig: Signature, gamma: Sequence[Matrix]
) -> tuple[int, int] | None:
    """The first generator pair (1-indexed) breaking a Clifford relation, or None.

    The relations are ``gamma_a gamma_b + gamma_b gamma_a = 2 delta_ab q(e_a) Id``.
    """
    dim = gamma[0].rows
    identity = Matrix.identity(dim)
    for a in range(sig.n):
        for b in range(a, sig.n):
            anti = gamma[a] @ gamma[b] + gamma[b] @ gamma[a]
            expected = identity * (2 * sig.square_sign(a + 1)) if a == b else Matrix.zero(dim, dim)
            if anti != expected:
                return a + 1, b + 1
    return None


class RepresentationTable:
    """The 2k generator matrices plus every blade image, precomputed.

    Immutable after construction, apart from ``lattice_images``, the memo of
    signed-blade matrices in lattice coordinates, keyed by (blade, i_power,
    lattice), that ``action.group_lattice_matrix`` fills on use. The
    constructor checks the Clifford relations and integrality, so a table in
    hand is always a valid representation.
    """

    def __init__(self, sig: Signature, gamma: Sequence[Matrix], description: str = "") -> None:
        self.sig = sig
        self.k = sig.k
        self.dim = 1 << sig.k
        self.gamma = tuple(gamma)
        self.description = description or "tensor ladder over X/Y/Z"
        if len(self.gamma) != sig.n:
            raise ValueError(f"expected {sig.n} generator matrices, got {len(self.gamma)}")
        identity = Matrix.identity(self.dim)
        for m in self.gamma:
            if m.shape() != (self.dim, self.dim):
                raise ValueError("generator matrix has the wrong shape")
            if not m.is_gaussian_integer():
                raise ValueError("generator matrices must have entries in Z[i]")
        broken = clifford_relation_failure(sig, self.gamma)
        if broken is not None:
            raise ValueError(f"Clifford relation fails for generators {broken[0]}, {broken[1]}")
        images: dict[int, Matrix] = {0: identity}
        for mask in range(1, 1 << sig.n):
            low = mask & -mask
            images[mask] = self.gamma[low.bit_length() - 1] @ images[mask ^ low]
        self._blade_images = images
        self.lattice_images: dict[tuple[int, int, LatticeSpec], Matrix] = {}

    def blade_image(self, mask: int) -> Matrix:
        return self._blade_images[mask]

    def represent(self, u: CliffordElement) -> Matrix:
        """The matrix of an algebra element in this module."""
        if u.sig != self.sig:
            raise SignatureMismatchError(f"{u.sig} vs {self.sig}")
        rows: list[dict[int, GaussianRational]] = [{} for _ in range(self.dim)]
        for mask, coeff in u.terms():
            for acc, row in zip(rows, self._blade_images[mask].nonzero_rows()):
                for c, x in row:
                    term = x * coeff
                    prev = acc.get(c)
                    acc[c] = term if prev is None else prev + term
        columns = range(self.dim)
        return Matrix._wrap(tuple(tuple(acc.get(c, _ZERO) for c in columns) for acc in rows))

    def represent_group_element(self, g: GeneratorGroupElement) -> Matrix:
        """The image of a signed blade: its blade image times its phase."""
        image = self._blade_images[g.blade]
        return image * g.phase if g.i_power else image

    def __repr__(self) -> str:
        return f"RepresentationTable(k={self.k}, sig=({self.sig.p},{self.sig.q}))"


def build_generators(k: int, sig: Signature | None = None) -> RepresentationTable:
    """Build the representation table for ``dim V = 2k`` (default signature (2k, 0))."""
    if k < 1:
        raise ValueError("k must be at least 1")
    sig = sig or Signature(2 * k, 0)
    if sig.k != k:
        raise SignatureMismatchError(f"signature {sig} does not match k={k}")
    identity2 = Matrix.identity(2)
    gamma: list[Matrix] = []
    for j in range(1, k + 1):
        prefix = [PAULI_Z] * (j - 1)
        suffix = [identity2] * (k - j)
        gamma.append(_tensor_chain(prefix + [PAULI_X] + suffix))
        gamma.append(_tensor_chain(prefix + [PAULI_Y] + suffix))
    unit_i = GaussianRational(0, 1)
    for index in range(sig.n):
        if sig.square_sign(index + 1) < 0:
            gamma[index] = gamma[index] * unit_i
    return RepresentationTable(sig, gamma)


@dataclass(frozen=True)
class IsoReport:
    """Outcome of the linear-independence check for the blade images."""

    spanning_rank: int
    expected_rank: int

    @property
    def independent(self) -> bool:
        return self.spanning_rank == self.expected_rank


def verify_algebra_iso(table: RepresentationTable) -> IsoReport:
    """Check the 4^k blade images span End of the spinor space.

    Since a surjection between algebras of equal dimension is an
    isomorphism, full flattened rank is exactly the isomorphism property.
    """
    expected = 1 << (2 * table.k)
    rows = (
        table.blade_image(mask).flatten() for mask in range(1 << table.sig.n)
    )
    return IsoReport(spanning_rank=rank_of_rows(rows), expected_rank=expected)


@dataclass(frozen=True)
class UnitaryReport:
    """Which integral basis elements satisfy image-of-star == adjoint."""

    checked: int
    failures: tuple[str, ...]

    @property
    def all_compatible(self) -> bool:
        return not self.failures


def verify_unitary(table: RepresentationTable) -> UnitaryReport:
    """Compare the image of u* with the conjugate transpose for all e_I, i*e_I."""
    failures = []
    checked = 0
    for g in basis_blades(table.sig):
        u = g.to_element(table.sig)
        checked += 1
        if table.represent(u.star()) != table.represent(u).adjoint():
            failures.append(g.label())
    return UnitaryReport(checked=checked, failures=tuple(failures))


def verify_spin_preserves_form(
    table: RepresentationTable, vectors: Iterable[CliffordElement]
) -> bool:
    """Check that a product of unit vectors acts by a unitary matrix.

    Each input must be a grade-1 element whose square is the scalar +1 or
    -1; products of an even number of them are the usual spin elements.
    """
    product = CliffordElement.scalar(table.sig, 1)
    for v in vectors:
        if v.is_zero() or v.grades() != {1}:
            raise NotUnitVectorError(f"{v!r} is not a grade-1 element")
        square = v * v
        if not square.is_scalar() or square.scalar_part() not in (1, -1):
            raise NotUnitVectorError(f"{v!r} squares to {square!r}, not +1 or -1")
        product = product * v
    m = table.represent(product)
    return m.adjoint() @ m == Matrix.identity(table.dim)
