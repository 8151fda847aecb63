"""Spinor matrix modules for the Clifford algebras.

The generator matrices come from the standard tensor ladder over the three
2x2 Hermitian units: with ``X = [[0,1],[1,0]]``, ``Y = [[0,-i],[i,0]]`` and
``Z = [[1,0],[0,-1]]``, the pair for slot ``j`` of ``k`` is

    gamma[2j-1] = Z^(j-1) (x) X (x) I^(k-j)
    gamma[2j]   = Z^(j-1) (x) Y (x) I^(k-j)

and any generator that squares to -1 is multiplied by ``i``. All entries
stay in Z[i], which is what lets these matrices act on Gaussian lattices
later on.

Each unit, and so each generator and each blade image ``e_I`` (the product
of its generators), is a signed permutation: one entry in {1, i, -1, -i} per
row and per column (see ``matrices.SignedPermutation``). The ladder is built
in that form, as Kronecker products of the units' signed permutations
(``SignedPermutation.kron``), and the table stores every blade image so.
The dense generator matrices ``gamma`` are made from the signed
permutations, and other dense images only for a caller that needs one. The
Clifford relations, the isomorphism rank, the star-versus-adjoint check and
the images of signed blades ``i^t e_I`` are all computed on the signed
permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .clifford import CliffordElement, GeneratorGroupElement, Signature, as_signed_blade, basis_blades
from .errors import NonUnimodularError, NotUnitVectorError, SignatureMismatchError
from .matrices import _ZERO, Matrix, SignedPermutation, rank_of_sparse_rows
from .scalars import UNITS, GaussianRational

if TYPE_CHECKING:
    from .torus import LatticeSpec

def clifford_relation_failure(
    sig: Signature, gamma: Sequence[SignedPermutation]
) -> tuple[int, int] | None:
    """The first generator pair (1-indexed) breaking a Clifford relation, or None.

    The relations are ``gamma_a gamma_b + gamma_b gamma_a = 2 delta_ab q(e_a) Id``.
    Two signed permutations sum to zero only when they share the permutation
    and have opposite phases, so on them the relations read
    ``gamma_a^2 = q(e_a) Id`` and ``gamma_a gamma_b = -gamma_b gamma_a``.
    """
    identity = SignedPermutation.identity(gamma[0].size)
    for a in range(sig.n):
        for b in range(a, sig.n):
            if a == b:
                holds = gamma[a] @ gamma[a] == identity.phased(0 if sig.square_sign(a + 1) > 0 else 2)
            else:
                holds = gamma[a] @ gamma[b] == (gamma[b] @ gamma[a]).phased(2)
            if not holds:
                return a + 1, b + 1
    return None


def unimodular_inverse(f: Matrix) -> Matrix:
    """Return f's inverse after checking both are Gaussian-integer matrices."""
    if not f.is_gaussian_integer():
        raise NonUnimodularError("conjugator must have entries in Z[i]")
    try:
        inverse = f.inv()
    except ValueError as exc:
        raise NonUnimodularError("conjugator is singular") from exc
    if not inverse.is_gaussian_integer():
        raise NonUnimodularError("conjugator inverse leaves Z[i]")
    return inverse


class RepresentationTable:
    """The 2k generator matrices plus every blade image, precomputed.

    The generators must be signed permutations (``SignedPermutation``): the
    constructor raises ValueError for a generator that is not monomial with
    unit entries, has the wrong shape, or breaks a Clifford relation. The
    blade images are kept as signed permutations, each the product of its
    generators. ``build_generators`` and ``endo.transport_table`` hand
    their signed permutations to the private constructor ``_of``, which
    skips the dense round trip and the relations: their ladders satisfy
    them already, and ``spinor_rep`` checks them in its report.

    With a ``conjugator`` f (unimodular over Z[i], else NonUnimodularError),
    the table is the ladder moved to another basis: its images are
    ``f B f^-1`` for the ladder's images B. ``gamma``, ``blade_image``,
    ``represent`` and ``represent_group_element`` give those dense
    conjugates, built on demand; ``blade_permutation`` and
    ``signed_permutation`` give B itself, which serves everything that
    conjugation keeps: products, relations, ranks and determinants.

    Immutable after construction, apart from ``lattice_images``, the memo of
    signed-blade matrices in lattice coordinates, keyed by (blade, i_power,
    lattice), that ``action.group_lattice_matrix`` fills on use; a ladder
    table's scans on the default lattice (``action.lattice_rows``) skip it.
    """

    def __init__(
        self,
        sig: Signature,
        gamma: Sequence[Matrix],
        description: str = "",
        conjugator: Matrix | None = None,
    ) -> None:
        if len(gamma) != sig.n:
            raise ValueError(f"expected {sig.n} generator matrices, got {len(gamma)}")
        dim = 1 << sig.k
        ladder = []
        for index, m in enumerate(gamma, start=1):
            if m.shape() != (dim, dim):
                raise ValueError("generator matrix has the wrong shape")
            try:
                ladder.append(SignedPermutation.from_matrix(m))
            except ValueError as exc:
                raise ValueError(f"generator {index} is not a signed permutation: {exc}") from None
        broken = clifford_relation_failure(sig, ladder)
        if broken is not None:
            raise ValueError(f"Clifford relation fails for generators {broken[0]}, {broken[1]}")
        self._init(sig, tuple(ladder), description, conjugator)

    @classmethod
    def _of(
        cls, sig: Signature, ladder: tuple[SignedPermutation, ...], description: str = "", conjugator: Matrix | None = None
    ) -> RepresentationTable:
        """The table on ``sig.n`` ladder generators already given as signed permutations of size 2^k.

        The conjugator is checked as in the public constructor, the Clifford
        relations are not: the callers pass ``build_generators``' ladder or a table's own.
        """
        table = cls.__new__(cls)
        table._init(sig, ladder, description, conjugator)
        return table

    def _init(
        self, sig: Signature, ladder: tuple[SignedPermutation, ...], description: str, conjugator: Matrix | None
    ) -> None:
        self.sig = sig
        self.k = sig.k
        self.dim = 1 << sig.k
        self.description = description or "tensor ladder over X/Y/Z"
        self.ladder_gamma = ladder
        blades = [SignedPermutation.identity(self.dim)]
        for mask in range(1, 1 << sig.n):
            low = mask & -mask
            blades.append(ladder[low.bit_length() - 1] @ blades[mask ^ low])
        self._blades = tuple(blades)
        if conjugator is not None and conjugator.shape() != (self.dim, self.dim):
            raise ValueError("conjugator has the wrong shape")
        self.conjugator = conjugator
        self._conjugator_inverse = None if conjugator is None else unimodular_inverse(conjugator)
        self.gamma = tuple(self._conjugate(g.dense()) for g in ladder)
        self.lattice_images: dict[tuple[int, int, LatticeSpec], Matrix] = {}

    def _conjugate(self, m: Matrix) -> Matrix:
        """``f m f^-1`` for the conjugator f; m itself for a ladder table."""
        if self.conjugator is None:
            return m
        return self.conjugator @ m @ self._conjugator_inverse

    def blade_permutation(self, mask: int) -> SignedPermutation:
        """The ladder's image of the blade e_I."""
        return self._blades[mask]

    def signed_permutation(self, g: GeneratorGroupElement) -> SignedPermutation:
        """The ladder's image of a signed blade: its blade's image times its phase."""
        return self._blades[g.blade].phased(g.i_power)

    def blade_image(self, mask: int) -> Matrix:
        """The image of the blade e_I, as a dense matrix."""
        return self._conjugate(self._blades[mask].dense())

    def represent(self, u: CliffordElement) -> Matrix:
        """The matrix of an algebra element in this module."""
        if u.sig != self.sig:
            raise SignatureMismatchError(f"{u.sig} vs {self.sig}")
        rows: list[dict[int, GaussianRational]] = [{} for _ in range(self.dim)]
        for mask, coeff in u.terms():
            image = self._blades[mask]
            # Row r adds i^t * coeff in column c.
            scaled = tuple(coeff * unit for unit in UNITS)
            for acc, c, t in zip(rows, image.cols, image.phases):
                term = scaled[t]
                prev = acc.get(c)
                acc[c] = term if prev is None else prev + term
        columns = range(self.dim)
        dense = Matrix._wrap(tuple(tuple(acc.get(c, _ZERO) for c in columns) for acc in rows))
        return self._conjugate(dense)

    def represent_group_element(self, g: GeneratorGroupElement) -> Matrix:
        """The image of a signed blade, as a dense matrix."""
        return self._conjugate(self.signed_permutation(g).dense())

    def __repr__(self) -> str:
        return f"RepresentationTable(k={self.k}, sig=({self.sig.p},{self.sig.q}))"


def build_generators(k: int, sig: Signature | None = None) -> RepresentationTable:
    """Build the representation table for ``dim V = 2k`` (default signature (2k, 0))."""
    if k < 1:
        raise ValueError("k must be at least 1")
    sig = sig or Signature(2 * k, 0)
    if sig.k != k:
        raise SignatureMismatchError(f"signature {sig} does not match k={k}")
    # The units as (cols, phases): X, Y, and Z for the prefix.
    units = (SignedPermutation((1, 0), (0, 0)), SignedPermutation((1, 0), (3, 1)))
    z = SignedPermutation((0, 1), (0, 2))
    prefix = SignedPermutation.identity(1)
    gamma: list[SignedPermutation] = []
    for j in range(k):
        suffix = SignedPermutation.identity(1 << (k - 1 - j))
        gamma += [prefix.kron(unit).kron(suffix) for unit in units]
        prefix = prefix.kron(z)
    ladder = tuple(g.phased(1) if sig.square_sign(a) < 0 else g for a, g in enumerate(gamma, start=1))
    return RepresentationTable._of(sig, ladder)


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
    Conjugation is an invertible linear map of End, so the rank is read
    from the ladder's signed permutations, one sparse flattened row each.
    """
    expected = 1 << (2 * table.k)
    rows = (table.blade_permutation(mask).flattened() for mask in range(1 << table.sig.n))
    return IsoReport(spanning_rank=rank_of_sparse_rows(rows), expected_rank=expected)


@dataclass(frozen=True)
class UnitaryReport:
    """Which integral basis elements satisfy image-of-star == adjoint."""

    checked: int
    failures: tuple[str, ...]

    @property
    def all_compatible(self) -> bool:
        return not self.failures


def verify_unitary(table: RepresentationTable) -> UnitaryReport:
    """Compare the image of u* with the conjugate transpose for all e_I, i*e_I.

    Each u and u* is a signed blade. A ladder table compares signed
    permutations, whose adjoint is the inverse permutation with conjugated
    phases. A transported table compares its dense images, because its
    conjugator need not be unitary.
    """
    image = table.signed_permutation if table.conjugator is None else table.represent_group_element
    failures = []
    checked = 0
    for g in basis_blades(table.sig):
        starred = as_signed_blade(g.to_element(table.sig).star())
        checked += 1
        if image(starred) != image(g).adjoint():
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
