"""The endomorphism audit: rank, subring index, and decomposition witnesses.

Every integral, lattice-preserving element induces an analytic matrix
(complex, in lattice coordinates). One sparse integer flattening of the
images of the 2*4^k integral basis elements (each image's real parts, then
its imaginary parts, read off the scans' ``action.lattice_rows``) serves
both the rank and the index: its rank is the rank of the algebra image, and
its Smith divisors give the index of that image as a subgroup of the full
endomorphism ring. The Gaussian norm of the complex flattening determinant
must agree with that index, so the two routes are computed independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from math import prod

from .action import lattice_matrix, lattice_rows, preserves_lattice
from .clifford import (
    CliffordElement,
    GeneratorGroupElement,
    as_signed_blade,
    basis_blades,
    element_order,
    generator_group,
)
from .errors import NotIntegralError, WitnessFailedError
from .matrices import (
    IntegerRows, Matrix, SignedPermutation, det_of_sparse_rows, rank_of_sparse_rows, realify, smith_form
)
from .scalars import GaussianRational, as_gaussian
from .spinrep import RepresentationTable
from .torus import LatticeSpec, TorusPoint


def _dense_determinants(m: Matrix) -> tuple[GaussianRational, GaussianRational]:
    """``Matrix.det`` of a lattice matrix and of its realification."""
    return m.det(), Matrix(realify(m)).det()


def _monomial_determinants(p: SignedPermutation) -> tuple[GaussianRational, GaussianRational]:
    """The same two determinants of a signed permutation, from its permutations and phases."""
    return p.det(), as_gaussian(p.realified_det())


def representation_determinants_match(
    h: CliffordElement, table: RepresentationTable, lattice: LatticeSpec
) -> bool:
    """det of the realified matrix equals the Gaussian norm of the analytic det.

    A signed blade on the default lattice takes the monomial route: its
    lattice matrix is its signed permutation (up to the table's conjugator,
    which changes neither determinant), whose analytic determinant is the
    permutation's sign times the product of its phases, and whose realified
    determinant is that of the realified signed permutation. Every other
    element, and every element on a custom lattice, takes the dense route:
    ``Matrix.det`` of its lattice matrix and of its realification.
    """
    g = as_signed_blade(h)
    if g is not None and lattice.is_default:
        analytic_det, rational_det = _monomial_determinants(table.signed_permutation(g))
    else:
        analytic_det, rational_det = _dense_determinants(lattice_matrix(h, table, lattice))
    return rational_det == as_gaussian(analytic_det.norm())


def determinant_routes_agree(g: GeneratorGroupElement, table: RepresentationTable) -> bool:
    """Whether the monomial and the dense route give a signed blade the same two determinants.

    The dense route runs ``Matrix.det`` on the blade's dense image (the
    default lattice) and on its realification.
    """
    dense = _dense_determinants(table.represent_group_element(g))
    return _monomial_determinants(table.signed_permutation(g)) == dense


def _flattening(table: RepresentationTable, lattice: LatticeSpec) -> IntegerRows:
    """One sparse integer row per image of e_I, then of i*e_I (blades ascending).

    A row holds the image's entries in row-major order, their real parts and
    then their imaginary parts. Entry (r, c) is R[r][c] - i*R[r][c+n] for the
    first n realified rows R of ``action.lattice_rows``.
    """
    n = table.dim
    rows = []
    for g in basis_blades(table.sig):
        top = tuple(enumerate(lattice_rows(g, table, lattice)[:n]))
        re = [(r * n + j, x) for r, row in top for j, x in row if j < n]
        rows.append(tuple(re + [(n * n + r * n + j - n, -x) for r, row in top for j, x in row if j >= n]))
    return rows


def endo_rank(table: RepresentationTable, lattice: LatticeSpec) -> int:
    """Z-rank of the span of the realified basis images; expected 2^(2k+1).

    The realified matrix of an image is an injective linear function of its
    real and imaginary parts, so the realified images span a lattice of the
    same rank as the flattening, which has half as many columns. The
    elimination (``rank_of_sparse_rows``) is the one ``subring_index`` runs
    for its own ``rank``, without that audit's Smith form and determinant.
    """
    return rank_of_sparse_rows({j: (x, 0) for j, x in row} for row in _flattening(table, lattice))


def _digits(n: int) -> str:
    """``str(n)`` without the interpreter's limit on the digits of an int: the k = 6 index has 7,399."""
    return str(Decimal(n))


@dataclass(frozen=True)
class SubringIndex:
    """Both routes to the index of the algebra image in the full endomorphism ring, and the image's rank."""

    rank: int
    smith_divisors: tuple[int, ...]
    index: int | None
    determinant_norm: int

    @property
    def consistent(self) -> bool:
        return self.index is not None and self.index == self.determinant_norm

    @property
    def index_str(self) -> str:
        return "infinite" if self.index is None else _digits(self.index)


def subring_index(table: RepresentationTable, lattice: LatticeSpec) -> SubringIndex:
    """Measure the image's index inside all lattice endomorphisms, two ways, and its rank.

    Route one takes the product of the Smith divisors of the flattening,
    whose columns are the standard integer basis of the full matrix ring.
    Route two takes the Gaussian norm of the complex flattening
    determinant: the e_I rows, with entry j read as row[j] + i*row[j + n^2],
    eliminated as sparse rows (``det_of_sparse_rows``). The rank (see
    ``endo_rank``) comes from a separate elimination of the same rows.
    """
    flattening = _flattening(table, lattice)
    square = table.dim * table.dim
    divisors = smith_form(flattening, 2 * square)
    index = prod(divisors) if all(divisors) else None

    # The e_I rows alone: the i*e_I rows are i times these over C.
    complex_rows = []
    for row in flattening[: len(flattening) // 2]:
        parts = dict(row)
        columns = {j % square for j in parts}
        complex_rows.append({j: GaussianRational(parts.get(j, 0), parts.get(j + square, 0)) for j in columns})
    norm = det_of_sparse_rows(complex_rows, square).norm()
    if norm.denominator != 1:
        raise NotIntegralError("flattening determinant is not integral")

    rank = rank_of_sparse_rows({j: (x, 0) for j, x in row} for row in flattening)
    return SubringIndex(rank=rank, smith_divisors=divisors, index=index, determinant_norm=norm.numerator)


@dataclass(frozen=True)
class DecompositionWitness:
    """Evidence that multiplication by i splits the torus into 2^k identical curves.

    For the default lattice the splitting is literally coordinatewise, so the
    witness carries the identity coordinate map. For custom lattices the
    witness falls back to the criterion checks (i acts, and the realified
    span has full rank) without constructing an explicit basis change.
    """

    automorphism: CliffordElement
    analytic_matrix: Matrix
    order: int
    curve: str
    basis_map: tuple[int, ...] | None

    def split(self, p: TorusPoint) -> tuple[GaussianRational, ...]:
        """Project a point to its factor-curve coordinates (default lattice only)."""
        if self.basis_map is None:
            raise WitnessFailedError("no explicit splitting for a custom lattice")
        return tuple(p.coords[index] for index in self.basis_map)


def decomposition_witness(
    table: RepresentationTable, lattice: LatticeSpec
) -> DecompositionWitness:
    """Certify the split induced by the scalar i, or raise WitnessFailedError."""
    sig = table.sig
    i_scalar = CliffordElement.scalar(sig, GaussianRational(0, 1))
    analytic = table.represent(i_scalar)
    expected = Matrix.identity(table.dim) * GaussianRational(0, 1)
    if analytic != expected:
        raise WitnessFailedError("the scalar i does not act as i * identity")
    order = element_order(GeneratorGroupElement(0, 1), sig)
    if order != 4:
        raise WitnessFailedError(f"the scalar i has order {order}, expected 4")
    if not preserves_lattice(i_scalar, table, lattice):
        raise WitnessFailedError("multiplication by i does not preserve the lattice")
    if lattice.is_default:
        basis_map: tuple[int, ...] | None = tuple(range(table.dim))
    else:
        basis_map = None
        if endo_rank(table, lattice) != 1 << (2 * sig.k + 1):
            raise WitnessFailedError("realified span is not full rank over the lattice")
    return DecompositionWitness(
        automorphism=i_scalar,
        analytic_matrix=analytic,
        order=order,
        curve="E_i, j-invariant 1728",
        basis_map=basis_map,
    )


def transport_multiplication(
    f: Matrix, h: CliffordElement, table: RepresentationTable
) -> Matrix:
    """The transported action f * image(h) * f^-1 for a unimodular f: h's image in ``transport_table``."""
    if not h.is_gaussian_integral():
        raise NotIntegralError("element has a coefficient outside Z[i]")
    return transport_table(f, table).represent(h)


def transport_table(f: Matrix, table: RepresentationTable) -> RepresentationTable:
    """The table conjugated by a unimodular f; relations survive.

    The result keeps the ladder's signed permutations and composes f with
    the table's own conjugator, if any, so its dense images ``f B f^-1``
    are built only when asked for.
    """
    conjugator = f if table.conjugator is None else f @ table.conjugator
    return RepresentationTable._of(
        table.sig, table.ladder_gamma, description=f"{table.description}, transported", conjugator=conjugator
    )


def automorphism_containment(table: RepresentationTable, lattice: LatticeSpec) -> bool:
    """Every generator-group element acts as an invertible lattice self-map.

    On the default lattice every image is a signed permutation, up to the
    table's unimodular conjugator, so it and its inverse map Z[i]^n into
    itself; the check is that the image of g's inverse, a group element
    too, inverts the image of g. On a custom lattice each element's dense
    lattice matrix must stay in Z[i]; the group holds every inverse, so
    that covers invertibility.
    """
    sig = table.sig
    group = generator_group(sig)
    if lattice.is_default:
        identity = SignedPermutation.identity(table.dim)
        image = table.signed_permutation
        return all(image(g) @ image(g.inverse(sig)) == identity for g in group)
    return all(preserves_lattice(g.to_element(sig), table, lattice) for g in group)
