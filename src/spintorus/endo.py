"""The endomorphism audit: rank, subring index, and decomposition witnesses.

Every integral, lattice-preserving element induces an analytic matrix
(complex, in lattice coordinates). One integer flattening of the images of
the 2*4^k integral basis elements (each image's real parts, then its
imaginary parts) serves both the rank and the index: its rank is the rank
of the algebra image, and its Smith divisors give the index of that image
as a subgroup of the full endomorphism ring. The Gaussian norm of the
complex flattening determinant must agree with that index, so the two
routes are computed independently and compared.
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import lattice_matrix, preserves_lattice
from .clifford import (
    CliffordElement,
    GeneratorGroupElement,
    basis_elements,
    element_order,
    generator_group,
)
from .errors import NonUnimodularError, NotIntegralError, WitnessFailedError
from .matrices import Matrix, rank_of_rows, realify, smith_form
from .scalars import GaussianRational, as_gaussian
from .spinrep import RepresentationTable
from .torus import LatticeSpec, TorusPoint


def representation_determinants_match(
    h: CliffordElement, table: RepresentationTable, lattice: LatticeSpec
) -> bool:
    """det of the realified matrix equals the Gaussian norm of the analytic det."""
    complex_matrix = lattice_matrix(h, table, lattice)
    analytic_det = complex_matrix.det()
    rational_det = Matrix(realify(complex_matrix)).det()
    return rational_det == as_gaussian(analytic_det.norm())


def _basis_images(table: RepresentationTable, lattice: LatticeSpec) -> list[Matrix]:
    """Images of e_I then i*e_I (blades ascending) in lattice coordinates."""
    return [lattice_matrix(u, table, lattice) for u in basis_elements(table.sig)]


def _flattening(images: list[Matrix]) -> list[list[int]]:
    """One integer row per image: its entries' real parts, then their imaginary parts."""
    rows = []
    for m in images:
        flat = m.flatten()
        rows.append([x._a for x in flat] + [x._b for x in flat])
    return rows


def endo_rank(table: RepresentationTable, lattice: LatticeSpec) -> int:
    """Z-rank of the span of the realified basis images; expected 2^(2k+1).

    The realified matrix of an image is an injective linear function of its
    real and imaginary parts, so the realified images span a lattice of the
    same rank as the flattening, which has half as many columns.
    """
    return rank_of_rows(_flattening(_basis_images(table, lattice)))


@dataclass(frozen=True)
class SubringIndex:
    """Both routes to the index of the algebra image in the full endomorphism ring."""

    smith_divisors: tuple[int, ...]
    index: int | None
    determinant_norm: int

    @property
    def consistent(self) -> bool:
        return self.index is not None and self.index == self.determinant_norm

    @property
    def index_str(self) -> str:
        return "infinite" if self.index is None else str(self.index)


def subring_index(table: RepresentationTable, lattice: LatticeSpec) -> SubringIndex:
    """Measure the image's index inside all lattice endomorphisms, two ways.

    Route one takes the product of the Smith divisors of the flattening,
    whose columns are the standard integer basis of the full matrix ring.
    Route two takes the Gaussian norm of the complex flattening determinant.
    """
    images = _basis_images(table, lattice)
    divisors = smith_form(_flattening(images))
    index = None
    if all(divisors):
        index = 1
        for d in divisors:
            index *= d

    # The e_I images alone: the i*e_I rows are i times these over C.
    complex_det = Matrix([m.flatten() for m in images[: len(images) // 2]]).det()
    norm = complex_det.norm()
    if norm.denominator != 1:
        raise NotIntegralError("flattening determinant is not integral")

    return SubringIndex(
        smith_divisors=divisors,
        index=index,
        determinant_norm=norm.numerator,
    )


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


def _require_unimodular(f: Matrix) -> Matrix:
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


def transport_multiplication(
    f: Matrix, h: CliffordElement, table: RepresentationTable
) -> Matrix:
    """The transported action f * image(h) * f^-1 for a unimodular f."""
    if not h.is_gaussian_integral():
        raise NotIntegralError("element has a coefficient outside Z[i]")
    inverse = _require_unimodular(f)
    return f @ table.represent(h) @ inverse


def transport_table(f: Matrix, table: RepresentationTable) -> RepresentationTable:
    """Conjugate every generator matrix by a unimodular f; relations survive."""
    inverse = _require_unimodular(f)
    conjugated = [f @ g @ inverse for g in table.gamma]
    return RepresentationTable(
        table.sig, conjugated, description=f"{table.description}, transported"
    )


def automorphism_containment(table: RepresentationTable, lattice: LatticeSpec) -> bool:
    """Every generator-group element acts as an invertible lattice self-map."""
    # The group holds every inverse, so checking each element covers invertibility.
    sig = table.sig
    return all(
        preserves_lattice(g.to_element(sig), table, lattice) for g in generator_group(sig)
    )
