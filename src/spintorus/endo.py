"""Endomorphism lattices, the subring index audit, and decomposition witnesses.

Every integral, lattice-preserving element induces both an analytic matrix
(complex, in lattice coordinates) and a rational one (integer, on the
realified basis). Flattening the rational matrices of all 2*4^k integral
basis elements measures how much of the full endomorphism ring the algebra
image fills: the Smith divisors of that square flattening give the index
of the image as a subgroup, and the Gaussian norm of the complex
flattening determinant must agree with it. The two routes are computed
independently and compared.
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


def _integer_realify(m: Matrix) -> list[list[int]]:
    """The realified matrix of a Gaussian-integer matrix, as plain ints."""
    return [[x.numerator for x in row] for row in realify(m)]


def rational_representation(
    h: CliffordElement, table: RepresentationTable, lattice: LatticeSpec
) -> list[list[int]]:
    """The integer matrix of h on the realified lattice basis."""
    return _integer_realify(lattice_matrix(h, table, lattice))


def representation_determinants_match(
    h: CliffordElement, table: RepresentationTable, lattice: LatticeSpec
) -> bool:
    """det of the rational matrix equals the Gaussian norm of the analytic det."""
    complex_matrix = lattice_matrix(h, table, lattice)
    analytic_det = complex_matrix.det()
    rational_det = Matrix(_integer_realify(complex_matrix)).det()
    return rational_det == as_gaussian(analytic_det.norm())


@dataclass(frozen=True)
class EndoLattice:
    """The integral basis images, complex and realified, in a fixed order."""

    generators: tuple[Matrix, ...]
    realified: tuple[tuple[tuple[int, ...], ...], ...]


def endo_lattice(table: RepresentationTable, lattice: LatticeSpec) -> EndoLattice:
    """Images of e_I then i*e_I (blades ascending) in lattice coordinates."""
    generators = tuple(lattice_matrix(u, table, lattice) for u in basis_elements(table.sig))
    realified = tuple(tuple(tuple(row) for row in _integer_realify(m)) for m in generators)
    return EndoLattice(generators=generators, realified=realified)


def endo_rank(
    table: RepresentationTable, lattice: LatticeSpec, images: EndoLattice | None = None
) -> int:
    """Z-rank of the span of the realified basis images; expected 2^(2k+1).

    Pass ``images`` (the ``endo_lattice`` of the same table and lattice) to
    reuse it instead of building it again.
    """
    lat = images or endo_lattice(table, lattice)
    return rank_of_rows(tuple(x for row in matrix for x in row) for matrix in lat.realified)


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


def subring_index(
    table: RepresentationTable, lattice: LatticeSpec, images: EndoLattice | None = None
) -> SubringIndex:
    """Measure the image's index inside all lattice endomorphisms, two ways.

    Route one flattens each realified basis image over the standard integer
    basis of the full matrix ring and takes the product of Smith divisors.
    Route two takes the Gaussian norm of the complex flattening determinant.
    ``images`` may carry a prebuilt ``endo_lattice``, as for ``endo_rank``.
    """
    generators = (images or endo_lattice(table, lattice)).generators
    flattened = [m.flatten() for m in generators]
    integer_rows = [
        [x._a for x in flat] + [x._b for x in flat] for flat in flattened
    ]

    divisors = smith_form(integer_rows)
    index = None
    if all(divisors):
        index = 1
        for d in divisors:
            index *= d

    # The e_I images alone: the i*e_I rows are i times these over C.
    complex_det = Matrix(flattened[: len(generators) // 2]).det()
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
    table: RepresentationTable, lattice: LatticeSpec, images: EndoLattice | None = None
) -> DecompositionWitness:
    """Certify the split induced by the scalar i, or raise WitnessFailedError.

    ``images`` may carry a prebuilt ``endo_lattice``, as for ``endo_rank``.
    """
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
        if endo_rank(table, lattice, images) != 1 << (2 * sig.k + 1):
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
