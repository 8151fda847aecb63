"""Complex tori carved out of the spinor space by a Gaussian lattice.

The spinor space has complex dimension 2^k. A :class:`LatticeSpec` holds an
invertible basis matrix P whose columns generate the lattice P * Z[i]^(2^k);
the default is the identity, i.e. the standard Gaussian lattice. Points on
the quotient are stored in lattice coordinates with every real and
imaginary part reduced into [0, 1), so equality of points is literal
equality of representatives.

Realified objects use the basis (u_1..u_g, i*u_1..i*u_g) where u_a is the
a-th lattice generator and g = 2^k. With the identity polarization this
ordering pins the imaginary-part form to the block matrix [[0, -I], [I, 0]].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import (
    EnumerationTooLargeError,
    LatticeMismatchError,
    NotIntegralError,
)
from .matrices import Matrix, smith_form
from .scalars import GaussianRational, as_gaussian

DEFAULT_ENUMERATION_CAP = 1 << 20


class LatticeSpec:
    """An invertible Gaussian-rational basis for a full lattice."""

    __slots__ = ("k", "basis", "inverse_basis", "_default")

    def __init__(self, k: int, basis: Matrix | None = None) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        dim = 1 << k
        self.k = k
        if basis is None:
            basis = Matrix.identity(dim)
        if basis.shape() != (dim, dim):
            raise ValueError(f"lattice basis must be {dim}x{dim}")
        self.basis = basis
        try:
            self.inverse_basis = basis.inv()
        except ValueError as exc:
            raise ValueError("lattice basis must be invertible") from exc
        self._default = basis == Matrix.identity(dim)

    @classmethod
    def default(cls, k: int) -> LatticeSpec:
        return cls(k)

    @property
    def dim(self) -> int:
        return 1 << self.k

    @property
    def is_default(self) -> bool:
        return self._default

    def reduce(self, ambient: Sequence[GaussianRational]) -> TorusPoint:
        """Reduce an ambient coordinate vector into the fundamental domain."""
        coords = self.inverse_basis.matvec(tuple(as_gaussian(x) for x in ambient))
        return TorusPoint(self, coords)

    def contains_ambient(self, ambient: Sequence[GaussianRational]) -> bool:
        """Whether an ambient vector lies on the lattice itself."""
        coords = self.inverse_basis.matvec(tuple(as_gaussian(x) for x in ambient))
        return all(x.is_gaussian_integer() for x in coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatticeSpec):
            return NotImplemented
        return self.k == other.k and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.k, self.basis))

    def __repr__(self) -> str:
        return f"LatticeSpec(k={self.k}, default={self.is_default})"


class TorusPoint:
    """A point of the quotient torus, stored as reduced lattice coordinates."""

    __slots__ = ("lattice", "coords")

    def __init__(self, lattice: LatticeSpec, coords: Sequence[int | Fraction | GaussianRational]) -> None:
        values = tuple(as_gaussian(x).mod1() for x in coords)
        if len(values) != lattice.dim:
            raise ValueError(f"expected {lattice.dim} coordinates, got {len(values)}")
        self.lattice = lattice
        self.coords = values

    @classmethod
    def zero(cls, lattice: LatticeSpec) -> TorusPoint:
        return cls(lattice, (0,) * lattice.dim)

    def lift(self) -> tuple[GaussianRational, ...]:
        """The canonical ambient representative P * coords."""
        if self.lattice.is_default:
            return self.coords
        return self.lattice.basis.matvec(self.coords)

    def is_zero(self) -> bool:
        return all(not x for x in self.coords)

    def order(self) -> int:
        """Order in the torsion group: lcm of all coordinate denominators."""
        denominators = [1]
        for x in self.coords:
            denominators.append(x.re.denominator)
            denominators.append(x.im.denominator)
        return math.lcm(*denominators)

    def scale(self, c: int | GaussianRational) -> TorusPoint:
        """Multiply by a Gaussian integer; well defined since i preserves Z[i]."""
        scalar = as_gaussian(c)
        if not scalar.is_gaussian_integer():
            raise NotIntegralError(f"scale factor {scalar} is not a Gaussian integer")
        return TorusPoint(self.lattice, tuple(scalar * x for x in self.coords))

    def _require_same_lattice(self, other: TorusPoint) -> None:
        if self.lattice != other.lattice:
            raise LatticeMismatchError("points live on different tori")

    def __add__(self, other: TorusPoint) -> TorusPoint:
        if not isinstance(other, TorusPoint):
            return NotImplemented
        self._require_same_lattice(other)
        return TorusPoint(self.lattice, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: TorusPoint) -> TorusPoint:
        if not isinstance(other, TorusPoint):
            return NotImplemented
        self._require_same_lattice(other)
        return TorusPoint(self.lattice, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> TorusPoint:
        return TorusPoint(self.lattice, tuple(-x for x in self.coords))

    def __mul__(self, n: int) -> TorusPoint:
        if not isinstance(n, int):
            return NotImplemented
        return TorusPoint(self.lattice, tuple(x * n for x in self.coords))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusPoint):
            return NotImplemented
        return self.lattice == other.lattice and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.lattice, self.coords))

    def __repr__(self) -> str:
        return f"TorusPoint({self})"

    def __str__(self) -> str:
        return ", ".join(str(x) for x in self.coords)


def torsion_count(n: int, k: int) -> int:
    """Size of the n-torsion subgroup: n^(2 * 2^k)."""
    return n ** (2 * (1 << k))


def torsion_points(
    n: int, lattice: LatticeSpec, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[TorusPoint]:
    """Enumerate the n-torsion points in deterministic lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")
    total = torsion_count(n, lattice.k)
    if total > cap:
        raise EnumerationTooLargeError(
            f"{total} points exceed the enumeration cap {cap}"
        )
    dim = lattice.dim

    def generate() -> Iterator[TorusPoint]:
        for digits in itertools.product(range(n), repeat=2 * dim):
            coords = tuple(
                GaussianRational(Fraction(digits[2 * c], n), Fraction(digits[2 * c + 1], n))
                for c in range(dim)
            )
            yield TorusPoint(lattice, coords)

    return generate()


def hermitian_value(
    h: Matrix, v: Sequence[GaussianRational], w: Sequence[GaussianRational]
) -> GaussianRational:
    """Evaluate the sesquilinear form sum H[r][s] * v[r] * conj(w[s])."""
    acc = as_gaussian(0)
    for r, vr in enumerate(v):
        if not vr:
            continue
        for s, ws in enumerate(w):
            if not ws:
                continue
            entry = h[r, s]
            if not entry:
                continue
            acc = acc + entry * vr * ws.conjugate()
    return acc


class PolarizationData:
    """A Hermitian form on the spinor space and its imaginary part on the lattice.

    The form is complex linear in its first argument. Its imaginary part E,
    evaluated on the realified lattice basis (u_1..u_g, i*u_1..i*u_g), is the
    alternating form whose elementary divisors give the polarization type.
    """

    __slots__ = (
        "hermitian",
        "lattice",
        "real_basis",
        "imag_gram",
        "_inverse_transpose",
        "_principal",
    )

    def __init__(self, hermitian: Matrix, lattice: LatticeSpec) -> None:
        if hermitian.shape() != (lattice.dim, lattice.dim):
            raise ValueError("form must match the lattice dimension")
        if not hermitian.is_hermitian():
            raise ValueError("form must equal its own conjugate transpose")
        self.hermitian = hermitian
        self.lattice = lattice
        unit_i = GaussianRational(0, 1)
        columns = [lattice.basis.column(c) for c in range(lattice.dim)]
        columns += [tuple(unit_i * x for x in col) for col in columns[: lattice.dim]]
        self.real_basis = tuple(columns)
        size = 2 * lattice.dim
        self.imag_gram = tuple(
            tuple(hermitian_value(hermitian, columns[a], columns[b]).im for b in range(size))
            for a in range(size)
        )
        self._inverse_transpose: Matrix | None = None
        self._principal: bool | None = None

    @classmethod
    def default(cls, lattice: LatticeSpec) -> PolarizationData:
        return cls(Matrix.identity(lattice.dim), lattice)

    @property
    def g(self) -> int:
        return self.lattice.dim

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.imag_gram for x in row)

    def integer_form(self) -> list[list[int]]:
        if not self.is_integral():
            raise NotIntegralError("the imaginary-part form is not integer valued on the lattice")
        return [[x.numerator for x in row] for row in self.imag_gram]

    def inverse_transpose_form(self) -> Matrix:
        """Exact inverse of E^T, cached; used by the duality solver."""
        if self._inverse_transpose is None:
            e_int = self.integer_form()
            transposed = [[e_int[b][a] for b in range(len(e_int))] for a in range(len(e_int))]
            self._inverse_transpose = Matrix(transposed).inv()
        return self._inverse_transpose

    def __repr__(self) -> str:
        return f"PolarizationData(g={self.g})"


@dataclass(frozen=True)
class RiemannReport:
    """Outcome of the three lattice-compatibility checks for a polarization."""

    integral: bool
    complex_compatible: bool
    positive: bool

    @property
    def all_ok(self) -> bool:
        return self.integral and self.complex_compatible and self.positive


def riemann_check(pol: PolarizationData) -> RiemannReport:
    """Check integrality on the lattice, invariance under i, and positivity."""
    integral = pol.is_integral()

    unit_i = GaussianRational(0, 1)
    compatible = True
    basis = pol.real_basis
    for a in range(len(basis)):
        for b in range(len(basis)):
            iv = tuple(unit_i * x for x in basis[a])
            iw = tuple(unit_i * x for x in basis[b])
            lhs = hermitian_value(pol.hermitian, iv, iw).im
            if lhs != pol.imag_gram[a][b]:
                compatible = False
                break
        if not compatible:
            break

    positive = True
    for size in range(1, pol.g + 1):
        minor = Matrix([[pol.hermitian[r, c] for c in range(size)] for r in range(size)]).det()
        if minor.im or minor.re <= 0:
            positive = False
            break

    return RiemannReport(integral=integral, complex_compatible=compatible, positive=positive)


def polarization_type(pol: PolarizationData) -> tuple[int, ...]:
    """Elementary divisors (d_1 | ... | d_g) of the alternating lattice form."""
    divisors = smith_form(pol.integer_form())
    paired = []
    for idx in range(0, len(divisors), 2):
        first, second = divisors[idx], divisors[idx + 1]
        if first != second:
            raise ValueError(
                f"divisors of an alternating form must pair up, got {divisors}"
            )
        paired.append(first)
    return tuple(paired)


def is_principal(pol: PolarizationData) -> bool:
    if pol._principal is None:
        pol._principal = pol.is_integral() and all(d == 1 for d in polarization_type(pol))
    return pol._principal
