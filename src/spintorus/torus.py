"""Complex tori carved out of the spinor space by a Gaussian lattice.

The spinor space has complex dimension 2^k. A :class:`LatticeSpec` holds an
invertible basis matrix P whose columns generate the lattice P * Z[i]^(2^k);
the default is the identity, i.e. the standard Gaussian lattice. Points on
the quotient are stored in lattice coordinates with every real and
imaginary part reduced into [0, 1).

Realified objects use the basis (u_1..u_g, i*u_1..i*u_g) where u_a is the
a-th lattice generator and g = 2^k. With the identity polarization this
ordering pins the imaginary-part form to the block matrix [[0, -I], [I, 0]].

Every point of the torus that this package builds has finite order, so a
point is stored as one denominator ``den`` (its order) and integer
numerators in ``[0, den)`` on that realified basis: the real parts of the
g coordinates, then their imaginary parts, in lowest terms. Equality of
points is literal equality of these integers, and the Gaussian-rational
coordinates are derived from them on demand; a point prints straight from
them (``scalars.format_gaussian``). Lattice matrices (realified) and the
duality forms act on the numerators as sparse integer rows: E^T is read
off the polarization's form, and E^-T comes with the principal test from
one integer elimination of E^T's rows (``matrices.inverse_rows``). The
bundle classes of the dual torus are the same element type, with its group
arithmetic written once here: its owner is the lattice for a point, k for
a bundle class.

A :class:`TorsionBlock` holds many such points column-major: one list per
realified coordinate, with one entry per point, plus one denominator per
point. Block arithmetic runs down each column modulo each point's own
denominator, and never reduces to lowest terms; a point's orbit and its
translations have orders dividing its own, so its denominator serves them
all. A sum or difference of two single elements is taken directly over
the lcm of their orders, and a single element goes through the same sparse
kernel as a block. A block moves under a signed permutation by selecting
columns of itself and of its negation, which it builds once and keeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator, Sequence, TypeVar

from .errors import (
    EnumerationTooLargeError,
    LatticeMismatchError,
    NotIntegralError,
)
from .matrices import (
    IntegerRows,
    Matrix,
    inverse_rows,
    smith_form,
    sparse_matvec_mod,
    sparse_rows,
)
from .scalars import GaussianRational, _reduced, as_gaussian, format_gaussian

DEFAULT_ENUMERATION_CAP = 1 << 20


class LatticeSpec:
    """An invertible Gaussian-rational basis for a full lattice."""

    __slots__ = ("k", "basis", "inverse_basis", "_default", "_hash")

    def __init__(self, k: int, basis: Matrix | None = None) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        dim = 1 << k
        self.k = k
        identity = Matrix.identity(dim)
        if basis is None:
            basis = identity
        if basis.shape() != (dim, dim):
            raise ValueError(f"lattice basis must be {dim}x{dim}")
        self.basis = basis
        self._default = basis == identity
        if self._default:
            # The identity is its own inverse.
            self.inverse_basis = identity
        else:
            try:
                self.inverse_basis = basis.inv()
            except ValueError as exc:
                raise ValueError("lattice basis must be invertible") from exc
        # Hashing walks every basis entry; lattices key the per-table matrix memo.
        self._hash = hash((k, basis))

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
        return self._hash

    def __repr__(self) -> str:
        return f"LatticeSpec(k={self.k}, default={self.is_default})"


class TorsionBlock:
    """Many points of finite order (or bundle classes) at once, column-major.

    ``cols[j][t]`` is realified numerator j of item t, reduced into
    ``[0, dens[t])``, where ``dens[t]`` is a multiple of item t's order, not
    necessarily the order itself. Operations work one coordinate column at a
    time, modulo each item's own denominator: lattice matrices, translations
    and orbits of an item all have orders dividing its order, so no common
    denominator is ever needed. Blocks combine only with blocks over the same
    denominators, and then two items agree exactly when their numerators do.
    A block is never changed after it is built, so blocks share their column
    lists, and the negation is built once and kept; an image taken by column
    selection comes with its negation. ``block * n`` is the n-fold sum in one
    pass per column, so "killed by n" is one multiple and a zero test.
    """

    __slots__ = ("dens", "cols", "_negation")

    def __init__(self, dens: list[int], cols: list[list[int]]) -> None:
        self.dens = dens
        self.cols = cols
        self._negation: TorsionBlock | None = None

    @classmethod
    def of(cls, items: Sequence[_TorsionElement], width: int) -> TorsionBlock:
        """The block of points or bundle classes, each over its own order; ``width`` numerators each."""
        if any(len(item.nums) != width for item in items):
            raise ValueError(f"every item of the block needs {width} numerators")
        if not items:
            return cls([], [[] for _ in range(width)])
        return cls([item.den for item in items], [list(col) for col in zip(*(item.nums for item in items))])

    def __len__(self) -> int:
        return len(self.dens)

    def item(self, t: int) -> tuple[int, list[int]]:
        """Item t as ``(den, nums)``, not necessarily in lowest terms."""
        return self.dens[t], [col[t] for col in self.cols]

    def orders(self) -> list[int]:
        """The order of each item: its denominator in lowest terms."""
        return [den // math.gcd(den, *nums) for den, nums in zip(self.dens, zip(*self.cols))]

    def transform(self, rows: IntegerRows) -> TorsionBlock:
        """Apply a realified integer matrix, given as sparse rows, to every item."""
        return TorsionBlock(self.dens, sparse_matvec_mod(rows, self.cols, self.dens))

    def _select(self, rows: IntegerRows) -> TorsionBlock | None:
        """The image, with its negation, under rows that are each one entry +1 or -1; None for any other rows.

        Row r taking column j with +1 is column j of this block, and column j
        of its negation goes into the image's negation; with -1 the other way
        round. So the negation of this block is built once, and the image and
        its negation cost no arithmetic: each is the other's ``-``.
        """
        cols, negated = self.cols, (-self).cols
        image, negation = [], []
        for row in rows:
            if len(row) != 1:
                return None
            ((j, c),) = row
            if c == 1:
                image.append(cols[j])
                negation.append(negated[j])
            elif c == -1:
                image.append(negated[j])
                negation.append(cols[j])
            else:
                return None
        out = TorsionBlock(self.dens, image)
        out._negation = TorsionBlock(self.dens, negation)
        out._negation._negation = out
        return out

    def orbit(self, powers: Sequence[IntegerRows]) -> list[TorsionBlock]:
        """This block and its images under the powers R, R^2, ... of a realified integer matrix.

        Image s is R^s applied to this block: a column selection from the
        block and its negation, which also gives the image's negation, while
        every row is a single entry +1 or -1 (then so is every row of the
        powers); the sparse kernel for all the powers once a row is not. The
        powers are composed once per actor (``matrices.power_rows``) and
        serve every block the actor moves.
        """
        if len(powers[0]) != len(self.cols):
            raise ValueError(f"{len(powers[0])} rows cannot act on {len(self.cols)} numerators")
        images = [self]
        for rows in powers:
            image = self._select(rows)
            if image is None:
                return [self, *map(self.transform, powers)]
            images.append(image)
        return images

    def _same_items(self, other: TorsionBlock) -> list[int]:
        dens = self.dens
        if other.dens is not dens and other.dens != dens:
            raise ValueError("blocks over different denominators do not combine")
        return dens

    def __add__(self, other: TorsionBlock) -> TorsionBlock:
        dens = self._same_items(other)
        return TorsionBlock(
            dens, [[(x + y) % d for x, y, d in zip(a, b, dens)] for a, b in zip(self.cols, other.cols)]
        )

    def __sub__(self, other: TorsionBlock) -> TorsionBlock:
        dens = self._same_items(other)
        return TorsionBlock(
            dens, [[(x - y) % d for x, y, d in zip(a, b, dens)] for a, b in zip(self.cols, other.cols)]
        )

    def __neg__(self) -> TorsionBlock:
        """The negation, built on first use and kept."""
        if self._negation is None:
            dens = self.dens
            self._negation = TorsionBlock(dens, [[-x % d for x, d in zip(a, dens)] for a in self.cols])
        return self._negation

    def __mul__(self, n: int) -> TorsionBlock:
        """The n-fold sum of this block, item by item as ``_TorsionElement.__mul__``: one pass per column."""
        if not isinstance(n, int):
            raise TypeError(f"a TorsionBlock is multiplied by an int, not by {type(n).__name__}")
        dens = self.dens
        return TorsionBlock(dens, [[x * n % d for x, d in zip(col, dens)] for col in self.cols])

    def is_zero(self) -> list[bool]:
        """Per item: whether it is zero."""
        ok = [True] * len(self.dens)
        for col in self.cols:
            if any(col):
                for t, x in enumerate(col):
                    if x:
                        ok[t] = False
        return ok


def blocks_of_one(*items: _TorsionElement) -> list[TorsionBlock]:
    """One block per point or bundle class, all over the lcm of their orders, so that they combine."""
    den = math.lcm(*(item.den for item in items))
    dens = [den]
    return [TorsionBlock(dens, [[x * (den // item.den)] for x in item.nums]) for item in items]


_E = TypeVar("_E", bound="_TorsionElement")


class _TorsionElement:
    """An element of finite order of a torus group: a torus point or a bundle class.

    ``den`` is the order, and ``nums`` are the 2 * 2^k realified numerators
    in ``[0, den)`` with ``gcd(den, *nums) == 1``. ``owner`` names the group
    (a point's lattice, a class's k); only elements of one class and owner
    combine, and they are equal exactly when their integers are.
    """

    __slots__ = ("owner", "den", "nums", "_cache")

    def __init__(self, owner: Any, den: int, nums: Sequence[int]) -> None:
        """The realified values ``nums / den`` mod 1, for any ints over ``den >= 1``, in lowest terms."""
        nums = [x % den for x in nums]
        common = math.gcd(den, *nums)
        self.owner, self.den = owner, den // common
        self.nums = tuple(nums) if common == 1 else tuple([x // common for x in nums])
        self._cache: Any = None

    @classmethod
    def from_numerators(cls: type[_E], owner: Any, den: int, nums: Sequence[int]) -> _E:
        """The element ``nums / den`` for numerators already reduced into [0, den)."""
        element = cls.__new__(cls)
        element.owner = owner
        common = math.gcd(den, *nums)
        element.den = den // common
        element.nums = tuple(nums) if common == 1 else tuple([x // common for x in nums])
        element._cache = None
        return element

    def order(self) -> int:
        """Order in the group: the common denominator."""
        return self.den

    def is_zero(self) -> bool:
        return self.den == 1

    def transform(self, rows: IntegerRows, cls: type[_E] | None = None, owner: Any = None) -> _E:
        """The image under sparse realified integer rows, as a ``cls`` over ``owner`` (default: this one's)."""
        den = self.den
        image = sparse_matvec_mod(rows, [[x] for x in self.nums], [den])
        owner = self.owner if owner is None else owner
        return (cls or type(self)).from_numerators(owner, den, [col[0] for col in image])

    def _combine(self: _E, other: _E, sign: int) -> _E:
        """``self + sign * other``, summed over the lcm of the two orders."""
        if type(other) is not type(self):
            raise TypeError(f"a {type(self).__name__} does not combine with a {type(other).__name__}")
        if self.owner is not other.owner and self.owner != other.owner:
            raise LatticeMismatchError(f"cannot combine {type(self).__name__} values of different tori")
        den = math.lcm(self.den, other.den)
        p, q = den // self.den, sign * (den // other.den)
        return self.from_numerators(self.owner, den, [(x * p + y * q) % den for x, y in zip(self.nums, other.nums)])

    def __add__(self: _E, other: _E) -> _E:
        return self._combine(other, 1)

    def __sub__(self: _E, other: _E) -> _E:
        return self._combine(other, -1)

    def __neg__(self: _E) -> _E:
        den = self.den
        return self.from_numerators(self.owner, den, [-x % den for x in self.nums])

    def __mul__(self: _E, n: int) -> _E:
        if not isinstance(n, int):
            raise TypeError(f"a {type(self).__name__} is multiplied by an int, not by {type(n).__name__}")
        den = self.den
        return self.from_numerators(self.owner, den, [x * n % den for x in self.nums])

    __rmul__ = __mul__

    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.den != other.den or self.nums != other.nums:
            return False
        return self.owner is other.owner or self.owner == other.owner

    def __hash__(self) -> int:
        return hash((self.owner, self.den, self.nums))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class TorusPoint(_TorsionElement):
    """A point of finite order on the quotient torus, owned by its lattice.

    ``nums`` are the real parts of the lattice coordinates, then their
    imaginary parts; ``coords`` derives the reduced coordinates from them.
    """

    __slots__ = ()

    def __init__(self, lattice: LatticeSpec, coords: Sequence[int | Fraction | GaussianRational]) -> None:
        values = [as_gaussian(x) for x in coords]
        if len(values) != lattice.dim:
            raise ValueError(f"expected {lattice.dim} coordinates, got {len(values)}")
        # Each value is (a + b*i)/d as its canonical triple; d divides the lcm.
        den = math.lcm(*[x._d for x in values])
        super().__init__(lattice, den, [x._a * (den // x._d) for x in values] + [x._b * (den // x._d) for x in values])

    @property
    def lattice(self) -> LatticeSpec:
        return self.owner

    @classmethod
    def zero(cls, lattice: LatticeSpec) -> TorusPoint:
        return cls.from_numerators(lattice, 1, (0,) * (2 * lattice.dim))

    @property
    def coords(self) -> tuple[GaussianRational, ...]:
        """The lattice coordinates, each part reduced into [0, 1)."""
        if self._cache is None:
            den, nums, g = self.den, self.nums, self.owner.dim
            self._cache = tuple(_reduced(nums[j], nums[j + g], den) for j in range(g))
        return self._cache

    def lift(self) -> tuple[GaussianRational, ...]:
        """The canonical ambient representative P * coords."""
        if self.owner.is_default:
            return self.coords
        return self.owner.basis.matvec(self.coords)

    def scale(self, c: int | GaussianRational) -> TorusPoint:
        """Multiply by a Gaussian integer; well defined since i preserves Z[i].

        Raises NotIntegralError for a factor outside Z[i].
        """
        return self.transform((Matrix.identity(self.owner.dim) * c).realified_rows())

    def __str__(self) -> str:
        den, nums, g = self.den, self.nums, self.owner.dim
        return ", ".join(format_gaussian(nums[j], nums[j + g], den) for j in range(g))


def torsion_count(n: int, k: int) -> int:
    """Size of the n-torsion subgroup: n^(2 * 2^k)."""
    return n ** (2 * (1 << k))


def _check_cap(n: int, lattice: LatticeSpec, cap: int) -> int:
    """The number of n-torsion points; raise before anything is built if it exceeds the cap."""
    if n < 1:
        raise ValueError("n must be positive")
    total = torsion_count(n, lattice.k)
    if total > cap:
        raise EnumerationTooLargeError(
            f"{total} points exceed the enumeration cap {cap}"
        )
    return total


def torsion_points(
    n: int, lattice: LatticeSpec, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[TorusPoint]:
    """Enumerate the n-torsion points in deterministic lexicographic order."""
    _check_cap(n, lattice, cap)
    # Digits pair each coordinate's real and imaginary numerators, which
    # fixes the enumeration order; points store real parts first.
    digits = itertools.product(range(n), repeat=2 * lattice.dim)

    def generate() -> Iterator[TorusPoint]:
        for d in digits:
            yield TorusPoint.from_numerators(lattice, n, d[0::2] + d[1::2])

    return generate()


def torsion_block(n: int, lattice: LatticeSpec, cap: int = DEFAULT_ENUMERATION_CAP) -> TorsionBlock:
    """The n-torsion points as one block over the denominator n, in ``torsion_points`` order.

    Digit p of the lexicographic order (of 2g, pairing each coordinate's real
    and imaginary numerators) holds each value for n^(2g-1-p) points in a
    row, and the pattern repeats n^p times; the columns are built so.
    """
    total = _check_cap(n, lattice, cap)
    width = 2 * lattice.dim
    digits = [
        [v for v in range(n) for _ in range(n ** (width - 1 - p))] * n**p for p in range(width)
    ]
    return TorsionBlock([n] * total, digits[0::2] + digits[1::2])


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


def _imaginary_part(hermitian: Matrix, columns: Sequence[Sequence[GaussianRational]]) -> tuple[int, list[list[int]]]:
    """Im h(c_a, c_b) for every pair of columns, as ``(den, nums)``: ``nums[a][b] / den`` in lowest terms.

    H and the columns are scaled to Gaussian integers by the lcm of their
    denominators, and each pairing is summed over the nonzero ``(a, b, d)``
    triples of its two columns: first H * conj(c_b), then its pairing with
    c_a, with Im((x + yi)(u + vi)) = xv + yu. The work is one product per
    pair of nonzero entries that meet, not one per entry of a dense Gram.
    """

    def scaled(vectors: Sequence[Sequence[GaussianRational]]) -> tuple[int, list[list[tuple[int, int, int]]]]:
        """The lcm d of the denominators, and each vector's nonzero entries as (index, re, im) times d."""
        d = math.lcm(*[x._d for vec in vectors for x in vec])
        return d, [[(r, x._a * (d // x._d), x._b * (d // x._d)) for r, x in enumerate(vec) if x] for vec in vectors]

    dh, h_cols = scaled(list(zip(*hermitian.entries())))
    dc, cols = scaled(columns)
    # Entry r of H * conj(c_b), scaled by dh * dc, as images[r][b] = (re, im):
    # (p + qi)(x - yi) = (px + qy) + (qx - py)i.
    images: dict[int, dict[int, tuple[int, int]]] = {}
    for b, col in enumerate(cols):
        for s, x, y in col:
            for r, p, q in h_cols[s]:
                at = images.setdefault(r, {})
                u, v = at.get(b, (0, 0))
                at[b] = (u + p * x + q * y, v + q * x - p * y)
    # Row a of E sums Im(c_a[r] * images[r][b]) over the r where both are nonzero.
    nums = []
    for col in cols:
        row = [0] * len(cols)
        for r, x, y in col:
            for b, (u, v) in images.get(r, {}).items():
                row[b] += x * v + y * u
        nums.append(row)
    den = dh * dc * dc
    common = math.gcd(den, *[n for row in nums for n in row])
    if common != 1:
        den //= common
        nums = [[n // common for n in row] for row in nums]
    return den, nums


class PolarizationData:
    """A Hermitian form on the spinor space and its imaginary part on the lattice.

    The form is complex linear in its first argument. Its imaginary part E,
    evaluated on the realified lattice basis (u_1..u_g, i*u_1..i*u_g), is the
    alternating form whose elementary divisors give the polarization type.
    E is Im h(c_a, c_b) for every pair of the 2g basis columns, summed on
    integers and kept as integer numerators over one common denominator in
    lowest terms (``_imaginary_part``); ``is_integral``, ``integer_form``,
    ``bundle_rows`` and ``riemann_check`` read those integers, and
    ``imag_gram`` is the same form as ``Fraction``s, built from them on
    first read and kept. The duality maps use E^T (``bundle_rows``) and
    E^-T (``point_rows``) as sparse integer rows. E^-T and the principal
    test (``is_principal``) come from one integer elimination of E^T's rows,
    run once and kept; ``inverse_transpose_form``, dense Gauss-Jordan over
    Q(i), is the reference they are tested against.

    ``induced_memo`` keeps, per actor's realified lattice rows R, the
    powers of E^T R E^-T that ``picard.two_torsion_bundle_check`` composes,
    so each actor's are composed once for every class it checks.
    """

    __slots__ = (
        "hermitian",
        "lattice",
        "real_basis",
        "_form_den",
        "_form_nums",
        "_imag_gram",
        "_principal",
        "_bundle_rows",
        "_point_rows",
        "induced_memo",
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
        self._form_den, self._form_nums = _imaginary_part(hermitian, self.real_basis)
        self._imag_gram: tuple[tuple[Fraction, ...], ...] | None = None
        self._principal: bool | None = None
        self._bundle_rows: IntegerRows | None = None
        self._point_rows: IntegerRows | None = None
        self.induced_memo: dict[IntegerRows, list[IntegerRows]] = {}

    @classmethod
    def default(cls, lattice: LatticeSpec) -> PolarizationData:
        return cls(Matrix.identity(lattice.dim), lattice)

    @property
    def g(self) -> int:
        return self.lattice.dim

    @property
    def imag_gram(self) -> tuple[tuple[Fraction, ...], ...]:
        """E as ``Fraction``s, row a holding Im h(c_a, c_b) for every b; built on first read and kept."""
        if self._imag_gram is None:
            den = self._form_den
            self._imag_gram = tuple(tuple(Fraction(n, den) for n in row) for row in self._form_nums)
        return self._imag_gram

    def is_integral(self) -> bool:
        return self._form_den == 1

    def integer_form(self) -> list[list[int]]:
        if not self.is_integral():
            raise NotIntegralError("the imaginary-part form is not integer valued on the lattice")
        return [list(row) for row in self._form_nums]

    def inverse_transpose_form(self) -> Matrix:
        """Exact inverse of E^T by dense Gauss-Jordan over Q(i): the reference for ``point_rows``."""
        return Matrix(list(zip(*self.integer_form()))).inv()

    def bundle_rows(self) -> IntegerRows:
        """E^T as sparse integer rows, taking a point's numerators to a bundle's; cached."""
        if self._bundle_rows is None:
            self._bundle_rows = sparse_rows(zip(*self.integer_form()))
        return self._bundle_rows

    def point_rows(self) -> IntegerRows:
        """E^-T as sparse integer rows, taking a bundle's numerators to a point's; cached.

        One integer elimination of ``bundle_rows`` (``matrices.inverse_rows``)
        gives it. Raises NotIntegralError if E^-T leaves the integers, as it
        does exactly when the polarization is not principal, and ValueError
        if E is singular.
        """
        if self._point_rows is None:
            inverse = inverse_rows(self.bundle_rows(), 2 * self.g)
            if inverse is None:
                raise NotIntegralError("the imaginary-part form is not unimodular on the lattice")
            self._point_rows = inverse
        return self._point_rows

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
    """Check integrality on the lattice, invariance under i, and positivity.

    Invariance under i is E(i x, i y) = E(x, y), read off E itself: on the
    realified basis (u_1..u_g, i*u_1..i*u_g), i sends basis vector a to
    s_a times basis vector tau(a), where tau swaps u_a and i*u_a and s is -1
    on the i*u half. So E[tau a][tau b] * s_a * s_b must equal E[a][b].
    """
    integral = pol.is_integral()

    e, g = pol._form_nums, pol.g
    turn = [(a + g, 1) for a in range(g)] + [(a, -1) for a in range(g)]
    compatible = all(
        e[ta][tb] * (sa * sb) == e[a][b] for a, (ta, sa) in enumerate(turn) for b, (tb, sb) in enumerate(turn)
    )

    positive = True
    for size in range(1, pol.g + 1):
        minor = Matrix([[pol.hermitian[r, c] for c in range(size)] for r in range(size)]).det()
        if minor.im or minor.re <= 0:
            positive = False
            break

    return RiemannReport(integral=integral, complex_compatible=compatible, positive=positive)


def polarization_type(pol: PolarizationData) -> tuple[int, ...]:
    """Elementary divisors (d_1 | ... | d_g) of the alternating lattice form, read from E^T (``bundle_rows``)."""
    divisors = smith_form(pol.bundle_rows(), 2 * pol.g)
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
    """Whether E is integral with an integral inverse, read off the elimination that ``point_rows`` keeps; cached.

    An integral alternating E has det E = (d_1 * ... * d_g)^2, so E is
    unimodular exactly when every elementary divisor is 1: this is the test
    ``polarization_type`` would give, without a Smith form. A singular or
    non-integral E is not principal.
    """
    if pol._principal is None:
        try:
            pol.point_rows()
            pol._principal = True
        except (NotIntegralError, ValueError):
            pol._principal = False
    return pol._principal
