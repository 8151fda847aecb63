"""Exact matrices over Q(i), signed permutations, realification, and the integer routines.

Matrices store every entry, but their products and ranks skip zeros: a
product accumulates each output row over the nonzero entries of both
factors, and the rank of a row family comes from fraction-free elimination
over Z[i] on sparse integer rows (each row scaled by the lcm of its
denominators, updated as ``v <- p*v - f*b`` and divided by its integer
content).

A :class:`SignedPermutation` is a monomial matrix with unit entries, held
as one column and one phase exponent t (the entry is i^t) per row. The
blade images of the spinor modules are kept in this form: products, the
adjoint, the determinant, the realified rows and the flattened row cost
O(n), and ``dense`` turns one into a :class:`Matrix` where a caller needs
every entry.

The integer routines take a matrix with integer entries kept as sparse
rows. One sparse kernel applies them to a column-major block of integer
numerator vectors, each reduced modulo its own denominator. Sparse rows
also compose (a row of one entry picks a row of the inner factor), and
rows that are each a single ±1 entry (the realified
signed permutations) are recognised, so that a block can take their image
by selecting columns instead. ``inverse_rows`` inverts sparse integer rows
by integer row operations alone (None when the inverse is not integral).

The Smith form and the determinant (``det_of_sparse_rows``, which
``Matrix.det`` hands its nonzero entries) read sparse rows and eliminate
one connected component at a time, where the components join rows and
columns through nonzero entries: the flattening of the endomorphism audit
is block diagonal up to a permutation.

Everything here is deterministic: elimination always picks the first
nonzero pivot in row/column order, and the Smith reduction always picks
the smallest-magnitude nonzero entry of the working submatrix. That makes
ranks and divisors reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import NotIntegralError
from .scalars import ONE, UNITS, GaussianRational, as_gaussian


# Sparse integer rows: per row, the ``(index, coefficient)`` int pairs of its nonzero entries.
IntegerRows = Sequence[Sequence[tuple[int, int]]]

# A row of Gaussian integers, sparse: column -> (re, im), nonzero entries only.
_GaussianIntegerRow = dict[int, tuple[int, int]]

# The zero entry that products and ``Matrix.zero`` share.
_ZERO = GaussianRational()

# The (real, imaginary) parts of the units i^t, indexed by t = 0..3.
_UNIT_PARTS = ((1, 0), (0, 1), (-1, 0), (0, -1))


class Matrix:
    """An immutable dense matrix with GaussianRational entries."""

    __slots__ = ("rows", "cols", "_entries", "_realified_rows")

    def __init__(self, rows: Iterable[Iterable[int | Fraction | GaussianRational]]) -> None:
        entries = tuple(tuple(as_gaussian(x) for x in row) for row in rows)
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(entries[0])
        if any(len(row) != width for row in entries):
            raise ValueError("ragged rows")
        self.rows = len(entries)
        self.cols = width
        self._entries = entries
        self._realified_rows: IntegerRows | None = None

    @classmethod
    def _wrap(cls, entries: tuple[tuple[GaussianRational, ...], ...]) -> Matrix:
        """A matrix on nonempty, rectangular entry tuples that are already GaussianRational."""
        m = cls.__new__(cls)
        m.rows = len(entries)
        m.cols = len(entries[0])
        m._entries = entries
        m._realified_rows = None
        return m

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls._wrap(tuple(tuple(ONE if r == c else _ZERO for c in range(n)) for r in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> Matrix:
        if rows < 1 or cols < 1:
            raise ValueError("matrix must have at least one row and one column")
        return cls._wrap(((_ZERO,) * cols,) * rows)

    @classmethod
    def diagonal(cls, values: Sequence[int | Fraction | GaussianRational]) -> Matrix:
        n = len(values)
        return cls([[values[r] if r == c else 0 for c in range(n)] for r in range(n)])

    def __getitem__(self, key: tuple[int, int]) -> GaussianRational:
        r, c = key
        return self._entries[r][c]

    def column(self, c: int) -> tuple[GaussianRational, ...]:
        return tuple(row[c] for row in self._entries)

    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        return self._entries

    def __add__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_shape(other)
        return Matrix._wrap(
            tuple(
                tuple(a + b if a and b else (a or b) for a, b in zip(ra, rb))
                for ra, rb in zip(self._entries, other._entries)
            )
        )

    def __sub__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_shape(other)
        return Matrix._wrap(
            tuple(
                tuple(a - b if b else a for a, b in zip(ra, rb))
                for ra, rb in zip(self._entries, other._entries)
            )
        )

    def __neg__(self) -> Matrix:
        return Matrix._wrap(tuple(tuple(-x if x else x for x in row) for row in self._entries))

    def __mul__(self, scalar: int | Fraction | GaussianRational) -> Matrix:
        if isinstance(scalar, Matrix):
            return NotImplemented
        c = as_gaussian(scalar)
        return Matrix._wrap(tuple(tuple(x * c if x else x for x in row) for row in self._entries))

    __rmul__ = __mul__

    def __matmul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape()} by {other.shape()}")
        sparse = [[(c, x) for c, x in enumerate(row) if x] for row in other._entries]
        columns = range(other.cols)
        out = []
        for ra in self._entries:
            acc: dict[int, GaussianRational] = {}
            for k, a in enumerate(ra):
                if not a:
                    continue
                for c, b in sparse[k]:
                    term = a * b
                    prev = acc.get(c)
                    acc[c] = term if prev is None else prev + term
            out.append(tuple(acc.get(c, _ZERO) for c in columns))
        return Matrix._wrap(tuple(out))

    def matvec(self, vec: Sequence[GaussianRational]) -> tuple[GaussianRational, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match matrix width")
        out = []
        for row in self._entries:
            acc = None
            for a, x in zip(row, vec):
                if not a or not x:
                    continue
                term = a * x
                acc = term if acc is None else acc + term
            out.append(acc if acc is not None else _ZERO)
        return tuple(out)

    def realified_rows(self) -> IntegerRows:
        """The realified matrix (see ``realify``) as sparse integer rows; cached.

        Built from the nonzero entries alone, without zero real or imaginary
        parts, so a monomial matrix keeps one entry per row. Raises
        NotIntegralError if an entry lies outside Z[i].
        """
        if self._realified_rows is None:
            n, top, bottom = self.cols, [], []
            for entries in self._entries:
                row = [(b, x) for b, x in enumerate(entries) if x]
                if any(x._d != 1 for _, x in row):
                    raise NotIntegralError("matrix has an entry outside Z[i]")
                # Real-part columns (below n) come first, so each row is sorted by index.
                top.append(tuple([(b, x._a) for b, x in row if x._a] + [(b + n, -x._b) for b, x in row if x._b]))
                bottom.append(tuple([(b, x._b) for b, x in row if x._b] + [(b + n, x._a) for b, x in row if x._a]))
            self._realified_rows = tuple(top + bottom)
        return self._realified_rows

    def transpose(self) -> Matrix:
        return Matrix._wrap(tuple(zip(*self._entries)))

    def conjugate(self) -> Matrix:
        return Matrix._wrap(
            tuple(tuple(x if x.is_rational() else x.conjugate() for x in row) for row in self._entries)
        )

    def adjoint(self) -> Matrix:
        """Conjugate transpose."""
        return self.conjugate().transpose()

    def kron(self, other: Matrix) -> Matrix:
        out = []
        for ra in self._entries:
            for rb in other._entries:
                out.append(tuple(a * b if a and b else _ZERO for a in ra for b in rb))
        return Matrix._wrap(tuple(out))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_gaussian_integer(self) -> bool:
        return all(x.is_gaussian_integer() for row in self._entries for x in row)

    def is_hermitian(self) -> bool:
        return self.is_square() and self == self.adjoint()

    def det(self) -> GaussianRational:
        """The exact determinant: ``det_of_sparse_rows`` of the nonzero entries."""
        return det_of_sparse_rows([{c: x for c, x in enumerate(row) if x} for row in self._entries], self.cols)

    def inv(self) -> Matrix:
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        work = [list(row) + [ONE if r == c else _ZERO for c in range(n)] for r, row in enumerate(self._entries)]
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if work[r][col]), None)
            if pivot_row is None:
                raise ValueError("matrix is singular")
            work[col], work[pivot_row] = work[pivot_row], work[col]
            inv = work[col][col].inverse()
            work[col] = [x * inv for x in work[col]]
            for r in range(n):
                if r == col or not work[r][col]:
                    continue
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
        return Matrix._wrap(tuple(tuple(row[n:]) for row in work))

    def _check_shape(self, other: Matrix) -> None:
        if self.shape() != other.shape():
            raise ValueError(f"shape mismatch: {self.shape()} vs {other.shape()}")

    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._entries)
        return f"Matrix[{body}]"


def _permutation_sign(perm: Sequence[int]) -> int:
    """The sign of a permutation of ``range(n)``: ``(-1)^(n - cycles)``."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return -1 if (len(perm) - cycles) & 1 else 1


def _components(rows: Sequence[Iterable[int]], ncols: int) -> list[tuple[list[int], list[int]]]:
    """The connected components of the incidence of rows and columns through nonzero entries.

    Each row is given by the columns of its nonzero entries, such as the
    keys of a sparse row. A union-find over the rows and columns joins each
    row with those columns. Each component is ``(rows, cols)``, both
    ascending, in the order of their first row; a zero row is a component
    without columns, and the zero columns come last, each a component
    without rows. Permuting rows and columns by components makes the
    matrix block diagonal, with the components' submatrices as blocks.
    """
    nr = len(rows)
    parent = list(range(nr + ncols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for r, row in enumerate(rows):
        root = find(r)
        for c in row:
            other = find(nr + c)
            if other != root:
                parent[other] = root
    parts: dict[int, tuple[list[int], list[int]]] = {}
    for r in range(nr):
        parts.setdefault(find(r), ([], []))[0].append(r)
    for c in range(ncols):
        parts.setdefault(find(nr + c), ([], []))[1].append(c)
    return list(parts.values())


def det_of_sparse_rows(rows: Sequence[dict[int, GaussianRational]], n: int) -> GaussianRational:
    """The exact determinant of an n x n matrix given as sparse rows (column -> nonzero entry).

    Elimination runs on each connected component (see ``_components``). The
    determinant is 0 if some component is not square, and else the product
    of the components' determinants times the sign of the permutation that
    takes each component's rows to its columns.
    """
    if len(rows) != n:
        raise ValueError("determinant of a non-square matrix")
    parts = _components(rows, n)
    if any(len(part_rows) != len(cols) for part_rows, cols in parts):
        return _ZERO
    perm = [0] * n
    result = ONE
    for part_rows, cols in parts:
        result = result * _det([[rows[r].get(c, _ZERO) for c in cols] for r in part_rows])
        for r, c in zip(part_rows, cols):
            perm[r] = c
    return result if _permutation_sign(perm) > 0 else -result


def _det(rows: Sequence[Sequence[GaussianRational]]) -> GaussianRational:
    """The determinant of a square matrix by Gaussian elimination over Q(i), first nonzero pivot."""
    work = [list(row) for row in rows]
    n = len(work)
    sign = 1
    result = ONE
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            return _ZERO
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            sign = -sign
        pivot = work[col][col]
        result = result * pivot
        inv = pivot.inverse()
        for r in range(col + 1, n):
            factor = work[r][col]
            if not factor:
                continue
            scale = factor * inv
            for c in range(col, n):
                work[r][c] = work[r][c] - scale * work[col][c]
    return result if sign > 0 else -result


class SignedPermutation:
    """An immutable monomial matrix whose entries are units of Z[i].

    Row r holds ``i^phases[r]`` in column ``cols[r]`` and zeros elsewhere,
    and ``cols`` is a permutation, so every row and every column has one
    entry. Every signed-blade image of the tensor ladder is one. Products,
    the adjoint (which is also the inverse), the determinant and the
    realified rows cost O(n) on the two tuples; ``dense`` gives the same
    matrix as a :class:`Matrix`.
    """

    __slots__ = ("cols", "phases")

    def __init__(self, cols: Sequence[int], phases: Sequence[int]) -> None:
        cols = tuple(cols)
        if not cols or sorted(cols) != list(range(len(cols))):
            raise ValueError("columns must be a permutation of range(n), n >= 1")
        if len(phases) != len(cols):
            raise ValueError("expected one phase per row")
        self.cols = cols
        self.phases = tuple(t & 3 for t in phases)

    @classmethod
    def _wrap(cls, cols: tuple[int, ...], phases: tuple[int, ...]) -> SignedPermutation:
        """A signed permutation on a valid permutation and phases already in 0..3."""
        m = cls.__new__(cls)
        m.cols = cols
        m.phases = phases
        return m

    @classmethod
    def identity(cls, n: int) -> SignedPermutation:
        return cls._wrap(tuple(range(n)), (0,) * n)

    @classmethod
    def from_matrix(cls, m: Matrix) -> SignedPermutation:
        """The matrix as a signed permutation.

        Raises ValueError unless m is square and each row and each column
        holds exactly one nonzero entry, a unit 1, i, -1 or -i.
        """
        if not m.is_square():
            raise ValueError(f"a {m.rows}x{m.cols} matrix is not a signed permutation")
        cols, phases = [], []
        for r, row in enumerate(m.entries()):
            hits = [(c, x) for c, x in enumerate(row) if x]
            if len(hits) != 1:
                raise ValueError(f"row {r} has {len(hits)} nonzero entries, not one")
            ((c, x),) = hits
            if x not in UNITS:
                raise ValueError(f"entry ({r}, {c}) is {x}, not a unit of Z[i]")
            cols.append(c)
            phases.append(UNITS.index(x))
        return cls(cols, phases)

    @property
    def size(self) -> int:
        return len(self.cols)

    def __matmul__(self, other: SignedPermutation) -> SignedPermutation:
        """The product: row r of self picks row ``cols[r]`` of other."""
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        if len(self.cols) != len(other.cols):
            raise ValueError(f"cannot multiply sizes {len(self.cols)} and {len(other.cols)}")
        oc, op = other.cols, other.phases
        return SignedPermutation._wrap(
            tuple([oc[c] for c in self.cols]),
            tuple([(t + op[c]) & 3 for c, t in zip(self.cols, self.phases)]),
        )

    def kron(self, other: SignedPermutation) -> SignedPermutation:
        """The Kronecker product: row ``ra * m + rb`` holds ``i^(t_a + t_b)`` in column ``cols_a[ra] * m + cols_b[rb]``.

        m is the size of ``other``; the result is the signed permutation of
        ``Matrix.kron`` on the two dense matrices.
        """
        m = len(other.cols)
        oc, op = other.cols, other.phases
        return SignedPermutation._wrap(
            tuple([ca * m + cb for ca in self.cols for cb in oc]),
            tuple([(ta + tb) & 3 for ta in self.phases for tb in op]),
        )

    def phased(self, t: int) -> SignedPermutation:
        """This matrix times the scalar ``i^t``."""
        t &= 3
        if not t:
            return self
        return SignedPermutation._wrap(self.cols, tuple([(p + t) & 3 for p in self.phases]))

    def adjoint(self) -> SignedPermutation:
        """The conjugate transpose: the inverse permutation, each phase conjugated."""
        n = len(self.cols)
        cols, phases = [0] * n, [0] * n
        for r, (c, t) in enumerate(zip(self.cols, self.phases)):
            cols[c] = r
            phases[c] = -t & 3
        return SignedPermutation._wrap(tuple(cols), tuple(phases))

    def det(self) -> GaussianRational:
        """The sign of the permutation times the product of the entries."""
        t = sum(self.phases) + (0 if _permutation_sign(self.cols) > 0 else 2)
        return UNITS[t & 3]

    def realified_rows(self) -> IntegerRows:
        """The realified matrix (see ``realify``) as sparse integer rows.

        A unit is real or imaginary, so each row has one entry, +1 or -1:
        the realified matrix is a signed permutation of size 2n.
        """
        n = len(self.cols)
        top, bottom = [], []
        for c, t in zip(self.cols, self.phases):
            a, b = _UNIT_PARTS[t]
            top.append(((c, a),) if a else ((c + n, -b),))
            bottom.append(((c, b),) if b else ((c + n, a),))
        return tuple(top + bottom)

    def realified_det(self) -> int:
        """The determinant of the realified matrix: the sign of its permutation times its signs."""
        rows = self.realified_rows()
        det = _permutation_sign([j for ((j, _),) in rows])
        for ((_, x),) in rows:
            det *= x
        return det

    def flattened(self) -> _GaussianIntegerRow:
        """The entries in row-major order as one sparse Z[i] row of length n^2 (see ``rank_of_sparse_rows``)."""
        n = len(self.cols)
        return {r * n + c: _UNIT_PARTS[t] for r, (c, t) in enumerate(zip(self.cols, self.phases))}

    def dense(self) -> Matrix:
        n = len(self.cols)
        rows = []
        for c, t in zip(self.cols, self.phases):
            row = [_ZERO] * n
            row[c] = UNITS[t]
            rows.append(tuple(row))
        return Matrix._wrap(tuple(rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return self.cols == other.cols and self.phases == other.phases

    def __hash__(self) -> int:
        return hash((self.cols, self.phases))

    def __repr__(self) -> str:
        return f"SignedPermutation(cols={list(self.cols)}, phases={list(self.phases)})"


def realify(m: Matrix) -> list[list[int | Fraction]]:
    """Real 2n x 2n matrix of a complex n x n one, on the (u, i*u) basis.

    An entry is an int where the complex entry is a Gaussian integer, a Fraction otherwise.
    """
    n = m.rows
    out: list[list[int | Fraction]] = [[0] * (2 * n) for _ in range(2 * n)]
    for a, row in enumerate(m.entries()):
        for b in range(n):
            x = row[b]
            if not x:
                continue
            if x._d == 1:
                re, im = x._a, x._b
            else:
                re, im = Fraction(x._a, x._d), Fraction(x._b, x._d)
            out[a][b] = re
            out[a][b + n] = -im
            out[a + n][b] = im
            out[a + n][b + n] = re
    return out


def sparse_rows(rows: Iterable[Sequence[int | Fraction]]) -> IntegerRows:
    """Each row's nonzero entries as ``(index, coefficient)`` int pairs.

    Raises NotIntegralError if an entry is not an integer.
    """
    out = []
    for row in rows:
        if any(x.denominator != 1 for x in row):
            raise NotIntegralError("matrix has a non-integer entry")
        out.append(tuple((j, x.numerator) for j, x in enumerate(row) if x))
    return tuple(out)


def sparse_matvec_mod(
    rows: IntegerRows, cols: Sequence[Sequence[int]], dens: Sequence[int]
) -> list[list[int]]:
    """The integer mat-vec of sparse ``rows`` with a column-major block of vectors, reduced per vector.

    ``cols[j][t]`` is entry j of vector t, already reduced into
    ``[0, dens[t])``. Entry t of output row r is
    ``sum(c * cols[j][t] for j, c in rows[r]) % dens[t]``: every vector is
    reduced modulo its own denominator, so vectors of different orders share
    one pass over the rows. A row with a single entry is one pass over its
    column, and the single entry 1 copies it.
    """
    out = []
    for row in rows:
        if len(row) == 1:
            ((j, c),) = row
            out.append(list(cols[j]) if c == 1 else [c * x % d for x, d in zip(cols[j], dens)])
            continue
        acc = [0] * len(dens)
        for j, c in row:
            acc = [a + c * x for a, x in zip(acc, cols[j])]
        out.append([a % d for a, d in zip(acc, dens)])
    return out


def compose_rows(outer: IntegerRows, inner: IntegerRows) -> IntegerRows:
    """The sparse rows of the integer product ``outer @ inner``, each sorted by column.

    ``inner``'s rows must be sorted by column, as ``sparse_rows``,
    ``realified_rows`` and this function give them. An outer row with a
    single entry c at column j is then ``inner[j]`` times c, picked as in
    ``sparse_matvec_mod``: a power of a signed permutation's rows costs
    O(n).
    """
    out = []
    for row in outer:
        if len(row) == 1:
            ((j, c),) = row
            out.append(inner[j] if c == 1 else tuple([(i, c * x) for i, x in inner[j]]))
            continue
        acc: dict[int, int] = {}
        for j, c in row:
            for i, x in inner[j]:
                acc[i] = acc.get(i, 0) + c * x
        out.append(tuple(sorted((i, x) for i, x in acc.items() if x)))
    return tuple(out)


def power_rows(rows: IntegerRows, steps: int) -> list[IntegerRows]:
    """The sparse rows of R, R^2, ..., R^steps, each composed from the one before.

    Each power of a signed permutation's rows costs O(n) (``compose_rows``).
    """
    powers = [rows]
    for _ in range(steps - 1):
        powers.append(compose_rows(rows, powers[-1]))
    return powers


def is_signed_selection(rows: IntegerRows) -> bool:
    """Whether every row is a single entry +1 or -1, so that applying the rows selects signed columns."""
    return all(len(row) == 1 and row[0][1] in (1, -1) for row in rows)


def inverse_rows(rows: IntegerRows, n: int) -> IntegerRows | None:
    """The inverse of the n x n integer matrix ``rows`` as sparse rows, or None if it is not integral.

    Integer row operations only (swap, negate, subtract an integer multiple
    of another row) on the matrix beside the identity. Each column takes as
    pivot its entry of least magnitude (the first, on ties) among the rows
    not yet pivots, and division steps repeat until the rest of the column
    is zero. The triangular result has determinant the product of the
    pivots up to sign, so the matrix is unimodular, and its inverse
    integral, exactly when every pivot is +1 or -1; back substitution then
    turns the identity beside it into the inverse. Raises ValueError if the
    matrix is singular or not n x n.
    """
    if len(rows) != n:
        raise ValueError(f"{len(rows)} rows do not make an {n} x {n} matrix")
    # Row r holds the matrix entries at columns 0..n-1 and the identity's at n..2n-1.
    work = [{**dict(row), n + r: 1} for r, row in enumerate(rows)]
    for c in range(n):
        while True:
            live = [r for r in range(c, n) if work[r].get(c)]
            if not live:
                raise ValueError("matrix is singular")
            p = min(live, key=lambda r: abs(work[r][c]))
            work[c], work[p] = work[p], work[c]
            if len(live) == 1:
                break
            pivot_row, pivot = work[c], work[c][c]
            for r in range(c + 1, n):
                x = work[r].get(c)
                if x:
                    _subtract_row(work[r], x // pivot, pivot_row)
    if any(work[c][c] not in (1, -1) for c in range(n)):
        return None
    for c in reversed(range(n)):
        pivot_row = work[c]
        if pivot_row[c] < 0:
            for j in pivot_row:
                pivot_row[j] = -pivot_row[j]
        for r in range(c):
            x = work[r].get(c)
            if x:
                _subtract_row(work[r], x, pivot_row)
    return tuple(tuple(sorted((j - n, x) for j, x in row.items() if j >= n)) for row in work)


def _subtract_row(row: dict[int, int], q: int, other: dict[int, int]) -> None:
    """``row -= q * other`` in place on sparse integer rows, dropping the entries that become zero."""
    for j, x in other.items():
        y = row.get(j, 0) - q * x
        if y:
            row[j] = y
        else:
            row.pop(j, None)


def _gaussian_integer_row(row: Iterable[int | Fraction | GaussianRational]) -> _GaussianIntegerRow:
    """The row scaled by the lcm of its denominators, as a sparse Z[i] row.

    Raises TypeError on an entry that is not an int, Fraction or GaussianRational.
    """
    parts: dict[int, tuple[int, int, int]] = {}
    den = 1
    for c, x in enumerate(row):
        if isinstance(x, GaussianRational):
            re, im, d = x._a, x._b, x._d
        elif isinstance(x, int):
            re, im, d = x, 0, 1
        elif isinstance(x, Fraction):
            re, im, d = x.numerator, 0, x.denominator
        else:
            raise TypeError(f"cannot interpret {type(x).__name__} as a Gaussian rational")
        if re or im:
            parts[c] = (re, im, d)
            if d != 1:
                den = lcm(den, d)
    if den == 1:
        return {c: (re, im) for c, (re, im, _) in parts.items()}
    return {c: (re * (den // d), im * (den // d)) for c, (re, im, d) in parts.items()}


def _eliminate(
    vec: _GaussianIntegerRow, lead: int, pivot: _GaussianIntegerRow
) -> _GaussianIntegerRow:
    """``p*vec - f*pivot`` over Z[i], with ``p``, ``f`` the two entries at ``lead``; content removed.

    The result is zero at ``lead`` and spans, with ``pivot``, what ``vec`` and
    ``pivot`` spanned over Q(i), because ``p`` is nonzero.
    """
    pr, pi = pivot[lead]
    fr, fi = vec[lead]
    out = {c: (pr * x - pi * y, pr * y + pi * x) for c, (x, y) in vec.items()}
    for c, (x, y) in pivot.items():
        re, im = out.get(c, (0, 0))
        re -= fr * x - fi * y
        im -= fr * y + fi * x
        if re or im:
            out[c] = (re, im)
        else:
            out.pop(c, None)
    content = gcd(*(part for pair in out.values() for part in pair))
    if content > 1:
        out = {c: (re // content, im // content) for c, (re, im) in out.items()}
    return out


def rank_of_rows(rows: Iterable[Sequence[int | Fraction | GaussianRational]]) -> int:
    """Rank over Q(i) of the row span, by incremental fraction-free elimination over Z[i].

    Rows may mix int, Fraction and GaussianRational entries; anything else
    (floats included) raises TypeError. Rows are consumed one at a time, so
    callers can stream large flattened families without materializing the
    full matrix.
    """
    return rank_of_sparse_rows(_gaussian_integer_row(row) for row in rows)


def rank_of_sparse_rows(rows: Iterable[_GaussianIntegerRow]) -> int:
    """Rank over Q(i) of sparse Z[i] rows (column -> (re, im), nonzero entries only).

    The elimination of ``rank_of_rows``, for rows that are already sparse
    and integral, such as ``SignedPermutation.flattened``.
    """
    basis: list[tuple[int, _GaussianIntegerRow]] = []
    for vec in rows:
        for lead, pivot in basis:
            if not vec:
                break
            if lead in vec:
                vec = _eliminate(vec, lead, pivot)
        if vec:
            basis.append((min(vec), vec))
    return len(basis)


def smith_form(rows: IntegerRows, ncols: int) -> tuple[int, ...]:
    """Elementary divisors of the integer matrix given as sparse rows with ``ncols`` columns.

    Returns the full diagonal of the Smith normal form: nonnegative integers
    d_1 | d_2 | ... with zeros trailing, of length min(rows, cols).

    Elimination only diagonalizes, one connected component (see
    ``_components``) at a time: a matrix that is block diagonal up to a
    permutation is equivalent to the direct sum of its blocks. The diagonal
    then becomes the divisor chain by (gcd, lcm) steps on pairs of its
    entries, which keep the matrix equivalent. The divisors are unique, so
    this is the Smith form whatever the pivots and components were.
    """
    a = [dict(row) for row in rows]
    divisors = [
        d
        for part_rows, cols in _components(a, ncols)
        if part_rows and cols
        for d in _smith_diagonal([[a[r].get(c, 0) for c in cols] for r in part_rows])
    ]
    return _divisor_chain(divisors, min(len(a), ncols))


def _divisor_chain(diagonal: list[int], limit: int) -> tuple[int, ...]:
    """The Smith form of a diagonal with nonzero entries: a divisor chain, then zeros up to ``limit``.

    The entries join the chain in ascending order. An entry d that the
    chain's last divisor divides is appended. Any other replaces each
    divisor c of the chain with ``gcd(c, d)`` while d moves on as
    ``lcm(c, d)``, and the last lcm is appended. Entries that are powers of
    one prime, as in the endomorphism audit, are always appended.
    """
    chain: list[int] = []
    for d in sorted(diagonal):
        if chain and d % chain[-1]:
            for i, c in enumerate(chain):
                chain[i], d = gcd(c, d), lcm(c, d)
        chain.append(d)
    return tuple(chain) + (0,) * (limit - len(chain))


def _smith_diagonal(a: list[list[int]]) -> list[int]:
    """Diagonalize the integer matrix ``a`` in place; its nonzero diagonal, as absolute values.

    Each step moves the first entry of least magnitude of the working
    submatrix to the pivot and clears the pivot's column and row by integer
    division steps.
    """
    nr = len(a)
    nc = len(a[0]) if nr else 0
    limit = min(nr, nc)
    divisors: list[int] = []
    t = 0
    while t < limit:
        # The first entry of least magnitude, in row-major order; a unit ends the search.
        best_r = best_c = -1
        best = 0
        for r in range(t, nr):
            row = a[r]
            for c in range(t, nc):
                if row[c]:
                    v = abs(row[c])
                    if best == 0 or v < best:
                        best_r, best_c, best = r, c, v
                        if v == 1:
                            break
            if best == 1:
                break
        if best == 0:
            break
        a[t], a[best_r] = a[best_r], a[t]
        for row in a:
            row[t], row[best_c] = row[best_c], row[t]
        while True:
            # Clear column t below the pivot, always dividing by its smallest entry.
            while True:
                p = min((r for r in range(t, nr) if a[r][t]), key=lambda r: abs(a[r][t]))
                a[t], a[p] = a[p], a[t]
                if a[t][t] < 0:
                    a[t] = [-x for x in a[t]]
                pivot_row, pivot = a[t], a[t][t]
                clear = True
                for r in range(t + 1, nr):
                    if a[r][t]:
                        q = a[r][t] // pivot
                        a[r] = [x - q * y for x, y in zip(a[r], pivot_row)]
                        clear = clear and not a[r][t]
                if clear:
                    break
            # Column t is clear below the pivot, so column steps touch row t only.
            row = a[t]
            for c in range(t + 1, nc):
                row[c] %= row[t]
            rest = [c for c in range(t + 1, nc) if row[c]]
            if not rest:
                break
            p = min(rest, key=lambda c: row[c])
            for r in range(t, nr):
                a[r][t], a[r][p] = a[r][p], a[r][t]
        divisors.append(abs(a[t][t]))
        t += 1
    return divisors
