"""Exact matrices over Q(i), their realification, and the integer routines.

Matrices store every entry, but their products and ranks skip zeros: a
product accumulates each output row over the nonzero entries of both
factors, and the rank of a row family comes from fraction-free elimination
over Z[i] on sparse integer rows (each row scaled by the lcm of its
denominators, updated as ``v <- p*v - f*b`` and divided by its integer
content). The blade images of the spinor modules are monomial, so both
visit one entry per row instead of every entry.

The integer routines are the Smith form and one sparse kernel: a matrix
with integer entries kept as sparse rows, applied to a column-major block
of integer numerator vectors, each reduced modulo its own denominator.

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
from .scalars import ONE, GaussianRational, as_gaussian


# Sparse integer rows: per row, the ``(index, coefficient)`` int pairs of its nonzero entries.
IntegerRows = Sequence[Sequence[tuple[int, int]]]

# The zero entry that products and ``Matrix.zero`` share.
_ZERO = GaussianRational()


class Matrix:
    """An immutable dense matrix with GaussianRational entries."""

    __slots__ = ("rows", "cols", "_entries", "_nonzero_rows", "_realified_rows")

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
        self._nonzero_rows: tuple[tuple[tuple[int, GaussianRational], ...], ...] | None = None
        self._realified_rows: IntegerRows | None = None

    @classmethod
    def _wrap(cls, entries: tuple[tuple[GaussianRational, ...], ...]) -> Matrix:
        """A matrix on nonempty, rectangular entry tuples that are already GaussianRational."""
        m = cls.__new__(cls)
        m.rows = len(entries)
        m.cols = len(entries[0])
        m._entries = entries
        m._nonzero_rows = None
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

    def row(self, r: int) -> tuple[GaussianRational, ...]:
        return self._entries[r]

    def column(self, c: int) -> tuple[GaussianRational, ...]:
        return tuple(row[c] for row in self._entries)

    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        return self._entries

    def nonzero_rows(self) -> tuple[tuple[tuple[int, GaussianRational], ...], ...]:
        """Per row, its nonzero entries as ``(col, value)`` pairs in column order; cached."""
        if self._nonzero_rows is None:
            self._nonzero_rows = tuple(
                tuple((c, x) for c, x in enumerate(row) if x) for row in self._entries
            )
        return self._nonzero_rows

    def flatten(self) -> tuple[GaussianRational, ...]:
        return tuple(x for row in self._entries for x in row)

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
        sparse = other.nonzero_rows()
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
                # Not through ``nonzero_rows``, whose cache would outlive this one use.
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
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        work = [list(row) for row in self._entries]
        n = self.rows
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


# A row of Gaussian integers, sparse: column -> (re, im), nonzero entries only.
_GaussianIntegerRow = dict[int, tuple[int, int]]


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
    basis: list[tuple[int, _GaussianIntegerRow]] = []
    for row in rows:
        vec = _gaussian_integer_row(row)
        for lead, pivot in basis:
            if not vec:
                break
            if lead in vec:
                vec = _eliminate(vec, lead, pivot)
        if vec:
            basis.append((min(vec), vec))
    return len(basis)


def smith_form(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Elementary divisors of an integer matrix.

    Returns the full diagonal of the Smith normal form: nonnegative integers
    d_1 | d_2 | ... with zeros trailing, of length min(rows, cols).

    Elimination only diagonalizes; the diagonal then becomes the divisor
    chain by replacing each pair ``(d_i, d_j)``, i < j, with ``(gcd, lcm)``,
    which keeps the matrix equivalent. The divisors are unique, so this is
    the Smith form whatever the pivots were.
    """
    a = [[int(x) for x in row] for row in rows]
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
    divisors.extend([0] * (limit - len(divisors)))
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            first, second = divisors[i], divisors[j]
            divisors[i], divisors[j] = gcd(first, second), lcm(first, second)
    return tuple(divisors)
