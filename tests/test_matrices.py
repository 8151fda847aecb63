"""Dense exact linear algebra, cross-checked against sympy."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from sympy import QQ_I
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from spintorus import (
    GaussianRational,
    LatticeSpec,
    Matrix,
    NotIntegralError,
    SignedPermutation,
    as_gaussian,
    build_generators,
    rank_of_rows,
    realify,
    smith_form,
)
from spintorus.endo import _flattening
from spintorus.matrices import (
    _components,
    _det,
    _divisor_chain,
    _smith_diagonal,
    compose_rows,
    det_of_sparse_rows,
    inverse_rows,
    rank_of_sparse_rows,
    sparse_rows,
)
from spintorus.scalars import UNITS

small_rationals = st.fractions(max_denominator=6)
small_gaussians = st.builds(GaussianRational, small_rationals, small_rationals)


def square_matrices(n):
    return st.lists(
        st.lists(small_gaussians, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix)


def to_sympy(m: Matrix) -> sympy.Matrix:
    return sympy.Matrix([[to_sympy_scalar(x) for x in row] for row in m.entries()])


def to_domain(rows) -> DomainMatrix:
    """The rows as a sympy DomainMatrix over Q(i).

    Exact like ``sympy.Matrix`` but without symbolic simplification, so
    one rank, product or determinant of these sizes stays in milliseconds.
    """
    entries = [[QQ_I.from_sympy(to_sympy_scalar(x)) for x in row] for row in rows]
    return DomainMatrix(entries, (len(entries), len(entries[0])), QQ_I)


@settings(max_examples=40)
@given(square_matrices(3))
def test_determinant_matches_sympy(m):
    theirs = to_domain(m.entries()).det()
    assert QQ_I.from_sympy(to_sympy_scalar(m.det())) == theirs


@settings(max_examples=40)
@given(square_matrices(3), square_matrices(3))
def test_product_matches_sympy(a, b):
    assert to_domain((a @ b).entries()) == to_domain(a.entries()) * to_domain(b.entries())


@settings(max_examples=40)
@given(square_matrices(3))
def test_inverse_round_trips(m):
    if m.det() == GaussianRational():
        with pytest.raises(ValueError):
            m.inv()
    else:
        assert m @ m.inv() == Matrix.identity(3)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(small_gaussians, min_size=5, max_size=5), min_size=3, max_size=3
    )
)
def test_row_rank_matches_sympy(rows):
    expected = sympy_rank(rows)
    assert rank_of_rows(rows) == expected


def to_sympy_scalar(x: int | Fraction | GaussianRational) -> sympy.Expr:
    g = as_gaussian(x)
    return sympy.Rational(g.re) + sympy.I * sympy.Rational(g.im)


def sympy_rank(rows) -> int:
    return to_domain(rows).rank()


gaussian_integers = st.builds(
    GaussianRational,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)


@settings(max_examples=60)
@given(st.data())
def test_rank_of_deficient_families_matches_sympy(data):
    """Rows spanned by r random rows, with zero and repeated rows mixed in."""
    width = data.draw(st.integers(min_value=1, max_value=6))
    r = data.draw(st.integers(min_value=0, max_value=4))
    base = data.draw(
        st.lists(st.lists(small_gaussians, min_size=width, max_size=width), min_size=r, max_size=r)
    )
    weights = data.draw(
        st.lists(st.lists(gaussian_integers, min_size=r, max_size=r), min_size=1, max_size=6)
    )
    rows = [
        [sum((w * b[c] for w, b in zip(ws, base)), GaussianRational()) for c in range(width)]
        for ws in weights
    ]
    rows = data.draw(st.permutations(rows + [[GaussianRational()] * width] + rows[:1]))
    expected = sympy_rank(rows)
    assert expected <= r
    assert rank_of_rows(rows) == expected


mixed_scalars = st.one_of(
    st.integers(min_value=-4, max_value=4), st.fractions(max_denominator=6), small_gaussians
)


@settings(max_examples=40)
@given(st.lists(st.lists(mixed_scalars, min_size=4, max_size=4), min_size=1, max_size=4))
def test_rank_of_mixed_int_fraction_gaussian_rows(rows):
    assert rank_of_rows(rows) == sympy_rank(rows)


def test_rank_scales_by_the_lcm_of_both_parts():
    half_i = GaussianRational(0, Fraction(1, 2))
    assert rank_of_rows([[half_i]]) == 1
    assert rank_of_rows([[1, half_i], [1, 0]]) == 2
    assert rank_of_rows([[Fraction(1, 3), half_i], [2, GaussianRational(0, 3)]]) == 1


def test_rank_rejects_float_entries():
    with pytest.raises(TypeError):
        rank_of_rows([[1, Fraction(1, 2)], [GaussianRational(1), 0.5]])
    with pytest.raises(TypeError):
        Matrix([[0.5]])


# Mostly-zero entries, as in the monomial blade images.
sparse_scalars = st.one_of(
    st.just(0), st.just(0), st.just(0), st.integers(min_value=-2, max_value=2), small_gaussians
)


def sparse_matrices(rows, cols):
    return st.lists(
        st.lists(sparse_scalars, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(Matrix)


def assert_canonical(result: Matrix, expected: sympy.Matrix) -> None:
    """Equal to the oracle, and indistinguishable from a matrix built by the public constructor."""
    assert to_sympy(result) == sympy.expand(expected)
    rebuilt = Matrix(result.entries())
    assert result == rebuilt
    assert hash(result) == hash(rebuilt)
    assert result.shape() == (len(result.entries()), len(result.entries()[0]))
    assert all(isinstance(x, GaussianRational) for row in result.entries() for x in row)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_products_and_constructions_match_sympy(data):
    r, m, c = (data.draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    a = data.draw(sparse_matrices(r, m))
    a2 = data.draw(sparse_matrices(r, m))
    b = data.draw(sparse_matrices(m, c))
    scalar = data.draw(mixed_scalars)
    sa, sa2, sb = to_sympy(a), to_sympy(a2), to_sympy(b)
    s = to_sympy_scalar(scalar)
    assert_canonical(a @ b, sa * sb)
    assert_canonical(a + a2, sa + sa2)
    assert_canonical(a - a2, sa - sa2)
    assert_canonical(-a, -sa)
    assert_canonical(a * scalar, sa * s)
    assert_canonical(scalar * a, sa * s)
    assert_canonical(a.transpose(), sa.T)
    assert_canonical(a.conjugate(), sa.conjugate())
    assert_canonical(a.adjoint(), sa.H)
    assert_canonical(a.kron(b), sympy.kronecker_product(sa, sb))
    assert_canonical(Matrix.zero(r, c), sympy.zeros(r, c))


# Gaussian integers with zero real or imaginary parts, as in the blade images.
gaussian_integers = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=80)
@given(st.data())
def test_realified_rows_match_the_dense_realification(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    entries = data.draw(st.sampled_from([gaussian_integers, sparse_scalars]))
    m = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).map(Matrix))
    try:
        expected = sparse_rows(realify(m))
    except NotIntegralError:
        with pytest.raises(NotIntegralError):
            m.realified_rows()
    else:
        assert m.realified_rows() == expected


def test_a_matrix_that_fails_to_realify_still_fails_the_integrality_check():
    m = Matrix([[GaussianRational(Fraction(1, 2)), 0], [0, GaussianRational(0, 1)]])
    with pytest.raises(NotIntegralError):
        m.realified_rows()
    assert not m.is_gaussian_integer()


def test_zero_matrix_needs_a_row_and_a_column():
    with pytest.raises(ValueError):
        Matrix.zero(0, 2)
    with pytest.raises(ValueError):
        Matrix.zero(2, 0)


int_matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
    min_size=3,
    max_size=3,
)


def smith(rows):
    """``smith_form`` of a dense integer matrix, through its sparse rows."""
    return smith_form(sparse_rows(rows), len(rows[0]))


@settings(max_examples=60)
@given(int_matrices)
def test_smith_divisors_match_sympy_and_chain(rows):
    divisors = smith(rows)
    snf = smith_normal_form(sympy.Matrix(rows))
    expected = [abs(snf[t, t]) for t in range(3)]
    assert list(divisors) == expected
    for first, second in zip(divisors, divisors[1:]):
        if first == 0:
            assert second == 0
        else:
            assert second % first == 0


@st.composite
def low_rank_matrices(draw):
    """Non-square integer matrices, each a product through an inner dimension below both sides."""
    nr = draw(st.integers(min_value=1, max_value=5))
    nc = draw(st.integers(min_value=1, max_value=5))
    inner = draw(st.integers(min_value=0, max_value=min(nr, nc)))
    entries = st.integers(min_value=-6, max_value=6)
    left = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner), min_size=nr, max_size=nr))
    right = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=inner, max_size=inner))
    return [[sum(left[r][k] * right[k][c] for k in range(inner)) for c in range(nc)] for r in range(nr)]


@settings(max_examples=60)
@given(low_rank_matrices())
def test_smith_divisors_of_rank_deficient_and_non_square_matrices(rows):
    divisors = smith(rows)
    snf = smith_normal_form(sympy.Matrix(rows))
    limit = min(len(rows), len(rows[0]))
    assert list(divisors) == [abs(snf[t, t]) for t in range(limit)]
    assert sum(1 for d in divisors if d) == sympy.Matrix(rows).rank()
    for first, second in zip(divisors, divisors[1:]):
        assert second == 0 if first == 0 else second % first == 0


def test_smith_examples():
    assert smith([[2, 4], [6, 8]]) == (2, 4)
    assert smith([[1, 0], [0, 1]]) == (1, 1)
    assert smith([[0, 0], [0, 0]]) == (0, 0)
    assert smith([[2, 0, 0], [0, 3, 0]]) == (1, 6)
    assert smith([[4, 0], [0, 6], [0, 0]]) == (2, 12)
    assert smith([[0, 0, 0], [0, 0, 5]]) == (5, 0)
    assert smith([[6, 0, 0], [0, 0, 0], [0, 0, 4]]) == (2, 12, 0)
    # Sparse rows name only their nonzero entries; ncols counts the zero columns too.
    assert smith_form([(), ((2, 5),)], 3) == (5, 0)
    assert smith_form([((0, 2), (1, 4)), ((0, 6), (1, 8))], 2) == (2, 4)
    assert smith_form([((0, 3),)], 1) == (3,)
    assert smith_form([], 4) == ()


@st.composite
def shuffled_block_matrices(draw, entries, square=False):
    """A block-diagonal matrix with its rows and columns shuffled, as lists of rows.

    Blocks may be rectangular or singular, and a single block gives a matrix
    of one component. A block without rows adds zero columns and one
    without columns adds zero rows; with ``square`` the blocks are either
    all square and nonsingular or padded to a square by such a block.
    """
    nonsingular = square and draw(st.booleans())
    if nonsingular:
        shapes = [(n, n) for n in draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))]
    else:
        sizes = st.integers(0, 3)
        shapes = draw(st.lists(st.tuples(sizes, sizes), min_size=1, max_size=4))
    nr, nc = sum(h for h, _ in shapes), sum(w for _, w in shapes)
    if square:
        shapes.append((nc - nr, 0) if nc > nr else (0, nr - nc))
        nr = nc = max(nr, nc)
    if not nr or not nc:
        shapes.append((1, 1))
        nr, nc = nr + 1, nc + 1
    rows = [[0] * nc for _ in range(nr)]
    top = left = 0
    for h, w in shapes:
        block = st.lists(st.lists(entries, min_size=w, max_size=w), min_size=h, max_size=h)
        for r, row in enumerate(draw(block.filter(_det) if nonsingular else block), start=top):
            rows[r][left : left + w] = row
        top, left = top + h, left + w
    row_order = draw(st.permutations(range(nr)))
    col_order = draw(st.permutations(range(nc)))
    return [[rows[r][c] for c in col_order] for r in row_order]


def columns(rows):
    """Each row's nonzero columns: what ``_components`` reads of a sparse row."""
    return [[c for c, x in enumerate(row) if x] for row in rows]


@settings(max_examples=60, deadline=None)
@given(shuffled_block_matrices(st.integers(-6, 6)))
def test_components_partition_rows_and_columns_along_nonzero_entries(rows):
    parts = _components(columns(rows), len(rows[0]))
    assert sorted(r for part_rows, _ in parts for r in part_rows) == list(range(len(rows)))
    assert sorted(c for _, cols in parts for c in cols) == list(range(len(rows[0])))
    part_of_row = {r: i for i, (part_rows, _) in enumerate(parts) for r in part_rows}
    part_of_col = {c: i for i, (_, cols) in enumerate(parts) for c in cols}
    assert all(part_of_row[r] == part_of_col[c] for r, row in enumerate(rows) for c, x in enumerate(row) if x)


# Shrinking a failing example of up to 12 x 12 through sympy is slow;
# these comparisons report the first failing matrix as drawn.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@settings(max_examples=60, deadline=None, phases=NO_SHRINK)
@given(shuffled_block_matrices(st.integers(-6, 6)))
def test_smith_form_on_components_matches_the_whole_matrix_and_sympy(rows):
    limit = min(len(rows), len(rows[0]))
    divisors = smith(rows)
    assert divisors == _divisor_chain(_smith_diagonal([list(row) for row in rows]), limit)
    snf = smith_normal_form(sympy.Matrix(rows))
    assert list(divisors) == [abs(snf[t, t]) for t in range(limit)]


# Components 2 x 2 (rows 0 and 2) and 1 x 1 (row 1), paired with their
# columns by the odd permutation [0, 2, 1]: the determinant is -(3-2i)*5.
@example([[1, GaussianRational(0, 1), 0], [0, 0, 5], [2, 3, 0]])
@settings(max_examples=100, deadline=None, phases=NO_SHRINK)
@given(shuffled_block_matrices(st.one_of(gaussian_integers, small_gaussians), square=True))
def test_determinant_on_components_matches_the_whole_matrix_and_sympy(rows):
    m = Matrix(rows)
    det = det_of_sparse_rows([{c: x for c, x in enumerate(row) if x} for row in m.entries()], len(rows))
    assert det == m.det() == _det(m.entries())
    assert QQ_I.from_sympy(to_sympy_scalar(det)) == to_domain(m.entries()).det()


def test_determinant_on_components_carries_the_sign_of_the_permutation():
    # Rows 0 and 1 swap their columns, and row 2 holds i.
    n = 17
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        rows[r][{0: 1, 1: 0}.get(r, r)] = r + 1
    rows[2][2] = GaussianRational(0, 1)
    assert len(_components(columns(rows), n)) == n
    sparse = [{c: as_gaussian(x) for c, x in enumerate(row) if x} for row in rows]
    assert det_of_sparse_rows(sparse, n) == GaussianRational(0, -math.prod(r + 1 for r in range(n) if r != 2))
    assert Matrix(rows).det() == det_of_sparse_rows(sparse, n)
    # Rows 0 and 1 meet only column 0, and row 2 meets columns 1 and 2: components 2 x 1 and 1 x 2.
    rows[0][:3], rows[1][:3], rows[2][:3] = [1, 0, 0], [2, 0, 0], [0, 1, 1]
    assert len(_components(columns(rows), n)) == n - 1
    sparse = [{c: as_gaussian(x) for c, x in enumerate(row) if x} for row in rows]
    assert det_of_sparse_rows(sparse, n) == Matrix(rows).det() == GaussianRational()
    with pytest.raises(ValueError):
        det_of_sparse_rows(sparse[1:], n)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_endomorphism_flattening_splits_into_components_of_2_to_the_k_rows(k):
    rows = _flattening(build_generators(k), LatticeSpec.default(k))
    parts = _components([dict(row) for row in rows], 2 * 4**k)
    assert sorted((len(part_rows), len(cols)) for part_rows, cols in parts) == [(2**k, 2**k)] * 2 ** (k + 1)


def test_structure_helpers():
    i2 = Matrix.identity(2)
    x = Matrix([[0, 1], [1, 0]])
    assert i2.kron(x).shape() == (4, 4)
    assert i2.kron(x) == Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    y = Matrix([[0, GaussianRational(0, -1)], [GaussianRational(0, 1), 0]])
    assert y.is_hermitian()
    assert y.adjoint() == y
    assert y.transpose() == y.conjugate()
    assert Matrix.diagonal([1, 2]).entries() == (
        (GaussianRational(1), GaussianRational(0)),
        (GaussianRational(0), GaussianRational(2)),
    )


# Signed permutations against the dense Matrix oracle. The permutations are
# arbitrary, not only the XOR permutations r -> r ^ x of the blade images.
@st.composite
def signed_permutations(draw, n=None):
    n = n if n is not None else draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.permutations(range(n)))
    phases = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    return SignedPermutation(cols, phases)


def test_signed_permutation_draws_include_permutations_that_are_not_xor():
    # (0 1 2) is a 3-cycle: no mask x sends r to r ^ x for every r.
    cycle = SignedPermutation((1, 2, 0), (0, 1, 2))
    assert cycle.dense() == Matrix([[0, 1, 0], [0, 0, GaussianRational(0, 1)], [-1, 0, 0]])
    # An even permutation, so the determinant is the product 1 * i * -1 of the entries.
    assert cycle.det() == cycle.dense().det() == GaussianRational(0, -1)


@settings(max_examples=80)
@given(st.data())
def test_signed_permutations_match_the_dense_oracle(data):
    a = data.draw(signed_permutations())
    b = data.draw(signed_permutations(a.size))
    c = data.draw(signed_permutations())
    t = data.draw(st.integers(min_value=-5, max_value=5))
    dense = a.dense()
    assert (a @ b).dense() == dense @ b.dense()
    assert a.kron(c).dense() == dense.kron(c.dense())
    assert a.phased(t).dense() == dense * UNITS[t % 4]
    assert a.adjoint().dense() == dense.adjoint()
    assert a @ a.adjoint() == SignedPermutation.identity(a.size)
    assert a.det() == dense.det()
    assert a.realified_rows() == dense.realified_rows() == sparse_rows(realify(dense))
    assert a.realified_det() == Matrix(realify(dense)).det()
    assert a.flattened() == {
        index: (x.re, x.im) for index, x in enumerate(x for row in dense.entries() for x in row) if x
    }
    assert SignedPermutation.from_matrix(dense) == a
    assert hash(SignedPermutation.from_matrix(dense)) == hash(a)


@settings(max_examples=40)
@given(st.lists(signed_permutations(3), min_size=1, max_size=12))
def test_rank_of_flattened_signed_permutations_matches_rank_of_rows(family):
    assert rank_of_sparse_rows(p.flattened() for p in family) == rank_of_rows(
        [x for row in p.dense().entries() for x in row] for p in family
    )


# Corruptions of one row of a signed permutation: a second entry, a non-unit
# Gaussian integer, or a fraction in place of the unit.
non_units = st.sampled_from([GaussianRational(2), GaussianRational(1, 1), GaussianRational(0, -3)])
fractions = st.sampled_from([GaussianRational(Fraction(1, 2)), GaussianRational(0, Fraction(-1, 3))])


@settings(max_examples=60)
@given(st.data())
def test_from_matrix_rejects_matrices_that_are_not_signed_permutations(data):
    p = data.draw(signed_permutations())
    r = data.draw(st.integers(min_value=0, max_value=p.size - 1))
    rows = [list(row) for row in p.dense().entries()]
    kind = data.draw(st.sampled_from(["second entry", "non-unit", "fraction"]))
    if kind == "second entry":
        if p.size == 1:
            rows[0].append(GaussianRational(1))
            rows.append([GaussianRational(0), GaussianRational(1)])
        else:
            other = data.draw(st.sampled_from([c for c in range(p.size) if c != p.cols[r]]))
            rows[r][other] = data.draw(st.sampled_from(UNITS))
    else:
        rows[r][p.cols[r]] = data.draw(non_units if kind == "non-unit" else fractions)
    with pytest.raises(ValueError):
        SignedPermutation.from_matrix(Matrix(rows))


def test_signed_permutations_need_a_permutation_and_one_phase_per_row():
    with pytest.raises(ValueError):
        SignedPermutation((0, 0), (0, 0))
    with pytest.raises(ValueError):
        SignedPermutation((0, 1), (0,))
    with pytest.raises(ValueError):
        SignedPermutation((), ())
    with pytest.raises(ValueError):
        SignedPermutation.from_matrix(Matrix([[0, 1], [0, 1]]))
    with pytest.raises(ValueError):
        SignedPermutation.from_matrix(Matrix([[1, 0]]))


def dense_inverse_rows(rows: list[list[int]]) -> tuple | None:
    """The reference for ``inverse_rows``: ``Matrix.inv`` over Q(i), as sparse rows when integral, else None."""
    inverse = Matrix(rows).inv()
    if not inverse.is_gaussian_integer():
        return None
    return sparse_rows([x.re for x in row] for row in inverse.entries())


@st.composite
def square_int_matrices(draw):
    """Small square integer matrices: mostly zeros, so singular and non-unimodular ones both turn up."""
    n = draw(st.integers(min_value=1, max_value=8))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -5])
    return draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))


@st.composite
def unimodular_matrices(draw):
    """The identity moved by random elementary row operations: add a multiple of a row, swap two, negate one."""
    n = draw(st.integers(min_value=1, max_value=8))
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        r, s = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["add", "swap", "negate"]))
        if kind == "add" and r != s:
            q = draw(st.integers(-3, 3))
            rows[r] = [x + q * y for x, y in zip(rows[r], rows[s])]
        elif kind == "swap":
            rows[r], rows[s] = rows[s], rows[r]
        else:
            rows[r] = [-x for x in rows[r]]
    return rows


@st.composite
def singular_int_matrices(draw):
    """Square integer matrices with one row an integer combination of the others (or zero)."""
    rows = draw(square_int_matrices())
    n = len(rows)
    weights = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    r = draw(st.integers(0, n - 1))
    rows[r] = [sum(w * rows[t][c] for t, w in enumerate(weights) if t != r) for c in range(n)]
    return rows


@settings(max_examples=300, deadline=None)
@given(st.one_of(square_int_matrices(), unimodular_matrices()))
def test_inverse_rows_match_the_dense_inverse(rows):
    n = len(rows)
    try:
        expected = dense_inverse_rows(rows)
    except ValueError:
        with pytest.raises(ValueError, match="singular"):
            inverse_rows(sparse_rows(rows), n)
        return
    assert inverse_rows(sparse_rows(rows), n) == expected


@settings(max_examples=100, deadline=None)
@given(unimodular_matrices())
def test_inverse_rows_invert_every_unimodular_matrix(rows):
    n = len(rows)
    inverse = inverse_rows(sparse_rows(rows), n)
    assert inverse is not None
    assert inverse == dense_inverse_rows(rows)
    identity = tuple(((r, 1),) for r in range(n))
    assert compose_rows(sparse_rows(rows), inverse) == identity
    assert compose_rows(inverse, sparse_rows(rows)) == identity


def generic_compose(outer, inner):
    """The product accumulated entry by entry for every outer row, sorted by column: the reference."""
    out = []
    for row in outer:
        acc: dict[int, int] = {}
        for j, c in row:
            for i, x in inner[j]:
                acc[i] = acc.get(i, 0) + c * x
        out.append(tuple(sorted((i, x) for i, x in acc.items() if x)))
    return tuple(out)


@st.composite
def row_products(draw):
    """Integer inner rows, and outer rows mixing single ±1 entries, single entries like 3, longer rows and zero rows."""
    n = draw(st.integers(2, 6))
    inner = sparse_rows(draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)))
    column = st.integers(0, n - 1)
    single = st.tuples(column, st.sampled_from([1, -1, 3, -2])).map(lambda entry: (entry,))
    longer = st.lists(st.tuples(column, st.integers(-3, 3).filter(bool)), min_size=2, max_size=n, unique_by=lambda e: e[0])
    outer = draw(st.lists(st.one_of(single, longer.map(lambda es: tuple(sorted(es))), st.just(())), min_size=1, max_size=8))
    return tuple(outer), inner


@settings(max_examples=200, deadline=None)
@given(row_products())
def test_compose_rows_picks_single_entry_rows_as_the_generic_product_does(product):
    outer, inner = product
    composed = compose_rows(outer, inner)
    assert composed == generic_compose(outer, inner)
    assert all(isinstance(row, tuple) for row in composed)


@settings(max_examples=100, deadline=None)
@given(singular_int_matrices())
def test_inverse_rows_reject_singular_matrices(rows):
    with pytest.raises(ValueError):
        Matrix(rows).inv()
    with pytest.raises(ValueError, match="singular"):
        inverse_rows(sparse_rows(rows), len(rows))


def test_inverse_rows_examples():
    # det 2: invertible over Q, not over Z.
    assert inverse_rows(sparse_rows([[1, 1], [-1, 1]]), 2) is None
    # Column pivots of magnitude 2 and 3 that reduce to a unit: det = 1.
    assert inverse_rows(sparse_rows([[2, 3], [1, 2]]), 2) == (((0, 2), (1, -3)), ((0, -1), (1, 2)))
    assert inverse_rows(sparse_rows([[0, -1], [1, 0]]), 2) == (((1, 1),), ((0, -1),))
    with pytest.raises(ValueError, match="singular"):
        inverse_rows(sparse_rows([[2, 4], [1, 2]]), 2)
    with pytest.raises(ValueError):
        inverse_rows(sparse_rows([[1, 0]]), 2)
