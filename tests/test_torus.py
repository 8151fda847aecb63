"""Torus points, torsion enumeration, and polarization certificates."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spintorus import (
    EnumerationTooLargeError,
    GaussianRational,
    LatticeSpec,
    Matrix,
    NotIntegralError,
    PolarizationData,
    TorusPoint,
    hermitian_value,
    is_principal,
    parse_point,
    polarization_type,
    riemann_check,
    torsion_count,
    torsion_points,
)
from spintorus.torus import _imaginary_part, blocks_of_one

LATTICE = LatticeSpec.default(1)

point_coords = st.builds(
    GaussianRational, st.fractions(max_denominator=16), st.fractions(max_denominator=16)
)
points = st.lists(point_coords, min_size=2, max_size=2).map(
    lambda cs: TorusPoint(LATTICE, cs)
)


def test_coordinates_are_reduced_into_the_fundamental_domain():
    p = TorusPoint(LATTICE, [GaussianRational(Fraction(5, 4), Fraction(-1, 2)), 0])
    assert str(p) == "1/4+1/2i, 0"
    assert p == parse_point("5/4-1/2i, 0", 1)


def test_coordinates_must_be_exact():
    # numerators over a common denominator need exact rationals, not floats or strings
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError):
            TorusPoint(LATTICE, [bad, 0])
        with pytest.raises(TypeError):
            TorusPoint(LATTICE, [GaussianRational(0), bad])


@settings(max_examples=60)
@given(points, points, points)
def test_point_addition_is_an_abelian_group(a, b, c):
    zero = TorusPoint.zero(LATTICE)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + zero == a
    assert (a - a).is_zero()
    assert a + (-a) == zero


@settings(max_examples=60)
@given(points, points)
def test_one_element_sums_match_the_block_path(a, b):
    x, y = blocks_of_one(a, b)
    assert a + b == TorusPoint.from_numerators(LATTICE, *(x + y).item(0))
    assert a - b == TorusPoint.from_numerators(LATTICE, *(x - y).item(0))


@settings(max_examples=60)
@given(points)
def test_reduce_of_a_lift_is_the_identity(p):
    assert LATTICE.reduce(p.lift()) == p


@settings(max_examples=60)
@given(points, st.integers(min_value=-4, max_value=4))
def test_integer_scaling_matches_repeated_addition(p, n):
    total = TorusPoint.zero(LATTICE)
    for _ in range(abs(n)):
        total = total + (p if n > 0 else -p)
    assert p * n == total


def test_point_order_is_the_lcm_of_coordinate_orders():
    assert parse_point("1/4, 1/2+1/2i", 1).order() == 4
    assert parse_point("1/3, 1/5", 1).order() == 15
    assert TorusPoint.zero(LATTICE).order() == 1


def test_scaling_by_gaussian_integers():
    p = parse_point("1/4, 0", 1)
    assert str(p.scale(GaussianRational(0, 1))) == "1/4i, 0"
    assert p.scale(GaussianRational(2)) == p + p
    with pytest.raises(NotIntegralError):
        p.scale(GaussianRational(Fraction(1, 2)))


def test_torsion_counts_and_enumeration(lattices):
    assert torsion_count(2, 1) == 16
    assert torsion_count(3, 1) == 81
    assert torsion_count(2, 2) == 256
    assert torsion_count(3, 2) == 6561
    for n in (1, 2, 3):
        pts = list(torsion_points(n, LATTICE))
        assert len(pts) == torsion_count(n, 1)
        assert len(set(pts)) == len(pts)
        assert all((q * n).is_zero() for q in pts)
    two_torsion = list(torsion_points(2, lattices[2]))
    assert len(two_torsion) == 256
    first = [str(q) for q in list(torsion_points(2, LATTICE))[:6]]
    assert first == ["0, 0", "0, 1/2i", "0, 1/2", "0, 1/2+1/2i", "1/2i, 0", "1/2i, 1/2i"]


def test_torsion_enumeration_respects_the_cap():
    with pytest.raises(EnumerationTooLargeError):
        torsion_points(3, LATTICE, cap=10)


def test_default_polarization_is_principal(polarizations):
    for k in (1, 2):
        pol = polarizations[k]
        report = riemann_check(pol)
        assert report.integral and report.complex_compatible and report.positive
        assert report.all_ok
        assert polarization_type(pol) == (1,) * 2**k
        assert is_principal(pol)


def test_default_pairing_matrix_is_the_standard_symplectic_form(polarizations):
    assert polarizations[1].integer_form() == [
        [0, 0, -1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]


def test_riemann_check_flags_bad_forms():
    indefinite = PolarizationData(Matrix([[1, 0], [0, -1]]), LATTICE)
    report = riemann_check(indefinite)
    assert report.integral and report.complex_compatible
    assert not report.positive and not report.all_ok

    halves = PolarizationData(
        Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]), LATTICE
    )
    assert not riemann_check(halves).integral

    doubled = PolarizationData(Matrix([[2, 0], [0, 2]]), LATTICE)
    assert riemann_check(doubled).all_ok
    assert polarization_type(doubled) == (2, 2)
    assert not is_principal(doubled)


def test_hermitian_value_conventions():
    h = Matrix.identity(2)
    v = (GaussianRational(1, 1), GaussianRational(0))
    assert hermitian_value(h, v, v) == GaussianRational(2)
    w = (GaussianRational(0, 1), GaussianRational(0))
    # linear in the first argument, conjugate linear in the second
    assert hermitian_value(h, v, w) == GaussianRational(1, 1) * GaussianRational(0, -1)


I_UNIT = GaussianRational(0, 1)
GRAM_LATTICES = [
    *(LatticeSpec.default(k) for k in (1, 2, 3)),
    LatticeSpec(1, Matrix([[1, I_UNIT], [0, 1]])),
    LatticeSpec(1, Matrix([[1, 1 + I_UNIT], [1, 0]])),
]


@pytest.mark.parametrize("lattice", GRAM_LATTICES, ids=["k1", "k2", "k3", "shear", "index2"])
@pytest.mark.parametrize("form", ["identity", "skew"])
def test_imag_gram_is_the_imaginary_part_of_every_pairing(lattice, form):
    g = lattice.dim
    h = Matrix.identity(g)
    if form == "skew":
        # A Hermitian form with imaginary entries off the diagonal.
        h = Matrix([[2 * g if r == c else (I_UNIT if r < c else -I_UNIT) for c in range(g)] for r in range(g)])
    pol = PolarizationData(h, lattice)
    basis = pol.real_basis
    expected = tuple(
        tuple(hermitian_value(h, basis[a], basis[b]).im for b in range(2 * g)) for a in range(2 * g)
    )
    assert pol.imag_gram == expected
    assert all(type(x) is Fraction for row in pol.imag_gram for x in row)
    assert riemann_check(pol).complex_compatible


@st.composite
def hermitian_and_basis(draw, g):
    """A random Hermitian g x g form and a random invertible g x g basis, both over Q(i).

    Half the draws have Gaussian-integer entries only, so that E is integral;
    zeros are frequent, so that columns are sparse.
    """
    denominators = draw(st.sampled_from([(1,), (1, 1, 2, 3)]))
    parts = st.builds(Fraction, st.integers(min_value=-3, max_value=3), st.sampled_from(denominators))
    gaussians = st.one_of(st.just(GaussianRational(0)), st.builds(GaussianRational, parts, parts))
    upper = {(r, c): draw(gaussians) for r in range(g) for c in range(r + 1, g)}
    h = Matrix([
        [GaussianRational(draw(parts)) if r == c else upper[r, c] if r < c else upper[c, r].conjugate()
         for c in range(g)]
        for r in range(g)
    ])
    basis = Matrix([[draw(gaussians) for _ in range(g)] for _ in range(g)])
    assume(basis.det())
    return h, basis


def _realified_columns(basis):
    """The columns (u_1..u_g, i*u_1..i*u_g) that ``PolarizationData`` pairs."""
    columns = [basis.column(c) for c in range(basis.rows)]
    return columns + [tuple(I_UNIT * x for x in col) for col in columns]


@pytest.mark.parametrize("g", [1, 2, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_form_matches_the_fraction_pairings(g, data):
    h, basis = data.draw(hermitian_and_basis(g))
    columns = _realified_columns(basis)
    expected = tuple(tuple(hermitian_value(h, v, w).im for w in columns) for v in columns)
    den, nums = _imaginary_part(h, columns)
    assert den >= 1 and math.gcd(den, *[n for row in nums for n in row]) == 1
    assert tuple(tuple(Fraction(n, den) for n in row) for row in nums) == expected
    if g == 1:
        # A lattice has dimension 2^k >= 2: size 1 reaches the summation alone.
        return
    pol = PolarizationData(h, LatticeSpec(g.bit_length() - 1, basis))
    assert pol.imag_gram == expected
    assert all(type(x) is Fraction for row in pol.imag_gram for x in row)
    integral = all(x.denominator == 1 for row in expected for x in row)
    assert pol.is_integral() == integral
    if integral:
        assert pol.integer_form() == [[x.numerator for x in row] for row in expected]
    else:
        with pytest.raises(NotIntegralError):
            pol.integer_form()
        with pytest.raises(NotIntegralError):
            pol.bundle_rows()


def test_complex_compatibility_is_read_off_the_form():
    # The i*u half reordered to (i*u_2, i*u_1): E is still the imaginary part of
    # every pairing, but i no longer sends basis vector a to basis vector a + g.
    # On the default lattice that reordering is a symmetry of E; here it is not.
    # E is summed on the reordered basis as the constructor sums it on its own.
    pol = PolarizationData.default(GRAM_LATTICES[3])
    u1, u2, iu1, iu2 = pol.real_basis
    basis = (u1, u2, iu2, iu1)
    pol.real_basis = basis
    pol._form_den, pol._form_nums = _imaginary_part(pol.hermitian, basis)
    assert pol.imag_gram == tuple(tuple(hermitian_value(pol.hermitian, v, w).im for w in basis) for v in basis)
    report = riemann_check(pol)
    assert report.integral and report.positive
    assert not report.complex_compatible


def test_custom_lattices_reduce_against_their_own_basis():
    doubled = LatticeSpec(1, Matrix([[2, 0], [0, 1]]))
    assert not doubled.is_default
    ambient = (GaussianRational(1), GaussianRational(0))
    p = doubled.reduce(ambient)
    assert p.coords == (GaussianRational(Fraction(1, 2)), GaussianRational(0))
    assert p.lift() == (GaussianRational(1), GaussianRational(0))
    assert doubled.contains_ambient((GaussianRational(2), GaussianRational(0)))
    assert not doubled.contains_ambient((GaussianRational(1), GaussianRational(0)))


def test_singular_lattice_bases_are_rejected():
    with pytest.raises(ValueError):
        LatticeSpec(1, Matrix([[1, 1], [1, 1]]))
