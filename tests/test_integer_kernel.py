"""The integer torsion kernel against the dense Fraction oracle.

Points and bundle classes store integer numerators over one denominator, and
lattice matrices act on them as integer Z[i] mat-vecs. Each test here
recomputes the same value through the dense path (``Matrix.matvec`` and
Fraction arithmetic on ``coords``/``chars``) and demands equality, across
signatures (2k, 0) and (2k-1, 1), k = 1..3, and the default and a sheared
lattice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintorus import (
    BundleClass,
    GaussianRational,
    LatticeSpec,
    Matrix,
    NotIntegralError,
    PolarizationData,
    RepresentationTable,
    Signature,
    SuiteConfig,
    TorusPoint,
    apply_matrix,
    build_generators,
    bundle_to_point,
    generator_group,
    group_lattice_matrix,
    point_to_bundle,
    run_suite,
    torsion_points,
)
from spintorus import action
from spintorus.scalars import as_gaussian

CASES = [(k, sig, shear) for k in (1, 2, 3) for sig in ("definite", "indefinite") for shear in (False, True)]
CASE_IDS = [f"k{k}-{sig}-{'shear' if shear else 'default'}" for k, sig, shear in CASES]


@lru_cache(maxsize=None)
def setting(k: int, sig: str, shear: bool):
    """Table, lattice, polarization and lattice matrices of every signed blade."""
    signature = Signature(2 * k, 0) if sig == "definite" else Signature(2 * k - 1, 1)
    table = build_generators(k, signature)
    dim = 1 << k
    if shear:
        # The README lattice [[1, i], [0, 1]], padded with the identity.
        rows = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
        rows[0][1] = GaussianRational(0, 1)
        lattice = LatticeSpec(k, Matrix(rows))
    else:
        lattice = LatticeSpec.default(k)
    pol = PolarizationData(Matrix.identity(dim), lattice)
    matrices = [group_lattice_matrix(g, table, lattice) for g in generator_group(signature)]
    return lattice, pol, matrices


fractions = st.fractions(max_denominator=24)
dims = {k: 1 << k for k in (1, 2, 3)}


def gaussian_lists(k: int):
    return st.lists(st.builds(GaussianRational, fractions, fractions), min_size=dims[k], max_size=dims[k])


def assert_canonical(den: int, nums: tuple[int, ...]) -> None:
    assert den >= 1
    assert all(isinstance(x, int) and 0 <= x < den for x in nums)
    assert math.gcd(den, *nums) == 1


def dense_reduce(values) -> tuple[GaussianRational, ...]:
    return tuple(as_gaussian(x).mod1() for x in values)


@pytest.mark.parametrize("k, sig, shear", CASES, ids=CASE_IDS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_apply_matrix_matches_dense_matvec_for_every_signed_blade(k, sig, shear, data):
    lattice, _, matrices = setting(k, sig, shear)
    p = TorusPoint(lattice, data.draw(gaussian_lists(k)))
    for m in matrices:
        image = apply_matrix(m, p)
        dense = m.matvec(p.coords)
        assert_canonical(image.den, image.nums)
        assert image == TorusPoint(p.lattice, dense)
        assert image.coords == dense_reduce(dense)


@pytest.mark.parametrize("k, sig, shear", CASES, ids=CASE_IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_point_arithmetic_matches_fraction_reference(k, sig, shear, data):
    lattice, _, _ = setting(k, sig, shear)
    p = TorusPoint(lattice, data.draw(gaussian_lists(k)))
    q = TorusPoint(lattice, data.draw(gaussian_lists(k)))
    n = data.draw(st.integers(min_value=-7, max_value=7))
    c = GaussianRational(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
    cases = [
        (p + q, [a + b for a, b in zip(p.coords, q.coords)]),
        (p - q, [a - b for a, b in zip(p.coords, q.coords)]),
        (-p, [-a for a in p.coords]),
        (p * n, [a * n for a in p.coords]),
        (n * p, [a * n for a in p.coords]),
        (p.scale(c), [c * a for a in p.coords]),
    ]
    for got, reference in cases:
        assert_canonical(got.den, got.nums)
        assert got.coords == dense_reduce(reference)
        assert got.order() == math.lcm(1, *(y.denominator for x in got.coords for y in (x.re, x.im)))
        assert got.is_zero() == all(not x for x in got.coords)


def dense_point_to_bundle(p: TorusPoint, pol: PolarizationData) -> tuple[Fraction, ...]:
    reals = [c.re for c in p.coords] + [c.im for c in p.coords]
    return tuple(
        sum((x * pol.imag_gram[a][j] for a, x in enumerate(reals)), Fraction(0)) % 1
        for j in range(len(reals))
    )


def dense_bundle_to_point(bundle: BundleClass, pol: PolarizationData) -> tuple[GaussianRational, ...]:
    solution = pol.inverse_transpose_form().matvec(tuple(as_gaussian(x) for x in bundle.chars))
    g = pol.g
    return tuple(GaussianRational(solution[a].re % 1, solution[g + a].re % 1) for a in range(g))


@pytest.mark.parametrize("k, sig, shear", CASES, ids=CASE_IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_duality_maps_match_the_dense_formulas(k, sig, shear, data):
    lattice, pol, _ = setting(k, sig, shear)
    p = TorusPoint(lattice, data.draw(gaussian_lists(k)))
    bundle = point_to_bundle(p, pol)
    assert_canonical(bundle.den, bundle.nums)
    assert bundle.chars == dense_point_to_bundle(p, pol)

    chars = data.draw(st.lists(fractions, min_size=2 << k, max_size=2 << k))
    b = BundleClass(k, chars)
    point = bundle_to_point(b, pol)
    assert_canonical(point.den, point.nums)
    assert point.coords == dense_bundle_to_point(b, pol)
    assert point_to_bundle(point, pol) == b


# A bundle class depends on k alone, not on the signature or the lattice.
@pytest.mark.parametrize("k", (1, 2, 3))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_bundle_arithmetic_matches_fraction_reference(k, data):
    a = BundleClass(k, data.draw(st.lists(fractions, min_size=2 << k, max_size=2 << k)))
    b = BundleClass(k, data.draw(st.lists(fractions, min_size=2 << k, max_size=2 << k)))
    n = data.draw(st.integers(min_value=-7, max_value=7))
    cases = [
        (a.tensor(b), [x + y for x, y in zip(a.chars, b.chars)]),
        (a.dual(), [-x for x in a.chars]),
        (a.power(n), [x * n for x in a.chars]),
    ]
    for got, reference in cases:
        assert_canonical(got.den, got.nums)
        assert got.chars == tuple(x % 1 for x in reference)
        assert got.order() == math.lcm(1, *(x.denominator for x in got.chars))


def test_torsion_points_match_their_fraction_coordinates():
    lattice = LatticeSpec.default(1)
    for n in (1, 2, 3):
        for p in torsion_points(n, lattice):
            assert_canonical(p.den, p.nums)
            assert p == TorusPoint(lattice, p.coords)
            assert all(y * n % 1 == 0 for x in p.coords for y in (x.re, x.im))


def test_equal_points_from_different_representatives_agree():
    lattice = LatticeSpec.default(1)
    quarter = TorusPoint(lattice, [Fraction(1, 4), 0])
    assert TorusPoint(lattice, [Fraction(5, 4), 0]) == quarter
    assert hash(TorusPoint(lattice, [Fraction(5, 4), 0])) == hash(quarter)
    half = TorusPoint(lattice, [Fraction(1, 2), 0])
    doubled = TorusPoint.from_numerators(lattice, 4, (2, 0, 0, 0))
    assert doubled == half and hash(doubled) == hash(half)
    assert (doubled.den, doubled.nums) == (2, (1, 0, 0, 0))
    # Numerators hold the real parts of the coordinates, then the imaginary parts.
    assert TorusPoint.from_numerators(lattice, 4, (1, 0, 3, 0)).coords == (
        GaussianRational(Fraction(1, 4), Fraction(3, 4)),
        GaussianRational(0),
    )
    assert quarter + quarter == half and hash(quarter + quarter) == hash(half)
    zero = quarter * 4
    assert zero == TorusPoint.zero(lattice) and zero.den == 1 and zero.is_zero()
    assert TorusPoint(lattice, [GaussianRational(Fraction(-3, 2), 7), 0]) == half

    assert BundleClass(1, [Fraction(5, 4), 0, 0, 0]) == BundleClass(1, [Fraction(1, 4), 0, 0, 0])
    same = BundleClass.from_numerators(1, 4, (2, 0, 2, 0))
    half_bundle = BundleClass(1, [Fraction(1, 2), 0, Fraction(1, 2), 0])
    assert same == half_bundle and hash(same) == hash(half_bundle)
    assert BundleClass(1, [3, -2, 0, 1]).is_trivial()


def test_apply_matrix_rejects_a_matrix_outside_gaussian_integers():
    lattice = LatticeSpec.default(1)
    p = TorusPoint(lattice, [Fraction(1, 3), 0])
    with pytest.raises(NotIntegralError):
        apply_matrix(Matrix([[Fraction(1, 2), 0], [0, 1]]), p)
    with pytest.raises(ValueError):
        apply_matrix(Matrix.identity(4), p)


def test_point_rows_need_an_integral_inverse_form():
    # H = 2 * Id gives E = 2 * [[0, -I], [I, 0]], whose inverse has entries 1/2.
    # Row j of bundle_rows is column j of E, indexed by realified position.
    pol = PolarizationData(Matrix.identity(2) * 2, LatticeSpec.default(1))
    assert pol.bundle_rows() == (((2, 2),), ((3, 2),), ((0, -2),), ((1, -2),))
    with pytest.raises(NotIntegralError):
        pol.point_rows()


def test_signed_blade_images_are_built_once():
    table = build_generators(2)
    shear = LatticeSpec(2, Matrix([[1, GaussianRational(0, 1), 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    for lattice in (LatticeSpec.default(2), shear):
        for g in generator_group(table.sig):
            first = group_lattice_matrix(g, table, lattice)
            assert group_lattice_matrix(g, table, lattice) is first
            image = table.blade_image(g.blade) * g.phase
            assert first == lattice.inverse_basis @ image @ lattice.basis


def test_endo_decomp_conjugates_each_signed_blade_once(monkeypatch):
    calls = []
    tables = []
    conjugate = action._lattice_coordinates
    init = RepresentationTable.__init__

    def counted(ambient, lattice):
        calls.append(lattice)
        return conjugate(ambient, lattice)

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)

    monkeypatch.setattr(action, "_lattice_coordinates", counted)
    monkeypatch.setattr(RepresentationTable, "__init__", recorded)
    shear = LatticeSpec(1, Matrix([[1, GaussianRational(0, 1)], [0, 1]]))
    for lattice in (None, shear):
        calls.clear()
        tables.clear()
        report = run_suite(SuiteConfig(ks=(1,), suites=("endo_decomp",), lattice=lattice))
        assert report.all_passed()
        # Each memo entry is one distinct (table, blade, i_power, lattice), stored by the call that built it.
        distinct = sum(len(table.lattice_images) for table in tables)
        assert 0 < len(calls) <= distinct
