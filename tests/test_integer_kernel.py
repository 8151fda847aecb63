"""The integer torsion kernel against the dense Fraction oracle.

Points and bundle classes store integer numerators over one denominator, and
lattice matrices act on them as integer Z[i] mat-vecs, one block of points
at a time. Each test here recomputes the same value through the dense path
(``Matrix.matvec``, ``LatticeSpec.reduce`` and Fraction arithmetic on
``coords``/``chars``) and demands equality, across signatures (2k, 0) and
(2k-1, 1), k = 1..3, and the default and a sheared lattice.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import Phase, given, settings
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
    as_signed_blade,
    build_generators,
    bundle_system,
    bundle_to_point,
    element_order,
    generator_group,
    group_lattice_matrix,
    point_to_bundle,
    run_suite,
    torsion_points,
    two_torsion_bundle_check,
)
from spintorus import action, suite
from spintorus.action import degenerate_pair, four_step, lattice_rows, two_torsion_pair
from spintorus.errors import LatticeNotPreservedError
from spintorus.matrices import is_signed_selection, power_rows, realify, sparse_matvec_mod, sparse_rows
from spintorus.picard import bundle_systems_hold, induced_powers, two_torsion_bundle_scan
from spintorus.scalars import as_gaussian
from spintorus.torus import TorsionBlock, is_principal, torsion_block

# Shrinking a failing block reruns every identity (or every sampled actor) per
# step and took minutes; the unshrunk example names the failing case as well.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)

CASES = [(k, sig, shear) for k in (1, 2, 3) for sig in ("definite", "indefinite") for shear in (False, True)]
CASE_IDS = [f"k{k}-{sig}-{'shear' if shear else 'default'}" for k, sig, shear in CASES]


@lru_cache(maxsize=None)
def table_for(k: int, sig: str) -> RepresentationTable:
    return build_generators(k, Signature(2 * k, 0) if sig == "definite" else Signature(2 * k - 1, 1))


@lru_cache(maxsize=None)
def setting(k: int, sig: str, shear: bool):
    """Lattice, polarization and lattice matrices of every signed blade."""
    table = table_for(k, sig)
    signature = table.sig
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


# Points and bundle classes share one implementation of their group
# arithmetic; a class depends on k alone, and a point here lies on the default
# lattice. Each kind is driven through its own names for the operations.
GROUP_KINDS = {
    "BundleClass": (BundleClass.tensor, BundleClass.dual, BundleClass.power),
    "TorusPoint": (operator.add, operator.neg, operator.mul),
}


def group_element(kind: str, k: int, values: list[Fraction]) -> BundleClass | TorusPoint:
    if kind == "BundleClass":
        return BundleClass(k, values)
    g = 1 << k
    return TorusPoint(LatticeSpec.default(k), [GaussianRational(x, y) for x, y in zip(values[:g], values[g:])])


def realified_values(x: BundleClass | TorusPoint) -> tuple[Fraction, ...]:
    if isinstance(x, BundleClass):
        return x.chars
    return tuple(c.re for c in x.coords) + tuple(c.im for c in x.coords)


@pytest.mark.parametrize("kind", GROUP_KINDS)
@pytest.mark.parametrize("k", (1, 2, 3))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_group_arithmetic_matches_fraction_reference(k, kind, data):
    add, neg, mul = GROUP_KINDS[kind]
    a_values = data.draw(st.lists(fractions, min_size=2 << k, max_size=2 << k))
    b_values = data.draw(st.lists(fractions, min_size=2 << k, max_size=2 << k))
    a, b = group_element(kind, k, a_values), group_element(kind, k, b_values)
    n = data.draw(st.integers(min_value=-7, max_value=7))
    cases = [
        (a, a_values),
        (add(a, b), [x + y for x, y in zip(a_values, b_values)]),
        (neg(a), [-x for x in a_values]),
        (mul(a, n), [x * n for x in a_values]),
    ]
    for got, reference in cases:
        assert type(got) is type(a)
        assert_canonical(got.den, got.nums)
        assert realified_values(got) == tuple(x % 1 for x in reference)
        assert got.nums == tuple(x * got.den for x in realified_values(got))
        assert got.order() == math.lcm(1, *(x.denominator for x in realified_values(got)))


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
    # Both constructors, the public one and ``_of``, fill a table in through ``_init``.
    init = RepresentationTable._init

    def counted(ambient, lattice):
        calls.append(lattice)
        return conjugate(ambient, lattice)

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)

    monkeypatch.setattr(action, "_lattice_coordinates", counted)
    monkeypatch.setattr(RepresentationTable, "_init", recorded)
    shear = LatticeSpec(1, Matrix([[1, GaussianRational(0, 1)], [0, 1]]))
    for lattice in (None, shear):
        calls.clear()
        tables.clear()
        report = run_suite(SuiteConfig(ks=(1,), suites=("endo_decomp",), lattice=lattice))
        assert report.all_passed()
        # Each memo entry is one distinct (table, blade, i_power, lattice), stored by the call that built it.
        distinct = sum(len(table.lattice_images) for table in tables)
        assert 0 < len(calls) <= distinct


@pytest.mark.parametrize("suite_name, entry_points", [
    ("clifford_action", ("act",)),
    ("dual_picard", ("act", "bundle_action")),
])
def test_default_lattice_scans_memoize_only_the_actors_of_single_actions(monkeypatch, suite_name, entry_points):
    # The orbit and two-torsion scans read a ladder table's rows from its signed
    # permutations, so only the one-point actions leave dense lattice matrices behind.
    tables, acted = [], set()
    # Both constructors, the public one and ``_of``, fill a table in through ``_init``.
    init = RepresentationTable._init

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tables.append(self)

    def recording(original):
        def wrapper(h, target, table, *rest):
            g = as_signed_blade(h)
            if g is not None:
                acted.add((id(table), g.blade, g.i_power))
            return original(h, target, table, *rest)

        return wrapper

    monkeypatch.setattr(RepresentationTable, "_init", recorded)
    for name in entry_points:
        monkeypatch.setattr(suite, name, recording(getattr(suite, name)))
    report = run_suite(SuiteConfig(ks=(3,), suites=(suite_name,)))
    assert report.all_passed()
    memoized = {(id(table), blade, i_power) for table in tables for blade, i_power, _ in table.lattice_images}
    assert acted and memoized == acted


# Blocks of torsion points. A block holds each point over a denominator that
# is a multiple of its order, so the drawn numerators need not be in lowest
# terms, and the denominators mix freely, 1 included.
@st.composite
def blocks(draw, width: int) -> TorsionBlock:
    size = draw(st.integers(min_value=1, max_value=40))
    dens = draw(st.lists(st.integers(min_value=1, max_value=36), min_size=size, max_size=size))
    points = [draw(st.lists(st.integers(0, den - 1), min_size=width, max_size=width)) for den in dens]
    return TorsionBlock(dens, [list(col) for col in zip(*points)])


def block_coords(block: TorsionBlock, t: int, lattice: LatticeSpec) -> tuple[GaussianRational, ...]:
    """Item t of a block as Gaussian-rational coordinates, each part in [0, 1)."""
    den, nums = block.item(t)
    assert den == block.dens[t] and all(0 <= x < den for x in nums)
    return TorusPoint.from_numerators(lattice, den, nums).coords


def plus(a, b):
    return tuple((x + y).mod1() for x, y in zip(a, b))


def minus(a, b):
    return tuple((x - y).mod1() for x, y in zip(a, b))


def dense_orbit(lattice: LatticeSpec, ambient: Matrix, coords, steps: int) -> list[tuple[GaussianRational, ...]]:
    """The ambient matrix applied to the lift P * coords, reduced through the lattice, ``steps`` times."""
    orbit = [coords]
    for _ in range(steps):
        if lattice.is_default:
            image = ambient.matvec(orbit[-1])
        else:
            image = lattice.inverse_basis.matvec(ambient.matvec(lattice.basis.matvec(orbit[-1])))
        orbit.append(tuple(x.mod1() for x in image))
    return orbit


# The identities, on dense coordinates.
def dense_four_step(base, m, n, steps) -> bool:
    moved = plus(base, m)
    return tuple(steps) == (moved, plus(moved, n), plus(base, n), base)


def dense_closure(base, m, n) -> bool:
    return not any(plus(plus(plus(base, base), m), n))


def dense_degenerate_pair(base, m, n, second) -> bool:
    return n == tuple((-x).mod1() for x in m) and second == base


def dense_two_torsion_pair(m, n) -> bool:
    return n == m and not any(plus(m, m))


@pytest.mark.parametrize("k, sig, shear", CASES, ids=CASE_IDS)
@settings(max_examples=2, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_block_orbits_and_identities_match_the_dense_action_for_every_signed_blade(k, sig, shear, data):
    lattice, _, matrices = setting(k, sig, shear)
    table = table_for(k, sig)
    g = lattice.dim
    block = data.draw(blocks(2 * g))
    starts = [block_coords(block, t, lattice) for t in range(len(block))]
    for actor, matrix in zip(generator_group(table.sig), matrices):
        ambient = table.represent_group_element(actor)
        orbit = block.orbit(power_rows(matrix.realified_rows(), 4))
        assert orbit[0] is block
        assert block.transform(matrix.realified_rows()).cols == orbit[1].cols
        m, n = orbit[1] - orbit[0], orbit[2] - orbit[1]
        verdicts = (*four_step(orbit), degenerate_pair(orbit), two_torsion_pair(orbit))
        for t, start in enumerate(starts):
            path = dense_orbit(lattice, ambient, start, 4)
            assert [block_coords(q, t, lattice) for q in orbit] == path
            dm, dn = minus(path[1], path[0]), minus(path[2], path[1])
            assert (block_coords(m, t, lattice), block_coords(n, t, lattice)) == (dm, dn)
            assert tuple(verdict[t] for verdict in verdicts) == (
                dense_four_step(start, dm, dn, path[1:]),
                dense_closure(start, dm, dn),
                dense_degenerate_pair(start, dm, dn, path[2]),
                dense_two_torsion_pair(dm, dn),
            )


@pytest.mark.parametrize("k", (1, 2, 3))
@settings(max_examples=10, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_identities_on_blocks_match_the_dense_identities(k, data):
    # Arbitrary orbits, where the identities mostly fail; the items drawn as
    # honest are made to satisfy them, so both verdicts occur.
    lattice = LatticeSpec.default(k)
    base = data.draw(blocks(2 * lattice.dim))
    size, dens = len(base), base.dens
    rng = data.draw(st.randoms(use_true_random=False))
    honest = [rng.random() < 0.5 for _ in range(size)]

    def arbitrary() -> TorsionBlock:
        return TorsionBlock(dens, [[rng.randrange(d) for d in dens] for _ in base.cols])

    def forced(block: TorsionBlock, target: TorsionBlock) -> TorsionBlock:
        cols = [[y if h else x for x, y, h in zip(a, b, honest)] for a, b in zip(block.cols, target.cols)]
        return TorsionBlock(dens, cols)

    first, second = arbitrary(), arbitrary()
    # M = first - base and N = second - first; honest items step to base + N, then base.
    orbit = [base, first, second, forced(arbitrary(), base + second - first), forced(arbitrary(), base)]
    # Here 2 * base + M + N = base + closing = 0 for every item.
    closing = [base, first, -base, *orbit[3:]]
    returning = [base, first, forced(arbitrary(), base)]
    # Here N = M for every item, and 2M = 0 only for some.
    doubling = [base, base + first, base + first + first]
    got = (
        *four_step(orbit),
        four_step(closing)[1],
        degenerate_pair(returning),
        two_torsion_pair(orbit),
        two_torsion_pair(doubling),
    )
    for t in range(size):
        b, x1, x2, xc, xr = (block_coords(q, t, lattice) for q in (base, first, second, closing[2], returning[2]))
        steps = [block_coords(q, t, lattice) for q in orbit[1:]]
        mm, nn = minus(x1, b), minus(x2, x1)
        assert tuple(verdict[t] for verdict in got) == (
            dense_four_step(b, mm, nn, steps),
            dense_closure(b, mm, nn),
            dense_closure(b, mm, minus(xc, x1)),
            dense_degenerate_pair(b, mm, minus(xr, x1), xr),
            dense_two_torsion_pair(mm, nn),
            dense_two_torsion_pair(x1, x1),
        )
    assert all(holds for holds, h in zip(got[0], honest) if h)
    assert all(got[2])
    assert all(holds for holds, h in zip(got[3], honest) if h)
    assert all(two_torsion_pair([base, base, base]))


def test_the_fourth_image_is_compared_on_its_own():
    # Every item steps to base + N and closes (second = -base); the fourth
    # image misses base on items 0, 1 and 3 only, and only those fail.
    dens = [4, 6, 5, 3]
    base = TorsionBlock(dens, [[1, 5, 2, 0], [3, 0, 4, 2]])
    first = TorsionBlock(dens, [[2, 1, 0, 1], [0, 4, 3, 1]])
    off = TorsionBlock(dens, [[0, 1, 0, 2], [1, 0, 0, 0]])
    second = -base
    orbit = [base, first, second, base + second - first, base + off]
    assert four_step(orbit) == ([False, False, True, False], [True] * 4)
    assert four_step([*orbit[:4], base]) == ([True] * 4, [True] * 4)


def test_two_torsion_fails_on_a_returning_orbit_that_2_does_not_kill():
    # Over 4: base 0, image 1/4, second image 0. The orbit returns (g^2 p = p)
    # and N = -M, but M = 1/4 is not killed by 2, so N = M fails.
    dens = [4, 4, 2]
    base = TorsionBlock(dens, [[0, 0, 0], [0, 2, 1]])
    first = TorsionBlock(dens, [[1, 2, 1], [0, 0, 0]])
    assert two_torsion_pair([base, first, base]) == [False, True, True]
    # A single column over 4 whose second image is its base, and one over 3.
    assert two_torsion_pair([TorsionBlock([4], [[0]]), TorsionBlock([4], [[1]]), TorsionBlock([4], [[0]])]) == [False]
    assert two_torsion_pair([TorsionBlock([3], [[2]]), TorsionBlock([3], [[0]]), TorsionBlock([3], [[2]])]) == [False]


def test_two_torsion_fails_when_the_second_image_is_taken_by_r():
    # An order-4 actor squares to -1, which fixes every two-torsion point:
    # the orbit through R^2 passes everywhere, and one that repeats R fails
    # exactly on the points R moves.
    lattice, _, matrices = setting(1, "definite", False)
    table = table_for(1, "definite")
    block = torsion_block(2, lattice)
    for g, matrix in zip(generator_group(table.sig), matrices):
        if element_order(g, table.sig) != 4:
            continue
        rows = matrix.realified_rows()
        assert all(two_torsion_pair(block.orbit(power_rows(rows, 2))))
        moved = block.orbit([rows])[1]
        repeated = two_torsion_pair(block.orbit([rows, rows]))
        assert repeated == [all(col[t] == base[t] for col, base in zip(moved.cols, block.cols)) for t in range(len(block))]
        assert not all(repeated)


def test_two_torsion_compares_2m_only_when_a_denominator_exceeds_2():
    # Every second image is its base (g^2 p = p). Over 1 and 2, 2M = 0 holds
    # for every M; over 4 it fails for M = 1/4 and holds for M = 1/2.
    dens = [1, 2, 4, 4, 2]
    base = TorsionBlock(dens, [[0, 1, 3, 0, 0]])
    first = TorsionBlock(dens, [[0, 0, 0, 2, 1]])
    assert two_torsion_pair([base, first, base]) == [True, True, False, True, True]
    small = [1, 2, 2]
    low = TorsionBlock(small, [[0, 0, 1]])
    assert two_torsion_pair([low, TorsionBlock(small, [[0, 1, 0]]), low]) == [True] * 3
    empty = TorsionBlock([], [[]])
    assert two_torsion_pair([empty, empty, empty]) == []


def test_two_torsion_on_mixed_denominators_matches_the_literal_form():
    # Every (base, image, second image) over denominators 1, 2, 3 and 4 in
    # the first column, and the same triples in reverse in the second.
    triples = [(d, xs) for d in (1, 2, 3, 4) for xs in itertools.product(range(d), repeat=3)]
    dens = [d for d, _ in triples]
    swapped = [xs for _, xs in reversed(triples)]
    columns = [[xs for _, xs in triples], [tuple(x % d for x in xs) for (d, _), xs in zip(triples, swapped)]]
    orbit = [TorsionBlock(dens, [[xs[i] for xs in col] for col in columns]) for i in range(3)]

    def literal(x, y1, y2, d) -> bool:
        m = (y1 - x) % d
        return (y2 - y1) % d == m and 2 * m % d == 0

    expected = [all(literal(*col[t], dens[t]) for col in columns) for t in range(len(dens))]
    assert two_torsion_pair(orbit) == expected
    assert 0 < sum(expected) < len(expected)


# The reference for the selection kernel and the fused identities: every
# orbit step through the sparse kernel, and each identity as block
# arithmetic on the translations M and N.
def reference_orbit(rows, block: TorsionBlock, steps: int) -> list[TorsionBlock]:
    orbit = [block]
    for _ in range(steps):
        orbit.append(TorsionBlock(block.dens, sparse_matvec_mod(rows, orbit[-1].cols, block.dens)))
    return orbit


def reference_agrees(a: TorsionBlock, b: TorsionBlock) -> list[bool]:
    assert a.dens == b.dens
    return [x == y for x, y in zip(zip(*a.cols), zip(*b.cols))] if a.dens else []


def reference_every(*verdicts: list[bool]) -> list[bool]:
    return [all(per_item) for per_item in zip(*verdicts)]


def reference_verdicts(base, m, n, steps) -> tuple[list[bool], ...]:
    """The four-step, closure, degenerate-pair and two-torsion verdicts."""
    moved = base + m
    four = reference_every(
        reference_agrees(steps[0], moved),
        reference_agrees(steps[1], moved + n),
        reference_agrees(steps[2], base + n),
        reference_agrees(steps[3], base),
    )
    closes = (base + base + m + n).is_zero()
    degenerate = reference_every(reference_agrees(n, -m), reference_agrees(steps[1], base))
    two_torsion = reference_every(reference_agrees(n, m), (m + m).is_zero())
    return four, closes, degenerate, two_torsion


# The README lattice (padded with the identity), and a sublattice of index 2.
DIFFERENTIAL_LATTICES = {
    "default": lambda k: LatticeSpec.default(k),
    "shear": lambda k: setting(k, "definite", True)[0],
    "index-2": lambda k: LatticeSpec(1, Matrix([[1, GaussianRational(1, 1)], [1, 0]])),
}
DIFFERENTIAL_CASES = [
    (k, p, name) for k in (1, 2, 3) for p in range(2 * k + 1) for name in DIFFERENTIAL_LATTICES if name != "index-2" or k == 1
]


@lru_cache(maxsize=None)
def differential_setting(k: int, p: int, name: str):
    """The table, lattice and polarization, and every actor of order >= 2 with its lattice matrix."""
    table = build_generators(k, Signature(p, 2 * k - p))
    lattice = DIFFERENTIAL_LATTICES[name](k)
    pol = PolarizationData.default(lattice)
    actors = []
    for g in generator_group(table.sig):
        if element_order(g, table.sig) < 2:
            continue
        try:
            actors.append((g, group_lattice_matrix(g, table, lattice)))
        except LatticeNotPreservedError:
            continue
    return table, lattice, pol, actors


@pytest.mark.parametrize("k, p, name", DIFFERENTIAL_CASES, ids=[f"k{k}-sig{p},{2 * k - p}-{n}" for k, p, n in DIFFERENTIAL_CASES])
@settings(max_examples=4, deadline=None, phases=NO_SHRINK)
@given(data=st.data())
def test_selection_and_fused_identities_match_the_sparse_reference(k, p, name, data):
    table, lattice, pol, actors = differential_setting(k, p, name)
    width = 2 * lattice.dim
    # A block of mixed denominators, and a block of no items.
    drawn = data.draw(blocks(width))
    # A sample of the actors keeps k = 3 quick.
    chosen = data.draw(st.lists(st.sampled_from(actors), min_size=1, max_size=12, unique_by=lambda a: a[0]))
    principal = is_principal(pol)
    for (g, matrix), block in itertools.product(chosen, (drawn, TorsionBlock.of([], width))):
        rows = matrix.realified_rows()
        orbit = block.orbit(power_rows(rows, 4))
        reference = reference_orbit(rows, block, 4)
        assert [q.cols for q in orbit] == [q.cols for q in reference]
        m, n = reference[1] - reference[0], reference[2] - reference[1]
        assert ((orbit[1] - orbit[0]).cols, (orbit[2] - orbit[1]).cols) == (m.cols, n.cols)
        four, closes, degenerate, two_torsion = reference_verdicts(block, m, n, reference[1:])
        assert four_step(orbit) == (four, closes)
        assert degenerate_pair(orbit) == degenerate
        assert two_torsion_pair(orbit) == two_torsion
        if not principal:
            continue
        # The same block read as bundle classes: through points, the actor, and back.
        points = block.transform(pol.point_rows())
        moved = reference_orbit(rows, points, 4)
        to_bundles = pol.bundle_rows()
        steps = [q.transform(to_bundles) for q in moved[1:]]
        lm, ln = (moved[1] - moved[0]).transform(to_bundles), (moved[2] - moved[1]).transform(to_bundles)
        four, closes, _, two_torsion = reference_verdicts(block, lm, ln, steps)
        assert two_torsion_bundle_scan(g, block, table, pol) == two_torsion
        if element_order(g, table.sig) == 4:
            held, first = bundle_systems_hold(g, block, table, pol)
            assert held == [a and b for a, b in zip(four, closes)]
            assert first.cols == lm.cols


@pytest.mark.parametrize("k", [1, 2])
def test_selected_images_carry_their_negation(k):
    # Every actor of order 2 or 4 on the default lattice moves blocks by selection,
    # and each image's negation comes with it: the negation built from scratch, and
    # whose own negation is the image itself.
    _, lattice, _, actors = differential_setting(k, 2 * k, "default")
    assert len(actors) == 4 ** (k + 1) - 1
    width = 2 * lattice.dim
    dens = [1, 2, 3, 4, 5, 7, 12]
    block = TorsionBlock(dens, [[(3 * t + 5 * j + 1) % d for t, d in enumerate(dens)] for j in range(width)])
    for _, matrix in actors:
        rows = matrix.realified_rows()
        assert is_signed_selection(rows)
        for image in block.orbit(power_rows(rows, 4))[1:]:
            negation = -image
            assert negation.cols == [[-x % d for x, d in zip(col, dens)] for col in image.cols]
            assert -negation is image


@pytest.mark.parametrize("k, name", [(1, "default"), (2, "default"), (1, "shear"), (2, "shear")])
def test_power_rows_match_the_dense_realified_powers(k, name):
    _, _, _, actors = differential_setting(k, 2 * k, name)
    for _, matrix in actors:
        powers = power_rows(matrix.realified_rows(), 4)
        dense = matrix
        for rows in powers:
            assert rows == sparse_rows(realify(dense))
            dense = dense @ matrix


def test_the_differential_cases_reach_both_kernels():
    # Of the 15 actors of order >= 2 at k = 1, all move default-lattice blocks
    # by selection, 3 move README-lattice blocks so, and the rest use the sparse kernel.
    for name, selections in (("default", 15), ("shear", 3)):
        _, _, _, actors = differential_setting(1, 2, name)
        assert len(actors) == 15
        assert sum(is_signed_selection(matrix.realified_rows()) for _, matrix in actors) == selections


def block_values(block: TorsionBlock, t: int) -> tuple[Fraction, ...]:
    """Item t of a block as Fractions in [0, 1), real parts first."""
    den, nums = block.item(t)
    assert den == block.dens[t] and all(0 <= x < den for x in nums)
    return tuple(Fraction(x, den) for x in nums)


def dense_pairing(values, pol: PolarizationData) -> tuple[Fraction, ...]:
    """The bundle class of a point: its realified coordinates against E = imag_gram, mod 1."""
    return tuple(
        sum((x * pol.imag_gram[a][j] for a, x in enumerate(values)), Fraction(0)) % 1
        for j in range(len(values))
    )


@pytest.mark.parametrize("k, sig, shear", CASES, ids=CASE_IDS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_duality_maps_on_blocks_match_the_imaginary_part_form(k, sig, shear, data):
    lattice, pol, _ = setting(k, sig, shear)
    block = data.draw(blocks(2 * lattice.dim))
    as_bundles = block.transform(pol.bundle_rows())
    as_points = block.transform(pol.point_rows())
    for t in range(len(block)):
        values = block_values(block, t)
        assert block_values(as_bundles, t) == dense_pairing(values, pol)
        # The block read as bundle classes: E^-T sends each class to the point that pairs to it.
        assert dense_pairing(block_values(as_points, t), pol) == values


def test_translation_bundles_and_scans_on_blocks_match_one_class_at_a_time():
    lattice, pol, _ = setting(1, "definite", True)
    table = table_for(1, "definite")
    classes = [BundleClass(1, [Fraction(a, 6), Fraction(b, 4), Fraction(c, 3), 0]) for a, b, c in
               [(0, 0, 0), (1, 0, 0), (0, 1, 2), (5, 3, 1), (3, 2, 0)]]
    block = TorsionBlock.of(classes, 4)
    for g in generator_group(table.sig):
        order = element_order(g, table.sig)
        if order == 4:
            held, first = bundle_systems_hold(g, block, table, pol)
            systems = [bundle_system(g, c, table, pol) for c in classes]
            assert held == [s.holds() for s in systems] == [True] * len(classes)
            assert first.orders() == [s.first_bundle.order() for s in systems]
            for t, s in enumerate(systems):
                assert BundleClass.from_numerators(1, *first.item(t)) == s.first_bundle
        if order >= 2:
            scan = two_torsion_bundle_scan(g, block, table, pol)
            assert scan == [two_torsion_bundle_check(g, c, table, pol) for c in classes]


@pytest.mark.parametrize("shear", [False, True], ids=["default", "shear"])
def test_bundle_scans_on_composed_powers_match_the_scans_that_compose_them(shear):
    # The dual suite composes an order-4 actor's four induced powers once and
    # passes them to both scans, which must read the first four and the first two.
    lattice, pol, _ = setting(1, "definite", shear)
    table = table_for(1, "definite")
    classes = [BundleClass(1, [Fraction(a, 6), Fraction(b, 4), Fraction(c, 3), Fraction(d, 2)]) for a, b, c, d in
               [(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 2, 0), (5, 3, 1, 1), (3, 2, 0, 1)]]
    block = TorsionBlock.of(classes, 4)
    two_torsion = torsion_block(2, lattice)
    orders = [element_order(g, table.sig) for g in generator_group(table.sig)]
    assert orders.count(4) > 0
    for g, order in zip(generator_group(table.sig), orders):
        if order != 4:
            continue
        powers = induced_powers(lattice_rows(g, table, lattice), pol, 4)
        held, first = bundle_systems_hold(g, block, table, pol, powers)
        expected_held, expected_first = bundle_systems_hold(g, block, table, pol)
        assert held == expected_held and first.cols == expected_first.cols
        for scanned in (block, two_torsion):
            assert two_torsion_bundle_scan(g, scanned, table, pol, powers) == two_torsion_bundle_scan(
                g, scanned, table, pol
            )


def test_a_block_of_no_points_gives_empty_results():
    lattice, pol, matrices = setting(2, "definite", True)
    table = table_for(2, "definite")
    empty = TorsionBlock.of([], 2 * lattice.dim)
    assert len(empty) == 0 and empty.cols == [[] for _ in range(8)]
    assert empty.orders() == [] and empty.is_zero() == [] and (-empty).cols == empty.cols
    assert empty.transform(pol.bundle_rows()).cols == empty.cols
    orbit = empty.orbit(power_rows(matrices[3].realified_rows(), 4))
    for q in orbit:
        assert len(q) == 0 and q.cols == empty.cols
    assert four_step(orbit) == ([], [])
    assert degenerate_pair(orbit) == [] and two_torsion_pair(orbit) == []
    group = generator_group(table.sig)
    actor = next(g for g in group if element_order(g, table.sig) == 4)
    assert two_torsion_bundle_scan(actor, empty, table, pol) == []
    held, first = bundle_systems_hold(actor, empty, table, pol)
    assert held == [] and len(first) == 0


def test_torsion_block_enumerates_like_torsion_points():
    for k, n in itertools.product((1, 2), (1, 2, 3)):
        lattice, _, _ = setting(k, "definite", True)
        block = torsion_block(n, lattice)
        points = list(torsion_points(n, lattice))
        assert len(block) == len(points) and block.dens == [n] * len(points)
        assert [TorusPoint.from_numerators(lattice, *block.item(t)) for t in range(len(block))] == points


def test_a_scan_sample_of_mixed_widths_is_rejected():
    lattice = LatticeSpec.default(1)
    narrow = list(torsion_points(2, lattice))[5]
    wide = list(torsion_points(2, LatticeSpec.default(2)))[5]
    for sample in ([narrow, wide], [wide, narrow]):
        with pytest.raises(ValueError):
            TorsionBlock.of(sample, 2 * lattice.dim)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@settings(max_examples=20, deadline=None)
@given(block=blocks(4))
def test_a_block_multiple_is_the_n_fold_sum_and_the_item_multiples(n, block):
    # Mixed denominators, 1 included, and the block of no items.
    lattice = LatticeSpec.default(1)
    for b in (block, TorsionBlock.of([], 4)):
        total = TorsionBlock(b.dens, [[0] * len(b) for _ in b.cols])
        for _ in range(n):
            total = total + b
        multiple = b * n
        assert multiple.cols == total.cols
        assert [TorusPoint.from_numerators(lattice, *multiple.item(t)) for t in range(len(b))] == [
            TorusPoint.from_numerators(lattice, *b.item(t)) * n for t in range(len(b))
        ]
    with pytest.raises(TypeError):
        block * Fraction(1, 2)


def test_orbits_move_by_the_kernel_once_a_row_is_not_a_signed_selection():
    # The selection pass meets the last row only after three it could select:
    # a row of two entries, or of one entry 2, sends every power to the kernel;
    # a last row of one entry -1 keeps the selection.
    dens = [1, 2, 3, 4, 5, 7, 12]
    block = TorsionBlock(dens, [[(3 * t + 5 * j + 1) % d for t, d in enumerate(dens)] for j in range(4)])
    swap = [((1, -1),), ((0, 1),), ((3, 1),), ((2, -1),)]
    for last in (((2, 1), (3, 1)), ((3, 2),), swap[3]):
        rows = [*swap[:3], last]
        orbit = block.orbit(power_rows(rows, 4))
        assert [q.cols for q in orbit] == [q.cols for q in reference_orbit(rows, block, 4)]
        assert all((-q).cols == [[-x % d for x, d in zip(col, dens)] for col in q.cols] for q in orbit)


def test_blocks_combine_only_over_the_same_denominators():
    a = TorsionBlock([2, 3], [[1, 2], [0, 1]])
    b = TorsionBlock([2, 6], [[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        four_step([a, b, a, b, a])
    assert (a + a).cols == [[0, 1], [0, 2]] and (a - a).is_zero() == [True, True]
    assert (-a).cols == [[1, 1], [0, 2]] and a.orders() == [2, 3]
