"""Degree-zero bundle classes, the character isomorphism, and the induced action."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintorus import (
    BundleClass,
    GaussianRational,
    GeneratorGroupElement,
    LatticeMismatchError,
    LatticeSpec,
    Matrix,
    NotIntegralError,
    NotPrincipalError,
    PolarizationData,
    Signature,
    SuiteConfig,
    TorusPoint,
    act,
    bundle_action,
    bundle_system,
    bundle_to_point,
    element_order,
    evaluate_element,
    generator_group,
    parse_point,
    point_to_bundle,
    run_suite,
    two_torsion_bundle_check,
)
from spintorus import picard
from spintorus.matrices import compose_rows
from spintorus.picard import bundle_systems_hold
from spintorus.torus import TorsionBlock

SIG = Signature(2, 0)
LATTICE = LatticeSpec.default(1)

point_coords = st.builds(
    GaussianRational, st.fractions(max_denominator=16), st.fractions(max_denominator=16)
)
points = st.lists(point_coords, min_size=2, max_size=2).map(
    lambda cs: TorusPoint(LATTICE, cs)
)
chars = st.lists(st.fractions(max_denominator=16), min_size=4, max_size=4)
group_indices = st.integers(min_value=0, max_value=15)


def test_half_point_character_vector_is_frozen(polarizations):
    bundle = point_to_bundle(parse_point("1/2, 0", 1), polarizations[1])
    assert str(bundle) == "[0, 0, 1/2, 0]"
    assert bundle.order() == 2


@settings(max_examples=60)
@given(points)
def test_character_map_round_trips_from_points(polarizations, p):
    pol = polarizations[1]
    assert bundle_to_point(point_to_bundle(p, pol), pol) == p


@settings(max_examples=60)
@given(chars)
def test_character_map_round_trips_from_bundles(polarizations, cs):
    pol = polarizations[1]
    bundle = BundleClass(1, cs)
    assert point_to_bundle(bundle_to_point(bundle, pol), pol) == bundle


@settings(max_examples=60)
@given(points, points)
def test_character_map_is_additive(polarizations, p, q):
    pol = polarizations[1]
    assert point_to_bundle(p + q, pol) == point_to_bundle(p, pol).tensor(
        point_to_bundle(q, pol)
    )
    assert point_to_bundle(-p, pol) == point_to_bundle(p, pol).dual()


@settings(max_examples=60)
@given(points)
def test_bundle_order_equals_point_order(polarizations, p):
    assert point_to_bundle(p, polarizations[1]).order() == p.order()


@settings(max_examples=40)
@given(group_indices, points)
def test_the_square_commutes(tables, polarizations, index, p):
    g = generator_group(SIG)[index]
    pol = polarizations[1]
    table = tables[1]
    u = g.to_element(SIG)
    assert point_to_bundle(act(u, p, table), pol) == bundle_action(
        u, point_to_bundle(p, pol), table, pol
    )


def test_bundle_group_operations():
    trivial = BundleClass.trivial(1)
    assert trivial.is_trivial()
    b = BundleClass(1, [Fraction(1, 4), 0, Fraction(1, 2), 0])
    assert b.tensor(b.dual()).is_trivial()
    assert b.power(4).is_trivial()
    assert b.power(2) == b.tensor(b)
    assert b.order() == 4
    assert b.tensor(trivial) == b


def test_points_and_classes_combine_only_within_their_own_group():
    with pytest.raises(ValueError):
        BundleClass.trivial(1).tensor(BundleClass.trivial(2))
    half = TorusPoint(LATTICE, [Fraction(1, 2), 0])
    other = TorusPoint(LatticeSpec(1, Matrix([[2, 0], [0, 1]])), [Fraction(1, 2), 0])
    with pytest.raises(LatticeMismatchError):
        half + other
    with pytest.raises(LatticeMismatchError):
        half - other
    # The zero point and the trivial class share their integers, but not their group.
    zero, trivial = TorusPoint.zero(LATTICE), BundleClass.trivial(1)
    assert (zero.den, zero.nums) == (trivial.den, trivial.nums)
    assert not zero == trivial and zero != trivial
    with pytest.raises(TypeError):
        zero + trivial
    with pytest.raises(TypeError):
        trivial.tensor(zero)
    assert len({zero, trivial}) == 2


def test_character_vectors_reduce_mod_one():
    b = BundleClass(1, [Fraction(5, 4), Fraction(-1, 2), 0, 0])
    assert b.chars == (Fraction(1, 4), Fraction(1, 2), Fraction(0), Fraction(0))


def test_character_vectors_must_be_exact_rationals():
    # a float would be stored as its binary expansion, and a string is no number
    with pytest.raises(TypeError):
        BundleClass(1, [0.1, 0, 0, 0])
    with pytest.raises(TypeError):
        BundleClass(1, ["1/2", 0, 0, 0])


def test_four_step_bundle_systems_hold_for_order_four_actors(tables, polarizations):
    pol = polarizations[1]
    base = BundleClass(1, [Fraction(1, 8), 0, Fraction(3, 8), Fraction(1, 2)])
    seen = 0
    for g in generator_group(SIG):
        if element_order(g, SIG) != 4:
            continue
        system = bundle_system(g, base, tables[1], pol)
        assert system.four_step_holds()
        assert system.dual_square_holds()
        assert system.holds()
        assert system.steps[3] == base
        assert system.system[3].is_trivial()
        seen += 1
    assert seen == 8


def test_bundle_systems_reject_low_order_actors(tables, polarizations):
    base = BundleClass.trivial(1)
    with pytest.raises(ValueError):
        bundle_system(GeneratorGroupElement(0b01, 0), base, tables[1], polarizations[1])


def test_two_torsion_bundles_are_fixed_up_to_order_two(tables, polarizations):
    pol = polarizations[1]
    half = Fraction(1, 2)
    classes = [BundleClass(1, cs) for cs in product((Fraction(0), half), repeat=4)]
    assert len(classes) == 16
    for g in generator_group(SIG):
        if element_order(g, SIG) < 2:
            continue
        for bundle in classes:
            assert two_torsion_bundle_check(g, bundle, tables[1], pol)


@pytest.mark.parametrize("lattice", [LATTICE, LatticeSpec(1, Matrix([[1, GaussianRational(0, 1)], [0, 1]]))],
                         ids=["default", "shear"])
def test_two_torsion_bundle_check_composes_once_per_actor(tables, lattice, monkeypatch):
    pol = PolarizationData.default(lattice)
    classes = [BundleClass(1, cs) for cs in product((Fraction(0), Fraction(1, 2)), repeat=4)]
    actors = [g for g in generator_group(SIG) if element_order(g, SIG) >= 2]
    composed = []

    def counting(outer, inner):
        composed.append(outer)
        return compose_rows(outer, inner)

    monkeypatch.setattr(picard, "compose_rows", counting)
    checked = {g: [two_torsion_bundle_check(g, bundle, tables[1], pol) for bundle in classes] for g in actors}
    # E^T (R E^-T): two products per actor, on its first class only.
    assert len(composed) == 2 * len(actors)
    monkeypatch.undo()
    block = TorsionBlock.of(classes, 4)
    for g in actors:
        assert checked[g] == picard.two_torsion_bundle_scan(g, block, tables[1], pol)


def test_bundle_scans_reject_classes_of_another_rank(tables, polarizations):
    actor = GeneratorGroupElement(0b11, 0)
    with pytest.raises(ValueError):
        two_torsion_bundle_check(actor, BundleClass.trivial(2), tables[1], polarizations[1])
    with pytest.raises(ValueError):
        bundle_systems_hold(actor, TorsionBlock.of([BundleClass.trivial(2)], 8), tables[1], polarizations[1])


def test_points_from_other_lattices_are_rejected(polarizations):
    other = LatticeSpec(1, Matrix([[2, 0], [0, 1]]))
    p = TorusPoint(other, [Fraction(1, 2), 0])
    with pytest.raises(ValueError):
        point_to_bundle(p, polarizations[1])


def test_imprincipal_polarizations_are_rejected():
    doubled = PolarizationData(Matrix([[2, 0], [0, 2]]), LATTICE)
    with pytest.raises(NotPrincipalError):
        point_to_bundle(parse_point("1/2, 0", 1), doubled)
    with pytest.raises(NotPrincipalError):
        bundle_to_point(BundleClass.trivial(1), doubled)


def test_bundle_action_checks_the_polarization_then_the_rank_then_the_element(tables, polarizations):
    doubled = PolarizationData(Matrix([[2, 0], [0, 2]]), LATTICE)
    half = evaluate_element("(1/2)*e1", SIG)
    wide = BundleClass.trivial(2)
    with pytest.raises(NotPrincipalError):
        bundle_action(half, wide, tables[1], doubled)
    with pytest.raises(ValueError, match="different dimensions"):
        bundle_action(half, wide, tables[1], polarizations[1])
    with pytest.raises(NotIntegralError):
        bundle_action(half, BundleClass.trivial(1), tables[1], polarizations[1])


def _induced_the_wrong_way_round(rows, pol):
    return compose_rows(pol.point_rows(), compose_rows(rows, pol.bundle_rows()))


def test_a_wrong_induced_map_fails_the_intertwining_records(monkeypatch):
    # E^-T R E^T in place of E^T R E^-T. On the default lattice the two agree
    # for every complex-linear R, so the sheared lattice is needed to tell.
    shear = LatticeSpec(1, Matrix([[1, GaussianRational(0, 1)], [0, 1]]))
    monkeypatch.setattr(picard, "_induced_rows", _induced_the_wrong_way_round)
    result = run_suite(SuiteConfig(ks=(1,), suites=("dual_picard",), lattice=shear)).suites[0]
    monkeypatch.undo()
    assert result.failures
    assert all(set(f.inputs) == {"k", "element", "point"} for f in result.failures)
