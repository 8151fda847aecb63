"""Clifford multiplication on the torus and its translation structure."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spintorus import (
    GaussianRational,
    GeneratorGroupElement,
    LatticeNotPreservedError,
    LatticeSpec,
    Matrix,
    NotIntegralError,
    Signature,
    TorusPoint,
    act,
    apply_matrix,
    build_generators,
    element_order,
    evaluate_element,
    generator_group,
    group_lattice_matrix,
    lattice_matrix,
    parse_point,
    preserves_lattice,
    parse_gaussian,
    transport_table,
    translation_system,
    verify_two_torsion,
)
from spintorus.action import four_step, lattice_rows
from spintorus.matrices import realify, sparse_rows
from spintorus.torus import TorsionBlock

SIG = Signature(2, 0)
LATTICE = LatticeSpec.default(1)

point_coords = st.builds(
    GaussianRational, st.fractions(max_denominator=16), st.fractions(max_denominator=16)
)
points = st.lists(point_coords, min_size=2, max_size=2).map(
    lambda cs: TorusPoint(LATTICE, cs)
)
group_indices = st.integers(min_value=0, max_value=15)


def test_quarter_rotation_orbit_is_frozen(tables):
    system = translation_system(
        GeneratorGroupElement(0b11, 0), parse_point("1/4, 0", 1), tables[1]
    )
    assert system.order == 4
    assert str(system.first_translation) == "3/4+1/4i, 0"
    assert str(system.second_translation) == "3/4+3/4i, 0"
    assert [str(p) for p in system.orbit] == [
        "1/4, 0",
        "1/4i, 0",
        "3/4, 0",
        "3/4i, 0",
        "1/4, 0",
    ]
    assert system.four_step_holds()
    assert system.closure_identity_holds()


@settings(max_examples=60)
@given(group_indices, points)
def test_every_order_four_actor_satisfies_the_four_step_system(tables, index, p):
    g = generator_group(SIG)[index]
    assume(element_order(g, SIG) == 4)
    system = translation_system(g, p, tables[1])
    assert system.four_step_holds()
    assert system.closure_identity_holds()


@settings(max_examples=60)
@given(group_indices, points)
def test_order_two_actors_degenerate_to_opposite_translations(tables, index, p):
    g = generator_group(SIG)[index]
    assume(element_order(g, SIG) == 2)
    system = translation_system(g, p, tables[1])
    assert system.degenerate_pair_holds()
    assert system.second_translation == -system.first_translation


def test_translation_systems_reject_the_identity(tables):
    with pytest.raises(ValueError):
        translation_system(GeneratorGroupElement(0, 0), parse_point("1/4, 0", 1), tables[1])


@settings(max_examples=40)
@given(group_indices, group_indices, points)
def test_action_is_a_homomorphism(tables, i, j, p):
    g = generator_group(SIG)[i]
    h = generator_group(SIG)[j]
    composed = act(g.mul(h, SIG).to_element(SIG), p, tables[1])
    chained = act(g.to_element(SIG), act(h.to_element(SIG), p, tables[1]), tables[1])
    assert composed == chained


@settings(max_examples=40)
@given(group_indices, points)
def test_action_descends_from_the_matrix_on_any_lift(tables, index, p):
    # acting on the reduced point agrees with reducing the matrix image of a lift
    g = generator_group(SIG)[index]
    matrix = tables[1].represent(g.to_element(SIG))
    shifted = tuple(
        c + GaussianRational(2, -3) for c in p.lift()
    )  # move to a different representative
    direct = act(g.to_element(SIG), p, tables[1])
    assert LATTICE.reduce(matrix.matvec(shifted)) == direct
    assert apply_matrix(group_lattice_matrix(g, tables[1], LATTICE), p) == direct


def test_group_matrices_agree_with_element_matrices(tables):
    for g in generator_group(SIG):
        assert group_lattice_matrix(g, tables[1], LATTICE) == lattice_matrix(
            g.to_element(SIG), tables[1], LATTICE
        )


def test_non_integral_elements_cannot_act(tables):
    half = evaluate_element("1/2 * e1", SIG)
    with pytest.raises(NotIntegralError):
        act(half, parse_point("1/4, 0", 1), tables[1])


def test_lattices_that_break_under_an_actor_are_reported(tables):
    stretched = LatticeSpec(1, Matrix([[2, 0], [0, 1]]))
    e1 = evaluate_element("e1", SIG)
    assert not preserves_lattice(e1, tables[1], stretched)
    with pytest.raises(LatticeNotPreservedError):
        lattice_matrix(e1, tables[1], stretched)
    with pytest.raises(LatticeNotPreservedError):
        group_lattice_matrix(GeneratorGroupElement(0b01, 0), tables[1], stretched)
    # the doubled sublattice is still preserved by the scalar i
    assert preserves_lattice(evaluate_element("i", SIG), tables[1], stretched)


def test_signed_blade_actors_reuse_the_memoized_lattice_matrix():
    table = build_generators(1)
    shear = LatticeSpec(1, Matrix([[1, GaussianRational(0, 1)], [0, 1]]))
    p = parse_point("1/3+1/5i, 2/7", 1, shear)
    g = GeneratorGroupElement(0b11, 1)
    h = g.to_element(SIG)
    first = act(h, p, table)
    memo = table.lattice_images[(g.blade, g.i_power, shear)]
    assert act(h, p, table) == first
    assert lattice_matrix(h, table, shear) is memo
    assert preserves_lattice(h, table, shear)
    assert table.lattice_images[(g.blade, g.i_power, shear)] is memo
    assert memo == shear.inverse_basis @ table.represent(h) @ shear.basis
    # an actor that is not a signed blade is conjugated afresh and not memoized
    lattice_matrix(evaluate_element("e1 + e2", SIG), table, shear)
    assert len(table.lattice_images) == 1


def _block_matrix(k: int, block: list[list[str]]) -> Matrix:
    """A 2x2 matrix repeated down the diagonal of a 2^k x 2^k one."""
    return Matrix.identity(1 << (k - 1)).kron(Matrix([[parse_gaussian(x) for x in row] for row in block]))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lattice_rows_match_the_dense_realified_conjugate(k):
    ladders = [build_generators(k, Signature(p, 2 * k - p)) for p in range(2 * k + 1)]
    default = LatticeSpec.default(k)
    shear = LatticeSpec(k, _block_matrix(k, [["1", "i"], ["0", "1"]]))
    index_two = LatticeSpec(k, _block_matrix(k, [["1", "1+i"], ["1", "0"]]))
    refused = 0
    for ladder in ladders:
        transported = transport_table(_block_matrix(k, [["1", "i"], ["0", "1"]]), ladder)
        for g, table, lattice in itertools.product(
            generator_group(ladder.sig), (ladder, transported), (default, shear, index_two)
        ):
            # The dense oracle: the realified conjugate, which sparse_rows refuses when an entry leaves Z[i].
            conjugate = lattice.inverse_basis @ table.represent_group_element(g) @ lattice.basis
            try:
                expected = sparse_rows(realify(conjugate))
            except NotIntegralError:
                refused += 1
                with pytest.raises(LatticeNotPreservedError):
                    lattice_rows(g, table, lattice)
                assert not preserves_lattice(g.to_element(ladder.sig), table, lattice)
                continue
            assert lattice_rows(g, table, lattice) == expected, (ladder.sig, g, lattice)
            # A ladder table's rows on the default lattice come from its signed permutation, unmemoized.
            memoized = (g.blade, g.i_power, lattice) in table.lattice_images
            assert memoized != (table is ladder and lattice is default)
            assert group_lattice_matrix(g, table, lattice) == conjugate
            assert preserves_lattice(g.to_element(ladder.sig), table, lattice)
    assert refused > 0


def test_two_torsion_translations_square_to_zero(tables):
    for g in generator_group(SIG):
        if element_order(g, SIG) < 2:
            continue
        report = verify_two_torsion(g, tables[1], LATTICE)
        assert report.checked == 16
        assert report.all_pass
        assert report.failures == ()


def test_two_torsion_definition_unwinds(tables):
    # N = M and 2M = 0 for a two-torsion base point, spelled out by hand
    g = GeneratorGroupElement(0b01, 0)
    base = parse_point("1/2, 1/2i", 1)
    system = translation_system(g, base, tables[1])
    m = system.first_translation
    n = system.second_translation
    assert n == m
    assert (m + m).is_zero()


@st.composite
def forged_orbits(draw) -> list[TorsionBlock]:
    """Five blocks built column by column, not from an actor.

    A "closed" column has second = -base, third = -first and fourth = base
    before its third or fourth entries are perturbed on chosen items; an
    "open" column draws every image freely, so its closure mostly fails.
    """
    dens = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8))
    n = len(dens)
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        base, first, second, third, fourth = (
            [draw(st.integers(0, d - 1)) for d in dens] for _ in range(5)
        )
        mode = draw(st.sampled_from(["closed", "third", "fourth", "open"]))
        if mode != "open":
            second = [-x % d for x, d in zip(base, dens)]
            third = [-y % d for y, d in zip(first, dens)]
            fourth = list(base)
        if mode in ("third", "fourth"):
            perturbed = third if mode == "third" else fourth
            for t in draw(st.sets(st.integers(0, n - 1), min_size=1)):
                if dens[t] > 1:
                    perturbed[t] = (perturbed[t] + draw(st.integers(1, dens[t] - 1))) % dens[t]
        columns.append((base, first, second, third, fourth))
    return [TorsionBlock(dens, [column[i] for column in columns]) for i in range(5)]


@settings(max_examples=200)
@given(forged_orbits())
def test_four_step_on_forged_orbits_matches_the_item_by_item_formulas(orbit):
    # The formulas item by item: y3 = x + y2 - y1 and y4 = x (the pattern), x + y2 = 0 (the closure).
    dens = orbit[0].dens
    columns = list(zip(*(q.cols for q in orbit)))
    steps_hold = [
        all(y3[t] == (x[t] + y2[t] - y1[t]) % d and y4[t] == x[t] for x, y1, y2, y3, y4 in columns)
        for t, d in enumerate(dens)
    ]
    closes = [all((x[t] + y2[t]) % d == 0 for x, _, y2, _, _ in columns) for t, d in enumerate(dens)]
    assert four_step(orbit) == (steps_hold, closes)
