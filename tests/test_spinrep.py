"""Generator matrices, the algebra isomorphism, and star-versus-adjoint checks."""

from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from spintorus import (
    CliffordElement,
    GaussianRational,
    GeneratorGroupElement,
    Matrix,
    NotUnitVectorError,
    RepresentationTable,
    Signature,
    SignatureMismatchError,
    basis_elements,
    build_generators,
    evaluate_element,
    generator_group,
    rank_of_rows,
    transport_table,
    star,
    verify_algebra_iso,
    verify_spin_preserves_form,
    verify_unitary,
)
from spintorus.clifford import basis_blades

I = GaussianRational(0, 1)


def test_rank_one_generator_matrices_are_frozen(tables):
    table = tables[1]
    assert table.gamma[0] == Matrix([[0, 1], [1, 0]])
    assert table.gamma[1] == Matrix([[0, -I], [I, 0]])
    product = evaluate_element("e1*e2", table.sig)
    assert table.represent(product) == Matrix([[I, 0], [0, -I]])


def test_clifford_relations_hold_for_all_generator_pairs(tables):
    for k in (1, 2):
        table = tables[k]
        dim = 2**k
        for a in range(2 * k):
            for b in range(2 * k):
                anti = table.gamma[a] @ table.gamma[b] + table.gamma[b] @ table.gamma[a]
                expected = Matrix.identity(dim) * (2 if a == b else 0)
                assert anti == expected


def test_tables_reject_generators_that_break_a_relation():
    x = Matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="generators 1, 2"):
        RepresentationTable(Signature(2, 0), [x, x])
    # The private constructor takes its callers' ladders as given; spinor_rep reports the relations.
    ladder = (build_generators(1).ladder_gamma[0],) * 2
    assert RepresentationTable._of(Signature(2, 0), ladder).ladder_gamma == ladder


def test_blade_images_have_gaussian_integer_entries(tables):
    for k in (1, 2):
        table = tables[k]
        for mask in range(4**k):
            assert table.blade_image(mask).is_gaussian_integer()


def sympy_ladder(k: int, sig: Signature) -> list[sympy.Matrix]:
    """The tensor-ladder generators in sympy, i times those that square to -1."""
    x = sympy.Matrix([[0, 1], [1, 0]])
    y = sympy.Matrix([[0, -sympy.I], [sympy.I, 0]])
    z = sympy.Matrix([[1, 0], [0, -1]])
    gamma = []
    for j in range(1, k + 1):
        for unit in (x, y):
            out = sympy.eye(1)
            for factor in [z] * (j - 1) + [unit] + [sympy.eye(2)] * (k - j):
                out = sympy.kronecker_product(out, factor)
            gamma.append(out)
    return [g * sympy.I if sig.square_sign(a + 1) < 0 else g for a, g in enumerate(gamma)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_blade_images_are_the_sympy_ladder_products(k):
    for sig in (Signature(2 * k, 0), Signature(2 * k - 1, 1)):
        table = build_generators(k, sig)
        gamma = sympy_ladder(k, sig)
        for mask in range(1 << sig.n):
            expected = sympy.eye(1 << k)
            for a in range(sig.n):
                if mask >> a & 1:
                    expected = expected * gamma[a]
            ours = table.blade_image(mask)
            assert sympy.Matrix(
                [[sympy.Rational(x.re) + sympy.I * sympy.Rational(x.im) for x in row] for row in ours.entries()]
            ) == sympy.expand(expected), (sig, mask)
            assert ours == Matrix(ours.entries())


def test_algebra_isomorphism_rank(tables):
    for k in (1, 2):
        report = verify_algebra_iso(tables[k])
        assert report.independent
        assert report.spanning_rank == report.expected_rank == 4**k


def test_rank_one_flattening_matches_sympy(tables):
    table = tables[1]
    rows = []
    for mask in range(4):
        flat = []
        for entry in (x for row in table.blade_image(mask).entries() for x in row):
            flat.append(sympy.Rational(entry.re) + sympy.I * sympy.Rational(entry.im))
        rows.append(flat)
    assert sympy.Matrix(rows).rank() == 4


def test_star_matches_matrix_adjoint_on_the_full_basis(tables):
    for k in (1, 2):
        table = tables[k]
        count = 0
        for u in basis_elements(table.sig):
            assert table.represent(star(u)) == table.represent(u).adjoint()
            count += 1
        assert count == 2 * 4**k


coeffs = st.builds(
    GaussianRational, st.fractions(max_denominator=8), st.fractions(max_denominator=8)
)
elements = st.dictionaries(st.integers(min_value=0, max_value=3), coeffs, max_size=3).map(
    lambda terms: CliffordElement(Signature(2, 0), terms)
)


@settings(max_examples=50)
@given(elements, elements)
def test_representation_is_a_ring_map(tables, u, v):
    table = tables[1]
    assert table.represent(u * v) == table.represent(u) @ table.represent(v)
    assert table.represent(u + v) == table.represent(u) + table.represent(v)


def test_unitary_compatibility_depends_on_the_signature(tables):
    report = verify_unitary(tables[1])
    assert report.all_compatible
    assert report.checked == 8

    indefinite = build_generators(1, Signature(1, 1))
    report = verify_unitary(indefinite)
    assert not report.all_compatible
    assert "e{2}" in report.failures


def test_spin_elements_preserve_the_form(tables):
    table = tables[1]
    vectors = [evaluate_element("e1", table.sig), evaluate_element("e2", table.sig)]
    assert verify_spin_preserves_form(table, vectors)
    with pytest.raises(NotUnitVectorError):
        verify_spin_preserves_form(table, [evaluate_element("e1 + e2", table.sig)])


def test_signature_must_match_the_rank():
    with pytest.raises(SignatureMismatchError):
        build_generators(1, Signature(4, 0))


def test_indefinite_generators_square_to_minus_one():
    table = build_generators(1, Signature(1, 1))
    assert table.gamma[1] @ table.gamma[1] == Matrix.identity(2) * (-1)


def _dense_blade(table, mask):
    """The reference blade image: the product of the dense generator matrices, in ascending order."""
    acc = Matrix.identity(table.dim)
    for a in range(table.sig.n):
        if mask >> a & 1:
            acc = acc @ table.gamma[a]
    return acc


def _dense_represent(table, u):
    """The reference image: a dense sum of reference blade images times coefficients."""
    acc = Matrix.zero(table.dim, table.dim)
    for mask, coeff in u.terms():
        acc = acc + _dense_blade(table, mask) * coeff
    return acc


REPRESENT_TABLES = [build_generators(k, Signature(2 * k, 0)) for k in (1, 2, 3)]
REPRESENT_TABLES += [build_generators(k, Signature(2 * k - 1, 1)) for k in (1, 2, 3)]
# dense blade images, so that terms of different blades cancel in some entries
REPRESENT_TABLES.append(transport_table(Matrix([[1, I], [0, 1]]), REPRESENT_TABLES[0]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sparse_represent_matches_the_dense_sum(data):
    table = data.draw(st.sampled_from(REPRESENT_TABLES))
    blades = st.integers(min_value=0, max_value=(1 << table.sig.n) - 1)
    u = CliffordElement(table.sig, data.draw(st.dictionaries(blades, coeffs, max_size=6)))
    sparse = table.represent(u)
    dense = _dense_represent(table, u)
    assert sparse == dense
    assert hash(sparse) == hash(dense)
    assert all(type(x) is GaussianRational for row in sparse.entries() for x in row)


@pytest.mark.parametrize("table", REPRESENT_TABLES, ids=repr)
def test_every_blade_image_matches_the_dense_generator_products(table):
    for mask in range(1 << table.sig.n):
        expected = _dense_blade(table, mask)
        assert table.blade_image(mask) == expected
        for t in range(4):
            g = GeneratorGroupElement(mask, t)
            assert table.represent_group_element(g) == expected * g.phase
            assert table.represent(g.to_element(table.sig)) == expected * g.phase
            if table.conjugator is None:
                assert table.signed_permutation(g).dense() == expected * g.phase


@pytest.mark.parametrize("table", REPRESENT_TABLES, ids=repr)
def test_unitary_and_rank_reports_match_the_dense_oracle(table):
    expected = tuple(
        g.label()
        for g in basis_blades(table.sig)
        if _dense_represent(table, star(g.to_element(table.sig)))
        != _dense_represent(table, g.to_element(table.sig)).adjoint()
    )
    assert verify_unitary(table).failures == expected
    flattened = ([x for row in _dense_blade(table, mask).entries() for x in row] for mask in range(1 << table.sig.n))
    assert verify_algebra_iso(table).spanning_rank == rank_of_rows(flattened)


def test_tables_reject_generators_that_are_not_signed_permutations():
    # The transported generators have two entries in a row.
    sheared = transport_table(Matrix([[1, I], [0, 1]]), build_generators(1))
    with pytest.raises(ValueError) as caught:
        RepresentationTable(Signature(2, 0), sheared.gamma)
    assert str(caught.value) == "generator 1 is not a signed permutation: row 0 has 2 nonzero entries, not one"
    halved = Matrix([[0, GaussianRational(Fraction(1, 2))], [2, 0]])
    with pytest.raises(ValueError) as caught:
        RepresentationTable(Signature(2, 0), [halved, Matrix([[0, -I], [I, 0]])])
    assert str(caught.value) == "generator 1 is not a signed permutation: entry (0, 1) is 1/2, not a unit of Z[i]"


PAULI_X = Matrix([[0, 1], [1, 0]])
PAULI_Y = Matrix([[0, -I], [I, 0]])
PAULI_Z = Matrix([[1, 0], [0, -1]])


def _kron_ladder(k: int, sig: Signature) -> list[Matrix]:
    """The oracle generators: dense ``Matrix.kron`` chains of the Pauli matrices, times i where they square to -1."""
    gamma = []
    for j in range(1, k + 1):
        for unit in (PAULI_X, PAULI_Y):
            out = Matrix.identity(1)
            for factor in [PAULI_Z] * (j - 1) + [unit] + [Matrix.identity(2)] * (k - j):
                out = out.kron(factor)
            gamma.append(out)
    return [g * I if sig.square_sign(a) < 0 else g for a, g in enumerate(gamma, start=1)]


# (2k, 0), (2k - 1, 1) and (k, k); at k = 1 the last two are one signature.
LADDER_SIGNATURES = sorted({(k, p, q) for k in (1, 2, 3, 4) for p, q in ((2 * k, 0), (2 * k - 1, 1), (k, k))})


@pytest.mark.parametrize("k, p, q", LADDER_SIGNATURES, ids=lambda v: str(v))
def test_signed_permutation_ladder_matches_the_dense_kron_chain(k, p, q):
    sig = Signature(p, q)
    table = build_generators(k, sig)
    oracle = _kron_ladder(k, sig)
    assert [g.dense() for g in table.ladder_gamma] == oracle
    assert list(table.gamma) == oracle
    for mask in range(1 << sig.n):
        expected = Matrix.identity(table.dim)
        for a in range(sig.n):
            if mask >> a & 1:
                expected = expected @ oracle[a]
        assert table.blade_permutation(mask).dense() == expected, mask
    # The public constructor, from the dense oracle, builds the same table.
    public = RepresentationTable(sig, oracle)
    assert public.ladder_gamma == table.ladder_gamma
    assert public.gamma == table.gamma
    assert all(public.blade_permutation(mask) == table.blade_permutation(mask) for mask in range(1 << sig.n))


def _signed_blade_images(k: int, p: int, q: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    sig = Signature(p, q)
    table = build_generators(k, sig)
    return {(perm.cols, perm.phases) for perm in map(table.signed_permutation, generator_group(sig))}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_signature_gives_the_same_signed_blade_images(k):
    # Over C every nondegenerate q gives one algebra: the 4^(k+1) signed
    # blades act by the same signed permutations at every (p, q), so the
    # torus suites see the same actors at every signature.
    definite = _signed_blade_images(k, 2 * k, 0)
    assert len(definite) == 4 ** (k + 1)
    for q in range(1, 2 * k + 1):
        assert _signed_blade_images(k, 2 * k - q, q) == definite, (2 * k - q, q)


def test_transporting_twice_composes_the_conjugators():
    table = build_generators(1)
    shear, other = Matrix([[1, I], [0, 1]]), Matrix([[1, 0], [1 + I, 1]])
    twice = transport_table(other, transport_table(shear, table))
    f = other @ shear
    assert twice.conjugator == f
    for mask in range(4):
        assert twice.blade_image(mask) == f @ table.blade_image(mask) @ f.inv()
        assert twice.blade_permutation(mask) == table.blade_permutation(mask)
    assert twice.description == "tensor ladder over X/Y/Z, transported, transported"
