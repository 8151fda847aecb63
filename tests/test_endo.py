"""Endomorphism lattices, the subring-index audit, and transported actions."""

from __future__ import annotations

import inspect
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form

from spintorus import (
    CliffordElement,
    GaussianRational,
    GeneratorGroupElement,
    LatticeNotPreservedError,
    LatticeSpec,
    Matrix,
    NonUnimodularError,
    NotIntegralError,
    Signature,
    WitnessFailedError,
    automorphism_containment,
    basis_elements,
    build_generators,
    decomposition_witness,
    element_order,
    endo_rank,
    evaluate_element,
    generator_group,
    lattice_matrix,
    parse_point,
    realify,
    representation_determinants_match,
    subring_index,
    translation_system,
    transport_multiplication,
    transport_table,
    verify_two_torsion,
)
from spintorus import endo
from spintorus.clifford import basis_blades
from spintorus.endo import determinant_routes_agree

SIG = Signature(2, 0)
I = GaussianRational(0, 1)


def test_realification_of_the_imaginary_scalar_is_frozen():
    scaled = Matrix.identity(2) * I
    assert realify(scaled) == [
        [Fraction(0), Fraction(0), Fraction(-1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(-1)],
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
    ]


def test_realify_returns_ints_on_lattice_matrices(tables, lattices):
    e12 = evaluate_element("e1*e2", SIG)
    rows = realify(lattice_matrix(e12, tables[1], lattices[1]))
    assert all(type(x) is int for row in rows for x in row)
    assert len(rows) == 4 and all(len(row) == 4 for row in rows)


def test_determinants_match_for_the_whole_group(tables, lattices):
    for g in generator_group(SIG):
        assert representation_determinants_match(
            g.to_element(SIG), tables[1], lattices[1]
        )


int_coeffs = st.builds(
    GaussianRational,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
integral_elements = st.dictionaries(
    st.integers(min_value=0, max_value=3), int_coeffs, max_size=3
).map(lambda terms: CliffordElement(SIG, terms))


@settings(max_examples=40)
@given(integral_elements)
def test_determinants_match_for_random_integral_elements(tables, lattices, u):
    assert representation_determinants_match(u, tables[1], lattices[1])


def realified_flattening(table, lattice):
    """Each basis image's realified matrix, flattened to one row."""
    return [
        [x for row in realify(lattice_matrix(u, table, lattice)) for x in row]
        for u in basis_elements(table.sig)
    ]


def shear_lattice(k):
    """The default lattice Z[i]^(2^k) on the sheared basis e_1, e_2 + i*e_1, e_3, ..."""
    n = 1 << k
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    rows[0][1] = I
    return LatticeSpec(k, Matrix(rows))


def test_endo_rank_matches_sympy_rank_of_the_realified_flattening(tables, lattices):
    for k in (1, 2):
        for lattice in (lattices[k], shear_lattice(k)):
            expected = sympy.Matrix(realified_flattening(tables[k], lattice)).rank()
            assert endo_rank(tables[k], lattice) == expected == 1 << (2 * k + 1)


def index_two_lattice(k):
    """The index-2 sublattice basis [[1, 1+i], [1, 0]] repeated down the diagonal."""
    return LatticeSpec(k, Matrix.identity(1 << (k - 1)).kron(Matrix([[1, GaussianRational(1, 1)], [1, 0]])))


def dense_flattening(table, lattice):
    """The oracle: each basis image's entries in row-major order, real parts then imaginary parts."""
    rows = []
    for u in basis_elements(table.sig):
        entries = [x for row in lattice_matrix(u, table, lattice).entries() for x in row]
        rows.append([x.re for x in entries] + [x.im for x in entries])
    return rows


FLATTENING_LATTICES = {"default": LatticeSpec.default, "shear": shear_lattice, "index-2": index_two_lattice}


@pytest.mark.parametrize(
    "k, name", [(k, "default") for k in (1, 2, 3)] + [(k, name) for k in (1, 2) for name in ("shear", "index-2")]
)
def test_the_sparse_flattening_matches_the_dense_oracle(k, name):
    lattice = FLATTENING_LATTICES[name](k)
    ladder = build_generators(k)
    for table in (ladder, transport_table(shear(k), ladder)):
        # The sparse flattening first, on a table whose lattice memo the oracle has not filled.
        try:
            rows = endo._flattening(table, lattice)
        except LatticeNotPreservedError:
            with pytest.raises(LatticeNotPreservedError):
                dense_flattening(table, lattice)
            continue
        width = 2 * table.dim**2
        assert all(list(row) == sorted(row) and all(x for _, x in row) for row in rows)
        assert [[dict(row).get(j, 0) for j in range(width)] for row in rows] == dense_flattening(table, lattice)


def _no_dense_matrix(*args):
    raise AssertionError("a dense Matrix was built")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_audit_on_the_default_lattice_builds_no_dense_matrix(k, monkeypatch):
    table, lattice = build_generators(k), LatticeSpec.default(k)
    monkeypatch.setattr(Matrix, "__init__", _no_dense_matrix)
    monkeypatch.setattr(Matrix, "_wrap", classmethod(_no_dense_matrix))
    audit = subring_index(table, lattice)
    rank = endo_rank(table, lattice)
    monkeypatch.undo()
    assert rank == audit.rank == 1 << (2 * k + 1)
    assert audit.consistent
    assert table.lattice_images == {}


def test_endomorphism_ranks(tables, lattices):
    assert endo_rank(tables[1], lattices[1]) == 8
    assert endo_rank(tables[2], lattices[2]) == 32


def test_subring_index_audit_at_rank_one(tables, lattices):
    audit = subring_index(tables[1], lattices[1])
    assert audit.smith_divisors == (1, 1, 1, 1, 2, 2, 2, 2)
    assert audit.index == 16
    assert audit.determinant_norm == 16
    assert audit.consistent
    assert audit.index_str == "16"


def _chunked_digits(n: int) -> str:
    """The decimal digits of n >= 0, rendered 1,000 at a time to stay under the interpreter's limit."""
    chunks = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        chunks.append(f"{low:01000d}")
    return str(n) + "".join(reversed(chunks))


def test_indices_render_every_digit():
    # The k = 6 index: str() refuses it, past the 4,300-digit limit.
    index = 2**24576
    audit = endo.SubringIndex(rank=1, smith_divisors=(index,), index=index, determinant_norm=index)
    assert audit.index_str == endo._digits(index) == _chunked_digits(index)
    assert len(audit.index_str) == 7399
    for n in (0, 1, 16, -7, 2**64, 10**4299, -(10**4299) + 1):
        assert endo._digits(n) == str(n)


def test_subring_index_matches_sympy_smith_form(tables, lattices):
    snf = smith_normal_form(sympy.Matrix(realified_flattening(tables[1], lattices[1])))
    product = 1
    for t in range(8):
        product *= abs(snf[t, t])
    assert product == 16 == subring_index(tables[1], lattices[1]).index


def test_subring_index_does_not_depend_on_the_lattice_basis(tables, lattices):
    # a unimodular change of basis conjugates the image and the full ring alike
    for k in (1, 2):
        sheared = subring_index(tables[k], shear_lattice(k))
        assert sheared == subring_index(tables[k], lattices[k])
        assert sheared.consistent
    snf = smith_normal_form(sympy.Matrix(realified_flattening(tables[1], shear_lattice(1))))
    divisors = sorted(abs(snf[t, t]) for t in range(8))
    assert tuple(divisors) == subring_index(tables[1], shear_lattice(1)).smith_divisors


def test_endo_entry_points_take_only_table_and_lattice():
    for audit in (endo_rank, subring_index, decomposition_witness):
        assert list(inspect.signature(audit).parameters) == ["table", "lattice"]


def test_decomposition_witness_defaults(tables, lattices):
    for k in (1, 2):
        witness = decomposition_witness(tables[k], lattices[k])
        assert witness.order == 4
        assert witness.curve == "E_i, j-invariant 1728"
        assert witness.analytic_matrix == Matrix.identity(2**k) * I
        assert witness.basis_map == tuple(range(2**k))
    p = parse_point("1/4, 1/2+1/2i", 1)
    witness = decomposition_witness(tables[1], lattices[1])
    assert witness.split(p) == p.coords
    # splitting is additive coordinate by coordinate
    q = parse_point("1/2, 1/3", 1)
    paired = tuple(a + b for a, b in zip(witness.split(p), witness.split(q)))
    assert tuple(c.mod1() for c in paired) == witness.split(p + q)


def test_decomposition_witness_on_a_custom_basis(tables):
    # a unimodular basis spans the same lattice but is not the default chart
    sheared = LatticeSpec(1, Matrix([[1, I], [0, 1]]))
    witness = decomposition_witness(tables[1], sheared)
    assert witness.order == 4
    assert witness.basis_map is None
    with pytest.raises(WitnessFailedError):
        witness.split(parse_point("0, 0", 1))


def test_the_custom_lattice_witness_takes_only_the_rank(tables, monkeypatch):
    # The witness needs the rank of the flattening, not the index audit's Smith form.
    calls = []
    monkeypatch.setattr(endo, "smith_form", lambda rows, ncols: calls.append(rows))
    for k in (1, 2):
        assert decomposition_witness(tables[k], shear_lattice(k)).basis_map is None
    assert calls == []


def test_automorphism_containment(tables, lattices):
    assert automorphism_containment(tables[1], lattices[1])
    assert automorphism_containment(tables[2], lattices[2])
    stretched = LatticeSpec(1, Matrix([[2, 0], [0, 1]]))
    assert not automorphism_containment(tables[1], stretched)


SHEAR = Matrix([[1, I], [0, 1]])


def shear(k: int) -> Matrix:
    """The identity plus i at (0, 1): unimodular, so a basis of the default lattice."""
    n = 1 << k
    return Matrix([[1 if r == c else I if (r, c) == (0, 1) else 0 for c in range(n)] for r in range(n)])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_monomial_determinants_agree_with_the_dense_route(tables, lattices, k):
    """The monomial route against Matrix.det, on every basis blade and its transported image."""
    table = tables[k]
    sheared = LatticeSpec(k, shear(k))
    moved = transport_table(shear(k), table)
    for g in basis_blades(table.sig):
        assert determinant_routes_agree(g, table)
        assert determinant_routes_agree(g, moved)
        u = g.to_element(table.sig)
        assert representation_determinants_match(u, table, lattices[k])
        # a custom lattice takes the dense route
        assert representation_determinants_match(u, table, sheared)


def test_containment_on_the_default_lattice_reads_the_signed_permutations(tables, lattices):
    moved = transport_table(SHEAR, tables[1])
    assert automorphism_containment(moved, lattices[1])
    assert moved.lattice_images == {}
    # the dense route over the same lattice in another basis agrees
    assert automorphism_containment(moved, LatticeSpec(1, SHEAR))


def test_transport_rejects_bad_conjugators(tables):
    e1 = evaluate_element("e1", SIG)
    with pytest.raises(NonUnimodularError):
        transport_multiplication(Matrix([[2, 0], [0, 1]]), e1, tables[1])
    with pytest.raises(NonUnimodularError):
        transport_multiplication(Matrix([[Fraction(1, 2), 0], [0, 1]]), e1, tables[1])
    with pytest.raises(NonUnimodularError):
        transport_multiplication(Matrix([[1, 1], [1, 1]]), e1, tables[1])
    with pytest.raises(NotIntegralError):
        transport_multiplication(SHEAR, evaluate_element("1/2 * e1", SIG), tables[1])


@settings(max_examples=40)
@given(integral_elements, integral_elements)
def test_transport_is_multiplicative(tables, u, v):
    product = transport_multiplication(SHEAR, u * v, tables[1])
    assert product == transport_multiplication(SHEAR, u, tables[1]) @ transport_multiplication(
        SHEAR, v, tables[1]
    )


def test_transported_tables_keep_the_invariants(tables, lattices):
    transported = transport_table(SHEAR, tables[1])
    assert transported.description.endswith(", transported")
    # Clifford relations survive conjugation
    for a in range(2):
        for b in range(2):
            anti = (
                transported.gamma[a] @ transported.gamma[b]
                + transported.gamma[b] @ transported.gamma[a]
            )
            assert anti == Matrix.identity(2) * (2 if a == b else 0)
    # translation systems and two-torsion behaviour survive as well
    base = parse_point("1/8, 3/8", 1)
    for g in generator_group(SIG):
        order = element_order(g, SIG)
        if order == 4:
            system = translation_system(g, base, transported)
            assert system.four_step_holds()
            assert system.closure_identity_holds()
        if order >= 2:
            assert verify_two_torsion(g, transported, lattices[1]).all_pass
