"""The CLI query path stays on integers.

Points, bundle classes and Gaussian rationals render from their int
numerators (``scalars.format_gaussian``), checked here against the
Fraction-based formatting that rendering used before, kept below as the
oracle. The duality's E^-T and the principal test come from one integer
elimination (``matrices.inverse_rows``), checked against the dense inverse
and the elementary divisors, so a query reaches neither the dense
``Matrix.inv`` nor the Smith form. The set-up stays on integers too: the
spinor ladder is built as signed permutations, and E is summed as integer
numerators, and the parsers read literals as ints. The guard test makes
the dense routes raise, counts every ``Fraction`` made, and runs the
set-up and the queries.
"""

from __future__ import annotations

import json
from fractions import Fraction

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
    SignedPermutation,
    TorusPoint,
    build_generators,
    is_principal,
    parse_bundle,
    parse_gaussian,
    parse_point,
    parse_rational,
    polarization_type,
)
from spintorus import endo, matrices, torus
from spintorus.cli import main
from spintorus.scalars import format_gaussian


def _oracle_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _oracle_gaussian(re: Fraction, im: Fraction) -> str:
    """The Fraction-based rendering: ``a/b``, ``c/di`` or ``a/b+c/di``, with ``i`` and ``-i`` for units."""

    def imag(b: Fraction) -> str:
        return "i" if b == 1 else "-i" if b == -1 else f"{_oracle_rational(b)}i"

    if not im:
        return _oracle_rational(re)
    if not re:
        return imag(im)
    return f"{_oracle_rational(re)}{'+' if im > 0 else '-'}{imag(abs(im))}"


denominators = st.integers(min_value=1, max_value=24)


@st.composite
def triples(draw):
    """Int triples ``(a, b, d)``, often with a = 0, b = 0, d = 1 or b = +-d."""
    d = draw(st.one_of(st.just(1), denominators))
    part = st.one_of(st.just(0), st.just(d), st.just(-d), st.integers(min_value=-3 * d, max_value=3 * d))
    return draw(part), draw(part), d


@settings(max_examples=400, deadline=None)
@given(triples())
def test_format_gaussian_matches_the_fraction_rendering(triple):
    a, b, d = triple
    re, im = Fraction(a, d), Fraction(b, d)
    expected = _oracle_gaussian(re, im)
    assert format_gaussian(a, b, d) == expected
    assert str(GaussianRational(re, im)) == expected


@pytest.mark.parametrize(
    "triple, text",
    [
        ((0, 0, 1), "0"),
        ((0, 0, 7), "0"),
        ((3, 0, 1), "3"),
        ((-4, 0, 6), "-2/3"),
        ((0, 5, 5), "i"),
        ((0, -2, 2), "-i"),
        ((0, -3, 6), "-1/2i"),
        ((2, 4, 4), "1/2+i"),
        ((2, -4, 4), "1/2-i"),
        ((-1, -3, 6), "-1/6-1/2i"),
        ((9, 6, 3), "3+2i"),
    ],
)
def test_format_gaussian_examples(triple, text):
    assert format_gaussian(*triple) == text
    assert _oracle_gaussian(Fraction(triple[0], triple[2]), Fraction(triple[1], triple[2])) == text


def _shear(k: int) -> LatticeSpec:
    """The README lattice [[1, i], [0, 1]], padded with the identity."""
    dim = 1 << k
    rows = [[1 if r == c else 0 for c in range(dim)] for r in range(dim)]
    rows[0][1] = GaussianRational(0, 1)
    return LatticeSpec(k, Matrix(rows))


LATTICES = {f"{name}-k{k}": (lambda k=k, make=make: make(k)) for k in (1, 2, 3) for name, make in
            (("default", LatticeSpec.default), ("shear", _shear))}


@st.composite
def numerators(draw, width):
    """A denominator and ``width`` numerators in [0, den): the zero element when den is 1."""
    den = draw(st.one_of(st.just(1), denominators))
    return den, draw(st.lists(st.integers(min_value=0, max_value=den - 1), min_size=width, max_size=width))


@pytest.mark.parametrize("name", LATTICES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_points_render_as_their_fraction_coordinates(name, data):
    lattice = LATTICES[name]()
    den, nums = data.draw(numerators(2 * lattice.dim))
    point = TorusPoint.from_numerators(lattice, den, nums)
    assert str(point) == ", ".join(_oracle_gaussian(x.re, x.im) for x in point.coords)
    zero = TorusPoint.zero(lattice)
    assert zero.den == 1
    assert str(zero) == ", ".join(["0"] * lattice.dim)


@pytest.mark.parametrize("k", (1, 2, 3))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_bundle_classes_render_as_their_fraction_values(k, data):
    den, nums = data.draw(numerators(2 << k))
    bundle = BundleClass.from_numerators(k, den, nums)
    assert str(bundle) == "[" + ", ".join(_oracle_rational(x) for x in bundle.chars) + "]"


@st.composite
def ratios(draw):
    """A rational literal as a user may write it (any sign or size, not reduced) and its Fraction."""
    n, d = draw(st.integers(min_value=-40, max_value=40)), draw(denominators)
    return (str(n) if d == 1 and draw(st.booleans()) else f"{n}/{d}"), Fraction(n, d)


@settings(max_examples=80, deadline=None)
@given(st.lists(ratios(), min_size=4, max_size=4), st.lists(ratios(), min_size=2, max_size=2))
def test_literals_parse_on_ints_as_their_fraction_values(parts, imaginary):
    texts, values = zip(*parts)
    assert [parse_rational(t) for t in texts] == list(values)
    bundle = parse_bundle("[" + ", ".join(texts) + "]")
    assert bundle.chars == tuple(x % 1 for x in values)
    assert bundle == BundleClass(1, values)
    coords = [(f"{t}{'' if u.startswith('-') else '+'}{u}i", x, y) for (t, x), (u, y) in zip(parts, imaginary)]
    assert [parse_gaussian(text) for text, _, _ in coords] == [GaussianRational(x, y) for _, x, y in coords]
    point = parse_point(", ".join(text for text, _, _ in coords), 1)
    assert point.coords == tuple(GaussianRational(x % 1, y % 1) for _, x, y in coords)


def test_rendering_makes_no_fraction(monkeypatch):
    lattice = LatticeSpec.default(2)
    point = TorusPoint.from_numerators(lattice, 12, [1, 0, 6, 11, 4, 3, 0, 9])
    bundle = BundleClass.from_numerators(2, 12, [1, 0, 6, 11, 4, 3, 0, 9])
    value = GaussianRational(Fraction(-1, 6), Fraction(1, 2))
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    texts = (str(point), str(bundle), str(value))
    monkeypatch.undo()
    assert texts == ("1/12+1/3i, 1/4i, 1/2, 11/12+3/4i", "[1/12, 0, 1/2, 11/12, 1/3, 1/4, 0, 3/4]", "-1/6+1/2i")
    assert made == []
    # Nor are the point's Gaussian-rational coordinates derived.
    assert point._cache is None


# The lattices above ("shear-k1" is the README lattice itself), then other forms.
PRINCIPAL_CASES = {
    **{name: (lambda make=make: PolarizationData.default(make())) for name, make in LATTICES.items()},
    "index-2": lambda: PolarizationData.default(LatticeSpec(1, Matrix([[1, GaussianRational(1, 1)], [1, 0]]))),
    # i times a real skew matrix is Hermitian; its E is integral and unimodular, though H is indefinite.
    "skew-imaginary": lambda: PolarizationData(
        Matrix([[0, GaussianRational(0, 1)], [GaussianRational(0, -1), 0]]), LatticeSpec.default(1)),
    "doubled": lambda: PolarizationData(Matrix.identity(2) * 2, LatticeSpec.default(1)),
    "type-1-2": lambda: PolarizationData(
        Matrix([[2, GaussianRational(1, 1)], [GaussianRational(1, -1), 2]]), LatticeSpec.default(1)),
}


@pytest.mark.parametrize("name", PRINCIPAL_CASES)
def test_is_principal_matches_the_elementary_divisors(name):
    pol = PRINCIPAL_CASES[name]()
    principal = is_principal(pol)
    assert principal == all(d == 1 for d in polarization_type(pol))
    if principal:
        inverse = pol.inverse_transpose_form()
        assert pol.point_rows() == matrices.sparse_rows([x.re for x in row] for row in inverse.entries())
    else:
        with pytest.raises(NotIntegralError):
            pol.point_rows()


def test_a_zero_or_non_integral_form_is_not_principal():
    lattice = LatticeSpec.default(1)
    zero = PolarizationData(Matrix.zero(2, 2), lattice)
    assert not is_principal(zero)
    assert polarization_type(zero) == (0, 0)
    with pytest.raises(ValueError, match="singular"):
        zero.point_rows()
    halves = PolarizationData(Matrix.identity(2) * Fraction(1, 2), lattice)
    assert not is_principal(halves)
    with pytest.raises(NotIntegralError):
        halves.point_rows()


def _forbidden(*args, **kwargs):
    raise AssertionError("the query path reached a dense inverse, a Smith form or a dense product")


QUERIES = {
    1: ("1/3, 1/2+1/4i", "[0, 1/2, 1/3, 3/4]"),
    2: ("1/2, 1/4i, 0, 1/3+1/3i", "[1/2, 0, 1/3, 0, 1/4, 0, 0, 5/6]"),
    3: ("1/2, 1/4i, 0, 1/3+1/3i, 1/5, 0, 3/4, 1/7", "[" + ", ".join(["1/2", "0"] * 8) + "]"),
}


@pytest.mark.parametrize("k", (1, 2, 3))
def test_queries_reach_no_dense_inverse_and_no_smith_form(k, monkeypatch, capsys):
    """Nor a dense product or Kronecker product, nor a dense scan into a signed permutation, nor a Fraction.

    The set-up (the ladder table and the default polarization) and the
    queries run with those raising and with every Fraction counted.
    """
    monkeypatch.setattr(Matrix, "inv", _forbidden)
    for module in (matrices, torus, endo):
        monkeypatch.setattr(module, "smith_form", _forbidden)
    monkeypatch.setattr(Matrix, "kron", _forbidden)
    monkeypatch.setattr(Matrix, "__matmul__", _forbidden)
    monkeypatch.setattr(SignedPermutation, "from_matrix", _forbidden)
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert build_generators(k).ladder_gamma
    assert PolarizationData.default(LatticeSpec.default(k)).is_integral()
    point, bundle = QUERIES[k]
    ks = ["--k", str(k)]
    for argv in (
        ["dual", point, *ks],
        ["dual", bundle, *ks],
        ["dual", point, *ks, "--act", "e1*e2"],
        ["dual", bundle, *ks, "--act", "i*e1"],
        ["act", "e1*e2", point, *ks, "--orbit"],
    ):
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out, argv
    assert made == []


def test_dual_queries_on_an_index_two_lattice_still_refuse(tmp_path, capsys):
    path = tmp_path / "index2.json"
    path.write_text(json.dumps([["1", "1+i"], ["1", "0"]]))
    for value in ("1/3, 1/2", "[0, 1/2, 0, 0]"):
        assert main(["dual", value, "--k", "1", "--lattice", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the duality maps need a principal polarization\n"
