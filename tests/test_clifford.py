"""Blade products, the star involution, grading, and the finite generator group."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spintorus import (
    CliffordElement,
    GaussianRational,
    GeneratorGroupElement,
    IndexOutOfRangeError,
    Signature,
    SignatureMismatchError,
    as_signed_blade,
    blade_label,
    blade_mul,
    blade_square_sign,
    build_generators,
    element_order,
    evaluate_element,
    generator_group,
    grade_project,
    reversion_sign,
    signed_terms,
    star,
)
from spintorus import clifford

SIG = Signature(2, 0)

coeffs = st.builds(
    GaussianRational, st.fractions(max_denominator=8), st.fractions(max_denominator=8)
)
elements = st.dictionaries(st.integers(min_value=0, max_value=3), coeffs, max_size=3).map(
    lambda terms: CliffordElement(SIG, terms)
)
int_coeffs = st.builds(
    GaussianRational,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
integral_elements = st.dictionaries(
    st.integers(min_value=0, max_value=3), int_coeffs, max_size=3
).map(lambda terms: CliffordElement(SIG, terms))


def test_blade_products():
    # e1 * e2 keeps the increasing order, e2 * e1 picks up a transposition sign
    assert blade_mul(0b01, 0b10, SIG) == (1, 0b11)
    assert blade_mul(0b10, 0b01, SIG) == (-1, 0b11)
    # squares follow the signature
    assert blade_mul(0b01, 0b01, SIG) == (1, 0)
    assert blade_mul(0b01, 0b01, Signature(0, 2)) == (-1, 0)
    assert blade_square_sign(0b11, SIG) == -1
    assert blade_label(0b101) == "e{1,3}"
    assert blade_label(0) == "1"


def bubble_sort_blade_mul(a: int, b: int, sig: Signature) -> tuple[int, int]:
    """Reference product: bubble-sort the generator word, count swaps, contract squares."""
    word = [j for j in range(sig.n) if a >> j & 1] + [j for j in range(sig.n) if b >> j & 1]
    swaps = 0
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            if word[i] > word[i + 1]:
                word[i], word[i + 1] = word[i + 1], word[i]
                swaps += 1
    sign = -1 if swaps % 2 else 1
    mask = 0
    i = 0
    while i < len(word):
        if i + 1 < len(word) and word[i] == word[i + 1]:
            sign *= sig.square_sign(word[i] + 1)
            i += 2
        else:
            mask |= 1 << word[i]
            i += 1
    return sign, mask


@pytest.mark.parametrize("n", [2, 4, 6])
def test_blade_mul_matches_bubble_sort_for_every_pair(n):
    for sig in (Signature(n, 0), Signature(n - 1, 1), Signature(0, n)):
        for a in range(1 << n):
            for b in range(1 << n):
                assert blade_mul(a, b, sig) == bubble_sort_blade_mul(a, b, sig), (sig, a, b)


def _bit_loop_sign(a: int, b: int, p: int) -> int:
    """The reference: for each generator of a, count the generators of b below
    it, and count the shared generators at or above p, which square to -1."""
    swaps = ((a & b) >> p).bit_count()
    a >>= 1
    while a:
        swaps += (a & b).bit_count()
        a >>= 1
    return -1 if swaps & 1 else 1


def _mask_sign(w: int, b: int) -> int:
    return -1 if (w & b).bit_count() & 1 else 1


def test_sign_mask_matches_the_bit_loop():
    # Every pair of blades for n <= 8 generators, then random pairs up to n = 16.
    for a in range(1 << 8):
        for p in (0, 3, 8):
            w = clifford._sign_mask(a, p)
            for b in range(1 << 8):
                assert _mask_sign(w, b) == _bit_loop_sign(a, b, p), (a, b, p)
    rng = random.Random(16)
    for n in range(9, 17):
        for _ in range(2000):
            a, b, p = rng.getrandbits(n), rng.getrandbits(n), rng.randrange(n + 1)
            assert _mask_sign(clifford._sign_mask(a, p), b) == _bit_loop_sign(a, b, p), (a, b, p)


def test_reversion_sign_has_period_four():
    assert [reversion_sign(g) for g in range(6)] == [1, 1, -1, -1, 1, 1]


@settings(max_examples=60)
@given(elements, elements, elements)
def test_multiplication_is_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@settings(max_examples=60)
@given(elements, elements, elements)
def test_multiplication_distributes(u, v, w):
    assert u * (v + w) == u * v + u * w


@settings(max_examples=60)
@given(elements)
def test_star_is_an_involution(u):
    assert star(star(u)) == u
    assert u.star() == star(u)


@settings(max_examples=60)
@given(elements, elements)
def test_star_reverses_products(u, v):
    assert star(u * v) == star(v) * star(u)


@given(elements)
def test_star_conjugates_scalars(u):
    z = GaussianRational(Fraction(1, 3), Fraction(2, 5))
    scaled = CliffordElement.scalar(SIG, z) * u
    assert star(scaled) == CliffordElement.scalar(SIG, z.conjugate()) * star(u)


@settings(max_examples=60)
@given(elements)
def test_grade_projections_reassemble(u):
    total = CliffordElement.zero(SIG)
    for g in range(3):
        total = total + grade_project(u, g)
    assert total == u
    assert u.grades() == {g for g in range(3) if not grade_project(u, g).is_zero()}


@settings(max_examples=60)
@given(integral_elements, integral_elements)
def test_integer_subring_is_closed_under_products(u, v):
    assert u.is_gaussian_integral()
    assert (u * v).is_gaussian_integral()
    assert (u + v).is_gaussian_integral()


def test_integer_subring_membership():
    assert not CliffordElement(SIG, {0b01: GaussianRational(Fraction(1, 2))}).is_gaussian_integral()


def test_generator_group_size_and_closure():
    for k in (1, 2):
        sig = Signature(2 * k, 0)
        group = generator_group(sig)
        assert len(group) == 2 ** (2 * k + 2)
        members = set(group)
        for g in group:
            assert g.inverse(sig).mul(g, sig).is_identity()
        sample = group[:: max(1, len(group) // 16)]
        for g in sample:
            for h in sample:
                assert g.mul(h, sig) in members


def test_element_orders_split_one_two_four():
    histogram = {1: 0, 2: 0, 4: 0}
    for g in generator_group(SIG):
        order = element_order(g, SIG)
        histogram[order] += 1
        # the reported order is the minimal power reaching the identity
        u = g.to_element(SIG)
        power = u
        for _ in range(order - 1):
            assert not power.is_scalar() or power.scalar_part() != GaussianRational(1)
            power = power * u
        assert power == CliffordElement.scalar(SIG, GaussianRational(1))
    assert histogram == {1: 1, 2: 7, 4: 8}


def test_group_element_labels_and_phase():
    g = GeneratorGroupElement(0b11, 3)
    assert g.label() == "-i*e{1,2}"
    assert g.phase == GaussianRational(0, -1)
    assert g.to_element(SIG) == CliffordElement(SIG, {0b11: GaussianRational(0, -1)})
    assert [GeneratorGroupElement(0, t).phase for t in range(4)] == [
        GaussianRational(1),
        GaussianRational(0, 1),
        GaussianRational(-1),
        GaussianRational(0, -1),
    ]


def test_signed_blade_readback():
    for sig in (SIG, Signature(3, 1)):
        for g in generator_group(sig):
            assert as_signed_blade(g.to_element(sig)) == g
    # A signed blade is one term with a unit coefficient; nothing else reads back.
    for source in ("2*e1", "(1+i)*e1", "e1 + e2", "1/2*i*e1*e2", "0"):
        assert as_signed_blade(evaluate_element(source, SIG)) is None


def test_signed_terms_read_every_unit_term():
    for sig in (SIG, Signature(3, 1)):
        for g in generator_group(sig):
            assert signed_terms(g.to_element(sig)) == {g.blade: g.i_power}
    assert signed_terms(evaluate_element("e1 - i*e2 - i*e1*e2", SIG)) == {0b01: 0, 0b10: 3, 0b11: 3}
    # One coefficient off the unit circle makes the whole element unreadable.
    for coeff in ("2", "(1+i)", "1/2"):
        assert signed_terms(evaluate_element(f"e1 + {coeff}*e2", SIG)) is None
        assert signed_terms(evaluate_element(f"{coeff}*e1", SIG)) is None
    assert signed_terms(CliffordElement.zero(SIG)) == {}


@pytest.mark.parametrize(
    "sig", [Signature(p, 2 * k - p) for k in (1, 2, 3) for p in range(2 * k + 1)], ids=lambda s: f"{s.p},{s.q}"
)
def test_row_readback_matches_the_per_pair_readback(sig):
    # clifford_core multiplies each generator by the sum S_t of one phase row
    # of the group and reads the product back as a blade -> phase map; the
    # oracle is one product and one `as_signed_blade` per pair.
    group = generator_group(sig)
    generators = [GeneratorGroupElement(1 << j, 0) for j in range(sig.n)] + [GeneratorGroupElement(0, 1)]
    for x in generators:
        x_element = x.to_element(sig)
        for t in range(4):
            row = [h for h in group if h.i_power == t]
            row_sum = CliffordElement(sig, {h.blade: h.phase for h in row})
            pairs = [as_signed_blade(x_element * h.to_element(sig)) for h in row]
            assert pairs == [x.mul(h, sig) for h in row]
            assert signed_terms(x_element * row_sum) == {w.blade: w.i_power for w in pairs}


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 2)
    sig = Signature(1, 1)
    assert sig.n == 2
    assert blade_mul(0b10, 0b10, sig) == (-1, 0)


# The integer-numerator operations against a reference on GaussianRationals:
# dicts of blade -> coefficient read from `terms()`, a double loop signed by
# the bubble sort, and zeros dropped.
SIGNATURES = [Signature(p, n - p) for n in (2, 4, 6) for p in range(n + 1)]
UNIT_I = GaussianRational(0, 1)
small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=3)
mixed_coeffs = st.one_of(
    st.sampled_from([1, -1, UNIT_I, -UNIT_I]),
    st.integers(min_value=-2, max_value=2),
    small_fractions,
    st.builds(GaussianRational, small_fractions, small_fractions),
)


@st.composite
def element_pairs(draw):
    """Two elements over a pool of at most three blades, so terms meet and cancel."""
    sig = draw(st.sampled_from(SIGNATURES))
    pool = draw(st.lists(st.integers(0, (1 << sig.n) - 1), min_size=1, max_size=3, unique=True))
    terms = st.dictionaries(st.sampled_from(pool), mixed_coeffs, max_size=3)
    u_terms, v_terms = draw(terms), draw(terms)
    # v may carry the negatives of some of u's terms, which u + v then loses.
    for mask in draw(st.sets(st.sampled_from(pool))):
        if mask in u_terms:
            v_terms[mask] = -u_terms[mask]
    return CliffordElement(sig, u_terms), CliffordElement(sig, v_terms)


def reference_mul(sig, u, v):
    acc = {}
    for ma, ca in u.items():
        for mb, cb in v.items():
            sign, mask = bubble_sort_blade_mul(ma, mb, sig)
            acc[mask] = acc.get(mask, GaussianRational(0)) + sign * ca * cb
    return {m: c for m, c in acc.items() if c}


def reference_add(u, v):
    merged = dict(u)
    for mask, coeff in v.items():
        merged[mask] = merged.get(mask, GaussianRational(0)) + coeff
    return {m: c for m, c in merged.items() if c}


def reference_pow(sig, u, exponent):
    result = {0: GaussianRational(1)}
    for _ in range(exponent):
        result = reference_mul(sig, result, u)
    return result


def assert_same_terms(lean, sig, reference):
    """``lean`` holds exactly the nonzero coefficients of ``reference``, in canonical form."""
    assert lean.sig == sig
    assert dict(lean.terms()) == reference
    assert all(type(c) is GaussianRational and c for _, c in lean.terms())
    # The canonical form is unique: the public constructor builds the same element.
    assert lean == CliffordElement(sig, reference)
    assert hash(lean) == hash((sig, frozenset(reference.items())))


@lru_cache(maxsize=None)
def table_for(sig):
    return build_generators(sig.k, sig)


S20 = Signature(2, 0)
E1 = CliffordElement.generator(S20, 1)
ONE = CliffordElement.scalar(S20, 1)


@settings(max_examples=150, deadline=None)
@given(element_pairs())
# (1 + e1)(1 - e1) = 1 - e1^2 cancels to zero, and so does u + v.
@example((ONE + E1, ONE - E1))
@example((E1, -E1))
def test_lean_operations_match_the_reference_double_loop(pair):
    u, v = pair
    sig = u.sig
    ut, vt = dict(u.terms()), dict(v.terms())
    assert_same_terms(u * v, sig, reference_mul(sig, ut, vt))
    assert_same_terms(v * u, sig, reference_mul(sig, vt, ut))
    assert_same_terms(u + v, sig, reference_add(ut, vt))
    negated = {m: -c for m, c in vt.items()}
    assert_same_terms(-v, sig, negated)
    assert_same_terms(u - v, sig, reference_add(ut, negated))
    assert_same_terms(
        u.star(), sig, {m: c.conjugate() * reversion_sign(m.bit_count()) for m, c in ut.items()}
    )
    for grade in range(sig.n + 1):
        assert_same_terms(
            u.grade_project(grade), sig, {m: c for m, c in ut.items() if m.bit_count() == grade}
        )
    for exponent in range(6):
        assert_same_terms(u**exponent, sig, reference_pow(sig, ut, exponent))
    table = table_for(sig)
    assert table.represent(u * v) == table.represent(u) @ table.represent(v)


@pytest.mark.parametrize(
    "sig", [Signature(p, n - p) for n in (2, 4, 6) for p in (n, n - 1, 0)], ids=lambda s: f"{s.p},{s.q}"
)
def test_results_lose_their_common_factor_and_cancel_to_zero(sig):
    square = sig.square_sign(1)
    one = CliffordElement.scalar(sig, 1)
    # (1/2)e1 * 2e1 = e1^2, and ((1+i)/2)e1 * (1-i)e1 = e1^2 too: the numerators
    # share the factor 2 with the denominator, which the product divides out.
    for left, right in [
        (Fraction(1, 2), 2),
        (GaussianRational(Fraction(1, 2), Fraction(1, 2)), GaussianRational(1, -1)),
    ]:
        product = CliffordElement.blade(sig, 0b1, left) * CliffordElement.blade(sig, 0b1, right)
        assert product == square * one
        assert product.is_gaussian_integral()
        assert product.terms() == ((0, GaussianRational(square)),)
        assert hash(product) == hash(square * one)
    half = CliffordElement.blade(sig, 0b1, Fraction(1, 2))
    assert half + half == CliffordElement.generator(sig, 1)
    assert (half + half).is_gaussian_integral()
    mixed = CliffordElement(sig, {0: Fraction(1, 2), 0b1: 1})
    assert mixed.grade_project(1) == CliffordElement.generator(sig, 1)
    assert mixed.grade_project(1).is_gaussian_integral()
    # x^2 = 1 for x = e1, or i*e1 when e1 squares to -1, so (1 + x)(1 - x) = 0.
    top = (1 << sig.n) - 1
    x = CliffordElement.blade(sig, 0b1, 1 if square > 0 else UNIT_I)
    third = CliffordElement.blade(sig, top, Fraction(1, 3))
    for zero in ((one + x) * (one - x), third - third, (x * Fraction(1, 3)) * (x * 3) - one):
        assert zero.is_zero() and zero.terms() == ()
        assert zero == CliffordElement.zero(sig) and zero.is_gaussian_integral()
        assert hash(zero) == hash((sig, frozenset()))


def test_powers_make_one_product_per_squaring_and_set_bit(monkeypatch):
    u = CliffordElement(S20, {0: 1, 0b01: UNIT_I, 0b11: Fraction(1, 2)})
    calls = []
    product = CliffordElement.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(CliffordElement, "__mul__", counted)
    for exponent, products in [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)]:
        calls.clear()
        power = u**exponent
        assert len(calls) == products
        assert_same_terms(power, S20, reference_pow(S20, dict(u.terms()), exponent))
    z = GaussianRational(Fraction(2, 3), -1)
    for exponent in range(-3, 9):
        expected = GaussianRational(1)
        for _ in range(abs(exponent)):
            expected = expected * (z if exponent > 0 else z.inverse())
        assert z**exponent == expected


def test_public_constructors_still_check_their_input():
    sig = Signature(4, 0)
    with pytest.raises(IndexOutOfRangeError):
        GeneratorGroupElement(1 << sig.n, 0).to_element(sig)
    with pytest.raises(IndexOutOfRangeError):
        CliffordElement(sig, {1 << sig.n: 1})
    with pytest.raises(TypeError):
        CliffordElement(sig, {0b11: 0.5})
    # Signatures are compared by value when they are not the same object.
    twin = Signature(4, 0)
    assert twin is not sig
    product = CliffordElement.generator(sig, 1) * CliffordElement.generator(twin, 2)
    assert product == CliffordElement.blade(sig, 0b11)
    total = CliffordElement.generator(sig, 1) + CliffordElement.generator(twin, 1)
    assert total == CliffordElement.blade(sig, 0b1, 2)
    other = Signature(3, 1)
    with pytest.raises(SignatureMismatchError):
        CliffordElement.generator(sig, 1) * CliffordElement.generator(other, 1)
    with pytest.raises(SignatureMismatchError):
        CliffordElement.generator(sig, 1) + CliffordElement.generator(other, 1)


def test_element_and_group_products_read_one_sign_mask_table(monkeypatch):
    # Swap the table of sign masks for one of zeros: every product, square and
    # inverse turns positive together, and each product fetches the table once.
    reads = []

    def zeros(n, p):
        reads.append((n, p))
        return (0,) * (1 << n)

    monkeypatch.setattr(clifford, "_sign_masks", zeros)
    sig = Signature(3, 1)
    e1, e4 = CliffordElement.generator(sig, 1), CliffordElement.generator(sig, 4)
    assert (e1 + e4) * e1 == CliffordElement(sig, {0: 1, 0b1001: 1})
    assert reads == [(4, 3)]
    g, h = GeneratorGroupElement(0b1000, 0), GeneratorGroupElement(0b0110, 1)
    assert g.mul(h, sig) == GeneratorGroupElement(0b1110, 1)
    assert reads == [(4, 3)] * 2
    assert blade_mul(0b1000, 0b1000, sig) == (1, 0)
    assert blade_square_sign(0b1000, sig) == 1
    assert g.inverse(sig) == g
    assert element_order(g, sig) == 2
    monkeypatch.undo()
    # The true table: e4 e1 = -e1 e4, e4^2 = -1, and e4 has order 4.
    assert (e1 + e4) * e1 == CliffordElement(sig, {0: 1, 0b1001: -1})
    assert g.mul(h, sig) == GeneratorGroupElement(0b1110, 1)
    assert blade_mul(0b1000, 0b1000, sig) == (-1, 0)
    assert g.inverse(sig) == GeneratorGroupElement(0b1000, 2)
    assert element_order(g, sig) == 4


def test_group_products_and_readback_build_results_without_revalidating(monkeypatch):
    sig = Signature(3, 1)
    group = generator_group(sig)
    checks = []
    validate = GeneratorGroupElement.__post_init__

    def counted(self):
        checks.append((self.blade, self.i_power))
        validate(self)

    constructed = []
    construct = CliffordElement.__init__

    def counted_element(self, *args):
        constructed.append(args)
        construct(self, *args)

    monkeypatch.setattr(GeneratorGroupElement, "__post_init__", counted)
    monkeypatch.setattr(CliffordElement, "__init__", counted_element)
    pairs = [(g, h) for g in group for h in group]
    products = [g.mul(h, sig) for g, h in pairs]
    elements = [g.to_element(sig) for g in group]
    readback = [as_signed_blade(u) for u in elements]
    inverses = [g.inverse(sig) for g in group]
    rebuilt = generator_group(sig)
    assert checks == [] and constructed == []
    assert rebuilt == group
    assert elements == [CliffordElement(sig, {g.blade: g.phase}) for g in group]
    for g, inverse in zip(group, inverses):
        built = GeneratorGroupElement(inverse.blade, inverse.i_power)
        assert inverse == built and hash(inverse) == hash(built) and repr(inverse) == repr(built)
        assert inverse.mul(g, sig).is_identity() and g.mul(inverse, sig).is_identity()
    checks.clear()
    for (g, h), product in zip(pairs, products):
        sign, mask = blade_mul(g.blade, h.blade, sig)
        built = GeneratorGroupElement(mask, (g.i_power + h.i_power + (0 if sign > 0 else 2)) % 4)
        assert product == built and hash(product) == hash(built) and repr(product) == repr(built)
    assert readback == list(group)
    assert len(checks) == len(products)
    monkeypatch.undo()
    # The public constructor keeps its checks.
    for blade, i_power in ((0, 4), (0, -1), (-1, 0)):
        with pytest.raises(ValueError):
            GeneratorGroupElement(blade, i_power)
    with pytest.raises(IndexOutOfRangeError):
        GeneratorGroupElement(1 << sig.n, 0).to_element(sig)
