"""Verification suites and the reproducible report pipeline.

`run_suite` executes the layered checks (algebra axioms, representation,
torus, action, duality, endomorphisms) for each requested k and returns a
:class:`VerificationReport`. All sampling is driven by per-purpose seeded
generators, so two runs with the same config produce identical reports.
The JSON emission is byte-stable by default: the per-suite ``ms`` field is
kept in the schema but emitted as null unless timings are explicitly
requested, because wall-clock values are the one thing that cannot be
reproducible.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterator

from ._version import __version__
from .action import (
    TranslationSystem,
    act,
    apply_matrix,
    degenerate_pair,
    four_step,
    lattice_matrix,
    lattice_rows,
    translation_system,
    two_torsion_pair,
)
from .clifford import (
    CliffordElement,
    GeneratorGroupElement,
    Signature,
    basis_blades,
    basis_elements,
    element_order,
    generator_group,
    signed_terms,
)
from .endo import (
    _digits,
    automorphism_containment,
    decomposition_witness,
    determinant_routes_agree,
    representation_determinants_match,
    subring_index,
    transport_table,
)
from .errors import EnumerationTooLargeError, LatticeNotPreservedError, NotIntegralError
from .exprs import element_source
from .matrices import Matrix, power_rows
from .picard import (
    BundleClass,
    bundle_action,
    bundle_system,
    bundle_systems_hold,
    bundle_to_point,
    induced_powers,
    point_to_bundle,
    two_torsion_bundle_scan,
)
from .scalars import GaussianRational
from .spinrep import (
    RepresentationTable,
    build_generators,
    clifford_relation_failure,
    verify_algebra_iso,
    verify_spin_preserves_form,
    verify_unitary,
)
from .torus import (
    DEFAULT_ENUMERATION_CAP,
    LatticeSpec,
    PolarizationData,
    TorsionBlock,
    TorusPoint,
    polarization_type,
    riemann_check,
    torsion_block,
    torsion_count,
)

# Sample sizes per k: random points for the translation systems
# (clifford_action, endo_decomp) and random bundle classes for the bundle
# systems (dual_picard); the report's meta records both.
POINTS_PER_K = 100
CLASSES_PER_K = 100
# Basis blades per k whose determinants endo_decomp also takes by the dense route.
_DENSE_DETERMINANT_SAMPLE = 8


@dataclass
class Failure:
    inputs: dict[str, str]
    expected: str
    actual: str


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: list[Failure]
    ms: float | None = None
    # Set only when re-reading a report before 0.2.0, which skipped suites at indefinite signatures.
    skipped: bool = False
    reason: str = ""
    details: dict | None = None
    statements: tuple[str, ...] = ()


@dataclass
class VerificationReport:
    meta: dict
    suites: list[SuiteResult]
    index: dict | None
    warnings: list[str]

    def all_passed(self) -> bool:
        return all(s.passed for s in self.suites if not s.skipped)

    def index_gap(self) -> bool:
        """True when the endomorphism audit found a proper containment."""
        if not self.index:
            return False
        per_k = self.index.get("per_k", {})
        return any(entry.get("index") != "1" for entry in per_k.values())


def _render(value: object) -> str:
    if callable(value):
        value = value()
    if isinstance(value, CliffordElement):
        return element_source(value)
    return str(value)


# A column of verdicts over the items of a scan, the text every check in it
# expects, and the actual value of item t as a function of t.
_Column = tuple[list[bool], object, Callable[[int], object]]


class _Checker:
    """The checks of one suite at one k, named by its label ``suite:k=K``.

    A scan's verdict columns are counted in one step when all hold
    (``record_columns``); only failing checks render anything.
    """

    def __init__(self, name: str, k: int) -> None:
        self.name = name
        self.k = k
        self.checks = 0
        self.failures: list[Failure] = []
        self.details: dict | None = None

    def record(self, ok: bool, expected: object, actual: object, inputs: dict | None = None) -> None:
        """Count one check; render k, its inputs and its messages only when it fails.

        Values may be raw objects or zero-argument callables producing them.
        """
        self.checks += 1
        if not ok:
            inputs = {"k": self.k, **(inputs or {})}
            self.failures.append(
                Failure(
                    inputs={key: _render(value) for key, value in inputs.items()},
                    expected=_render(expected),
                    actual=_render(actual),
                )
            )

    def record_columns(self, inputs: Callable[[int], dict], *columns: _Column) -> None:
        """Count one check per item of every column in one step, and ``record`` only the failing ones.

        The columns hold verdicts over the same items. A failing check is
        recorded with ``actual(t)`` and ``inputs(t)`` of its item t, item by
        item and column by column within an item, so the count and the
        failures are those of one ``record`` call per item and column.
        """
        verdicts = [column[0] for column in columns]
        if len({len(v) for v in verdicts}) > 1:
            raise ValueError("verdict columns over different items")
        if all(map(all, verdicts)):
            self.checks += sum(map(len, verdicts))
            return
        for t, oks in enumerate(zip(*verdicts)):
            for ok, (_, expected, actual) in zip(oks, columns):
                if ok:
                    self.checks += 1
                else:
                    self.record(False, expected, lambda: actual(t), inputs(t))

    def result(self, statements: tuple[str, ...]) -> SuiteResult:
        return SuiteResult(
            name=self.name,
            passed=not self.failures,
            checks=self.checks,
            failures=self.failures,
            details=self.details,
            statements=statements,
        )


@dataclass
class _Env:
    k: int
    sig: Signature
    table: RepresentationTable
    lattice: LatticeSpec
    config: SuiteConfig
    warnings: list[str]
    index_out: dict

    def rng(self, tag: str) -> random.Random:
        return random.Random(f"{self.config.seed}|{self.k}|{tag}")

    @cached_property
    def pol(self) -> PolarizationData:
        """The default polarization of the lattice, built for the first suite that reads it."""
        return PolarizationData.default(self.lattice)

    @cached_property
    def order_partition(self) -> tuple[list[GeneratorGroupElement], list[GeneratorGroupElement]]:
        """Group elements of order exactly 4, and of order exactly 2."""
        order4 = []
        order2 = []
        for g in generator_group(self.sig):
            order = element_order(g, self.sig)
            if order == 4:
                order4.append(g)
            elif order == 2:
                order2.append(g)
        return order4, order2

    @cached_property
    def two_torsion(self) -> TorsionBlock:
        """The two-torsion block every scan at this k reads: all points, or 100 seeded ones and a warning."""
        why = _two_torsion_limit(self)
        if why is None:
            return torsion_block(2, self.lattice, cap=self.config.cap)
        # Each coordinate draws its real, then its imaginary numerator over 2.
        rng = self.rng("two-torsion-sample")
        draws = [[rng.randrange(2) for _ in range(2 * self.lattice.dim)] for _ in range(100)]
        self.warnings.append(
            f"k={self.k}: two-torsion scan used 100 seeded points per actor; the exhaustive scan {why}"
        )
        return TorsionBlock([2] * 100, [list(col) for col in zip(*(d[0::2] + d[1::2] for d in draws))])


def _unit_numerators(rng: random.Random, count: int) -> tuple[int, list[int]]:
    """``count`` values in [0, 1) over the lcm of their reduced denominators, in draw order.

    Each value draws a denominator in 1..64, then a numerator below it.
    """
    parts = []
    for _ in range(count):
        den = rng.randint(1, 64)
        num = rng.randint(0, den - 1)
        common = gcd(num, den)
        parts.append((num // common, den // common))
    den = lcm(*[d for _, d in parts])
    return den, [num * (den // d) for num, d in parts]


def _signed_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-64, 64), rng.randint(1, 64))


def _random_gaussian(rng: random.Random) -> GaussianRational:
    return GaussianRational(_signed_fraction(rng), _signed_fraction(rng))


def _random_point(lattice: LatticeSpec, rng: random.Random) -> TorusPoint:
    """A point whose coordinates each draw a real, then an imaginary part (see ``_unit_numerators``)."""
    den, nums = _unit_numerators(rng, 2 * lattice.dim)
    # The point stores the real parts first, then the imaginary parts.
    return TorusPoint.from_numerators(lattice, den, nums[0::2] + nums[1::2])


def _closure_sum(system: TranslationSystem) -> TorusPoint:
    return system.base + system.base + system.first_translation + system.second_translation


def _random_element(sig: Signature, rng: random.Random) -> CliffordElement:
    masks = rng.sample(range(1 << sig.n), rng.randint(1, 3))
    return CliffordElement(sig, {mask: _random_gaussian(rng) for mask in masks})


def _random_integral_element(sig: Signature, rng: random.Random) -> CliffordElement:
    masks = rng.sample(range(1 << sig.n), rng.randint(1, 3))
    return CliffordElement(
        sig,
        {
            mask: GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            for mask in masks
        },
    )


def _random_group_element(sig: Signature, rng: random.Random) -> GeneratorGroupElement:
    return GeneratorGroupElement(rng.randrange(1 << sig.n), rng.randrange(4))


def _random_bundle(k: int, rng: random.Random) -> BundleClass:
    """A class whose 2 * 2^k values are drawn in order (see ``_unit_numerators``)."""
    return BundleClass.from_numerators(k, *_unit_numerators(rng, 2 << k))


def _random_ambient(lattice: LatticeSpec, rng: random.Random) -> tuple[GaussianRational, ...]:
    return tuple(_random_gaussian(rng) for _ in range(lattice.dim))


def _two_torsion_limit(env: _Env) -> str | None:
    """Why not every two-torsion point is scanned; None if all are."""
    if env.k > 2:
        return "runs at k <= 2"
    count = torsion_count(2, env.k)
    if count > env.config.cap:
        return f"would take {count} points, over the enumeration cap {env.config.cap}"
    return None


def _failing(verdicts: list[bool]) -> list[int]:
    """The indices of the items whose verdict is False."""
    return [t for t, holds in enumerate(verdicts) if not holds]


# The arguments of ``_Checker.record_columns``: the inputs of item t, then verdict columns over the same items.
_Columns = tuple[Callable[[int], dict], _Column] | tuple[Callable[[int], dict], _Column, _Column]


def _scan_translation_systems(env: _Env, table: RepresentationTable, points: list[TorusPoint]) -> Iterator[_Columns]:
    """The orbit checks of every actor on ``points``, and its scan of ``env.two_torsion``, as verdict columns.

    Per order-4 actor, the four-step and closure columns over ``points``;
    per order-2 actor, the N = -M column over the first ten points; last,
    one column over all actors, order-4 first, for their two-torsion scans.
    A failing check renders its text from the one-point translation system
    only when a checker records it. LatticeNotPreservedError propagates.
    Each actor's powers are composed once and move both of its blocks.
    """
    sig = env.sig
    lattice = env.lattice
    order4, order2 = env.order_partition
    block = TorsionBlock.of(points, 2 * lattice.dim)
    two_torsion = env.two_torsion
    # Per actor of order4 + order2, in that order: the two-torsion items that fail.
    failing_items = []
    # Each actor moves the whole block at once.
    for g in order4:
        actor = g.to_element(sig)
        powers = power_rows(lattice_rows(g, table, lattice), 4)
        failing_items.append(_failing(two_torsion_pair(two_torsion.orbit(powers[:2]))))
        steps_hold, closes = four_step(block.orbit(powers))
        yield (
            lambda t: {"actor": actor, "point": points[t]},
            (
                steps_hold,
                "orbit matches p, p+M, p+M+N, p+N, p",
                lambda t: " | ".join(str(q) for q in translation_system(g, points[t], table).orbit),
            ),
            (closes, "2p + M + N = 0", lambda t: _closure_sum(translation_system(g, points[t], table))),
        )

    degenerate_points = points[:10]
    degenerate_block = TorsionBlock.of(degenerate_points, 2 * lattice.dim)
    for g in order2:
        actor = g.to_element(sig)
        powers = power_rows(lattice_rows(g, table, lattice), 2)
        failing_items.append(_failing(two_torsion_pair(two_torsion.orbit(powers[:2]))))
        yield (
            lambda t: {"actor": actor, "point": degenerate_points[t]},
            (
                degenerate_pair(degenerate_block.orbit(powers)),
                "N = -M and the orbit closes after two steps",
                lambda t: translation_system(g, degenerate_points[t], table).second_translation,
            ),
        )

    scope = "all" if _two_torsion_limit(env) is None else "sampled"
    actors = order4 + order2
    yield (
        lambda t: {"actor": actors[t].to_element(sig), "checked": len(two_torsion)},
        (
            [not failing for failing in failing_items],
            f"N = M and 2M = 0 on {scope} two-torsion points",
            lambda t: "failing points: "
            + ", ".join(str(TorusPoint.from_numerators(lattice, *two_torsion.item(i))) for i in failing_items[t]),
        ),
    )


@dataclass(frozen=True)
class _Suite:
    """A verification suite: its runner and the statements it checks.

    Every suite runs at every signature: over C each nondegenerate q gives
    the same algebra, and the signed blades act by the same signed
    permutations, so the torus, its lattice and H do not depend on (p, q).
    """

    run: Callable[[_Env, _Checker], None]
    statements: tuple[str, ...]


# Every suite, in report order; ``_suite`` registers each runner below.
_SUITES: dict[str, _Suite] = {}


def _suite(name: str, *statements: str) -> Callable:
    def register(run: Callable[[_Env, _Checker], None]) -> Callable[[_Env, _Checker], None]:
        _SUITES[name] = _Suite(run, statements)
        return run

    return register


@_suite(
    "clifford_core",
    "(uv)w = u(vw)",
    "star is an anti-automorphism: (uv)* = v* u* and u** = u",
    "grade projections decompose every element",
    "the signed blades form a group with element orders in {1, 2, 4}",
    "the Z[i]-span of the blades is closed under the product",
)
def _run_clifford_core(env: _Env, chk: _Checker) -> None:
    sig = env.sig
    rng = env.rng("core")

    for _ in range(25):
        u, v, w = (_random_element(sig, rng) for _ in range(3))
        left, right = (u * v) * w, u * (v * w)
        chk.record(left == right, left, right, {"u": u, "v": v, "w": w})

    for _ in range(25):
        u, v = _random_element(sig, rng), _random_element(sig, rng)
        inputs = {"u": u, "v": v}
        twice = u.star().star()
        chk.record(twice == u, u, twice, inputs)
        left, right = (u * v).star(), v.star() * u.star()
        chk.record(left == right, left, right, inputs)

    for _ in range(25):
        u = _random_element(sig, rng)
        total = CliffordElement.zero(sig)
        pure = True
        for grade in range(sig.n + 1):
            piece = u.grade_project(grade)
            total = total + piece
            if not piece.is_zero() and piece.grades() != {grade}:
                pure = False
        chk.record(total == u and pure, u, total, {"u": u})

    group = generator_group(sig)
    chk.record(len(group) == 1 << (sig.n + 2), 1 << (sig.n + 2), len(group))
    one = CliffordElement.scalar(sig, 1)
    inverse_ok = True
    order_ok = True
    for g in group:
        if not g.inverse(sig).mul(g, sig).is_identity():
            inverse_ok = False
        # g^order == 1 and g^(order/2) != 1, from one square.
        element = g.to_element(sig)
        order = element_order(g, sig)
        if order == 1:
            minimal = element == one
        else:
            square = element * element
            if order == 2:
                minimal = square == one and element != one
            else:
                minimal = order == 4 and square * square == one and square != one
        if not minimal:
            order_ok = False
    # Closure, proved on generators: for each x in {e_1, ..., e_n, i} and each
    # h in the group, the Clifford product x*h must read back as a signed
    # blade equal to x.mul(h). Every signed blade is a word in the generators,
    # so x*G inside G for each generator x gives G*G inside G. A row is the 2^n
    # elements i^t*e_I of one phase t: I -> x.blade ^ I is a bijection, so the
    # terms of x*S_t, with S_t the sum of the row, are the products x*(i^t*e_I)
    # and never meet. One product per generator and phase, read back by
    # `signed_terms`, must be the blade -> phase map of x.mul over the row.
    # This proves closure under the CliffordElement product and `mul` with a
    # generator on the left; it does not prove `mul` on composite left factors
    # at k >= 3. Both sides read the sign masks, so the spinor matrices check them:
    # for each e_j and each blade e_I, image(e_j.mul(e_I)) == image(e_j) @
    # image(e_I), as signed permutations. Phases are central and `mul` adds
    # them, which the rows check, so this covers every h in the group. At
    # k <= 2 the rows are read back for every left factor in the group.
    rows = [group[t::4] for t in range(4)]
    row_sums = [CliffordElement(sig, {h.blade: h.phase for h in row}) for row in rows]
    generators = [GeneratorGroupElement(1 << j, 0) for j in range(sig.n)]
    generators.append(GeneratorGroupElement(0, 1))
    left_factors = ((x, x.to_element(sig)) for x in (group if env.k <= 2 else generators))
    closure_ok = all(
        signed_terms(x_element * row_sum) == {w.blade: w.i_power for w in (x.mul(h, sig) for h in row)}
        for x, x_element in left_factors
        for row, row_sum in zip(rows, row_sums)
    )
    image = env.table.signed_permutation
    blades = rows[0]
    closure_ok = closure_ok and all(
        image(x.mul(h, sig)) == x_image @ image(h)
        for x, x_image in ((x, image(x)) for x in generators[:-1])
        for h in blades
    )
    chk.record(closure_ok, "group closed under products", closure_ok)
    chk.record(inverse_ok, "every element has an inverse", inverse_ok)
    chk.record(order_ok, "orders in {1, 2, 4} and minimal", order_ok)

    for _ in range(25):
        u = _random_integral_element(sig, rng)
        v = _random_integral_element(sig, rng)
        product = u * v
        chk.record(
            product.is_gaussian_integral() and (u + v).is_gaussian_integral(),
            "integral closure",
            product,
            {"u": u, "v": v},
        )


_UNIT_CIRCLE = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)), (Fraction(8, 17), Fraction(15, 17)))


@_suite(
    "spinor_rep",
    "gamma_a gamma_b + gamma_b gamma_a = 2 delta_ab q(e_a) Id",
    "the 4^k blade images are linearly independent, so the module map is an isomorphism onto the matrix algebra",
    "the module map is a ring homomorphism",
    "the image of u* is the conjugate transpose of the image of u",
    "products of unit vectors act by unitary matrices",
)
def _run_spinor_rep(env: _Env, chk: _Checker) -> None:
    sig = env.sig
    table = env.table
    rng = env.rng("rep")

    relations_ok = clifford_relation_failure(sig, table.ladder_gamma) is None
    chk.record(relations_ok, "Clifford relations", relations_ok)
    entries_ok = all(g.is_gaussian_integer() for g in table.gamma)
    chk.record(entries_ok, "generator entries in Z[i]", entries_ok)

    iso = verify_algebra_iso(table)
    chk.record(iso.independent, iso.expected_rank, iso.spanning_rank)

    for _ in range(20):
        u, v = _random_element(sig, rng), _random_element(sig, rng)
        inputs = {"u": u, "v": v}
        chk.record(
            table.represent(u * v) == table.represent(u) @ table.represent(v),
            "multiplicative image",
            "image mismatch",
            inputs,
        )
        chk.record(
            table.represent(u + v) == table.represent(u) + table.represent(v),
            "additive image",
            "image mismatch",
            inputs,
        )

    unitary = verify_unitary(table)
    if sig.is_positive_definite():
        chk.record(
            unitary.all_compatible,
            "image of star equals adjoint on all basis elements",
            lambda: f"failures: {', '.join(unitary.failures) or 'none'}",
            {"checked": unitary.checked},
        )
    else:
        chk.record(True, "informational", "informational")
        if unitary.failures:
            env.warnings.append(
                f"k={env.k}: adjoint compatibility fails for "
                f"{len(unitary.failures)} of {unitary.checked} basis elements, "
                f"as expected for signature ({sig.p},{sig.q})"
            )

    if sig.is_positive_definite():
        for _ in range(10):
            a, b = rng.sample(range(1, sig.n + 1), 2)
            ca, cb = rng.choice(_UNIT_CIRCLE)
            vector = CliffordElement(
                sig, {1 << (a - 1): GaussianRational(ca), 1 << (b - 1): GaussianRational(cb)}
            )
            other = CliffordElement.generator(sig, rng.randint(1, sig.n))
            chk.record(
                verify_spin_preserves_form(table, [vector, other]),
                "unitary image",
                "form not preserved",
                {"v1": vector, "v2": other},
            )


@_suite(
    "spinor_torus",
    "E = Im H is integer valued on the lattice",
    "E(iv, iw) = E(v, w)",
    "H is positive definite",
    "the polarization type is (1, ..., 1)",
    "the n-torsion subgroup has n^(2g) points",
)
def _run_spinor_torus(env: _Env, chk: _Checker) -> None:
    lattice = env.lattice
    pol = env.pol
    rng = env.rng("torus")
    g = lattice.dim

    riemann = riemann_check(pol)
    chk.record(riemann.integral, "integral on the lattice", riemann.integral)
    chk.record(
        riemann.complex_compatible,
        "invariant under multiplication by i",
        riemann.complex_compatible,
    )
    chk.record(riemann.positive, "positive definite", riemann.positive)

    ptype = polarization_type(pol)
    chk.record(ptype == (1,) * g, (1,) * g, ptype)

    if lattice.is_default:
        expected_form = [
            [0] * g + [-1 if a == b else 0 for b in range(g)] for a in range(g)
        ] + [[1 if a == b else 0 for b in range(g)] + [0] * g for a in range(g)]
        form = pol.integer_form()
        chk.record(form == expected_form, "standard alternating block form", form)

    for _ in range(25):
        p, q, r = (_random_point(lattice, rng) for _ in range(3))
        inputs = {"p": p, "q": q, "r": r}
        chk.record((p + q) + r == p + (q + r), "associative addition", "mismatch", inputs)
        chk.record(p + q == q + p, "commutative addition", "mismatch", inputs)
        cancelled = p + (-p)
        chk.record(cancelled == TorusPoint.zero(lattice), "negation", cancelled, inputs)

    for _ in range(25):
        ambient = _random_ambient(lattice, rng)
        reduced = lattice.reduce(ambient)
        again = lattice.reduce(reduced.lift())
        chk.record(
            again == reduced,
            reduced,
            again,
            {"ambient": lambda: ", ".join(str(x) for x in ambient)},
        )

    unit_i = GaussianRational(0, 1)
    for _ in range(10):
        p = _random_point(lattice, rng)
        via_ambient = lattice.reduce(tuple(unit_i * x for x in p.lift()))
        scaled = p.scale(unit_i)
        chk.record(scaled == via_ambient, via_ambient, scaled, {"p": p})

    for n in (1, 2, 3):
        expected = torsion_count(n, env.k)
        if expected > env.config.cap:
            try:
                torsion_block(n, lattice, cap=env.config.cap)
                chk.record(False, "EnumerationTooLargeError", "no error", {"n": n})
            except EnumerationTooLargeError:
                chk.record(True, "EnumerationTooLargeError", "raised", {"n": n})
            continue
        block = torsion_block(n, lattice, cap=env.config.cap)
        killed = all((block * n).is_zero())
        chk.record(len(block) == expected, expected, len(block), {"n": n})
        chk.record(killed, "every point killed by n", killed, {"n": n})


@_suite(
    "clifford_action",
    "g p = p + M, g^2 p = p + M + N, g^3 p = p + N, g^4 p = p",
    "2p + M + N = 0 on the torus",
    "order-2 actors satisfy N = -M",
    "on two-torsion points N = M and 2M = 0",
)
def _run_clifford_action(env: _Env, chk: _Checker) -> None:
    sig = env.sig
    table = env.table
    lattice = env.lattice
    rng = env.rng("action")

    for _ in range(20):
        h = _random_integral_element(sig, rng)
        ambient = _random_ambient(lattice, rng)
        try:
            matrix = lattice_matrix(h, table, lattice)
        except LatticeNotPreservedError:
            continue
        direct = lattice.reduce(table.represent(h).matvec(ambient))
        through_quotient = apply_matrix(matrix, lattice.reduce(ambient))
        chk.record(
            direct == through_quotient,
            direct,
            through_quotient,
            {"element": h, "ambient": lambda: ", ".join(str(x) for x in ambient)},
        )

    for _ in range(20):
        g1 = _random_group_element(sig, rng)
        g2 = _random_group_element(sig, rng)
        p = _random_point(lattice, rng)
        composed = act(g1.mul(g2, sig).to_element(sig), p, table)
        chained = act(g1.to_element(sig), act(g2.to_element(sig), p, table), table)
        chk.record(
            composed == chained,
            composed,
            chained,
            {"first": g1.to_element(sig), "second": g2.to_element(sig), "point": p},
        )

    half_e1 = CliffordElement.generator(sig, 1) * Fraction(1, 2)
    try:
        act(half_e1, TorusPoint.zero(lattice), table)
        chk.record(False, "NotIntegralError", "no error")
    except NotIntegralError:
        chk.record(True, "NotIntegralError", "raised")

    order4 = env.order_partition[0]
    points = [_random_point(lattice, rng) for _ in range(POINTS_PER_K)]
    mixed_phase = sum(1 for g in order4 if g.i_power % 2 == 1)
    if mixed_phase:
        env.warnings.append(
            f"k={env.k}: {mixed_phase} of {len(order4)} order-4 actors carry phase "
            "i or -i; the four-step translation statement covers plain blades, and "
            "the phased actors are verified to satisfy it identically"
        )
    for inputs, *columns in _scan_translation_systems(env, table, points):
        chk.record_columns(inputs, *columns)


@_suite(
    "dual_picard",
    "the polarization pairing is a group isomorphism onto the dual torus",
    "duality intertwines the action: phi(g p) equals the induced action on phi(p)",
    "the four translation bundles step through L_M, L_M x L_N, L_N, O",
    "(L dual)^2 = L_M x L_N",
    "order-2 classes give L_N = L_M with L_M 2-torsion",
)
def _run_dual_picard(env: _Env, chk: _Checker) -> None:
    sig = env.sig
    table = env.table
    lattice = env.lattice
    pol = env.pol
    rng = env.rng("dual")

    for _ in range(25):
        p = _random_point(lattice, rng)
        roundtrip = bundle_to_point(point_to_bundle(p, pol), pol)
        chk.record(roundtrip == p, p, roundtrip, {"point": p})
        bundle = _random_bundle(env.k, rng)
        back = point_to_bundle(bundle_to_point(bundle, pol), pol)
        chk.record(back == bundle, bundle, back, {"bundle": bundle})

    for _ in range(15):
        p, q = _random_point(lattice, rng), _random_point(lattice, rng)
        chk.record(
            point_to_bundle(p + q, pol) == point_to_bundle(p, pol).tensor(point_to_bundle(q, pol)),
            "duality is a homomorphism",
            "mismatch",
            {"p": p, "q": q},
        )

    for _ in range(25):
        h = _random_group_element(sig, rng)
        p = _random_point(lattice, rng)
        left = point_to_bundle(act(h.to_element(sig), p, table), pol)
        right = bundle_action(h.to_element(sig), point_to_bundle(p, pol), table, pol)
        chk.record(left == right, left, right, {"element": h.to_element(sig), "point": p})

    for _ in range(25):
        p = _random_point(lattice, rng)
        bundle_order = point_to_bundle(p, pol).order()
        chk.record(bundle_order == p.order(), p.order(), bundle_order, {"point": p})

    order4, order2 = env.order_partition
    histogram: dict[str, list[int]] = {}
    # The actor count grows 4x per k while each system costs more, so the
    # per-actor sample shrinks at k=3; every order-4 actor is still covered.
    per_actor = CLASSES_PER_K if env.k <= 2 else max(1, CLASSES_PER_K // 12)
    bundles = [_random_bundle(env.k, rng) for _ in range(per_actor)]
    bundle_block = TorsionBlock.of(bundles, 2 << env.k)
    # The classes of order <= 2 are the numerators over 2 of the block the point scans read.
    classes = env.two_torsion
    # Per actor of order4 + order2, in that order: the order-2 classes that fail.
    failing_classes = []
    for g in order4:
        actor = g.to_element(sig)
        # The induced powers are composed once and move both blocks of classes.
        powers = induced_powers(lattice_rows(g, table, lattice), pol, 4)
        failing_classes.append(_failing(two_torsion_bundle_scan(g, classes, table, pol, powers)))
        held, first = bundle_systems_hold(g, bundle_block, table, pol, powers)
        chk.record_columns(
            lambda t: {"actor": actor, "bundle": bundles[t]},
            (
                held,
                "four-step bundle system and dual-square identity",
                lambda t: f"steps: {' | '.join(str(s) for s in bundle_system(g, bundles[t], table, pol).steps)}",
            ),
        )
        histogram[g.label()] = sorted(set(first.orders()))
    chk.details = {"translation_bundle_orders": histogram}

    failing_classes += [_failing(two_torsion_bundle_scan(g, classes, table, pol)) for g in order2]
    actors = order4 + order2
    chk.record_columns(
        lambda t: {"actor": actors[t].to_element(sig), "classes": len(classes)},
        (
            [not failing for failing in failing_classes],
            "translation bundles agree and are 2-torsion",
            lambda t: f"failing class: {BundleClass.from_numerators(env.k, *classes.item(failing_classes[t][0]))}",
        ),
    )


@_suite(
    "endo_decomp",
    "the rational determinant equals the Gaussian norm of the analytic one",
    "the realified images of the 2*4^k integral basis elements span rank 2^(2k+1)",
    "the Smith-divisor product of the image lattice equals the flattening determinant norm",
    "the scalar i acts as i * Id, an order-4 automorphism splitting the torus into 2^k curves of j-invariant 1728",
    "every signed blade acts as an invertible lattice self-map",
)
def _run_endo_decomp(env: _Env, chk: _Checker) -> None:
    sig = env.sig
    table = env.table
    lattice = env.lattice
    rng = env.rng("endo")

    # Signed blades on the default lattice take the monomial route; a seeded
    # sample of them also takes the dense Matrix.det route, which must agree.
    determinants_ok = all(
        representation_determinants_match(u, table, lattice) for u in basis_elements(sig)
    ) and all(
        determinant_routes_agree(g, table)
        for g in env.rng("determinants").sample(list(basis_blades(sig)), _DENSE_DETERMINANT_SAMPLE)
    )
    chk.record(
        determinants_ok,
        "rational determinant equals the Gaussian norm of the analytic one",
        determinants_ok,
    )

    audit = subring_index(table, lattice)
    chk.record(audit.rank == 1 << (2 * env.k + 1), 1 << (2 * env.k + 1), audit.rank)
    chk.record(
        audit.consistent,
        lambda: f"Smith product {audit.index_str}",
        lambda: f"determinant norm {_digits(audit.determinant_norm)}",
    )
    if env.k == 1:
        chk.record(audit.index == 16, 16, audit.index_str)
    if audit.index != 1:
        env.warnings.append(
            f"k={env.k}: the algebra image sits at index {audit.index_str} inside "
            f"the full endomorphism ring (Smith divisors {list(audit.smith_divisors)})"
        )
    env.index_out[env.k] = {
        "smith_divisors": list(audit.smith_divisors),
        "index": audit.index_str,
        "determinant_norm": _digits(audit.determinant_norm),
        "consistent": audit.consistent,
    }

    witness = decomposition_witness(table, lattice)
    chk.record(
        witness.analytic_matrix == Matrix.identity(table.dim) * GaussianRational(0, 1),
        "i acts as i * identity",
        witness.analytic_matrix,
    )
    chk.record(witness.order == 4, 4, witness.order)
    if witness.basis_map is not None:
        split_ok = True
        for _ in range(10):
            p, q = _random_point(lattice, rng), _random_point(lattice, rng)
            right = tuple((a + b).mod1() for a, b in zip(witness.split(p), witness.split(q)))
            split_ok &= witness.split(p + q) == right
        chk.record(
            split_ok, "coordinate projections are homomorphisms onto the factor curves", split_ok
        )

    contained = automorphism_containment(table, lattice)
    chk.record(
        contained, "every generator-group element is an invertible lattice self-map", contained
    )

    if env.k == 1:
        conjugator = Matrix([[1, GaussianRational(0, 1)], [0, 1]])
        moved = transport_table(conjugator, table)
        multiplicative_ok = True
        for _ in range(10):
            u, v = _random_integral_element(sig, rng), _random_integral_element(sig, rng)
            multiplicative_ok &= moved.represent(u * v) == moved.represent(u) @ moved.represent(v)
        chk.record(
            multiplicative_ok,
            "transported multiplication is multiplicative",
            multiplicative_ok,
            {"conjugator": "[[1, i], [0, 1]]"},
        )

        # The scan's verdicts only decide this one check, so none is rendered.
        points = [_random_point(lattice, rng) for _ in range(POINTS_PER_K)]
        scan = _scan_translation_systems(env, moved, points)
        transported_ok = all(all(verdicts) for _, *columns in scan for verdicts, _, _ in columns)
        chk.record(
            transported_ok,
            "translation systems and two-torsion scan pass on the transported action",
            transported_ok,
            {"conjugator": "[[1, i], [0, 1]]"},
        )


ALL_SUITES = tuple(_SUITES)


@dataclass
class SuiteConfig:
    ks: tuple[int, ...] = (1, 2, 3)
    signature: tuple[int, int] | None = None
    lattice: LatticeSpec | None = None
    seed: int = 1729
    cap: int = DEFAULT_ENUMERATION_CAP
    suites: tuple[str, ...] = ALL_SUITES
    strict: bool = False


def run_suite(config: SuiteConfig | None = None) -> VerificationReport:
    """Run the configured verification suites and collect a report."""
    config = config or SuiteConfig()
    ks = tuple(config.ks)
    if not ks or any(k < 1 for k in ks) or list(ks) != sorted(set(ks)):
        raise ValueError("ks must be a strictly increasing tuple of positive integers")
    if config.signature is not None and len(ks) != 1:
        raise ValueError("an explicit signature needs a single k")
    if config.lattice is not None and (len(ks) != 1 or config.lattice.k != ks[0]):
        raise ValueError("a custom lattice needs a single matching k")
    unknown = [name for name in config.suites if name not in ALL_SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")

    warnings: list[str] = []
    results: list[SuiteResult] = []
    index_out: dict[int, dict] = {}
    signatures: list[str] = []
    description = ""

    for k in ks:
        sig = Signature(*config.signature) if config.signature else Signature(2 * k, 0)
        if sig.k != k:
            raise ValueError(f"signature {config.signature} does not match k={k}")
        signatures.append(f"{sig.p},{sig.q}")
        table = build_generators(k, sig)
        description = table.description
        lattice = config.lattice or LatticeSpec.default(k)
        env = _Env(
            k=k,
            sig=sig,
            table=table,
            lattice=lattice,
            config=config,
            warnings=warnings,
            index_out=index_out,
        )
        for name, suite in _SUITES.items():
            if name not in config.suites:
                continue
            chk = _Checker(f"{name}:k={k}", k)
            started = time.perf_counter()
            suite.run(env, chk)
            result = chk.result(suite.statements)
            result.ms = (time.perf_counter() - started) * 1000.0
            results.append(result)

    if config.lattice is None:
        lattice_meta: object = "default"
    else:
        lattice_meta = [
            [str(x) for x in row] for row in config.lattice.basis.entries()
        ]
    meta = {
        "k": list(ks),
        "signature": signatures,
        "lattice": lattice_meta,
        "seed": config.seed,
        "version": __version__,
        "cap": config.cap,
        "points_per_k": POINTS_PER_K,
        "classes_per_k": CLASSES_PER_K,
        "suites": list(config.suites),
        "strict": config.strict,
        "representation": description,
    }

    index: dict | None = None
    if index_out:
        smallest = min(index_out)
        index = {
            "smith_divisors": index_out[smallest]["smith_divisors"],
            "index": index_out[smallest]["index"],
            "determinant_norm": index_out[smallest]["determinant_norm"],
            "per_k": {str(k): index_out[k] for k in sorted(index_out)},
        }

    return VerificationReport(meta=meta, suites=results, index=index, warnings=warnings)


def report_document(report: VerificationReport, include_timings: bool = False) -> dict:
    """The JSON-ready dictionary form of a report, in stable field order."""
    suites = []
    for s in report.suites:
        entry: dict = {
            "name": s.name,
            "passed": s.passed,
            "checks": s.checks,
            "failures": [
                {"inputs": f.inputs, "expected": f.expected, "actual": f.actual}
                for f in s.failures
            ],
            "ms": round(s.ms, 3) if include_timings and s.ms is not None else None,
        }
        if s.skipped:
            entry["skipped"] = True
            entry["reason"] = s.reason
        if s.details:
            entry["details"] = s.details
        if s.statements:
            entry["statements"] = list(s.statements)
        suites.append(entry)
    return {
        "meta": report.meta,
        "suites": suites,
        "index": report.index,
        "warnings": report.warnings,
    }


def report_from_document(doc: dict) -> VerificationReport:
    """Rebuild a report from its JSON document form (for re-emission)."""
    suites = []
    for entry in doc["suites"]:
        failures = [
            Failure(inputs=dict(f["inputs"]), expected=f["expected"], actual=f["actual"])
            for f in entry["failures"]
        ]
        suites.append(
            SuiteResult(
                name=entry["name"],
                passed=entry["passed"],
                checks=entry["checks"],
                failures=failures,
                ms=entry.get("ms"),
                skipped=entry.get("skipped", False),
                reason=entry.get("reason", ""),
                details=entry.get("details"),
                statements=tuple(entry.get("statements", ())),
            )
        )
    return VerificationReport(
        meta=dict(doc["meta"]),
        suites=suites,
        index=doc.get("index"),
        warnings=list(doc.get("warnings", [])),
    )


def emit_report(
    report: VerificationReport,
    fmt: str = "json",
    include_timings: bool = False,
) -> bytes:
    """Serialize a report. JSON output is byte-stable unless timings are included."""
    if fmt == "json":
        doc = report_document(report, include_timings=include_timings)
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    if fmt == "text":
        return _render_text(report).encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")


def _render_text(report: VerificationReport) -> str:
    lines = []
    meta = report.meta
    lines.append(
        f"verification report (version {meta['version']}, seed {meta['seed']})"
    )
    lines.append(
        f"k = {meta['k']}, signature = {meta['signature']}, lattice = "
        + ("default" if meta["lattice"] == "default" else "custom")
    )
    for s in report.suites:
        if s.skipped:
            lines.append(f"[SKIP] {s.name:<24} {s.reason}")
            continue
        tag = "PASS" if s.passed else "FAIL"
        ms = f"{s.ms:9.1f} ms" if s.ms is not None else ""
        lines.append(f"[{tag}] {s.name:<24} checks={s.checks:<6} failures={len(s.failures):<4} {ms}")
        for failure in s.failures[:5]:
            lines.append(f"       inputs:   {failure.inputs}")
            lines.append(f"       expected: {failure.expected}")
            lines.append(f"       actual:   {failure.actual}")
        if len(s.failures) > 5:
            lines.append(f"       ... and {len(s.failures) - 5} more failures")
    if report.index:
        lines.append(
            f"index audit: divisors {report.index['smith_divisors']} -> "
            f"{report.index['index']} (determinant route {report.index['determinant_norm']})"
        )
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    total_checks = sum(s.checks for s in report.suites)
    verdict = "PASS" if report.all_passed() else "FAIL"
    lines.append(f"result: {verdict} ({len(report.suites)} suites, {total_checks} checks)")
    return "\n".join(lines) + "\n"
