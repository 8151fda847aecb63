"""The benchmark workloads and their correctness gates.

Every workload is built from a seed and exposes one *pass*: the timed
operations a user would run. A pass returns its wall time and the
operations it attempted and failed; correctness is judged outside the
timed region. The program under test only ever sees generated inputs:
``SuiteConfig.seed`` for the verify workloads, and argv lists for the
query workload.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from hostspeed import SpeedSampler
from spintorus import (
    BundleClass,
    GaussianRational,
    GeneratorGroupElement,
    LatticeSpec,
    LatticeNotPreservedError,
    Matrix,
    PolarizationData,
    SuiteConfig,
    TorusPoint,
    act,
    build_generators,
    bundle_to_point,
    element_order,
    generator_group,
    group_lattice_matrix,
    point_to_bundle,
    run_suite,
    torsion_points,
    translation_system,
)

# The unimodular lattice from the README's "Lattice files" section.
README_LATTICE = (("1", "i"), ("0", "1"))

WORKLOAD_NAMES = ("orbit-default", "dual-default", "orbit-lattice", "algebra", "cli-queries")


@dataclass
class PassResult:
    wall_s: float
    # wall_s without the sampling time, at the nominal host speed; None when not sampled.
    adjusted_s: float | None = None
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    failure_records: int = 0
    suite_s: dict[str, float] = field(default_factory=dict)
    query_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def _gaussian(text: str) -> GaussianRational:
    return GaussianRational(0, 1) if text == "i" else GaussianRational(Fraction(text))


def lattice_from_rows(k: int, rows) -> LatticeSpec:
    """The lattice with the given rows of Gaussian literals, or the default lattice when `rows` is None."""
    if rows is None:
        return LatticeSpec.default(k)
    return LatticeSpec(k, Matrix([[_gaussian(cell) for cell in row] for row in rows]))


def _is_monomial(m: Matrix) -> bool:
    rows, cols = m.shape()
    row_hits = [sum(1 for c in range(cols) if m[r, c]) for r in range(rows)]
    col_hits = [sum(1 for r in range(rows) if m[r, c]) for c in range(cols)]
    return all(h == 1 for h in row_hits) and all(h == 1 for h in col_hits)


def lattice_properties(k: int, lattice: LatticeSpec) -> dict:
    """How many conjugated signed-blade matrices are monomial, and whether E is the standard block."""
    table = build_generators(k)
    group = generator_group(table.sig)
    monomial = 0
    for g in group:
        try:
            monomial += _is_monomial(group_lattice_matrix(g, table, lattice))
        except LatticeNotPreservedError:
            pass
    g_dim = lattice.dim
    block = [[0] * g_dim + [-(a == b) for b in range(g_dim)] for a in range(g_dim)]
    block += [[int(a == b) for b in range(g_dim)] + [0] * g_dim for a in range(g_dim)]
    form = PolarizationData.default(lattice).integer_form()
    return {
        "monomial_blade_matrices": f"{monomial}/{len(group)}",
        "monomial_share": monomial / len(group),
        "standard_E_block": form == block,
    }


class Workload:
    name = ""
    ks: tuple[int, ...] = ()
    lattice_rows: tuple[tuple[str, ...], ...] | None = None
    imports_cli = False

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def lattice(self, k: int) -> LatticeSpec:
        return lattice_from_rows(k, self.lattice_rows)

    def warm_up(self) -> None:
        """Untimed work before the first pass; nothing by default."""

    def properties(self) -> dict:
        return {"lattice": "default" if self.lattice_rows is None else [list(r) for r in self.lattice_rows],
                "per_k": {str(k): lattice_properties(k, self.lattice(k)) for k in self.ks}}

    def run_pass(self, sample_speed: bool = False) -> PassResult:
        """One pass; with `sample_speed`, also its host-speed adjusted time (see hostspeed)."""
        raise NotImplementedError


class VerifyWorkload(Workload):
    """`run_suite` calls; an operation is one check."""

    runs: tuple[tuple[int, tuple[str, ...]], ...] = ()
    # Checks each suite records for one `SuiteConfig.seed`, keyed by the suite's
    # report name. The suites sample their inputs from the seed but always make
    # the same number of checks, so a pass that makes fewer or more has changed
    # what is verified.
    expected_checks: dict[str, int] = {}
    seeds_per_pass = 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.ks = tuple(k for k, _ in self.runs)

    def properties(self) -> dict:
        return {**super().properties(), "suite_seeds_per_pass": self.seeds_per_pass}

    def suite_seeds(self) -> list[int]:
        """The `SuiteConfig.seed` values of one pass, derived from the run's seed."""
        return [self.seed * self.seeds_per_pass + j for j in range(self.seeds_per_pass)]

    def configs(self) -> list[SuiteConfig]:
        configs = []
        for seed in self.suite_seeds():
            for k, suites in self.runs:
                lattice = None if self.lattice_rows is None else self.lattice(k)
                configs.append(SuiteConfig(ks=(k,), suites=suites, lattice=lattice, seed=seed))
        return configs

    def run_pass(self, sample_speed: bool = False) -> PassResult:
        configs = self.configs()
        gc.collect()
        reports = []
        errors = []
        speed = SpeedSampler()
        started = time.perf_counter()
        with speed if sample_speed else contextlib.nullcontext():
            for config in configs:
                try:
                    reports.append((config, run_suite(config)))
                except Exception as exc:  # a crash is a failed operation, not a benchmark abort
                    errors.append(f"run_suite({config.ks}, {config.suites}, seed={config.seed}): {exc!r}")
        result = PassResult(wall_s=time.perf_counter() - started, errors=errors)
        if sample_speed:
            result.adjusted_s = speed.adjust(result.wall_s - speed.busy_s())
        result.attempted = result.failed = len(errors)

        for config, report in reports:
            expected = {f"{name}:k={k}": self.expected_checks.get(f"{name}:k={k}")
                        for k in config.ks for name in config.suites}
            counts = {suite.name: suite.checks for suite in report.suites}
            if counts != expected:
                result.failed += 1
                result.errors.append(f"seed={config.seed}: check counts {counts}, expected {expected}")
            for suite in report.suites:
                name = suite.name.split(":")[0]
                result.suite_s[name] = result.suite_s.get(name, 0.0) + suite.ms / 1000.0
                result.attempted += suite.checks
                result.checks += suite.checks
                result.failed += len(suite.failures)
                result.failure_records += len(suite.failures)
                if suite.skipped or (not suite.passed and not suite.failures):
                    result.failed += 1
                    result.errors.append(f"{suite.name}: not passed ({suite.reason})")
                for failure in suite.failures[:3]:
                    result.errors.append(f"{suite.name}: {failure}")
        return result


class OrbitDefault(VerifyWorkload):
    name = "orbit-default"
    runs = ((2, ("spinor_torus", "clifford_action")),)
    expected_checks = {"spinor_torus:k=2": 121, "clifford_action:k=2": 6814}


class DualDefault(VerifyWorkload):
    name = "dual-default"
    runs = ((2, ("dual_picard",)),)
    expected_checks = {"dual_picard:k=2": 3378}


class OrbitLattice(VerifyWorkload):
    name = "orbit-lattice"
    runs = ((1, ("clifford_action", "dual_picard")),)
    expected_checks = {"clifford_action:k=1": 1726, "dual_picard:k=1": 930}
    lattice_rows = README_LATTICE
    # One seed takes about 2.3 s at the nominal speed. Two seeds per pass
    # average the seed-to-seed differences in cost and still leave four
    # passes in a 20 s run, whose median outvotes one pass that the speed
    # adjustment got wrong.
    seeds_per_pass = 2


class Algebra(VerifyWorkload):
    name = "algebra"
    runs = (
        (3, ("clifford_core", "spinor_rep", "endo_decomp")),
        (4, ("clifford_core", "spinor_rep")),
    )
    expected_checks = {"clifford_core:k=3": 129, "spinor_rep:k=3": 54, "endo_decomp:k=3": 7,
                       "clifford_core:k=4": 129, "spinor_rep:k=4": 54}


# Queries per pass: (class, k, count). Sorted by latency the k<=2 classes
# fill the bottom 72%, the k=3 act/dual classes the next 24% and the k=3
# build the top 4%, so p50 falls inside the k=2 block and p90 three
# quarters of the way through the k=3 act/dual block, away from the edges.
QUERY_MIX = (
    ("act-orbit", 1, 3), ("dual-point", 1, 2), ("dual-bundle", 1, 2),
    ("dual-act", 1, 2), ("torsion2", 1, 1), ("build", 1, 2),
    ("act-orbit", 2, 6), ("dual-point", 2, 5), ("dual-bundle", 2, 5),
    ("dual-act", 2, 5), ("torsion2", 2, 2), ("build", 2, 1),
    ("act-orbit", 3, 3), ("dual-point", 3, 3), ("dual-bundle", 3, 3),
    ("dual-act", 3, 3), ("build", 3, 2),
)

# Every query's cost is fixed by its class, so that the seed changes which
# values a pass computes with but not how much work it does: the i-th actor
# of a class has order (4, 2)[i % 2] and is never a scalar, and the
# denominators of a point or bundle are the first entries of this cycle,
# shuffled, each with a random numerator prime to it.
DENOMINATORS = (12, 5, 8, 3, 10, 7, 4, 9)


def _rational_literal(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _gaussian_literal(re: Fraction, im: Fraction) -> str:
    if not im:
        return _rational_literal(re)
    if not re:
        return f"{_rational_literal(im)}i"
    return f"{_rational_literal(re)}+{_rational_literal(im)}i"


def _fractions(count: int, rng: random.Random) -> list[Fraction]:
    denominators = [DENOMINATORS[j % len(DENOMINATORS)] for j in range(count)]
    rng.shuffle(denominators)
    return [Fraction(rng.choice([n for n in range(1, d) if math.gcd(n, d) == 1]), d) for d in denominators]


def _actor_literal(g: GeneratorGroupElement) -> str:
    blade = "*".join(f"e{j + 1}" for j in range(g.blade.bit_length()) if g.blade >> j & 1)
    phase = ("", "i", "", "i")[g.i_power]
    body = "*".join(part for part in (phase, blade) if part) or "1"
    return f"0 - {body}" if g.i_power >= 2 else body


@dataclass
class Query:
    kind: str
    k: int
    argv: list[str]
    expected: list[str] | None = None


class CliQueries(Workload):
    """In-process `spintorus.cli.main(argv)` calls; an operation is one query."""

    name = "cli-queries"
    ks = (1, 2, 3)
    imports_cli = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # Imported here, so that the set-up probe of a verify workload, which
        # imports this module, does not load the CLI.
        from spintorus.cli import main

        self.cli_main = main
        rng = random.Random(seed)
        self.tables = {k: build_generators(k) for k in self.ks}
        self.gamma_lines = {
            k: [f"  gamma[{j}] = [" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in m.entries()) + "]"
                for j, m in enumerate(table.gamma, start=1)]
            for k, table in self.tables.items()
        }
        self.queries = [self._query(kind, k, i, rng) for kind, k, count in QUERY_MIX for i in range(count)]
        rng.shuffle(self.queries)

    def properties(self) -> dict:
        props = super().properties()
        props["queries_per_pass"] = {f"{kind}:k={k}": count for kind, k, count in QUERY_MIX}
        return props

    def _query(self, kind: str, k: int, index: int, rng: random.Random) -> Query:
        """Draw the `index`-th query of a class and its expected stdout, recomputed through the library."""
        table = self.tables[k]
        lattice = LatticeSpec.default(k)
        pol = PolarizationData.default(lattice)
        parts = _fractions(2 * lattice.dim, rng)
        coords = list(zip(parts[0::2], parts[1::2]))
        point = TorusPoint(lattice, [GaussianRational(re, im) for re, im in coords])
        point_text = ", ".join(_gaussian_literal(re, im) for re, im in coords)
        order = (4, 2)[index % 2]
        g = rng.choice([g for g in generator_group(table.sig)
                        if g.blade and element_order(g, table.sig) == order])
        kk = ["--k", str(k)]
        if kind == "act-orbit":
            image = act(g.to_element(table.sig), point, table)
            system = translation_system(g, point, table)
            expected = [f"image: {image}", f"order: {system.order}",
                        f"M: {system.first_translation}", f"N: {system.second_translation}"]
            expected += [f"orbit[{step}]: {q}" for step, q in enumerate(system.orbit)]
            return Query(kind, k, ["act", _actor_literal(g), point_text, *kk, "--orbit"], expected)
        if kind == "dual-point":
            return Query(kind, k, ["dual", point_text, *kk], [f"bundle: {point_to_bundle(point, pol)}"])
        if kind == "dual-bundle":
            chars = _fractions(2 << k, rng)
            text = "[" + ", ".join(_rational_literal(x) for x in chars) + "]"
            return Query(kind, k, ["dual", text, *kk], [f"point: {bundle_to_point(BundleClass(k, chars), pol)}"])
        if kind == "dual-act":
            moved = act(g.to_element(table.sig), point, table)
            return Query(kind, k, ["dual", point_text, *kk, "--act", _actor_literal(g)],
                         [f"point: {moved}", f"bundle: {point_to_bundle(moved, pol)}"])
        if kind == "torsion2":
            expected = [f"n=2 k={k}: {4 ** (1 << k)} points"] + [str(p) for p in torsion_points(2, lattice)]
            return Query(kind, k, ["torsion", "2", *kk], expected)
        if kind == "build":
            return Query(kind, k, ["build", *kk])
        raise ValueError(f"unknown query class {kind}")

    def _build_ok(self, k: int, lines: list[str]) -> bool:
        return (
            len(lines) == 5 + 2 * k
            and lines[0] == f"k={k}  signature ({2 * k},0)"
            and lines[1].startswith(f"  blades: {4 ** k}   signed-blade group: {4 ** (k + 1)} ")
            and lines[3] == f"  blade-image rank: {4 ** k} of {4 ** k}  (isomorphism onto the matrix algebra)"
            and lines[5:] == self.gamma_lines[k]
        )

    def run_one(self, query: Query) -> tuple[float, str | None]:
        """Time one query; return its latency and an error text or None."""
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli_main(query.argv)
        except (Exception, SystemExit) as exc:  # argparse rejects bad argv with SystemExit
            return time.perf_counter() - started, f"{query.argv}: raised {exc!r}"
        elapsed = time.perf_counter() - started
        lines = out.getvalue().splitlines()
        if code != 0:
            return elapsed, f"{query.argv}: exit {code}: {err.getvalue().strip()}"
        if query.expected is None:
            ok = self._build_ok(query.k, lines)
        else:
            ok = lines == query.expected
        return elapsed, None if ok else f"{query.argv}: wrong answer {lines[:6]}"

    def warm_up(self) -> None:
        """One untimed query per class at k=1, so the first timed query pays no lazy import."""
        seen = set()
        for query in self.queries:
            if query.k == 1 and query.kind not in seen:
                seen.add(query.kind)
                self.run_one(query)

    def run_pass(self, sample_speed: bool = False) -> PassResult:
        gc.collect()
        latencies = []
        errors = []
        speed = SpeedSampler()
        work_s = 0.0
        with speed if sample_speed else contextlib.nullcontext():
            for query in self.queries:
                since = len(speed.samples)
                elapsed, error = self.run_one(query)
                work_s += elapsed - speed.busy_s(since)
                latencies.append(elapsed * 1000.0)
                if error:
                    errors.append(error)
        # The answer checks run between queries, so the pass time is the sum of the query times.
        return PassResult(wall_s=sum(latencies) / 1000.0, attempted=len(self.queries), failed=len(errors),
                          query_ms=latencies, errors=errors,
                          adjusted_s=speed.adjust(work_s) if sample_speed else None)


_WORKLOADS = {cls.name: cls for cls in (OrbitDefault, DualDefault, OrbitLattice, Algebra, CliQueries)}


def make(name: str, seed: int) -> Workload:
    return _WORKLOADS[name](seed)
