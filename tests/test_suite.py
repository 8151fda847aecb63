"""Suite orchestration, report emission, and the command-line surface."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintorus import (
    ALL_SUITES,
    BundleClass,
    BundleSystem,
    CliffordElement,
    Failure,
    GaussianRational,
    GeneratorGroupElement,
    LatticeSpec,
    Matrix,
    RepresentationTable,
    Signature,
    SuiteConfig,
    TorusPoint,
    build_generators,
    element_source,
    emit_report,
    generator_group,
    parse_gaussian,
    parse_point,
    report_document,
    report_from_document,
    run_suite,
    translation_system,
)
from spintorus import action, cli, clifford, suite, torus
from spintorus.cli import main
from spintorus.torus import TorsionBlock

FAST = SuiteConfig(ks=(1,))


@pytest.fixture(scope="module")
def rank_one_report():
    return run_suite(FAST)


def test_rank_one_run_passes_everything(rank_one_report):
    report = rank_one_report
    assert report.all_passed()
    assert [s.name for s in report.suites] == [f"{name}:k=1" for name in ALL_SUITES]
    assert all(not s.skipped for s in report.suites)
    assert all(s.failures == [] for s in report.suites)
    assert sum(s.checks for s in report.suites) > 2000
    assert report.index_gap()


def test_report_document_schema(rank_one_report):
    doc = report_document(rank_one_report)
    assert set(doc) == {"meta", "suites", "index", "warnings"}
    assert doc["meta"]["k"] == [1]
    assert doc["meta"]["signature"] == ["2,0"]
    assert doc["meta"]["seed"] == 1729
    for entry in doc["suites"]:
        assert entry["passed"] is True
        assert entry["failures"] == []
        assert entry["ms"] is None
        assert entry["statements"]
    assert doc["index"]["index"] == "16"
    assert doc["index"]["smith_divisors"] == [1, 1, 1, 1, 2, 2, 2, 2]
    assert doc["index"]["per_k"]["1"]["index"] == "16"


def test_emitted_json_is_deterministic(rank_one_report):
    first = emit_report(rank_one_report)
    second = emit_report(run_suite(FAST))
    assert first == second
    assert first.endswith(b"\n")
    assert b'"index": "16"' in first
    assert b'"ms": null' in first


def test_timings_are_opt_in(rank_one_report):
    timed = emit_report(rank_one_report, include_timings=True)
    doc = json.loads(timed)
    assert all(isinstance(entry["ms"], (int, float)) for entry in doc["suites"])


def test_reports_round_trip_through_their_documents(rank_one_report):
    doc = report_document(rank_one_report)
    rebuilt = report_from_document(doc)
    assert emit_report(rebuilt) == emit_report(rank_one_report)
    assert rebuilt.all_passed() == rank_one_report.all_passed()
    assert rebuilt.index_gap() == rank_one_report.index_gap()


def test_text_rendering_mentions_every_suite(rank_one_report):
    text = emit_report(rank_one_report, fmt="text").decode()
    for name in ALL_SUITES:
        assert f"{name}:k=1" in text
    assert "result: PASS" in text
    assert "index audit" in text


def _failure(inputs: dict, expected: str, actual: str) -> Failure:
    return Failure(inputs={"k": "1", **inputs}, expected=expected, actual=actual)


def _false(*args) -> bool:
    return False


def _disagrees(ok, holds) -> None:
    """The identities compare blocks one column at a time: here every item differs."""
    ok[:] = [False] * len(ok)


# Each case forces some comparisons of one k=1 suite to fail and pins the
# exact text of a few records, by their position in the suite's failure list.
# Point and class objects compare with ``__eq__``; the identities of the
# orbit scans compare whole blocks of them, one column at a time, through
# ``action._clear_false``.
FORCED_FAILURES = [
    (
        "clifford_core",
        [(CliffordElement, "__eq__", _false)],
        129,
        101,
        {
            9: _failure(
                {
                    "u": "(7/2-12/29*i)*e2",
                    "v": "0 - (17/7+25/19*i)",
                    "w": "(41/3+13/36*i)*e1 + 32/19*e1*e2",
                },
                "(159472/10469+444368/73283*i)*e1 + (33965299/277704+14571313/277704*i)*e1*e2",
                "(159472/10469+444368/73283*i)*e1 + (33965299/277704+14571313/277704*i)*e1*e2",
            ),
            55: _failure(
                {"u": "(6/7-39/44*i)*e1", "v": "(61/54-3/20*i)"},
                "(6/7-39/44*i)*e1",
                "(6/7-39/44*i)*e1",
            ),
            100: _failure({}, "orders in {1, 2, 4} and minimal", "False"),
        },
    ),
    (
        "spinor_rep",
        [(Matrix, "__eq__", _false)],
        54,
        50,
        {
            0: _failure(
                {
                    "u": "0 - (14/3-46/35*i) - (18/31+8/3*i)*e1 + (16/13+34/63*i)*e2",
                    "v": "0 - (2/3-14/11*i) - (59/12-51/38*i)*e1 - (5/2-38/43*i)*e2",
                },
                "multiplicative image",
                "image mismatch",
            ),
            39: _failure(
                {"u": "(15/8-50/49*i)*e1", "v": "(7+5/3*i) + (15/26+43/22*i)*e2"},
                "additive image",
                "image mismatch",
            ),
            40: _failure({"v1": "4/5*e1 + 3/5*e2", "v2": "e1"}, "unitary image", "form not preserved"),
        },
    ),
    (
        "spinor_torus",
        [(TorusPoint, "__eq__", _false)],
        121,
        110,
        {
            47: _failure(
                {"p": "19/25+13/25i, 5/56", "q": "1/19+5/28i, 25/39i", "r": "10/13+54/55i, 28/29"},
                "negation",
                "0, 0",
            ),
            84: _failure({"ambient": "3-6/23i, -21-4/47i"}, "17/23i, 43/47i", "17/23i, 43/47i"),
        },
    ),
    (
        "clifford_action",
        [(TorusPoint, "__eq__", _false), (action, "_clear_false", _disagrees)],
        1726,
        925,
        {
            9: _failure(
                {"element": "(3-3*i)*e1*e2", "ambient": "13-10i, -10/7-1/3i"},
                "0, 2/7+2/7i",
                "0, 2/7+2/7i",
            ),
            113: _failure(
                {"actor": "i", "point": "0, 7/13+3/8i"},
                "orbit matches p, p+M, p+M+N, p+N, p",
                "0, 7/13+3/8i | 0, 5/8+7/13i | 0, 6/13+5/8i | 0, 3/8+6/13i | 0, 7/13+3/8i",
            ),
            910: _failure(
                {"actor": "i", "checked": "16"},
                "N = M and 2M = 0 on all two-torsion points",
                "failing points: 0, 0, 0, 1/2i, 0, 1/2, 0, 1/2+1/2i, 1/2i, 0, 1/2i, 1/2i, "
                "1/2i, 1/2, 1/2i, 1/2+1/2i, 1/2, 0, 1/2, 1/2i, 1/2, 1/2, 1/2, 1/2+1/2i, "
                "1/2+1/2i, 0, 1/2+1/2i, 1/2i, 1/2+1/2i, 1/2, 1/2+1/2i, 1/2+1/2i",
            ),
        },
    ),
    (
        "dual_picard",
        [(BundleSystem, "holds", _false), (BundleClass, "__eq__", _false), (action, "_clear_false", _disagrees)],
        930,
        880,
        {
            74: _failure(
                {"actor": "i", "bundle": "[4/9, 5/11, 0, 0]"},
                "four-step bundle system and dual-square identity",
                "steps: [0, 0, 4/9, 5/11] | [5/9, 6/11, 0, 0] | [0, 0, 5/9, 6/11] | [4/9, 5/11, 0, 0]",
            ),
            865: _failure(
                {"actor": "i", "classes": "16"},
                "translation bundles agree and are 2-torsion",
                "failing class: [0, 0, 0, 0]",
            ),
        },
    ),
    (
        "endo_decomp",
        [(action, "_clear_false", _disagrees)],
        10,
        1,
        {
            0: _failure(
                {"conjugator": "[[1, i], [0, 1]]"},
                "translation systems and two-torsion scan pass on the transported action",
                "False",
            ),
        },
    ),
]


@pytest.mark.parametrize(
    "suite, forced, checks, failed, pinned", FORCED_FAILURES, ids=[case[0] for case in FORCED_FAILURES]
)
def test_failure_records_render_inputs_and_messages(monkeypatch, suite, forced, checks, failed, pinned):
    for owner, method, replacement in forced:
        monkeypatch.setattr(owner, method, replacement)
    result = run_suite(SuiteConfig(ks=(1,), suites=(suite,))).suites[0]
    monkeypatch.undo()
    assert not result.passed
    assert result.checks == checks
    assert len(result.failures) == failed
    for position, record in pinned.items():
        assert result.failures[position] == record


# Mutations of the signed-blade product. Each must fail the closure record,
# not only the inverse record.
def _closure_failure(k: int) -> Failure:
    return Failure(inputs={"k": str(k)}, expected="group closed under products", actual="False")


def _core_result(monkeypatch, k: int, signature: tuple[int, int] | None = None):
    """Run clifford_core under the active patches, then undo them and drop the sign tables they built."""
    try:
        return run_suite(SuiteConfig(ks=(k,), signature=signature, suites=("clifford_core",))).suites[0]
    finally:
        monkeypatch.undo()
        clifford._sign_masks.cache_clear()


def _patch_sign_mask(monkeypatch, rule) -> None:
    """Swap the sign-mask rule; the per-(n, p) tables are rebuilt from it."""
    clifford._sign_masks.cache_clear()
    monkeypatch.setattr(clifford, "_sign_mask", rule)


def _mul_with_flipped_sign(self, other, sig):
    sign, mask = clifford.blade_mul(self.blade, other.blade, sig)
    t = (self.i_power + other.i_power + (2 if sign > 0 else 0)) % 4
    return GeneratorGroupElement(mask, t)


_sign_mask = clifford._sign_mask


def _sign_mask_without_square_sign(a, p):
    # No bit of a lies at or above its bit length: the reorder part alone.
    return _sign_mask(a, a.bit_length())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closure_record_catches_a_flipped_sign_in_mul(monkeypatch, k):
    monkeypatch.setattr(GeneratorGroupElement, "mul", _mul_with_flipped_sign)
    result = _core_result(monkeypatch, k)
    assert _closure_failure(k) in result.failures


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closure_record_catches_a_blade_mul_without_the_square_sign(monkeypatch, k):
    # Clifford products and `mul` share the sign masks here, so only the matrix
    # images can tell: the last generator squares to -1 in signature (2k-1, 1).
    _patch_sign_mask(monkeypatch, _sign_mask_without_square_sign)
    result = _core_result(monkeypatch, k, signature=(2 * k - 1, 1))
    assert _closure_failure(k) in result.failures


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_closure_record_catches_a_reorder_sign_of_always_plus_one(monkeypatch, k):
    # The square part alone: the bits of a at or above p.
    _patch_sign_mask(monkeypatch, lambda a, p: a >> p << p)
    result = _core_result(monkeypatch, k)
    assert _closure_failure(k) in result.failures


_mul = GeneratorGroupElement.mul


def _mul_off_by_two_when(wrong):
    """``mul`` with the phase off by 2 on the pairs (g, h) where ``wrong(g, h)`` holds."""

    def mul(self, other, sig):
        product = _mul(self, other, sig)
        return GeneratorGroupElement(product.blade, (product.i_power + 2) % 4) if wrong(self, other) else product

    return mul


# Each mutant is wrong on few pairs: only on the t=3 row, only on the blades
# (e_1, e_{2,3}), or only on pairs of composite blades, which only the k <= 2
# readback over every left factor reaches.
CLOSURE_MUTANTS = {
    "right-phase-3": (lambda g, h: h.i_power == 3, (1, 2, 3, 4)),
    "e1-times-e23": (lambda g, h: (g.blade, h.blade) == (0b1, 0b110), (2, 3, 4)),
    "composite-pairs": (lambda g, h: g.blade.bit_count() > 1 and h.blade.bit_count() > 1, (1, 2)),
}


@pytest.mark.parametrize(
    "mutant, k", [(name, k) for name, (_, ks) in CLOSURE_MUTANTS.items() for k in ks]
)
def test_closure_record_catches_a_mul_wrong_on_few_pairs(monkeypatch, mutant, k):
    monkeypatch.setattr(GeneratorGroupElement, "mul", _mul_off_by_two_when(CLOSURE_MUTANTS[mutant][0]))
    result = _core_result(monkeypatch, k)
    assert _closure_failure(k) in result.failures


def _unit_fraction(rng: random.Random) -> Fraction:
    """The reference draw: a denominator in 1..64, then a numerator below it."""
    denominator = rng.randint(1, 64)
    return Fraction(rng.randint(0, denominator - 1), denominator)


def _block_lattice(k: int, block: list[list[str]]) -> LatticeSpec:
    """A 2x2 lattice basis repeated down the diagonal of a 2^k x 2^k one."""
    return LatticeSpec(k, Matrix.identity(1 << (k - 1)).kron(Matrix([[parse_gaussian(x) for x in row] for row in block])))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sampled_points_and_classes_match_the_public_constructors(k):
    lattices = (
        LatticeSpec.default(k),
        _block_lattice(k, [["1", "i"], ["0", "1"]]),
        _block_lattice(k, [["1", "1+i"], ["1", "0"]]),
    )
    for lattice in lattices:
        for seed in range(40):
            rng, reference = random.Random(seed), random.Random(seed)
            for _ in range(3):
                p = suite._random_point(lattice, rng)
                q = TorusPoint(
                    lattice,
                    [GaussianRational(_unit_fraction(reference), _unit_fraction(reference)) for _ in range(lattice.dim)],
                )
                assert (type(p), p.den, p.nums) == (TorusPoint, q.den, q.nums)
                assert p.owner is lattice
                b = suite._random_bundle(k, rng)
                c = BundleClass(k, [_unit_fraction(reference) for _ in range(2 << k)])
                assert (type(b), b.den, b.nums, b.owner) == (BundleClass, c.den, c.nums, k)
            assert rng.getstate() == reference.getstate()


TORUS_AND_ENDO = ("spinor_torus", "clifford_action", "dual_picard", "endo_decomp")


@pytest.mark.parametrize(
    ("k", "signature"),
    [(1, (1, 1)), (1, (0, 2)), (2, (3, 1)), (2, (2, 2)), (2, (1, 3)), (2, (0, 4))],
    ids=["k1-sig11", "k1-sig02", "k2-sig31", "k2-sig22", "k2-sig13", "k2-sig04"],
)
def test_every_suite_runs_at_an_indefinite_signature(k, signature):
    # The signed blades act by the same signed permutations at every
    # signature, so the torus and endomorphism suites run and check as many
    # statements as at (2k, 0).
    report = run_suite(SuiteConfig(ks=(k,), signature=signature))
    assert report.all_passed()
    assert [s.name for s in report.suites] == [f"{name}:k={k}" for name in ALL_SUITES]
    assert not any(s.skipped for s in report.suites)
    definite = run_suite(SuiteConfig(ks=(k,), suites=TORUS_AND_ENDO))
    counts = {s.name: s.checks for s in report.suites if s.name.split(":")[0] in TORUS_AND_ENDO}
    assert counts == {s.name: s.checks for s in definite.suites}
    assert report.index["index"] == definite.index["index"]
    if k == 1:
        assert report.index["index"] == "16"
    assert any("adjoint compatibility" in w for w in report.warnings)


def test_suite_selection_runs_a_subset():
    report = run_suite(SuiteConfig(ks=(1,), suites=("clifford_core", "spinor_rep")))
    assert len(report.suites) == 2
    assert report.all_passed()


def test_config_validation():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(ks=(2, 1)))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(ks=(0,)))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(ks=(1,), suites=("no_such_suite",)))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(ks=(1, 2), signature=(1, 1)))


def test_seeds_change_samples_but_not_verdicts():
    baseline = emit_report(run_suite(SuiteConfig(ks=(1,), suites=("clifford_core",))))
    reseeded = emit_report(
        run_suite(SuiteConfig(ks=(1,), suites=("clifford_core",), seed=7))
    )
    assert baseline != reseeded
    assert json.loads(reseeded)["suites"][0]["passed"] is True


def test_one_two_torsion_block_serves_every_scan_at_a_k(monkeypatch):
    # The point scans of all 63 actors and the class scan read one enumeration.
    calls = []
    build = torus.torsion_block

    def counted(n, lattice, cap):
        calls.append(n)
        return build(n, lattice, cap)

    monkeypatch.setattr("spintorus.suite.torsion_block", counted)
    report = run_suite(SuiteConfig(ks=(2,), suites=("clifford_action", "dual_picard")))
    assert report.all_passed()
    assert calls == [2]


def test_the_torsion_record_fails_when_sums_do_not_kill_the_points(monkeypatch):
    # The n-fold sum of each n-torsion block, read as one multiple, must be
    # zero; a multiple that keeps the block leaves the 2- and 3-torsion points alive.
    monkeypatch.setattr(TorsionBlock, "__mul__", lambda self, n: self)
    result = run_suite(SuiteConfig(ks=(1,), suites=("spinor_torus",))).suites[0]
    monkeypatch.undo()
    assert result.checks == 121
    assert [f.inputs for f in result.failures] == [{"k": "1", "n": "2"}, {"k": "1", "n": "3"}]
    assert all(f.expected == "every point killed by n" for f in result.failures)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_column_records_match_one_record_per_item_and_column(data):
    # One or two verdict columns, each with no, some or every item false,
    # after a failing record that both checkers already hold.
    size = data.draw(st.integers(0, 12))
    columns = []
    for c in range(data.draw(st.integers(1, 2))):
        falses = data.draw(st.sampled_from(["none", "some", "all"]))
        verdicts = {
            "none": [True] * size,
            "all": [False] * size,
            "some": data.draw(st.lists(st.booleans(), min_size=size, max_size=size)),
        }[falses]
        columns.append((verdicts, f"column {c}", lambda t, c=c: f"item {t} in column {c}"))
    actor = CliffordElement.generator(Signature(2, 0), 1)

    def inputs(t):
        return {"actor": actor, "item": t}

    by_columns, by_items = suite._Checker("scan:k=1", 1), suite._Checker("scan:k=1", 1)
    for checker in (by_columns, by_items):
        checker.record(False, "before", "the scan")
    by_columns.record_columns(inputs, *columns)
    for t in range(size):
        for verdicts, expected, actual in columns:
            by_items.record(verdicts[t], expected, lambda: actual(t), inputs(t))
    assert by_columns.checks == by_items.checks == 1 + size * len(columns)
    assert by_columns.failures == by_items.failures
    assert by_columns.failures[1:] == [
        Failure({"k": "1", "actor": "e1", "item": str(t)}, expected, f"item {t} in column {c}")
        for t in range(size)
        for c, (verdicts, expected, _) in enumerate(columns)
        if not verdicts[t]
    ]
    with pytest.raises(ValueError):
        by_columns.record_columns(inputs, ([True], "one", str), ([True, True], "two", str))


def test_the_relations_record_fails_on_a_ladder_that_breaks_them(monkeypatch):
    # gamma_1 times i squares to -1 where q(e_1) = +1; the private constructor takes the ladder as given.
    def broken_generators(k, sig=None):
        table = build_generators(k, sig)
        ladder = table.ladder_gamma
        return RepresentationTable._of(table.sig, (ladder[0].phased(1),) + ladder[1:])

    config = SuiteConfig(ks=(1,), suites=("spinor_rep",))
    checks = run_suite(config).suites[0].checks
    monkeypatch.setattr(suite, "build_generators", broken_generators)
    result = run_suite(config).suites[0]
    monkeypatch.undo()
    assert result.checks == checks
    assert Failure(inputs={"k": "1"}, expected="Clifford relations", actual="False") in result.failures


def test_cli_build_summary(capsys):
    assert main(["build", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "signed-blade group: 16 (orders 1/2/4: 1/7/8)" in out
    assert "gamma[1] = [[0, 1], [1, 0]]" in out
    assert "gamma[2] = [[0, -i], [i, 0]]" in out
    assert "blade-image rank: 4 of 4" in out


def test_cli_verify_text_and_exit_codes(capsys):
    assert main(["verify", "--k", "1", "--suite", "clifford_core,spinor_rep"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] clifford_core:k=1" in out
    assert "result: PASS" in out

    # the endomorphism audit reports a genuine gap, so strict mode refuses to pass
    assert main(["verify", "--k", "1", "--strict"]) == 1
    captured = capsys.readouterr()
    assert "proper containment" in captured.err


def test_cli_verify_honours_a_cap_below_the_two_torsion_count(capsys):
    # k=1 has 16 two-torsion points, whose numerators over 2 are the 16
    # order-2 classes: the point scans (clifford_action, and endo_decomp's
    # transported one) and the class scan all read the seeded sample, under
    # one warning.
    assert main(["verify", "--k", "1", "--cap", "4"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert out.count("the exhaustive scan would take 16 points, over the enumeration cap 4") == 1
    assert "order-2 bundle scan" not in out
    # One class-scan record per actor, as many as without the cap.
    assert "[PASS] dual_picard:k=1          checks=930 " in out


# A 0.1.0 report at an indefinite signature, in the layout that version wrote:
# the torus suites skipped there, with checks 0, a reason and no statements.
PRE_0_2_REPORT = """{
  "meta": {
    "k": [
      1
    ],
    "signature": [
      "1,1"
    ],
    "lattice": "default",
    "seed": 1729,
    "version": "0.1.0",
    "cap": 1048576,
    "points_per_k": 100,
    "classes_per_k": 100,
    "suites": [
      "clifford_core",
      "spinor_torus"
    ],
    "strict": false,
    "representation": "tensor ladder over X/Y/Z"
  },
  "suites": [
    {
      "name": "clifford_core:k=1",
      "passed": true,
      "checks": 129,
      "failures": [],
      "ms": null,
      "statements": [
        "(uv)w = u(vw)"
      ]
    },
    {
      "name": "spinor_torus:k=1",
      "passed": true,
      "checks": 0,
      "failures": [],
      "ms": null,
      "skipped": true,
      "reason": "needs a positive-definite signature"
    }
  ],
  "index": null,
  "warnings": []
}
"""


def test_cli_report_reads_a_pre_0_2_report_with_a_skipped_suite(capsys, tmp_path):
    saved = tmp_path / "old.json"
    saved.write_text(PRE_0_2_REPORT)
    assert main(["report", "--json", str(saved), "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == saved.read_bytes()

    assert main(["report", "--json", str(saved)]) == 0
    out = capsys.readouterr().out
    assert "[SKIP] spinor_torus:k=1         needs a positive-definite signature" in out
    assert "[PASS] clifford_core:k=1" in out
    assert "result: PASS (2 suites, 129 checks)" in out


def test_cli_verify_json_output(capsys, tmp_path):
    target = tmp_path / "report.json"
    assert main(["verify", "--k", "1", "--format", "json", "--json", str(target)]) == 0
    out = capsys.readouterr().out
    assert out.encode() == target.read_bytes()
    doc = json.loads(out)
    assert doc["index"]["index"] == "16"
    assert '"index": "16"' in out

    second = tmp_path / "second.json"
    assert main(["verify", "--k", "1", "--format", "json", "--json", str(second)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == second.read_bytes()


def test_cli_report_round_trip(capsys, tmp_path):
    target = tmp_path / "report.json"
    assert main(["verify", "--k", "1", "--json", str(target)]) == 0
    capsys.readouterr()

    assert main(["report", "--json", str(target), "--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == target.read_bytes()

    assert main(["report", "--json", str(target), "--strict"]) == 1
    assert "strict: the endomorphism audit reports a proper containment" in capsys.readouterr().err

    corrupted = tmp_path / "broken.json"
    corrupted.write_text("{not json")
    assert main(["report", "--json", str(corrupted)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_torsion(capsys):
    assert main(["torsion", "2", "--k", "1", "--count-only"]) == 0
    assert "n=2 k=1: 16 points" in capsys.readouterr().out
    assert main(["torsion", "2", "--k", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 17
    assert "1/2+1/2i, 1/2+1/2i" in lines[-1]


def test_cli_act(capsys):
    assert main(["act", "e1*e2", "1/4, 0"]) == 0
    assert capsys.readouterr().out == "image: 1/4i, 0\n"

    assert main(["act", "e1*e2", "1/4, 0", "--orbit"]) == 0
    out = capsys.readouterr().out
    assert "order: 4" in out
    assert "M: 3/4+1/4i, 0" in out
    assert "N: 3/4+3/4i, 0" in out
    assert "orbit[4]: 1/4, 0" in out

    # a phased actor, -i*e1*e2, reads back as a signed blade too
    assert main(["act", "0 - i*e1*e2", "1/8, 3/8", "--orbit"]) == 0
    system = translation_system(
        GeneratorGroupElement(0b11, 3), parse_point("1/8, 3/8", 1), build_generators(1)
    )
    expected = [
        f"image: {system.orbit[1]}",
        f"order: {system.order}",
        f"M: {system.first_translation}",
        f"N: {system.second_translation}",
    ] + [f"orbit[{step}]: {q}" for step, q in enumerate(system.orbit)]
    assert capsys.readouterr().out.splitlines() == expected

    # integral and lattice-preserving, but not a signed blade
    assert main(["act", "(1+i)*e1", "1/4, 0", "--orbit"]) == 2
    assert "needs a signed blade" in capsys.readouterr().err


def test_cli_act_rejects_bad_inputs(capsys):
    assert main(["act", "1/2 * e1", "1/4, 0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["act", "e1 + @", "1/4, 0"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["act", "1", "1/4, 0", "--orbit"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["act", "e1", "1/4", "--k", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_dual(capsys):
    assert main(["dual", "1/2, 0"]) == 0
    assert capsys.readouterr().out == "bundle: [0, 0, 1/2, 0]\n"

    assert main(["dual", "[0, 0, 1/2, 0]", "--act", "e1"]) == 0
    out = capsys.readouterr().out
    assert "bundle: [0, 0, 0, 1/2]" in out
    assert "point: 0, 1/2" in out

    assert main(["dual", "1/2, 0", "--act", "e1*e2"]) == 0
    assert capsys.readouterr().out == "point: 1/2i, 0\nbundle: [1/2, 0, 0, 0]\n"


def test_cli_dual_builds_no_table_without_an_actor(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a dual query without --act built a representation table")

    monkeypatch.setattr(cli, "build_generators", refuse)
    assert main(["dual", "1/2, 0"]) == 0
    assert capsys.readouterr().out == "bundle: [0, 0, 1/2, 0]\n"
    assert main(["dual", "[0, 0, 1/2, 0]"]) == 0
    assert capsys.readouterr().out == "point: 1/2, 0\n"


def test_cli_lattice_files(capsys, tmp_path):
    shear = tmp_path / "shear.json"
    shear.write_text('[["1", "i"], ["0", "1"]]')
    assert main(["verify", "--k", "1", "--lattice", str(shear), "--suite", "spinor_torus"]) == 0
    capsys.readouterr()

    assert main(["act", "e1", "1/4, 0", "--lattice", str(shear)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text('[["1", "i"], ["0"]]')
    assert main(["verify", "--k", "1", "--lattice", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err

    missing = tmp_path / "missing.json"
    assert main(["verify", "--k", "1", "--lattice", str(missing)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_malformed_ranges(capsys):
    for bad in ("x", "2,1", "0", "1.."):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--k", bad])
        assert err.value.code == 2
        assert "--k" in capsys.readouterr().err


def test_cli_main_reuses_one_parser_and_answers_as_fresh_ones_do(capsys):
    queries = [
        ["act", "e1*e2", "1/4, 0", "--orbit"],
        ["act", "e1", "1/4, 0", "--k", "x"],
        ["dual", "[0, 0, 1/2, 0]", "--act", "e1"],
    ]

    def answer(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in queries:
        cli.build_parser.cache_clear()
        fresh.append(answer(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 0]
    cli.build_parser.cache_clear()
    assert [answer(argv) for argv in queries + queries] == fresh + fresh
    assert cli.build_parser.cache_info().misses == 1


def test_cli_unknown_suite(capsys):
    assert main(["verify", "--k", "1", "--suite", "no_such_suite"]) == 2
    assert "error:" in capsys.readouterr().err


def test_every_group_element_renders_to_an_actionable_expression(capsys):
    # failure records name actors with the same grammar the act command reads
    sig = Signature(2, 0)
    for g in generator_group(sig):
        src = element_source(g.to_element(sig))
        assert main(["act", src, "1/4, 1/8+3/8i"]) == 0
        assert capsys.readouterr().out.startswith("image: ")
