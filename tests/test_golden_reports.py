"""JSON reports pinned byte for byte.

The files under ``golden/`` are ``spintorus verify --k 1 --format json``,
the same with ``--lattice`` holding ``[["1","i"],["0","1"]]``, and
``spintorus verify --k 2 --suite spinor_torus,clifford_action,dual_picard
--format json``, whose exhaustive two-torsion scans and bundle systems run
on blocks of points. A refactor that keeps every verdict, check count and
failure text keeps these bytes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from spintorus import GaussianRational, LatticeSpec, Matrix, SuiteConfig, emit_report, run_suite

GOLDEN = Path(__file__).parent / "golden"
SHEAR = LatticeSpec(1, Matrix([[1, GaussianRational(0, 1)], [0, 1]]))
TORUS_SUITES = ("spinor_torus", "clifford_action", "dual_picard")


@pytest.mark.parametrize(
    ("name", "config"),
    [
        ("verify_k1.json", SuiteConfig(ks=(1,))),
        ("verify_k1_shear.json", SuiteConfig(ks=(1,), lattice=SHEAR)),
        ("verify_k2_torus.json", SuiteConfig(ks=(2,), suites=TORUS_SUITES)),
    ],
    ids=["default", "shear", "k2-torus"],
)
def test_report_matches_the_golden_file(name, config):
    report = run_suite(config)
    assert emit_report(report) == (GOLDEN / name).read_bytes()
