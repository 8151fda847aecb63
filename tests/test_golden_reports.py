"""JSON reports pinned byte for byte.

The files under ``golden/`` are ``spintorus verify --k 1 --format json`` and
the same with ``--lattice`` holding ``[["1","i"],["0","1"]]``. A refactor
that keeps every verdict, check count and failure text keeps these bytes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from spintorus import GaussianRational, LatticeSpec, Matrix, SuiteConfig, emit_report, run_suite

GOLDEN = Path(__file__).parent / "golden"
SHEAR = LatticeSpec(1, Matrix([[1, GaussianRational(0, 1)], [0, 1]]))


@pytest.mark.parametrize(
    ("name", "lattice"), [("verify_k1.json", None), ("verify_k1_shear.json", SHEAR)], ids=["default", "shear"]
)
def test_report_matches_the_golden_file(name, lattice):
    report = run_suite(SuiteConfig(ks=(1,), lattice=lattice))
    assert emit_report(report) == (GOLDEN / name).read_bytes()
