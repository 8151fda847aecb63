"""JSON reports pinned byte for byte.

The files under ``golden/`` are ``spintorus verify --k 1 --format json``,
the same with ``--lattice`` holding ``[["1","i"],["0","1"]]``, and
``spintorus verify --k 2 --suite spinor_torus,clifford_action,dual_picard
--format json``, whose exhaustive two-torsion scans and bundle systems run
on blocks of points. Two more pin the algebra suites, whose Clifford
products, signed-blade group and spinor images the torus suites do not
reach: ``spintorus verify --k 3 --suite clifford_core,spinor_rep,endo_decomp
--format json`` and ``spintorus verify --k 2 --signature 3,1 --suite
clifford_core,spinor_rep --format json`` in an indefinite signature. One
more, ``spintorus verify --k 4 --suite endo_decomp --format json``, pins
the endomorphism audit one k further: all 512 Smith divisors, the index and
the determinant norm, and ``spintorus verify --k 4 --suite
clifford_core,spinor_rep --format json`` pins the Clifford products, the
signed-blade group and the spinor images at the same k. The last,
``spintorus verify --k 2 --signature 3,1 --suite
spinor_torus,clifford_action,dual_picard,endo_decomp --format json``, pins
the torus suites and the audit in that indefinite signature, where the
signed blades act by the same signed permutations as at (4, 0) and the
torus suites check as many statements. A refactor that keeps every verdict,
check count and failure text keeps these bytes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from spintorus import GaussianRational, LatticeSpec, Matrix, SuiteConfig, emit_report, run_suite

GOLDEN = Path(__file__).parent / "golden"
SHEAR = LatticeSpec(1, Matrix([[1, GaussianRational(0, 1)], [0, 1]]))
TORUS_SUITES = ("spinor_torus", "clifford_action", "dual_picard")
ALGEBRA_SUITES = ("clifford_core", "spinor_rep", "endo_decomp")


@pytest.mark.parametrize(
    ("name", "config"),
    [
        ("verify_k1.json", SuiteConfig(ks=(1,))),
        ("verify_k1_shear.json", SuiteConfig(ks=(1,), lattice=SHEAR)),
        ("verify_k2_torus.json", SuiteConfig(ks=(2,), suites=TORUS_SUITES)),
        ("verify_k3_algebra.json", SuiteConfig(ks=(3,), suites=ALGEBRA_SUITES)),
        (
            "verify_k2_sig31_algebra.json",
            SuiteConfig(ks=(2,), signature=(3, 1), suites=ALGEBRA_SUITES[:2]),
        ),
        ("verify_k4_endo.json", SuiteConfig(ks=(4,), suites=("endo_decomp",))),
        ("verify_k4_algebra.json", SuiteConfig(ks=(4,), suites=ALGEBRA_SUITES[:2])),
        (
            "verify_k2_sig31_torus.json",
            SuiteConfig(ks=(2,), signature=(3, 1), suites=TORUS_SUITES + ("endo_decomp",)),
        ),
    ],
    ids=[
        "default", "shear", "k2-torus", "k3-algebra", "k2-sig31-algebra", "k4-endo", "k4-algebra", "k2-sig31-torus",
    ],
)
def test_report_matches_the_golden_file(name, config):
    report = run_suite(config)
    assert emit_report(report) == (GOLDEN / name).read_bytes()
