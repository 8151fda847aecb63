"""The benchmark tracer's hooks still find every name it looks up in the package.

The tracer in ``benchmarks/layers.py`` reads call counts by the code objects
of named functions and wraps the lattice conjugation functions wherever a
module imported them. A renamed or removed function breaks a traced run,
so one short traced pass runs here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from spintorus import SuiteConfig, action, picard, run_suite

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(ROOT / "benchmarks"))

import layers  # noqa: E402


def test_a_traced_pass_reports_every_per_layer_metric_and_unhooks():
    group_lattice_matrix, lattice_matrix = picard.group_lattice_matrix, action.lattice_matrix
    with layers.Tracer() as tracer:
        report = run_suite(SuiteConfig(ks=(1,), suites=("clifford_action", "dual_picard")))
    checks = sum(s.checks for s in report.suites)
    metrics = tracer.metrics(tracer.wall_s, checks=checks, failures_kept=0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert picard.group_lattice_matrix is group_lattice_matrix
    assert action.lattice_matrix is lattice_matrix
    assert report.all_passed()
