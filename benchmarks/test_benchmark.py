"""Tests of the benchmark itself: python3 -m pytest benchmarks

They are not part of the package's test suite (pytest's testpaths is
``tests``) because the smoke run alone takes about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import spintorus.picard  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_smoke_passes_every_workload():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count(": ok ") == len(workloads.WORKLOAD_NAMES)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOAD_NAMES)


def test_trace_reports_every_layer_metric_and_adds_up():
    workload = workloads.make("orbit-lattice", 5)
    untraced = workload.run_pass()
    with layers.Tracer() as tracer:
        traced = workload.run_pass()
    assert untraced.failed == traced.failed == 0
    metrics = tracer.metrics(untraced.wall_s, checks=traced.checks, failures_kept=traced.failure_records)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    parts = sum(metrics[f"{layer}.self_s"][0] for layer in layers.LAYERS)
    parts += metrics["scalars.fraction_self_s"][0] + metrics["other.self_s"][0]
    assert abs(parts - metrics["trace.wall_s"][0]) < 1e-6
    # 16 two-torsion points times 15 actors of order 2 or 4, per seed.
    assert metrics["action.two_torsion_points_checked"][0] == workload.seeds_per_pass * 16 * 15
    # The conjugation counters are unhooked once the pass ends.
    assert spintorus.picard.group_lattice_matrix.__name__ == "group_lattice_matrix"


def test_end_to_end_metrics_cover_the_spec():
    workload = workloads.make("cli-queries", 2)
    passes = [workload.run_pass(sample_speed=True)]
    metrics = run.end_to_end(passes, [(0.4, 0.5)])
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(metrics)
    assert metrics["setup_s"][0] == 0.4 and metrics["measured_setup_s"][0] == 0.5
    assert metrics["wall_s"][0] > 0
    assert metrics["failed_ratio"][0] == 0.0
    assert metrics["query_samples"][0] == sum(count for _, _, count in workloads.QUERY_MIX)


def test_wrong_answer_counts_as_failure():
    workload = workloads.make("cli-queries", 3)
    query = next(q for q in workload.queries if q.expected)
    query.expected = query.expected + ["extra line"]
    _, error = workload.run_one(query)
    assert error and "wrong answer" in error


def test_wrong_check_count_counts_as_failure():
    workload = workloads.make("orbit-lattice", 1)
    workload.seeds_per_pass = 1
    workload.expected_checks = {**workload.expected_checks, "dual_picard:k=1": 931}
    result = workload.run_pass()
    assert result.failed == 1
    assert "check counts" in result.errors[0]


def test_query_costs_do_not_depend_on_the_seed():
    def profile(seed):
        queries = workloads.make("cli-queries", seed).queries
        return sorted((q.kind, q.k, sorted(re.findall(r"/(\d+)", " ".join(q.argv)))) for q in queries)

    assert profile(1) == profile(2)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "orbit-lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_adjustment_scales_by_the_sampled_speed():
    speed = hostspeed.SpeedSampler()
    assert speed.adjust(2.0) == 2.0
    # Every reading twice the nominal time: the host ran at half speed, so
    # the same work would take half as long at the nominal speed.
    speed.samples = [2 * hostspeed.NOMINAL_REF_S] * 4
    assert abs(speed.adjust(2.0) - 1.0) < 1e-12
    with hostspeed.SpeedSampler() as speed:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(speed.samples) >= 5
