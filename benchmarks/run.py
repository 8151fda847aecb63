"""spintorus benchmark: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload orbit-default --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload orbit-default --seed 1 --seconds 20 --trace 1
    python3 benchmarks/run.py --smoke

With ``--trace 0`` the run repeats whole passes of the workload for at most
``--seconds`` (always at least one), measures set-up in fresh processes
before, between and after them, and reports medians. Pass and set-up times
are reported adjusted to a nominal host speed (see hostspeed.py), and as
measured in the record line. With ``--trace 1`` it runs one
untraced pass and one cProfile-traced pass and reports the per-layer
metrics. ``--smoke`` runs one pass of every workload and checks correctness
only.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and the metrics named in BENCHMARK.json. The line
before it is a JSON record with run metadata, the per-suite check counts
that every pass was held to (plus the workload properties, in a traced run)
and every metric. The exit code is 1 when any operation failed and 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is timed in fresh interpreters: three before the first pass, one
# after every pass, and more after the last until there are six. The host's
# speed switches between a fast and a slow phase that each last seconds, so
# samples taken across the whole run make the median less a reading of one
# moment.
SETUP_BEFORE, SETUP_LEAST = 3, 6

# Set-up as a user pays it: a fresh interpreter imports the package and
# builds the table, lattice and polarization for each k of the workload.
# It prints when it ended, the time it spent sampling the host's speed and
# the factor that adjusts its time to the nominal speed.
_SETUP_CHILD = """
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
from hostspeed import SpeedSampler
with SpeedSampler() as speed:
    import spintorus{cli_import}
    from spintorus import PolarizationData, build_generators
    from workloads import lattice_from_rows
    for k in {ks!r}:
        build_generators(k)
        PolarizationData.default(lattice_from_rows(k, {rows!r}))
    ended = time.perf_counter()
print(ended, speed.busy_s(), speed.adjust(1.0))
"""


def _git_sha() -> str:
    # The ceiling keeps git from answering for a repository that merely encloses the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def measure_setup(workload, repeats: int) -> list[tuple[float, float]]:
    """Seconds from spawning a fresh interpreter to its first possible timed operation, once per repeat.

    Each sample is (adjusted, measured); the adjusted time leaves out the sampling time.
    """
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(Path(__file__).resolve().parent),
                               cli_import=", spintorus.cli" if workload.imports_cli else "",
                               ks=tuple(workload.ks), rows=workload.lattice_rows)
    samples = []
    for _ in range(repeats):
        # perf_counter is CLOCK_MONOTONIC on Linux, so the child's reading is comparable.
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        ended, busy_s, factor = (float(x) for x in done.stdout.split()[-3:])
        samples.append(((ended - started - busy_s) * factor, ended - started))
    return samples


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def run_passes(workload, seconds: float, after_pass) -> list:
    """Whole passes until the next one would overrun `seconds`; at least one.

    `after_pass()` runs after each pass, outside its timed span but inside `seconds`.
    """
    deadline = time.perf_counter() + seconds
    passes = []
    while not passes or time.perf_counter() + passes[-1].wall_s <= deadline:
        passes.append(workload.run_pass(sample_speed=True))
        after_pass()
    return passes


def end_to_end(passes, setup_samples: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    metrics = {
        "setup_s": (statistics.median(adjusted for adjusted, _ in setup_samples), "s"),
        "wall_s": (statistics.median(p.adjusted_s for p in passes), "s"),
        "measured_setup_s": (statistics.median(measured for _, measured in setup_samples), "s"),
        "measured_wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for name in passes[0].suite_s:
        metrics[f"suite.{name}_s"] = (statistics.median(p.suite_s[name] for p in passes), "s")
    latencies = [ms for p in passes for ms in p.query_ms]
    if latencies:
        metrics["query_p50_ms"] = (percentile(latencies, 0.5), "ms")
        metrics["query_p90_ms"] = (percentile(latencies, 0.9), "ms")
        metrics["query_samples"] = (len(latencies), "count")
    attempted = sum(p.attempted for p in passes)
    metrics["failed_ratio"] = (sum(p.failed for p in passes) / attempted if attempted else 1.0, "ratio")
    return metrics


def smoke(seed: int) -> int:
    import workloads

    status = 0
    for name in workloads.WORKLOAD_NAMES:
        result = workloads.make(name, seed).run_pass()
        ok = result.failed == 0 and result.attempted > 0
        status = status or (0 if ok else 1)
        print(f"smoke {name}: {'ok' if ok else 'FAILED'} attempted={result.attempted} "
              f"failed={result.failed} wall_s={result.wall_s:.3f}")
        for error in result.errors[:5]:
            print(f"  {error}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass of every workload, correctness only")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "spintorus" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a spintorus checkout; {SRC / 'spintorus'} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spintorus
    import workloads

    if Path(spintorus.__file__).resolve().parent != SRC / "spintorus":
        print(f"error: imported spintorus from {spintorus.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args.seed)
    if args.workload not in workloads.WORKLOAD_NAMES or args.seconds is None:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOAD_NAMES)}, and --seconds is required")
    spec = json.loads(spec_path.read_text())

    meta = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg_1m_start": os.getloadavg()[0],
    }
    workload = workloads.make(args.workload, args.seed)
    if args.trace == 0:
        setup_samples = measure_setup(workload, SETUP_BEFORE)
    workload.warm_up()

    if args.trace == 0:
        passes = run_passes(workload, args.seconds, lambda: setup_samples.extend(measure_setup(workload, 1)))
        setup_samples += measure_setup(workload, SETUP_LEAST - len(setup_samples))
        meta["setup_samples_s"] = setup_samples
        meta["pass_adjusted_s"] = [p.adjusted_s for p in passes]
        metrics = end_to_end(passes, setup_samples)
        wanted = spec["end_to_end"]
    else:
        import layers

        untraced = workload.run_pass()
        with layers.Tracer() as tracer:
            traced = workload.run_pass()
        passes = [untraced, traced]
        metrics = tracer.metrics(untraced.wall_s, checks=traced.checks, failures_kept=traced.failure_records)
        wanted = spec["per_layer"]
    meta["pass_wall_s"] = [p.wall_s for p in passes]
    meta["loadavg_1m_end"] = os.getloadavg()[0]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [error for p in passes for error in p.errors]
    for error in errors[:10]:
        print(f"error: {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit}")

    mismatched = [m["name"] for m in wanted if metrics.get(m["name"], (None, None))[1] != m["unit"]]
    if mismatched:
        print(f"error: no value, or a value in another unit than BENCHMARK.json gives, for {mismatched}",
              file=sys.stderr)
        return 2
    properties = {"suite_checks": getattr(workload, "expected_checks", None)}
    if args.trace == 1:
        # Static per workload, and 2.7 s to compute at k=4, so only traced runs pay for it.
        properties.update(workload.properties())
    record = {
        "meta": meta,
        "properties": properties,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"record": record}, sort_keys=True))
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
