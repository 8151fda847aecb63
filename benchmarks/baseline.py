"""Record a baseline: run the benchmark over seeds 1 to 10 and summarise the spread.

    python3 benchmarks/baseline.py --out benchmarks/baseline.json

Each workload of BENCHMARK.json runs once per seed in its own process,
untraced, for the ``run_seconds`` of BENCHMARK.json; one traced run with
seed 1 follows. For every metric the summary holds its median,
first and third quartile (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    record["correct"] = result["correct"]
    record["meta"]["run_elapsed_s"] = time.perf_counter() - started
    return record


def summarise(records: list[dict]) -> dict:
    out = {}
    for name, first in records[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in records]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        records = []
        for seed in SEEDS:
            records.append(run_once(name, seed, spec["run_seconds"], 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={records[-1]['metrics'][m]['value']:.4g}" for m in bounds), flush=True)
        entry = {
            "meta": [r["meta"] for r in records],
            "properties": records[0]["properties"],
            "all_correct": all(r["correct"] for r in records),
            "end_to_end": summarise(records),
        }
        for metric, bound in bounds.items():
            stats = entry["end_to_end"][metric]
            print(f"  {metric}: median {stats['median']:.4g} {stats['unit']}, spread {stats['spread']:.3f} "
                  f"(bound {bound})", flush=True)
        traced = run_once(name, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer"] = traced["metrics"]
        entry["properties"] = traced["properties"]
        summary["workloads"][name] = entry
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
