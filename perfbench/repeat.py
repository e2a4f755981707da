"""Run one workload under several seeds and print each metric's spread.

Usage (from the repository root)::

    python3 perfbench/repeat.py --workload http_json_seq --seeds 1-10 --seconds 10

For each metric it prints the median over the runs and the distance between
the first and third quartile as a share of the median, the same rule a
steadiness check applies to the benchmark.  Each run's line also shows the
CPU steal share and the host probe (``run.host_probe_ms``) from the run's
summary, so that a step in the host's own speed can be told apart.  Runs go one after another, never
in parallel, so they do not compete for the CPUs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args()
    first, last = (int(part) for part in arguments.seeds.split("-"))

    values = {}
    for seed in range(first, last + 1):
        completed = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", arguments.workload, "--seed", str(seed),
                "--seconds", str(arguments.seconds), "--trace", str(arguments.trace),
            ],
            capture_output=True,
            text=True,
            cwd=HERE.parent,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        summary = HERE.parent / ".perfbench_runs" / f"{arguments.workload}-s{seed}-t{arguments.trace}.json"
        host = json.loads(summary.read_text())["manifest"]
        probe = host["host_probe_ms"][0]
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} "
            + " ".join(f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items())
            + f" | steal={host['cpu_steal_share']:.3f} host_python_ms={probe['python_ms']:.2f}"
            f" host_blas_ms={probe['blas_ms']:.2f}",
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"\n{'metric':<40} {'median':>12} {'spread':>8}")
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) > 1 else float("nan")
        print(f"{name:<40} {statistics.median(series):>12.4f} {spread:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
