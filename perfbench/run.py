"""The repository benchmark: one command per workload run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload http_json_seq --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload twice, plain and then with span wrappers
installed, and prints the per-layer metrics of the traced run plus the
tracing overhead (traced minus plain end-to-end numbers).  The last line of
standard output is one JSON object; the lines before it are a readable
report with the run manifest, every metric with its unit and sample count,
and the output-check failures.  See ``perfbench/README.md`` for the
workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "GOTO_NUM_THREADS",
)

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: End-to-end metrics (``--trace 0``): name -> unit, as listed in BENCHMARK.json.
END_TO_END = {metric["name"]: metric["unit"] for metric in _SPEC["end_to_end"]}
#: Per-layer metrics (``--trace 1``): name -> unit, as listed in BENCHMARK.json.
PER_LAYER = {metric["name"]: metric["unit"] for metric in _SPEC["per_layer"]}

#: What each workload's end-to-end metrics measure.
DEFINITIONS = {
    "http_json_seq": "operation = one POST /v1/predict, wire to wire; fixed work = "
    "240 requests per --seconds, split over 3 servers; medians over 15 blocks of requests",
    "socket_open_mixed": "operation = one frame request, timed from its due time on the "
    "200 req/s rung, medians over 6 blocks; fixed work = a 300-frame burst, median of 3",
    "paper_whitebox": "operation = one RP2 attack step; fixed work = one "
    "run_whitebox_evaluation call",
}


def manifest(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    """What the run ran on: CPUs, versions, source revision and thread settings."""

    import hashlib

    import numpy as np

    blas = "unknown"
    try:
        dependencies = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dependencies.get('name')} {dependencies.get('version')}"
    except (TypeError, KeyError):  # NumPy < 2 has no dict mode
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def _git_commit() -> str:
    """HEAD's commit read from ``.git`` in the checkout (no git process, no parent dirs)."""

    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_times() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies), empty where absent."""

    try:
        with open("/proc/stat") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except OSError:
        return []


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between two readings."""

    if len(before) < 8 or len(after) < 8:
        return float("nan")
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def host_probe_ms() -> Dict[str, float]:
    """How fast the host runs fixed work right now: a Python loop and a BLAS matmul.

    Median of five timings each, in ms.  The program is not involved; the
    figures show when the host itself got faster or slower between runs.
    """

    import numpy as np

    matrix = np.random.default_rng(0).random((256, 256))
    python_ms, blas_ms = [], []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        python_ms.append((time.perf_counter() - started) * 1000.0)
        started = time.perf_counter()
        for _ in range(20):
            matrix @ matrix
        blas_ms.append((time.perf_counter() - started) * 1000.0)
    return {"python_ms": statistics.median(python_ms), "blas_ms": statistics.median(blas_ms)}


def end_to_end(outcome: Dict[str, object]) -> Dict[str, Tuple[float, int, str]]:
    """name -> (value, sample count, note)."""

    from stats import block_percentiles

    samples, blocks = outcome["latency_ms"], outcome["latency_blocks"]
    peaks = outcome["peak_rss_mb"]
    latency = block_percentiles(samples, blocks)
    over = f" of {len(samples)}" + (f", median over {blocks} blocks" if blocks > 1 else "")
    return {
        "setup_s": (statistics.median(outcome["setup_s"]), len(outcome["setup_s"]), "median"),
        "wall_s": (outcome["wall_s"], outcome["wall_n"], outcome["wall_note"]),
        "latency_p50_ms": (latency["p50"], len(samples), "p50" + over),
        "latency_p95_ms": (latency["p95"], len(samples), "p95" + over),
        "peak_rss_mb": (statistics.median(peaks), len(peaks), "median" if len(peaks) > 1 else ""),
    }


def latency_p99(outcome: Dict[str, object]) -> Tuple[float, int, str]:
    """The p99 printed beside the bounded metrics, with how well it is supported."""

    from stats import summarize

    latency = summarize(outcome["latency_ms"])
    note = f"report only; p99 of {latency['n']}"
    if latency["tail_pct"] < 99.0:
        note += ", fewer than 10 samples beyond it"
    return latency["p99"], latency["n"], note


def per_layer(layers: Dict[str, object], overhead: Dict[str, float]) -> Dict[str, Tuple[float, int, str]]:
    """name -> (value, sample count, note); 0 with a note where a layer is off the path."""

    from stats import summarize

    result: Dict[str, Tuple[float, int, str]] = {}
    for name in PER_LAYER:
        if name.startswith("trace_overhead."):
            result[name] = (overhead[name.split(".", 1)[1]], 1, "traced minus plain")
            continue
        base, _, statistic = name.rpartition(".")
        if statistic in ("p50", "p99", "mean") and isinstance(layers.get(base), list):
            samples = layers[base]
        elif isinstance(layers.get(name), list):
            samples, statistic = layers[name], "p50"
        elif name in layers:
            result[name] = (float(layers[name]), 1, "")
            continue
        else:
            result[name] = (0.0, 0, "not on this workload's path")
            continue
        if not samples:
            result[name] = (0.0, 0, "no spans on this workload")
            continue
        summary = summarize(samples)
        note = f"{statistic} of {summary['n']}"
        if statistic == "p99" and summary["tail_pct"] < 99.0:
            note += f"; highest supported is p{summary['tail_pct']:g}"
        result[name] = (summary[statistic], summary["n"], note)
    return result


def run_workload(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path):
    import research
    import serving

    functions = {
        "http_json_seq": serving.http_json_seq,
        "socket_open_mixed": serving.socket_open_mixed,
        "paper_whitebox": research.paper_whitebox,
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    return functions[workload](seed, seconds, trace, run_dir)


def _print_table(title: str, rows: Dict[str, Tuple[float, int, str]], units: Dict[str, str]) -> None:
    print(f"\n{title}")
    for name, (value, count, note) in rows.items():
        print(f"  {name:<44} {value:>14.4f} {units[name]:<9} n={count:<6} {note}")


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFINITIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if arguments.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "serve" / "__main__.py").exists():
        print(f"error: no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Servers drain and exit on SIGINT.  A shell that starts this command in
    # the background passes SIGINT on as ignored, and every server would
    # inherit that; a caught signal is reset to the default in each child.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    info = manifest(arguments.workload, arguments.seed, arguments.seconds, arguments.trace)
    print("manifest " + json.dumps(info))
    cpu_before = cpu_times()
    probe_before = host_probe_ms()
    print(f"workload {arguments.workload}: {DEFINITIONS[arguments.workload]}")
    runs = ROOT / ".perfbench_runs"
    run_dir = runs / f"{arguments.workload}-s{arguments.seed}-t{arguments.trace}-{os.getpid()}"
    passes = [False, True] if arguments.trace else [False]
    outcomes = []
    try:
        for traced in passes:
            outcomes.append(
                run_workload(
                    arguments.workload,
                    arguments.seed,
                    arguments.seconds,
                    traced,
                    run_dir / ("traced" if traced else "plain"),
                )
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(outcome["attempted"] for outcome in outcomes)
    failures = [failure for outcome in outcomes for failure in outcome["failures"]]
    e2e = [end_to_end(outcome) for outcome in outcomes]
    units = dict(END_TO_END)
    for label, metrics, outcome in zip(("plain", "traced"), e2e, outcomes):
        extras = {"latency_p99_ms": latency_p99(outcome)}
        extras.update(
            (name, (value, count, "")) for name, (value, _unit, count) in outcome["extra"].items()
        )
        extras["error_share"] = (
            len(outcome["failures"]) / outcome["attempted"], outcome["attempted"], "failed / attempted"
        )
        units.update({name: unit for name, (_v, unit, _c) in outcome["extra"].items()})
        units["error_share"] = "fraction"
        units["latency_p99_ms"] = "ms"
        _print_table(f"end-to-end ({label})", {**metrics, **extras}, units)
        for key in ("rungs", "bursts_s", "lateness", "repeat_share", "final_losses", "rows"):
            if key in outcome:
                print(f"  {key}: {json.dumps(outcome[key])}")
    if arguments.trace:
        overhead = {name: e2e[1][name][0] - e2e[0][name][0] for name in END_TO_END}
        layers = per_layer(outcomes[1]["layers"], overhead)
        _print_table("per-layer (traced run)", layers, PER_LAYER)
        print(
            "  not measured: the forward and pipe time inside each process-shard worker "
            "(spans there stay in the worker; tracing inside the program is a later change)"
        )
        print("\nspan self time (traced run)")
        for row in outcomes[1]["layers"].get("span_table", []):
            print(
                f"  {row['span']:<28} count={row['count']:<7} total={row['total_ms']:>11.2f} ms "
                f"self={row['self_ms']:>11.2f} ms p50={row['p50_ms']:.4f} ms"
            )
        metrics = {name: {"value": value, "unit": PER_LAYER[name]} for name, (value, _n, _note) in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": units[name]} for name, (value, _n, _note) in e2e[0].items()}
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    if len(failures) > 20:
        print(f"  ... and {len(failures) - 20} more failures")
    valid = all(outcome.get("lateness", {}).get("valid", True) for outcome in outcomes)
    if not valid:
        print("  INVALID: the load generator ran late (lateness p99 above its limit)")
    result = {
        "correct": not failures and valid,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    info["cpu_steal_share"] = steal_share(cpu_before, cpu_times())
    info["host_probe_ms"] = [probe_before, host_probe_ms()]
    print(f"  cpu steal share during the run: {info['cpu_steal_share']:.4f}")
    print(f"  host probe before and after the run (ms): {json.dumps(info['host_probe_ms'])}")
    runs.mkdir(exist_ok=True)
    summary_path = runs / f"{arguments.workload}-s{arguments.seed}-t{arguments.trace}.json"
    summary_path.write_text(json.dumps({"manifest": info, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
