"""Percentile summaries shared by the workloads and the tracer."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10

#: Tail percentiles tried from the highest down.
TAIL_PERCENTILES = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], pct: float) -> float:
    """``np.percentile`` of the samples; NaN when there are none."""

    return float(np.percentile(samples, pct)) if len(samples) else float("nan")


def supported_tail(count: int) -> float:
    """Highest percentile in TAIL_PERCENTILES with MIN_TAIL_SAMPLES beyond it.

    Returns 0.0 when even the median is unsupported.
    """

    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES:
            return pct
    return 0.0


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Count, median, p95, p99, mean and the highest supported tail percentile."""

    return {
        "n": len(samples),
        "p50": percentile(samples, 50.0),
        "p95": percentile(samples, 95.0),
        "p99": percentile(samples, 99.0),
        "mean": statistics.fmean(samples) if samples else float("nan"),
        "tail_pct": supported_tail(len(samples)),
    }


def block_percentiles(samples: Sequence[float], blocks: int) -> Dict[str, float]:
    """p50 and p95 as medians over ``blocks`` consecutive, equal blocks of samples.

    The samples are in the order they were taken.  A disturbance that covers
    less than half the blocks (a few seconds of a busy host) then leaves both
    figures where the undisturbed blocks put them.  One block gives the plain
    percentiles of all samples.
    """

    if not len(samples):
        return {"p50": float("nan"), "p95": float("nan")}
    parts = np.array_split(np.asarray(samples, dtype=np.float64), max(1, min(blocks, len(samples))))
    return {
        "p50": float(np.median([np.percentile(part, 50.0) for part in parts])),
        "p95": float(np.median([np.percentile(part, 95.0) for part in parts])),
    }


def quartile_spread(values: List[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""

    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")
