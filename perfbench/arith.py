"""The benchmark's own arithmetic: percentiles, self time, failure share and
declared work. Pure functions, tested in test_perfbench.py."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

# Percentiles a timing may report as its tail, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    # Exact, so that for example p99.9 of 10000 samples ranks 9990th.
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    return sorted(samples)[_rank(p, len(samples)) - 1]


def tail_percentile(n: int) -> float | None:
    """Highest percentile of TAIL_LADDER with at least MIN_BEYOND of n
    samples ranked above it, or None when n is too small for any."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return None


def summarize(samples: Sequence[float]) -> dict:
    """p50, the tail percentile and its value, and the sample count."""
    n = len(samples)
    if n == 0:
        return {"p50": None, "tail_pct": None, "tail": None, "n": 0}
    p = tail_percentile(n)
    return {
        "p50": percentile(samples, 50.0),
        "tail_pct": p,
        "tail": None if p is None else percentile(samples, p),
        "n": n,
    }


def covered(interval: tuple[float, float], parts: Iterable[tuple[float, float]]) -> float:
    """Length of `interval` covered by the union of `parts` (which may nest,
    overlap or stick out of it)."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(interval: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (interval[1] - interval[0]) - covered(interval, children)


def fail_share(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones; an operation is a command run
    or an output check, and it fails on a non-zero exit or a failed check."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in 0..attempted")
    return failed / attempted


def declared_candidates(config: Mapping, stages: Iterable[str]) -> int:
    """Candidate checkpoints an experiment config declares for the stages a
    workload times.

    train-grid declares one labeller candidate per grid point and epoch. tune
    declares one per epoch of every stage-2 run in the grid: each
    (stage-1 point, T <= its epochs, lambda, stage-2 point) combination plus
    the plain stage-2 baseline sweep. The count comes from the config alone,
    so work the program deduplicates or caches still counts as declared.
    """
    stages = set(stages)
    total = 0
    if "train-grid" in stages:
        total += sum(hp.get("epochs", 1) for hp in config["labeller_grid"])
    if "tune" in stages:
        jtt = config["jtt"]
        stage2_epochs = sum(hp.get("epochs", 1) for hp in jtt["stage2_grid"])
        settings = sum(
            1 for s1 in jtt["stage1_grid"] for t in jtt["t_grid"] if t <= s1.get("epochs", 1)
        )
        total += settings * len(jtt["lambda_grid"]) * stage2_epochs + stage2_epochs
    return total


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (statistics.quantiles, exclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
