"""Spans around calls into fairtune's modules, and the per-layer metrics
derived from them.

Nothing under src/ is edited: `Tracer.install` replaces the module
attributes the callers look up (for example `fairtune.cli.read_dataset`, the
name `cli._read_split` calls) with wrappers that record a span per call, and
`Tracer.uninstall` puts the originals back. Spans are kept in memory and
written out when the benchmark ends. Calls made inside forked pool workers
record into the worker's copy of the tracer and are lost; the traced `tune`
therefore runs with one job.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from arith import self_time, summarize


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict = field(default_factory=dict)


def _rows_of_result(args, kwargs, result) -> dict:
    return {"rows": int(result.n_rows)}


def _rows_of_first_arg(args, kwargs, result) -> dict:
    return {"rows": int(args[0].n_rows)}


def _bytes_of_written_file(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _candidate_count(args, kwargs, result) -> dict:
    return {"candidates": len(args[0])}


def _edm_lemma_rows(args, kwargs, result) -> dict:
    # verify_edm_lemma(majority, minority, grid, n_samples, ...): one mix of
    # n_samples rows per group and grid cell.
    return {"rows": 2 * len(args[2]) * int(args[3])}


def _proportionality_rows(args, kwargs, result) -> dict:
    # verify_proportionality(probe, majority, minority, spec, n_samples): a
    # DP mix and an EO mix, each n_samples rows per group.
    return {"rows": 4 * int(args[4])}


# (module, attribute its callers look up, span name, attributes from the call)
INSTRUMENTS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("fairtune.cli", "read_dataset", "data.read_dataset", _rows_of_result),
    ("fairtune.cli", "write_dataset", "data.write_dataset", _rows_of_first_arg),
    ("fairtune.cli", "save_model", "training.save_model", _bytes_of_written_file),
    ("fairtune.cli", "load_model", "training.load_model", None),
    ("fairtune.cli", "select_labeller", "labelling.select", _candidate_count),
    ("fairtune.cli", "grid_search", "tuning.grid_search", None),
    ("fairtune.cli", "verify_edm_lemma", "noise.edm_lemma", _edm_lemma_rows),
    ("fairtune.cli", "verify_proportionality", "noise.proportionality", _proportionality_rows),
    ("fairtune.labelling", "predict", "training.predict", None),
    ("fairtune.labelling", "edm", "labelling.edm", None),
    ("fairtune.noise", "predict", "training.predict", None),
    ("fairtune.tuning", "predict", "training.predict", None),
    ("fairtune.tuning", "_run_tasks", "tuning.sweep", None),
    ("fairtune.tuning", "train_erm", "tuning.train", None),
    ("fairtune.tuning", "train_upsampled", "tuning.train", None),
    ("fairtune.tuning", "report_from_predictions", "metrics.report", None),
    ("fairtune.tuning", "dp_gap", "metrics.objective", None),
    ("fairtune.tuning", "eo_gap", "metrics.objective", None),
    ("fairtune.tuning", "wga", "metrics.objective", None),
)


class Tracer:
    """In-memory span recorder; the open span is the parent of new ones."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = "run"
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        sp = Span(name, perf_counter(), math.nan, self._open[-1] if self._open else None, self.run)
        self.spans.append(sp)
        self._open.append(index)
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            self._open.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (micro-measures)."""
        self.spans.append(Span(name, start, end, self._open[-1] if self._open else None, self.run))

    def _wrapper(self, original, name: str, attrs: Callable | None):
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = original(*args, **kwargs)
            if attrs is not None:
                sp.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, attrs in INSTRUMENTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name, attrs))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp), sort_keys=True) + "\n")


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to the call it wraps: a wrapped no-op
    against the bare one, median over `repeats` rounds of `calls` calls."""

    def noop():
        return None

    wrapped = Tracer()._wrapper(noop, "noop", None)
    costs = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((perf_counter() - start - bare) / calls)
    return statistics.median(costs)


def classify_tuning_training(spans: list[Span]) -> None:
    """Rename `tuning.train` spans to `tuning.stage1` (before the sweep of
    the same grid search) or `tuning.rebuild` (after it: winner retrains)."""
    sweep_start = {sp.parent: sp.start for sp in spans if sp.name == "tuning.sweep"}
    for sp in spans:
        if sp.name == "tuning.train":
            before = sp.parent not in sweep_start or sp.end <= sweep_start[sp.parent]
            sp.name = "tuning.stage1" if before else "tuning.rebuild"


# Per-layer timing metrics, named after their span plus the unit of their
# values; each reports p50, n (samples) and self_s (summed self time).
TIMINGS: tuple[str, ...] = (
    "cli.import_s",
    "cli.prepare_s",
    "cli.train_grid_s",
    "cli.label_s",
    "cli.mc_sweep_s",
    "cli.tune_s",
    "cli.report_s",
    "data.read_dataset_ms",
    "data.write_dataset_ms",
    "training.grad_us",
    "training.epoch_ms",
    "training.save_model_ms",
    "training.load_model_ms",
    "training.predict_ms",
    "labelling.select_s",
    "labelling.edm_us",
    "metrics.report_us",
    "metrics.objective_us",
    "tuning.grid_search_s",
    "tuning.stage1_s",
    "tuning.rebuild_s",
    "tuning.tune_jobs1_s",
    "tuning.tune_jobs2_s",
    "noise.edm_lemma_s",
    "noise.proportionality_s",
)

# The timings that reach 20 samples on some workload, the fewest for which a
# tail (a percentile with at least 10 samples beyond it) exists; they also
# report `.tail`. The other layers run too few times per workload for one
# (`tuning.rebuild`, the most, 6-18 times over the seeds tried).
TAILED = frozenset(
    {
        "training.grad_us",
        "training.epoch_ms",
        "training.save_model_ms",
        "training.load_model_ms",
        "training.predict_ms",
        "labelling.edm_us",
        "metrics.report_us",
        "metrics.objective_us",
    }
)

# The set-up commands run traced, but of their spans only the command spans
# and the dataset writes count (they make up `setup_s`); every other layer
# reports the timed phase and the micro-measures alone.
SETUP_LAYERS = ("cli.", "data.write_dataset")

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def counted(sp: Span) -> bool:
    return sp.run != "setup" or sp.name.startswith(SETUP_LAYERS)


def _count(name: str) -> Callable[[list[Span], list[int]], int]:
    return lambda spans, idx: sum(1 for i in idx if spans[i].name == name)


def _total(attr: str, *names: str) -> Callable[[list[Span], list[int]], int]:
    return lambda spans, idx: sum(spans[i].attrs.get(attr, 0) for i in idx if spans[i].name in names)


def _scored_in_sweep(spans: list[Span], idx: list[int]) -> int:
    return sum(
        1
        for i in idx
        if spans[i].name == "training.predict"
        and spans[i].parent is not None
        and spans[spans[i].parent].name == "tuning.sweep"
    )


# Each count sees the spans and the indices of those that count.
COUNTS: tuple[tuple[str, Callable[[list[Span], list[int]], int]], ...] = (
    ("data.rows_read", _total("rows", "data.read_dataset")),
    ("data.rows_written", _total("rows", "data.write_dataset")),
    ("training.ckpts_written", _count("training.save_model")),
    ("training.ckpt_bytes", _total("bytes", "training.save_model")),
    ("training.predict_calls", _count("training.predict")),
    ("labelling.candidates", _total("candidates", "labelling.select")),
    ("labelling.edm_calls", _count("labelling.edm")),
    ("metrics.objective_calls", _count("metrics.objective")),
    ("tuning.winner_retrains", _count("tuning.rebuild")),
    ("tuning.candidates_scored", _scored_in_sweep),
    ("noise.rows_drawn", _total("rows", "noise.edm_lemma", "noise.proportionality")),
)


def self_times(spans: list[Span]) -> list[float]:
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return [self_time((sp.start, sp.end), children.get(i, ())) for i, sp in enumerate(spans)]


def layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer metric values from the spans that count (absent layers read
    0) and, per timing, its summary with the tail percentile used. Self time
    subtracts every child span, counted or not."""
    selfs = self_times(spans)
    idx = [i for i, sp in enumerate(spans) if counted(sp)]
    values: dict[str, float] = {}
    summaries: dict[str, dict] = {}
    for metric in TIMINGS:
        span_name, unit = metric.rsplit("_", 1)
        mine = [i for i in idx if spans[i].name == span_name]
        summary = summarize([(spans[i].end - spans[i].start) * _SCALE[unit] for i in mine])
        summary["self_s"] = sum(selfs[i] for i in mine)
        summaries[metric] = summary
        values[f"{metric}.p50"] = summary["p50"] or 0.0
        if metric in TAILED:
            values[f"{metric}.tail"] = summary["tail"] or 0.0
        values[f"{metric}.n"] = summary["n"]
        values[f"{metric}.self_s"] = summary["self_s"]
    values["tuning.sweep_self_s"] = sum(selfs[i] for i in idx if spans[i].name == "tuning.sweep")
    for metric, fn in COUNTS:
        values[metric] = fn(spans, idx)
    return values, summaries


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for metric in TIMINGS:
        unit = metric.rsplit("_", 1)[1]
        units[f"{metric}.p50"] = unit
        if metric in TAILED:
            units[f"{metric}.tail"] = unit
        units.update({f"{metric}.n": "count", f"{metric}.self_s": "s"})
    units["tuning.sweep_self_s"] = "s"
    units.update({metric: ("bytes" if metric.endswith("bytes") else "count") for metric, _ in COUNTS})
    units.update({"trace.overhead_share": "fraction", "trace.spans": "count"})
    return units
