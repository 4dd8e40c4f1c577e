"""Tests of the benchmark's own arithmetic and bookkeeping; no wall-clock
asserts."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from arith import (  # noqa: E402
    covered,
    declared_candidates,
    fail_share,
    percentile,
    quartile_spread,
    self_time,
    summarize,
    tail_percentile,
)
from spans import Span, Tracer, classify_tuning_training, layer_metrics, per_layer_units  # noqa: E402
from workloads import WORKLOADS, label_config, pipeline_small_config, tune_config  # noqa: E402


# -- percentile rule ---------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))  # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 99) == 99
    assert percentile([7.0], 99) == 7.0
    assert percentile([3, 1, 2], 50) == 2


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, None),
        (19, None),  # p50 leaves 9 beyond
        (20, 50.0),  # p50 leaves 10 beyond
        (39, 50.0),  # p75 ranks 30th, 9 beyond
        (40, 75.0),
        (99, 75.0),  # p90 ranks 90th, 9 beyond
        (100, 90.0),
        (999, 90.0),  # p99 ranks 990th, 9 beyond
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_leaves_at_least_ten_samples_above_it():
    for n in range(1, 3000, 7):
        p = tail_percentile(n)
        if p is None:
            continue
        samples = list(range(n))
        value = percentile(samples, p)
        assert sum(1 for s in samples if s > value) >= 10


def test_summarize_reports_tail_value_and_count():
    s = summarize([float(i) for i in range(1, 101)])
    assert s == {"p50": 50.0, "tail_pct": 90.0, "tail": 90.0, "n": 100}
    assert summarize([]) == {"p50": None, "tail_pct": None, "tail": None, "n": 0}
    assert summarize([5.0, 1.0])["tail"] is None


# -- self time -------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    assert self_time((0.0, 10.0), [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)
    assert self_time((0.0, 10.0), []) == 10.0


def test_self_time_counts_overlapping_children_once():
    # (1, 4) and (3, 6) overlap on (3, 4); (5, 5.5) lies inside their union.
    assert covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (5.0, 5.5)]) == pytest.approx(5.0)
    assert self_time((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (5.0, 5.5)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    assert self_time((2.0, 8.0), [(0.0, 3.0), (7.0, 12.0), (20.0, 30.0)]) == pytest.approx(4.0)
    assert self_time((0.0, 1.0), [(0.0, 1.0)]) == 0.0


def test_layer_self_time_from_recorded_spans():
    spans = [
        Span("cli.tune", 0.0, 10.0, None, "r"),
        Span("tuning.grid_search", 1.0, 9.0, 0, "r"),
        Span("training.predict", 2.0, 3.0, 1, "r"),
        Span("training.predict", 2.5, 4.0, 1, "r"),
    ]
    values, summaries = layer_metrics(spans)
    assert values["cli.tune_s.self_s"] == pytest.approx(2.0)
    assert values["tuning.grid_search_s.self_s"] == pytest.approx(6.0)
    assert values["training.predict_ms.self_s"] == pytest.approx(2.5)
    assert values["training.predict_ms.n"] == 2
    assert values["training.predict_ms.p50"] == pytest.approx(1000.0)
    assert summaries["cli.tune_s"]["n"] == 1


def test_setup_spans_count_only_for_commands_and_dataset_writes():
    spans = [
        Span("cli.label", 0.0, 4.0, None, "setup"),
        Span("training.predict", 1.0, 2.0, 0, "setup"),
        Span("data.write_dataset", 2.0, 3.0, 0, "setup", {"rows": 7}),
        Span("cli.label", 5.0, 6.0, None, "timed"),
        Span("training.predict", 5.0, 5.5, 3, "timed"),
    ]
    values, _ = layer_metrics(spans)
    assert values["cli.label_s.n"] == 2
    # A set-up child that does not count is still not the command's self time.
    assert values["cli.label_s.self_s"] == pytest.approx(2.0 + 0.5)
    assert values["training.predict_calls"] == 1
    assert values["training.predict_ms.self_s"] == pytest.approx(0.5)
    assert values["data.rows_written"] == 7


def test_only_layers_that_reach_twenty_samples_report_a_tail():
    values, _ = layer_metrics([Span("training.predict", 0.0, 1.0, None, "timed")])
    assert set(values) == set(per_layer_units()) - {"trace.overhead_share", "trace.spans"}
    assert "training.predict_ms.tail" in values
    assert "cli.tune_s.tail" not in values and "tuning.rebuild_s.tail" not in values


def test_tracer_nests_spans_and_restores_wrapped_functions():
    import fairtune.cli

    original = fairtune.cli.read_dataset
    tracer = Tracer()
    tracer.install()
    try:
        assert fairtune.cli.read_dataset is not original
        with tracer.span("cli.prepare"):
            with tracer.span("data.write_dataset"):
                pass
    finally:
        tracer.uninstall()
    assert fairtune.cli.read_dataset is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("cli.prepare", None), ("data.write_dataset", 0)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_tuning_training_split_around_the_sweep():
    spans = [
        Span("tuning.grid_search", 0.0, 10.0, None, "r"),
        Span("tuning.train", 0.5, 1.0, 0, "r"),
        Span("tuning.sweep", 1.0, 6.0, 0, "r"),
        Span("training.predict", 2.0, 2.1, 2, "r"),
        Span("training.predict", 6.5, 6.6, 0, "r"),
        Span("tuning.train", 7.0, 8.0, 0, "r"),
        Span("tuning.train", 8.0, 9.0, 0, "r"),
    ]
    classify_tuning_training(spans)
    values, _ = layer_metrics(spans)
    assert values["tuning.stage1_s.n"] == 1
    assert values["tuning.winner_retrains"] == 2
    assert values["tuning.rebuild_s.self_s"] == pytest.approx(2.0)
    assert values["tuning.candidates_scored"] == 1
    assert values["tuning.sweep_self_s"] == pytest.approx(4.9)


# -- fail_share ------------------------------------------------------------


def test_fail_share_counts_failed_over_attempted():
    assert fail_share(20, 0) == 0.0
    assert fail_share(8, 2) == 0.25
    assert fail_share(1, 1) == 1.0
    with pytest.raises(ValueError):
        fail_share(0, 0)
    with pytest.raises(ValueError):
        fail_share(3, 4)


def test_ops_records_command_and_check_failures():
    from run import Ops

    ops = Ops()
    ops.record(True, "prepare")
    ops.record(False, "tune exited 3")
    ops.record(False, "outputs differ")
    ops.record(True, "round trip")
    assert (ops.attempted, ops.failed) == (4, 2)
    assert fail_share(ops.attempted, ops.failed) == 0.5
    assert ops.failures == ["tune exited 3", "outputs differ"]


# -- candidates_per_s numerator -------------------------------------------


def test_declared_candidates_from_labeller_grid():
    cfg = {"labeller_grid": [{"epochs": 20}, {"epochs": 20}, {}]}
    assert declared_candidates(cfg, ["train-grid", "label"]) == 41


def test_declared_candidates_from_tuner_grid():
    cfg = {
        "labeller_grid": [{"epochs": 5}],
        "jtt": {
            # T=3 exceeds the second stage-1 point's 2 epochs and is skipped.
            "stage1_grid": [{"epochs": 5}, {"epochs": 2}],
            "t_grid": [1, 3],
            "lambda_grid": [5, 20],
            "stage2_grid": [{"epochs": 4}, {"epochs": 6}],
        },
    }
    # 3 (stage-1, T) settings x 2 lambdas x (4 + 6) epochs, plus the plain
    # stage-2 sweep's 4 + 6.
    assert declared_candidates(cfg, ["tune"]) == 3 * 2 * 10 + 10
    assert declared_candidates(cfg, ["prepare", "train-grid", "tune", "report"]) == 70 + 5
    assert declared_candidates(cfg, ["prepare"]) == 0


def test_declared_candidates_of_the_workloads():
    assert declared_candidates(tune_config(1), ["tune"]) == 2 * 2 * 8 + 8
    assert declared_candidates(label_config(1), ["train-grid", "label"]) == 60
    assert declared_candidates(pipeline_small_config(1), [c[0] for c in WORKLOADS["pipeline_small"].timed]) == 40 + 210


def test_quartile_spread_uses_statistics_quantiles():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((8.25 - 2.75) / 5.5)


# -- workloads and BENCHMARK.json -----------------------------------------


def test_workload_configs_are_seeded_and_valid():
    from fairtune.config import parse_config

    for wl in WORKLOADS.values():
        assert wl.config(3) == wl.config(3)
        parse_config(wl.config(3), seed_override=3)
    assert tune_config(1) != tune_config(2)


def test_census_shape():
    from fairtune.config import parse_config

    spec = parse_config(label_config(0)).synthetic
    assert spec.dim == 100
    counts = {k: b.count for k, b in spec.blocks.items()}
    assert sum(counts.values()) == pytest.approx(45200 / 3, abs=2)
    assert counts[(0, 1)] > counts[(0, 0)] > counts[(1, 1)] > counts[(1, 0)]


def test_benchmark_json_matches_the_metrics_the_runs_print():
    from run import END_TO_END_UNITS

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == per_layer_units()
