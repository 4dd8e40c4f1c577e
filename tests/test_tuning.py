import dataclasses
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairtune.tuning as tuning
from fairtune.config import McNoiseSection
from fairtune.data import BLOCK_ORDER, BlockSpec, SyntheticSpec, TabularDataset, check_fractions
from fairtune.metrics import EmptyGroupError, dp_gap, eo_gap, full_report, wga
from fairtune.noise import NoiseSpec
from fairtune.training import (
    HyperParams,
    TrainingError,
    predict,
    train_erm,
    train_upsampled,
    upsampled_positions,
)
from fairtune.tuning import (
    CandidateRef,
    JttConfig,
    TunerResult,
    _candidate_epochs,
    _evaluate_task,
    _select,
    _Task,
    grid_search,
)

from conftest import planted_splits
from reference import jtt_train, models_equal, stage1_error_ids


HP = dict(learning_rate=0.1, batch_size=64, seed=3)


def small_config(objective="dp_gap", source="ground_truth", lambda_grid=(1, 3), bins=None):
    return JttConfig(
        stage1_grid=(HyperParams(epochs=5, **HP),),
        t_grid=(1, 3),
        lambda_grid=lambda_grid,
        stage2_grid=(HyperParams(epochs=6, **HP),),
        objective=objective,
        accuracy_bins=bins or ((0.5, 0.85), (0.85, 0.9), (0.9, 1.0)),
        sensitive_source=source,
    )


def test_config_validation():
    with pytest.raises(ValueError, match="nonempty"):
        small_config().__class__(
            stage1_grid=(),
            t_grid=(1,),
            lambda_grid=(1,),
            stage2_grid=(HyperParams(epochs=1, **HP),),
            objective="dp_gap",
            accuracy_bins=((0.5, 1.0),),
        )
    with pytest.raises(ValueError, match="overlap"):
        JttConfig(
            stage1_grid=(HyperParams(epochs=1, **HP),),
            t_grid=(1,),
            lambda_grid=(1,),
            stage2_grid=(HyperParams(epochs=1, **HP),),
            objective="dp_gap",
            accuracy_bins=((0.5, 0.9), (0.8, 1.0)),
        )
    with pytest.raises(ValueError, match="objective"):
        small_config(objective="accuracy")


def test_config_rejects_non_integer_t_and_lambda_entries():
    cfg = small_config()
    with pytest.raises(ValueError, match=r"^t_grid\[0\]: expected int, got float$"):
        dataclasses.replace(cfg, t_grid=(1.7,))
    with pytest.raises(ValueError, match=r"^lambda_grid\[1\]: expected int, got float$"):
        dataclasses.replace(cfg, lambda_grid=(1, 2.9))
    with pytest.raises(ValueError, match=r"^t_grid\[0\]: expected int, got float64$"):
        dataclasses.replace(cfg, t_grid=(np.float64(2.0),))
    # numpy integers are integers
    exact = dataclasses.replace(cfg, t_grid=(np.int64(2),), lambda_grid=(np.int32(1), np.uint8(3)))
    assert exact.t_grid == (2,) and exact.lambda_grid == (1, 3)
    assert all(type(v) is int for v in (*exact.t_grid, *exact.lambda_grid))


BLOCKS = {cell: BlockSpec(10, (0.0,), (1.0,)) for cell in BLOCK_ORDER}


def _mc(**fields):
    return McNoiseSection(**{"grid": [[0.1, 0.2]], "n_samples": 10, "seed": 0, **fields})


def _jtt(**fields):
    return dataclasses.replace(small_config(), **fields)


def _spec_with(**block):
    """SyntheticSpec.from_dict of BLOCKS' dict with `block` set in cell y1_a1."""
    raw = SyntheticSpec(BLOCKS).to_dict()
    raw["blocks"]["y1_a1"].update(block)
    return SyntheticSpec.from_dict(raw)


# Every constructor that holds a number checks it, with a message that starts
# with the field: Python counts True as the int 1, int() truncates 2.5 and
# float() reads "0.3", so a conversion is no check.
LIBRARY_CASES = {
    "t_grid": (lambda: _jtt(t_grid=(True,)), "t_grid[0]: expected int, got bool"),
    "lambda_grid": (lambda: _jtt(lambda_grid=(3, np.True_)), "lambda_grid[1]: expected int, got bool"),
    "bin-low": (lambda: _jtt(accuracy_bins=((True, 2),)), "accuracy_bins[0]: expected [lo, hi], two numbers"),
    "bin-high": (lambda: _jtt(accuracy_bins=((0.5, False),)), "accuracy_bins[0]: expected [lo, hi], two numbers"),
    "epochs": (lambda: HyperParams(epochs=True, **HP), "epochs: expected int, got bool"),
    "batch_size": (lambda: HyperParams(epochs=2, learning_rate=0.1, batch_size=np.True_), "batch_size: expected int, got bool"),
    "seed": (lambda: HyperParams(learning_rate=0.1, seed=True), "seed: expected int, got bool"),
    "hidden_units": (lambda: HyperParams(learning_rate=0.1, hidden_units=False), "hidden_units: expected int, got bool"),
    "learning_rate": (lambda: HyperParams(learning_rate=True), "learning_rate: expected float, got bool"),
    "weight_decay": (lambda: HyperParams(learning_rate=0.1, weight_decay=False), "weight_decay: expected float, got bool"),
    "epochs-non-integral": (lambda: HyperParams(learning_rate=0.1, epochs=2.5), "epochs: expected int, got float"),
    "learning_rate-text": (lambda: HyperParams(learning_rate="0.1"), "learning_rate: expected float, got str"),
    "learning_rate-nan": (lambda: HyperParams(learning_rate=float("nan")), "learning_rate: must be finite, got nan"),
    "weight_decay-inf": (lambda: HyperParams(learning_rate=0.1, weight_decay=float("inf")), "weight_decay: must be finite, got inf"),
    "seed-negative": (lambda: HyperParams(learning_rate=0.1, seed=-1), "seed: must be >= 0, got -1"),
    "hp-unknown-key": (lambda: HyperParams.from_dict({"learning_rate": 0.1, "epoch": 5}), "epoch: unknown key"),
    "hp-missing-rate": (lambda: HyperParams.from_dict({"epochs": 5}), "learning_rate: missing required key"),
    "t_grid-text": (lambda: _jtt(t_grid=("2",)), "t_grid[0]: expected int, got str"),
    "lambda_grid-non-integral": (lambda: _jtt(lambda_grid=(2.5,)), "lambda_grid[0]: expected int, got float"),
    "bin-nan": (lambda: _jtt(accuracy_bins=((0.5, float("nan")),)), "accuracy_bins[0]: expected [lo, hi], two numbers"),
    "stage1-not-hyperparams": (
        lambda: _jtt(stage1_grid=({"learning_rate": 0.1},)),
        "stage1_grid[0]: expected HyperParams, got dict",
    ),
    "noise-bools": (lambda: NoiseSpec(alpha=True, beta=False), "alpha: expected float, got bool"),
    "noise-text": (lambda: NoiseSpec(alpha="0.3", beta=0.1), "alpha: expected float, got str"),
    "noise-nan": (lambda: NoiseSpec(0.1, float("nan")), "beta: must be finite, got nan"),
    "noise-class-1-bool": (lambda: NoiseSpec(0.1, 0.1, beta_1=True), "beta_1: expected float, got bool"),
    "noise-seed-negative": (lambda: NoiseSpec(0.1, 0.1, seed=-1), "seed: must be >= 0, got -1"),
    "noise-seed-non-integral": (lambda: NoiseSpec(0.1, 0.1, seed=1.5), "seed: expected int, got float"),
    "block-count-non-integral": (lambda: BlockSpec(900.7, (0.0,), (1.0,)), "count: expected int, got float"),
    "block-count-bool": (lambda: BlockSpec(True, (0.0,), (1.0,)), "count: expected int, got bool"),
    "block-mean-bool": (lambda: BlockSpec(5, (True,), (1.0,)), "mean[0]: expected float, got bool"),
    "block-mean-nan": (lambda: BlockSpec(5, (float("nan"),), (1.0,)), "mean[0]: must be finite, got nan"),
    "block-var-text": (lambda: BlockSpec(5, (0.0,), ("1.0",)), "var[0]: expected float, got str"),
    "synthetic-seed-text": (lambda: SyntheticSpec(BLOCKS, seed="7"), "seed: expected int, got str"),
    "synthetic-seed-bool": (lambda: SyntheticSpec(BLOCKS, seed=True), "seed: expected int, got bool"),
    "synthetic-from-dict": (lambda: _spec_with(count=900.7), "blocks.y1_a1.count: expected int, got float"),
    "mc-grid-bool": (lambda: _mc(grid=[[True, 0.1]]), "grid[0]: expected [alpha, beta], two numbers"),
    "mc-grid-rate": (lambda: _mc(grid=[[0.1, 0.2], [1.2, 0.1]]), "grid[1].alpha: must lie in [0, 1], got 1.2"),
    "mc-n-samples-non-integral": (lambda: _mc(n_samples=2.5), "n_samples: expected int, got float"),
    "mc-n-samples-bool": (lambda: _mc(n_samples=True), "n_samples: expected int, got bool"),
    "mc-seed-text": (lambda: _mc(seed="7"), "seed: expected int, got str"),
    "mc-split": (lambda: _mc(split="dev"), "split: expected one of ('train', 'validation', 'test'), got 'dev'"),
    "fractions-bool": (lambda: check_fractions((0.5, 0.5, True)), "fractions[2]: expected float, got bool"),
    "fractions-nan": (lambda: check_fractions((0.5, float("nan"), 0.5)), "fractions[1]: must be finite, got nan"),
    "fractions-sum": (lambda: check_fractions((0.6, 0.2, 0.1)), "fractions: must sum to 1, got 0.9"),
}


@pytest.mark.parametrize("build, message", LIBRARY_CASES.values(), ids=LIBRARY_CASES.keys())
def test_library_configs_reject_bools(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_jtt_lambda_one_collapses_to_plain_training(planted):
    train, _, _ = planted
    stage1 = HyperParams(epochs=4, **HP)
    stage2 = HyperParams(epochs=5, learning_rate=0.05, batch_size=32, seed=9)
    outcome = jtt_train(train, stage1, t=2, lam=1, stage2_hp=stage2)
    plain = train_erm(train, stage2)[-1]
    assert models_equal(outcome.model, plain)


def test_jtt_is_deterministic(planted):
    train, _, _ = planted
    stage1 = HyperParams(epochs=3, **HP)
    stage2 = HyperParams(epochs=3, learning_rate=0.05, batch_size=32, seed=1)
    a = jtt_train(train, stage1, t=1, lam=4, stage2_hp=stage2)
    b = jtt_train(train, stage1, t=1, lam=4, stage2_hp=stage2)
    assert models_equal(a.model, b.model)
    assert a.stage1_error_ids == b.stage1_error_ids


def test_jtt_stage1_errors_overrepresent_the_minority(planted):
    train, _, _ = planted
    stage1 = HyperParams(epochs=5, **HP)
    ckpts = train_erm(train, stage1)
    err_ids = stage1_error_ids(ckpts[0], train)
    assert len(err_ids) > 0
    in_error = np.isin(train.row_ids, err_ids)
    minority_rate_in_errors = np.mean(train.sensitive[in_error] == 0)
    minority_rate_overall = np.mean(train.sensitive == 0)
    assert minority_rate_in_errors > minority_rate_overall


def test_jtt_perfect_stage1_flags_plain_result():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(5.0, 0.3, (40, 2)), rng.normal(-5.0, 0.3, (40, 2))])
    y = np.array([1] * 40 + [0] * 40)
    train = TabularDataset(features=X, targets=y, row_ids=np.arange(80), split="train")
    stage1 = HyperParams(learning_rate=0.5, epochs=30, batch_size=80, seed=0)
    stage2 = HyperParams(learning_rate=0.1, epochs=2, batch_size=80, seed=0)
    outcome = jtt_train(train, stage1, t=30, lam=5, stage2_hp=stage2)
    assert outcome.plain_erm
    assert outcome.stage1_error_ids == ()
    assert models_equal(outcome.model, train_erm(train, stage2)[-1])


def test_jtt_validates_t():
    train, _, _ = planted_splits(seed=20)
    with pytest.raises(Exception, match="early stop"):
        jtt_train(train, HyperParams(epochs=2, **HP), t=3, lam=1, stage2_hp=HyperParams(epochs=1, **HP))


# ---------------------------------------------------------------------------
# Brute-force oracle: re-enumerate and re-rank every candidate independently.
# ---------------------------------------------------------------------------

def oracle_search(train, validation, test, config, val_sens):
    minimize = config.objective in ("dp_gap", "eo_gap")

    def objective(preds):
        if config.objective == "dp_gap":
            return dp_gap(preds, val_sens)
        if config.objective == "eo_gap":
            return eo_gap(preds, validation.targets, val_sens)
        return wga(preds, validation.targets, val_sens)

    candidates = []  # (descriptor, acc, obj)
    for s1 in config.stage1_grid:
        ckpts1 = train_erm(train, s1)
        for t in config.t_grid:
            if t > s1.epochs:
                continue
            err = stage1_error_ids(ckpts1[t - 1], train)
            for lam in config.lambda_grid:
                for s2 in config.stage2_grid:
                    for ckpt in train_upsampled(train, err, lam, s2):
                        preds = predict(ckpt, validation)
                        acc = float(np.mean(preds == validation.targets))
                        candidates.append(
                            ((s1, t, lam, s2, ckpt.trained_epochs), acc, objective(preds))
                        )
    winners = {}
    for b, (lo, hi) in enumerate(config.accuracy_bins):
        best = None
        for desc, acc, obj in candidates:
            if not (lo <= acc < hi):
                continue
            if best is None or (obj < best[2] if minimize else obj > best[2]):
                best = (desc, acc, obj)
        winners[b] = best
    return winners


@pytest.mark.parametrize("objective", ["dp_gap", "eo_gap", "wga"])
def test_grid_search_matches_bruteforce_oracle(objective, planted):
    train, validation, test = planted
    config = small_config(objective=objective)
    result = grid_search(train, validation, test, config)
    oracle = oracle_search(train, validation, test, config, validation.sensitive)
    for b, outcome in enumerate(result.bins):
        expected = oracle[b]
        if expected is None:
            assert outcome.empty
            continue
        (s1, t, lam, s2, epoch), acc, obj = expected
        assert outcome.winner is not None
        assert outcome.winner.stage2 == s2
        assert outcome.winner.epoch == epoch
        assert outcome.winner.t == t
        assert outcome.winner.lam == lam
        assert outcome.validation.avg_accuracy == pytest.approx(acc)
        assert outcome.validation.metric(objective) == pytest.approx(obj)
        lo, hi = outcome.bin
        assert lo <= outcome.validation.avg_accuracy < hi


def test_grid_search_singleton_candidate_one_bin(planted):
    train, validation, test = planted
    config = JttConfig(
        stage1_grid=(HyperParams(epochs=1, **HP),),
        t_grid=(1,),
        lambda_grid=(2,),
        stage2_grid=(HyperParams(epochs=1, **HP),),
        objective="dp_gap",
        accuracy_bins=((0.0, 0.5), (0.5, 1.0)),
        sensitive_source="ground_truth",
    )
    result = grid_search(train, validation, test, config)
    filled = [b for b in result.bins if not b.empty]
    assert len(filled) == 1
    assert result.bins[0].empty
    assert not result.bins[1].empty


def test_lambda_one_grid_search_equals_erm_sweep(planted):
    train, validation, test = planted
    stage2_grid = (
        HyperParams(epochs=4, **HP),
        HyperParams(learning_rate=0.05, epochs=4, batch_size=64, seed=3),
    )
    config = JttConfig(
        stage1_grid=(HyperParams(epochs=2, **HP),),
        t_grid=(1, 2),
        lambda_grid=(1,),
        stage2_grid=stage2_grid,
        objective="dp_gap",
        accuracy_bins=((0.5, 0.85), (0.85, 1.0)),
        sensitive_source="ground_truth",
    )
    result = grid_search(train, validation, test, config)
    assert any(not b.empty for b in result.bins)
    for jtt_bin, erm_bin in zip(result.bins, result.erm_bins, strict=True):
        assert jtt_bin.empty == erm_bin.empty
        if jtt_bin.empty:
            continue
        assert jtt_bin.winner.stage2 == erm_bin.winner.stage2
        assert jtt_bin.winner.epoch == erm_bin.winner.epoch
        assert jtt_bin.validation == erm_bin.validation
        assert jtt_bin.test == erm_bin.test
    # the plain sweep does not depend on the stage-1 grid
    assert plain_sweep(train, validation, test, stage2_grid, config.accuracy_bins, "dp_gap").erm_bins == result.erm_bins


def plain_sweep(train, validation, test, grid, bins, objective, sensitive_source="ground_truth", pseudo=None):
    """grid_search restricted to plain runs: every two-stage combo has
    lambda 1, so its erm_bins and erm_baseline are the plain sweep of grid."""
    config = JttConfig(
        stage1_grid=grid,
        t_grid=(1,),
        lambda_grid=(1,),
        stage2_grid=grid,
        objective=objective,
        accuracy_bins=bins,
        sensitive_source=sensitive_source,
    )
    return grid_search(train, validation, test, config, pseudo=pseudo)


def flipped_pseudo(validation, flip_fraction, seed):
    rng = np.random.default_rng(seed)
    pseudo = validation.sensitive.copy()
    flips = rng.random(len(pseudo)) < flip_fraction
    pseudo[flips] = 1 - pseudo[flips]
    return pseudo


def rebuild_winner(train, ref: CandidateRef):
    if ref.kind == "erm" or (ref.lam or 1) == 1:
        return train_erm(train, ref.stage2)[ref.epoch - 1]
    ckpts1 = train_erm(train, ref.stage1)
    err = stage1_error_ids(ckpts1[ref.t - 1], train)
    return train_upsampled(train, err, ref.lam, ref.stage2)[ref.epoch - 1]


def test_ground_truth_wga_selection_dominates_pseudo_selection(planted):
    train, validation, test = planted
    grid = (HyperParams(epochs=6, **HP),)
    bins = ((0.5, 1.0),)
    by_truth = plain_sweep(train, validation, test, grid, bins, "wga", sensitive_source="ground_truth")
    pseudo = flipped_pseudo(validation, 0.35, seed=5)
    by_pseudo = plain_sweep(
        train, validation, test, grid, bins, "wga", sensitive_source="pseudo", pseudo=pseudo
    )
    def truth_wga(ref):
        model = rebuild_winner(train, ref)
        return wga(predict(model, validation), validation.targets, validation.sensitive)

    assert truth_wga(by_truth.erm_bins[0].winner) >= truth_wga(by_pseudo.erm_bins[0].winner) - 1e-12


def test_erm_on_planted_data_has_low_wga(planted):
    train, validation, test = planted
    grid = (HyperParams(epochs=10, **HP),)
    sweep = plain_sweep(train, validation, test, grid, ((0.0, 1.0),), "wga")
    baseline = sweep.erm_baseline
    assert baseline is not None
    assert baseline.test.wga < baseline.test.avg_accuracy - 0.3



def outcomes_of(result):
    return [*result.bins, *result.erm_bins, result.erm_baseline]


FINE_BINS = tuple((round(0.5 + 0.02 * i, 2), round(0.52 + 0.02 * i, 2)) for i in range(25))


@pytest.mark.parametrize(
    "source, lambda_grid, bins",
    [("ground_truth", (1, 3), None), ("pseudo", (1, 3), None), ("ground_truth", (3, 5), FINE_BINS)],
)
def test_winner_reports_equal_retrained_winners(source, lambda_grid, bins, planted):
    # The tuner reports winners from the counts taken during the sweep; a
    # winner retrained from its CandidateRef must score exactly the same.
    train, validation, test = planted
    pseudo = flipped_pseudo(validation, 0.2, seed=3) if source == "pseudo" else None
    val_sens = validation.sensitive if pseudo is None else pseudo
    config = small_config(source=source, lambda_grid=lambda_grid, bins=bins)
    result = grid_search(train, validation, test, config, pseudo=pseudo)
    populated = [o for o in outcomes_of(result) if not o.empty]
    assert {o.winner.kind for o in populated} == {"jtt", "erm"}
    if min(lambda_grid) > 1:  # winners trained on an upsampled set
        assert any(o.winner.kind == "jtt" and not o.winner.plain_fallback for o in populated)
    for outcome in populated:
        model = rebuild_winner(train, outcome.winner)
        validation_report = full_report(
            model, validation, sensitive=val_sens, sensitive_source=source, require=("dp_gap",)
        )
        assert validation_report == outcome.validation
        assert full_report(model, test, require=()) == outcome.test


def test_test_labels_feed_only_the_winners_test_reports(planted):
    train, validation, test = planted
    rng = np.random.default_rng(4)
    shuffled = TabularDataset(
        features=test.features,
        targets=rng.permutation(test.targets),
        row_ids=test.row_ids,
        split=test.split,
        sensitive=rng.permutation(test.sensitive),
    )
    config = small_config()
    result = grid_search(train, validation, test, config)
    leaked = grid_search(train, validation, shuffled, config)
    for a, b in zip(outcomes_of(result), outcomes_of(leaked)):
        assert a.winner == b.winner
        assert a.validation == b.validation
    assert any(a.test != b.test for a, b in zip(outcomes_of(result), outcomes_of(leaked)) if not a.empty)

def test_grid_search_with_pseudo_source_requires_labels(planted):
    train, validation, test = planted
    config = small_config(source="pseudo")
    with pytest.raises(ValueError, match="pseudo"):
        grid_search(train, validation, test, config)
    # degenerate pseudo labels: a single group makes the objective infeasible
    degenerate = np.ones(validation.n_rows, dtype=np.int8)
    with pytest.raises(EmptyGroupError):
        grid_search(train, validation, test, config, pseudo=degenerate)
    # labels that cannot be the validation split's: one row short, or not 0/1
    with pytest.raises(ValueError, match="length mismatch"):
        grid_search(train, validation, test, config, pseudo=validation.sensitive[:-1])
    with pytest.raises(ValueError, match="must be 0 or 1"):
        grid_search(train, validation, test, config, pseudo=2 * validation.sensitive)


def test_non_finite_train_features_fail_before_any_training(planted, monkeypatch):
    train, validation, test = planted
    features = train.features.copy()
    features[3, 1] = np.nan
    broken = TabularDataset(
        features=features, targets=train.targets, row_ids=train.row_ids, split=train.split, sensitive=train.sensitive
    )
    submitted = _record_submissions(monkeypatch)
    with pytest.raises(TrainingError, match="non-finite"):
        grid_search(broken, validation, test, small_config())
    assert submitted == []


def test_grid_search_parallel_matches_sequential(planted):
    train, validation, test = planted
    config = small_config()
    sequential = grid_search(train, validation, test, config, jobs=1)
    parallel = grid_search(train, validation, test, config, jobs=2)
    assert sequential.to_dict() == parallel.to_dict()


def two_stage1_config():
    return JttConfig(
        stage1_grid=(HyperParams(epochs=3, **HP), HyperParams(learning_rate=0.05, epochs=2, batch_size=32, seed=4)),
        t_grid=(3, 1),  # T=3 is beyond the second point's epochs
        lambda_grid=(1, 3, 6),
        stage2_grid=(HyperParams(epochs=3, **HP), HyperParams(learning_rate=0.05, epochs=2, batch_size=64, seed=3)),
        objective="dp_gap",
        accuracy_bins=((0.5, 0.85), (0.85, 0.9), (0.9, 1.0)),
        sensitive_source="ground_truth",
    )


def test_stage1_grid_points_run_in_the_pool(planted):
    train, validation, test = planted
    config = two_stage1_config()
    sequential = grid_search(train, validation, test, config, jobs=1)
    oracle = oracle_search(train, validation, test, config, validation.sensitive)
    for outcome, expected in zip(sequential.bins, oracle.values(), strict=True):
        assert (outcome.winner is None) == (expected is None)
        if expected is not None:
            (s1, t, lam, s2, epoch), _, _ = expected
            w = outcome.winner
            assert (w.stage1, w.t, w.lam, w.stage2, w.epoch) == (s1, t, lam, s2, epoch)
    for jobs in (2, 3):
        assert grid_search(train, validation, test, config, jobs=jobs).to_dict() == sequential.to_dict()


def _record_submissions(monkeypatch):
    """Record the task list of every wave's pool_map call."""
    submitted = []
    pool_map = tuning.pool_map

    def recording(fn, ctx, items, jobs):
        if fn is tuning._evaluate_task:
            submitted.append(list(items))
        return pool_map(fn, ctx, items, jobs)

    monkeypatch.setattr(tuning, "pool_map", recording)
    return submitted


def test_tasks_are_submitted_longest_first(planted, monkeypatch):
    train, validation, test = planted
    config = two_stage1_config()
    submitted = _record_submissions(monkeypatch)
    grid_search(train, validation, test, config)
    stage1, rest = submitted
    assert set(stage1) == set(map(_Task, config.stage1_grid)) and all(t.mistakes_at for t in stage1)
    assert {t for t in rest if not t.err_pos} == set(map(_Task, config.stage2_grid)) - set(stage1)
    for tasks in submitted:
        costs = [(train.n_rows + len(t.err_pos) * (t.lam - 1)) * t.stage2.epochs for t in tasks]
        assert costs == sorted(costs, reverse=True) and costs[0] > costs[-1]
    assert rest[0].lam == max(config.lambda_grid)


def test_shuffled_submission_order_gives_identical_results(planted, monkeypatch):
    train, validation, test = planted
    config = two_stage1_config()
    expected = grid_search(train, validation, test, config).to_dict()
    submitted = _record_submissions(monkeypatch)
    rng = random.Random(7)
    monkeypatch.setattr(tuning, "_task_cost", lambda n_train, task: rng.random())
    for jobs in (1, 1, 2):
        assert grid_search(train, validation, test, config, jobs=jobs).to_dict() == expected
    orders = [(tuple(map(repr, w1)), tuple(map(repr, w2))) for w1, w2 in zip(submitted[::2], submitted[1::2])]
    assert len(orders) == 3 and len(set(orders)) == len(orders)
    for wave in (0, 1):
        assert len({order[wave] for order in orders}) > 1


def test_a_point_in_both_grids_trains_once(planted, monkeypatch):
    train, validation, test = planted
    grid = (HyperParams(epochs=3, **HP), HyperParams(learning_rate=0.05, epochs=2, batch_size=32, seed=4))
    config = JttConfig(
        stage1_grid=grid,
        t_grid=(1, 2),
        lambda_grid=(1, 3),
        stage2_grid=grid,
        objective="dp_gap",
        accuracy_bins=((0.5, 0.9), (0.9, 1.0)),
        sensitive_source="ground_truth",
    )
    submitted = _record_submissions(monkeypatch)
    grid_search(train, validation, test, config)
    plain, two_stage = submitted
    assert len(plain) == len(grid) and set(plain) == {_Task(hp) for hp in grid}
    assert {t.mistakes_at for t in plain} == {(1, 2)}
    assert two_stage and all(t.err_pos and t.lam == 3 for t in two_stage)
    submitted.clear()
    plain_sweep(train, validation, test, grid, config.accuracy_bins, "dp_gap")
    plain, two_stage = submitted
    assert len(plain) == len(grid) and two_stage == []


def test_a_stage1_only_point_predicts_only_its_training_mistakes(planted, monkeypatch):
    # A stage-1 point outside the stage-2 grid is no candidate: its run
    # predicts the training split once per T, and no other split.
    train, validation, test = planted
    stage1 = HyperParams(epochs=3, **HP)
    stage2 = HyperParams(learning_rate=0.05, epochs=2, batch_size=32, seed=4)
    config = JttConfig(
        stage1_grid=(stage1,),
        t_grid=(1, 2),
        lambda_grid=(3,),
        stage2_grid=(stage2,),
        objective="dp_gap",
        accuracy_bins=((0.5, 0.9), (0.9, 1.0)),
        sensitive_source="ground_truth",
    )
    splits = {id(train.features): "train", id(validation.features): "validation", id(test.features): "test"}
    calls = []

    def counting(model, data):
        calls.append((model.hp, splits[id(data)]))
        return predict(model, data)

    monkeypatch.setattr(tuning, "predict", counting)
    result = grid_search(train, validation, test, config)
    assert [split for hp, split in calls if hp == stage1] == ["train", "train"]
    # The plain run and the two-stage runs of the stage-2 point still score
    # every epoch on validation.
    stage2_splits = [split for hp, split in calls if hp == stage2]
    n_runs = stage2_splits.count("validation") // stage2.epochs
    assert n_runs >= 2 and stage2_splits.count("validation") == n_runs * stage2.epochs
    assert "test" in stage2_splits and "train" not in stage2_splits
    assert any(not b.empty for b in result.bins)


def test_all_t_filtered_leaves_bins_empty(planted):
    train, validation, test = planted
    config = JttConfig(
        stage1_grid=(HyperParams(epochs=2, **HP),),
        t_grid=(10,),  # larger than every stage-1 epoch budget
        lambda_grid=(2,),
        stage2_grid=(HyperParams(epochs=2, **HP),),
        objective="dp_gap",
        accuracy_bins=((0.0, 1.0),),
        sensitive_source="ground_truth",
    )
    result = grid_search(train, validation, test, config)
    assert all(b.empty for b in result.bins)
    assert result.erm_baseline is not None


def test_tuner_result_round_trip(planted):
    train, validation, test = planted
    result = grid_search(train, validation, test, small_config())
    back = TunerResult.from_dict(result.to_dict())
    assert back == result


# Levels shared by accuracies and bin edges, so that ties and accuracies on
# a bin edge are common.
LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_candidate_epochs_keep_every_winner_and_the_baseline(data):
    # A task predicts the test split only at its candidate epochs; selecting
    # over those alone must pick the very winners and baseline that selecting
    # over every epoch (full test counts) picks, whatever the combo order.
    # Two-stage combos use plain and two-stage tasks and report per-bin
    # winners only; plain combos use plain tasks and also report the
    # top-accuracy baseline, which two-stage tasks therefore need not keep.
    minimize = data.draw(st.booleans())
    edges = sorted(data.draw(st.sets(st.sampled_from(LEVELS), min_size=2)))
    bins = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if data.draw(st.booleans())] or [(edges[0], edges[1])]
    score = st.tuples(st.sampled_from(LEVELS), st.sampled_from((0.0, 0.1, 0.2)))
    tables = data.draw(st.lists(st.lists(score, min_size=1, max_size=6), min_size=1, max_size=4))
    plain = data.draw(st.lists(st.booleans(), min_size=len(tables), max_size=len(tables)))
    plain[0] = True
    jtt_combos = data.draw(st.lists(st.integers(0, len(tables) - 1), max_size=8))
    erm_combos = data.draw(
        st.lists(st.sampled_from([t for t in range(len(tables)) if plain[t]]), min_size=1, max_size=4)
    )
    kept = {t: set(_candidate_epochs(table, bins, minimize, plain=plain[t])) for t, table in enumerate(tables)}

    def candidates(combos, keep):
        for c, t in enumerate(combos):
            for epoch, (acc, obj) in enumerate(tables[t], start=1):
                if keep(t, epoch):
                    yield (c, t, epoch), acc, obj

    def select(combos, keep):
        return _select(candidates(combos, keep), bins, minimize)

    every = lambda t, epoch: True  # noqa: E731
    only_kept = lambda t, epoch: epoch in kept[t]  # noqa: E731
    erm_full = select(erm_combos, every)
    jtt_per_bin = select(jtt_combos, every)[0]
    assert select(erm_combos, only_kept) == erm_full
    assert select(jtt_combos, only_kept)[0] == jtt_per_bin
    # Every reported winner's test counts, hence its stored reports, exist.
    per_bin, top = erm_full
    for (_, t, epoch), _, _ in [w for w in (*per_bin, top, *jtt_per_bin) if w is not None]:
        assert epoch in kept[t]
    for t, epochs in kept.items():
        assert len(epochs) <= len(bins) + plain[t]


def test_upsampled_task_does_not_materialize_its_training_set():
    rng = np.random.default_rng(0)
    n, d, lam = 2000, 40, 20
    err_pos = tuple(range(0, n, 2))
    upsampled_bytes = len(upsampled_positions(n, err_pos, lam)) * d * 8

    def split(rows):
        return rng.normal(size=(rows, d)), rng.integers(0, 2, rows).astype(np.int8), rng.integers(0, 2, rows).astype(np.int8)

    train_X, train_y, _ = split(n)
    val_X, val_y, val_sens = split(300)
    test_X, test_y, test_sens = split(300)
    stage2 = HyperParams(learning_rate=0.1, epochs=2, batch_size=256, seed=1, hidden_units=8)
    ctx = {
        "train_X": train_X, "train_y": train_y.astype(np.float64),
        "val_X": val_X, "val_y": val_y, "val_sens": val_sens,
        "test_X": test_X, "test_y": test_y, "test_sens": test_sens, "stage2_grid": frozenset({stage2}),
        "bins": ((0.0, 0.5), (0.5, 1.0)), "objective": "dp_gap", "source": "ground_truth",
    }
    task = _Task(stage2, err_pos, lam)
    tracemalloc.start()
    try:
        result = _evaluate_task(ctx, task)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.scores) == 2
    assert peak < upsampled_bytes / 2
