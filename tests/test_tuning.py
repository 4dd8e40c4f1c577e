import numpy as np
import pytest

from fairtune.data import TabularDataset
from fairtune.labelling import PseudoLabelledValidation
from fairtune.metrics import EmptyGroupError, dp_gap, eo_gap, full_report, wga
from fairtune.training import HyperParams, models_equal, predict, train_erm, train_upsampled
from fairtune.tuning import (
    CandidateRef,
    JttConfig,
    TunerResult,
    erm_sweep,
    grid_search,
    jtt_train,
    stage1_error_ids,
    summarize_runs,
)

from conftest import planted_splits


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
    cfg = small_config()
    assert JttConfig.from_dict(cfg.to_dict()) == cfg


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
    jtt_result = grid_search(train, validation, test, config)
    sweep = erm_sweep(
        train, validation, test, stage2_grid, config.accuracy_bins, "dp_gap"
    )
    for jtt_bin, erm_bin in zip(jtt_result.bins, sweep.erm_bins):
        assert jtt_bin.empty == erm_bin.empty
        if jtt_bin.empty:
            continue
        assert jtt_bin.winner.stage2 == erm_bin.winner.stage2
        assert jtt_bin.winner.epoch == erm_bin.winner.epoch
        assert jtt_bin.validation == erm_bin.validation
        assert jtt_bin.test == erm_bin.test
    # the jtt result's own erm rows agree too
    for a, b in zip(jtt_result.erm_bins, sweep.erm_bins):
        assert a == b


def flipped_pseudo(validation, flip_fraction, seed):
    rng = np.random.default_rng(seed)
    pseudo = validation.sensitive.copy()
    flips = rng.random(len(pseudo)) < flip_fraction
    pseudo[flips] = 1 - pseudo[flips]
    return PseudoLabelledValidation(row_ids=validation.row_ids.copy(), pseudo=pseudo, by_class={})


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
    by_truth = erm_sweep(train, validation, test, grid, bins, "wga", sensitive_source="ground_truth")
    pseudo = flipped_pseudo(validation, 0.35, seed=5)
    by_pseudo = erm_sweep(
        train, validation, test, grid, bins, "wga", sensitive_source="pseudo", pseudo=pseudo
    )
    def truth_wga(ref):
        model = rebuild_winner(train, ref)
        return wga(predict(model, validation), validation.targets, validation.sensitive)

    assert truth_wga(by_truth.erm_bins[0].winner) >= truth_wga(by_pseudo.erm_bins[0].winner) - 1e-12


def test_erm_on_planted_data_has_low_wga(planted):
    train, validation, test = planted
    grid = (HyperParams(epochs=10, **HP),)
    sweep = erm_sweep(train, validation, test, grid, ((0.0, 1.0),), "wga")
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
    val_sens = validation.sensitive if pseudo is None else pseudo.pseudo
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
    degenerate = PseudoLabelledValidation(
        row_ids=validation.row_ids.copy(),
        pseudo=np.ones(validation.n_rows, dtype=np.int8),
        by_class={},
    )
    with pytest.raises(EmptyGroupError):
        grid_search(train, validation, test, config, pseudo=degenerate)


def test_grid_search_parallel_matches_sequential(planted):
    train, validation, test = planted
    config = small_config()
    sequential = grid_search(train, validation, test, config, jobs=1)
    parallel = grid_search(train, validation, test, config, jobs=2)
    assert sequential.to_dict() == parallel.to_dict()


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


def test_summarize_runs(planted):
    train, validation, test = planted
    config = small_config()
    r1 = grid_search(train, validation, test, config)
    summary = summarize_runs([r1, r1])
    assert summary["objective"] == "dp_gap"
    populated = [b for b in summary["bins"] if "test_accuracy" in b]
    assert populated
    assert populated[0]["test_accuracy"]["n"] == 2
    assert populated[0]["test_accuracy"]["std"] == 0.0
