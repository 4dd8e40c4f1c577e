"""Acceptance suite: one test per release criterion, run with `pytest -s`.

Each criterion prints a single PASS line with its measured numbers; the
income-benchmark reproduction is skipped (not failed) when the CSV is not
available locally.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fairtune.cli import main
from fairtune.config import parse_config
from fairtune.data import (
    DatasetSchema,
    fit_categorical_vocab,
    load_csv,
    split,
    standardize,
)
from fairtune.labelling import labeller_predictions, select_labeller
from fairtune.metrics import dp_gap, eo_gap, pseudo_label_quality, wga
from fairtune.noise import (
    NoiseSpec,
    difference_of_means_probe,
    edm_exact,
    verify_edm_lemma,
    verify_proportionality,
)
from fairtune.training import HyperParams, train_erm
from fairtune.tuning import JttConfig, TunerResult, grid_search

from conftest import planted_splits
from reference import jtt_train, models_equal
from test_metrics import oracle_dp, oracle_eo, oracle_quality, oracle_wga
from test_training import gradient_relative_error, perturbed

REPO = Path(__file__).resolve().parent.parent


def report(criterion, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.1f}s (budget {budget}s)"
    print(f"PASS criterion {criterion}: {detail} [{elapsed:.1f}s]")


def test_criterion_1_mixture_mean_identity_exact():
    t0 = time.perf_counter()
    mu1, mu0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    worst = 0.0
    for i in range(10):
        for j in range(10):
            a, b = i / 10.0, j / 10.0
            clean, noisy = edm_exact(mu1, mu0, a, b)
            target = abs(1.0 - a - b) * clean
            # error relative to the clean-distance scale; on the a+b=1
            # diagonal the target itself vanishes and only that scale exists
            worst = max(worst, abs(noisy - target) / clean)
    assert worst <= 1e-12
    report(1, f"exact mean-distance identity, worst scaled error {worst:.2e}", t0, 1.0)


def sampled_groups(n=100_000, seed=424):
    rng = np.random.default_rng(seed)
    majority = rng.normal((1.0, 0.0), 1.0, (n, 2))
    minority = rng.normal((0.0, 1.0), 1.0, (n, 2))
    y_major = rng.integers(0, 2, n)
    y_minor = rng.integers(0, 2, n)
    return majority, minority, y_major, y_minor


def test_criterion_2_mean_distance_identity_sampled():
    t0 = time.perf_counter()
    majority, minority, _, _ = sampled_groups()
    records = verify_edm_lemma(majority, minority, [(0.2, 0.3)], 100_000, seed=17)
    target = 0.5 * math.sqrt(2.0)
    assert abs(records[0].edm_noisy - target) <= 0.03
    report(2, f"sampled noisy distance {records[0].edm_noisy:.4f} vs {target:.4f}", t0, 10.0)


def test_criterion_3_gap_proportionality_sampled():
    t0 = time.perf_counter()
    majority, minority, y_major, y_minor = sampled_groups()
    probe = difference_of_means_probe(majority, minority)
    rec = verify_proportionality(
        probe, (majority, y_major), (minority, y_minor), NoiseSpec(0.2, 0.3, seed=18), 100_000
    )
    assert abs(rec.ratio_dp - 0.5) <= 0.03
    assert abs(rec.ratio_eo - (1.0 - rec.alpha_1 - rec.beta_1)) <= 0.03
    report(
        3,
        f"dp ratio {rec.ratio_dp:.3f} (target 0.5), eo ratio {rec.ratio_eo:.3f} "
        f"(target {1.0 - rec.alpha_1 - rec.beta_1:.1f})",
        t0,
        30.0,
    )


def test_criterion_4_metric_oracle_equivalence():
    t0 = time.perf_counter()
    targets = np.array([0, 0, 1, 1, 0, 1, 0, 1])
    sens = np.array([0, 1, 0, 1, 1, 0, 0, 1])
    for pattern in range(256):
        preds = np.array([(pattern >> i) & 1 for i in range(8)])
        assert dp_gap(preds, sens) == oracle_dp(preds, sens)
        assert eo_gap(preds, targets, sens) == oracle_eo(preds, targets, sens)
        assert wga(preds, targets, sens) == oracle_wga(preds, targets, sens)
        per, overall = oracle_quality(preds, sens, targets)
        quality = pseudo_label_quality(preds, sens, targets)
        assert quality.accuracy_overall == overall
        for key, (precision, recall) in per.items():
            assert quality.per_subgroup[key].precision == precision
            assert quality.per_subgroup[key].recall == recall
    report(4, "all 256 prediction patterns agree exactly with the counting oracle", t0, 1.0)


def test_criterion_5_gradient_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for hidden in (0, 4):
        rng = np.random.default_rng(1000 + hidden)
        for trial in range(100):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(2, 21))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, n).astype(np.float64)
            hp = HyperParams(
                learning_rate=0.1, weight_decay=0.01, seed=trial, hidden_units=hidden
            )
            from fairtune.training import init_params

            model = init_params(hp, d)
            if hidden == 0:
                model = perturbed(model, 0, 0, 0.3)
            err = gradient_relative_error(model, X, y, 0.01)
            worst = max(worst, err)
            assert err <= 1e-4
    report(5, f"200 finite-difference checks, worst relative error {worst:.2e}", t0, 10.0)


def test_criterion_6_upweighting_collapse():
    t0 = time.perf_counter()
    train, _, _ = planted_splits(seed=31)
    stage1 = HyperParams(learning_rate=0.1, epochs=4, batch_size=64, seed=5)
    stage2 = HyperParams(learning_rate=0.05, epochs=6, batch_size=32, seed=6)
    outcome = jtt_train(train, stage1, t=2, lam=1, stage2_hp=stage2)
    plain = train_erm(train, stage2)[-1]
    assert models_equal(outcome.model, plain)
    report(6, "lambda=1 two-stage run is bit-identical to plain training", t0, 5.0)


def test_criterion_7_mean_distance_selection_quality():
    t0 = time.perf_counter()
    wins = 0
    details = []
    for seed in (101, 202, 303, 404, 505):
        train, validation, _ = planted_splits(n_per_class=1000, minority_fraction=0.1, seed=seed)
        grid = [
            HyperParams(learning_rate=0.1, epochs=30, batch_size=64, seed=seed + 100, hidden_units=8),
            HyperParams(learning_rate=0.05, epochs=30, batch_size=64, seed=seed + 100, hidden_units=8),
        ]
        predictions, candidates = labeller_predictions(train, validation, grid)
        selected = select_labeller(predictions, candidates, validation)
        selected_acc = pseudo_label_quality(
            selected.pseudo, validation.sensitive, validation.targets
        ).accuracy_overall
        # baseline: the final-epoch checkpoint chosen by validation accuracy,
        # i.e. standard model selection without the mean-distance rule
        finals = [i for i, (hp, epoch) in enumerate(candidates) if epoch == hp.epochs]
        best_final = max(finals, key=lambda i: np.mean(predictions[i] == validation.targets))
        baseline_acc = pseudo_label_quality(
            (predictions[best_final] == validation.targets).astype(np.int8),
            validation.sensitive,
            validation.targets,
        ).accuracy_overall
        wins += selected_acc >= baseline_acc
        details.append(f"{selected_acc:.3f}/{baseline_acc:.3f}")
    assert wins >= 4, f"selection beat the final-epoch baseline in only {wins}/5 seeds"
    report(7, f"selected vs final-epoch pseudo accuracy {' '.join(details)} ({wins}/5)", t0, 300.0)


def test_criterion_8_imbalance_sweep_trend():
    t0 = time.perf_counter()
    seeds = (7, 11, 21)

    def pseudo_accuracy(fraction, seed):
        train, validation, _ = planted_splits(n_per_class=3000, minority_fraction=fraction, seed=seed)
        grid = [
            HyperParams(learning_rate=0.1, epochs=30, batch_size=64, seed=seed + 50, hidden_units=8)
        ]
        selected = select_labeller(*labeller_predictions(train, validation, grid), validation)
        return pseudo_label_quality(
            selected.pseudo, validation.sensitive, validation.targets
        ).accuracy_overall

    means = []
    for fraction in (0.05, 0.20, 0.35, 0.50):
        means.append(float(np.mean([pseudo_accuracy(fraction, s) for s in seeds])))
    assert all(a > b for a, b in zip(means, means[1:])), means
    report(
        8,
        "pseudo-label accuracy decreases with balance: "
        + " > ".join(f"{m:.3f}" for m in means),
        t0,
        600.0,
    )


ADULT_ENV = "FAIRTUNE_ADULT_CSV"
ADULT_NUMERIC = (
    "age",
    "fnlwgt",
    "education-num",
    "capital-gain",
    "capital-loss",
    "hours-per-week",
)
ADULT_CATEGORICAL = (
    "workclass",
    "education",
    "marital-status",
    "occupation",
    "relationship",
    "race",
    "sex",
    "native-country",
)


# Criterion 9's split fractions and search; configs/adult.json declares the same.
ADULT_FRACTIONS = (1 - (9049 + 15060) / 45221, 9049 / 45221, 15060 / 45221)
ADULT_JTT = dict(
    t_grid=(1, 2, 5, 10, 15, 20, 30, 35, 40, 45, 50, 65, 80, 95),
    lambda_grid=(5, 10, 20),
    objective="dp_gap",
    accuracy_bins=((0.80, 0.805), (0.805, 0.81), (0.81, 0.815), (0.815, 0.82), (0.82, 0.825)),
    sensitive_source="pseudo",
)


def adult_model_grid(seed: int) -> tuple[HyperParams, ...]:
    return tuple(
        HyperParams(learning_rate=lr, weight_decay=wd, epochs=100, batch_size=256, seed=seed, hidden_units=64)
        for lr in (1e-3, 1e-4, 1e-5)
        for wd in (1e-1, 1e-3)
    )


def adult_csv_path() -> Path:
    override = os.environ.get(ADULT_ENV)
    if override:
        return Path(override)
    return REPO / "data" / "adult.csv"


def test_criterion_9_income_benchmark_reproduction():
    path = adult_csv_path()
    if not path.exists():
        print(
            f"SKIP criterion 9: income benchmark CSV not found at {path} "
            f"(set {ADULT_ENV} or see README)"
        )
        pytest.skip(f"income benchmark CSV not present at {path}")
    t0 = time.perf_counter()
    vocab = fit_categorical_vocab(path, ADULT_CATEGORICAL)
    schema = DatasetSchema(
        feature_columns=tuple((c, "numeric") for c in ADULT_NUMERIC)
        + tuple((c, "categorical") for c in ADULT_CATEGORICAL),
        target_column=("income", ">50K"),
        sensitive_column=("sex", "Male"),
        categorical_vocab=vocab,
    )
    data = load_csv(path, schema)
    n = data.n_rows
    train, validation, test = standardize(*split(data, ADULT_FRACTIONS, seed=0))

    model_grid = adult_model_grid(seed=0)
    jobs = os.cpu_count() or 1

    labelled = select_labeller(*labeller_predictions(train, validation, model_grid, jobs=jobs), validation)
    config = JttConfig(stage1_grid=model_grid, stage2_grid=model_grid, **ADULT_JTT)
    result = grid_search(train, validation, test, config, pseudo=labelled.pseudo, jobs=jobs)
    # The plain baseline is the top validation accuracy over the stage-2
    # grid's plain runs; its test report reads ground truth whatever the
    # selection labels.
    baseline = result.erm_baseline
    erm_acc, erm_dp = baseline.test.avg_accuracy, baseline.test.dp_gap
    assert abs(erm_acc - 0.848) <= 0.015, f"plain-training accuracy {erm_acc:.3f}"
    assert erm_dp >= 0.40, f"plain-training dp gap {erm_dp:.3f}"
    target_bin = result.bins[0]
    assert not target_bin.empty, "no candidate landed in the [80, 80.5) bin"
    tuned_dp = target_bin.test.dp_gap
    assert tuned_dp <= 0.12, f"tuned dp gap {tuned_dp:.3f}"
    assert tuned_dp <= erm_dp / 3.0, f"tuned dp {tuned_dp:.3f} vs plain {erm_dp:.3f}"
    elapsed = time.perf_counter() - t0
    print(
        f"PASS criterion 9: plain ({100 * erm_acc:.1f}, {100 * erm_dp:.1f}), "
        f"tuned bin [80, 80.5) dp {100 * tuned_dp:.1f} on {n} rows [{elapsed:.0f}s]"
    )


def test_adult_config_declares_the_criterion_9_search(tmp_path):
    """configs/adult.json, whose CSV is not shipped, parses to criterion 9's
    grids and search; its grid points, which name no seed, train with the
    master seed + 2 where criterion 9 uses 0."""
    raw = json.loads((REPO / "configs" / "adult.json").read_text())
    schema = tmp_path / "adult.schema.json"
    schema.write_text(json.dumps({"feature_columns": [["age", "numeric"]], "target_column": ["income", ">50K"]}))
    raw["dataset"]["csv"]["schema_path"] = str(schema)
    config = parse_config(raw, base_dir=REPO / "configs")
    grid = adult_model_grid(seed=raw["seed"] + 2)
    assert config.labeller_grid == grid
    assert config.jtt == JttConfig(stage1_grid=grid, stage2_grid=grid, **ADULT_JTT)
    assert config.split_fractions == pytest.approx(ADULT_FRACTIONS, abs=1e-5)


def test_criterion_10_end_to_end_determinism(tmp_path):
    t0 = time.perf_counter()
    raw = json.loads((REPO / "configs" / "synthetic.json").read_text())
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        for command in ("prepare", "train-grid", "label", "tune"):
            code = main([command, "--config", str(config_path), "--out", str(out)])
            assert code == 0, f"{command} failed in {name}"
        outs.append(out)
    files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel
    payload = json.loads((outs[0] / "tuner_result.json").read_text())
    result = TunerResult.from_dict(payload["result"])
    assert any(not b.empty for b in result.bins)
    report(10, f"two pipeline runs byte-identical across {len(files_a)} files", t0, 600.0)
