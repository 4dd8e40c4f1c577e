import csv
import math

import numpy as np
import pytest

from fairtune.metrics import EmptyGroupError, pseudo_label_quality
from fairtune.noise import (
    NoiseSpec,
    difference_of_means_probe,
    dp_gap_noisy_exact,
    edm_exact,
    mix_groups,
    verify_edm_lemma,
    verify_proportionality,
    write_sweep_csv,
)

from reference import proportionality_by_gather


def gaussian_groups(n=100_000, seed=0):
    rng = np.random.default_rng(seed)
    majority = rng.normal((1.0, 0.0), 1.0, (n, 2))
    minority = rng.normal((0.0, 1.0), 1.0, (n, 2))
    return majority, minority


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="alpha"):
        NoiseSpec(alpha=1.2, beta=0.0)
    with pytest.raises(ValueError, match="beta_1"):
        NoiseSpec(alpha=0.1, beta=0.1, beta_1=-0.2)
    spec = NoiseSpec(alpha=0.1, beta=0.2, alpha_1=0.3)
    assert spec.class_1_rates() == (0.3, 0.2)


def test_mix_groups_zero_noise_draws_pure_sources():
    maj, mino = gaussian_groups(n=500, seed=1)
    mixed = mix_groups(maj, mino, NoiseSpec(alpha=0.0, beta=0.0, seed=3), (400, 400))
    assert mixed.majority_from_majority.all()
    assert not mixed.minority_from_majority.any()
    np.testing.assert_array_equal(mixed.majority, maj[mixed.majority_source_index])
    np.testing.assert_array_equal(mixed.minority, mino[mixed.minority_source_index])


def test_mix_groups_boundary_full_contamination():
    maj, mino = gaussian_groups(n=300, seed=2)
    mixed = mix_groups(maj, mino, NoiseSpec(alpha=1.0, beta=0.0, seed=4), (200, 200))
    assert not mixed.majority_from_majority.any()
    np.testing.assert_array_equal(mixed.majority, mino[mixed.majority_source_index])
    assert not mixed.minority_from_majority.any()


def test_mix_groups_binomial_concentration():
    maj, mino = gaussian_groups(n=2000, seed=5)
    alpha = 0.3
    n = 50_000
    mixed = mix_groups(maj, mino, NoiseSpec(alpha=alpha, beta=0.1, seed=6), (n, n))
    contamination = 1.0 - mixed.majority_from_majority.mean()
    assert abs(contamination - alpha) <= 3.0 * math.sqrt(alpha * (1 - alpha) / n)


def test_mix_groups_determinism_and_errors():
    maj, mino = gaussian_groups(n=100, seed=7)
    spec = NoiseSpec(alpha=0.2, beta=0.2, seed=11)
    a = mix_groups(maj, mino, spec, (50, 50))
    b = mix_groups(maj, mino, spec, (50, 50))
    np.testing.assert_array_equal(a.majority, b.majority)
    np.testing.assert_array_equal(a.minority_source_index, b.minority_source_index)
    with pytest.raises(EmptyGroupError):
        mix_groups(np.zeros((0, 2)), mino, spec, (10, 10))
    with pytest.raises(ValueError, match="n_out"):
        mix_groups(maj, mino, spec, (0, 10))


def test_estimate_contamination_identity_and_complement():
    truth = np.array([1, 0, 1, 0, 1, 0], dtype=np.int8)
    targets = np.array([0, 0, 0, 1, 1, 1])
    est = pseudo_label_quality(truth, truth, targets)
    for y in (0, 1):
        assert est.by_class[y].alpha_hat == 0.0
        assert est.by_class[y].beta_hat == 0.0
        assert est.by_class[y].one_minus_sum == 1.0
    est2 = pseudo_label_quality(1 - truth, truth, targets)
    for y in (0, 1):
        assert est2.by_class[y].alpha_hat == 1.0
        assert est2.by_class[y].beta_hat == 1.0
        assert est2.by_class[y].one_minus_sum == -1.0


def test_estimate_contamination_handcrafted_against_counting():
    pseudo = np.array([1, 1, 1, 0, 0, 1, 1, 0, 0, 0])
    truth = np.array([1, 0, 1, 0, 1, 1, 0, 0, 0, 1])
    targets = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    est = pseudo_label_quality(pseudo, truth, targets)
    # class 0: labelled majority rows 0,1,2 of which row 1 is truly minority
    assert est.by_class[0].alpha_hat == pytest.approx(1 / 3)
    # class 0: labelled minority rows 3,4 of which row 4 is truly majority
    assert est.by_class[0].beta_hat == pytest.approx(1 / 2)
    # class 1: labelled majority rows 5,6 -> one contaminated
    assert est.by_class[1].alpha_hat == pytest.approx(1 / 2)
    # class 1: labelled minority rows 7,8,9 -> one truly majority
    assert est.by_class[1].beta_hat == pytest.approx(1 / 3)


def test_estimate_contamination_errors_on_empty_pseudo_group():
    # Every row is in target class 1 and labelled minority.
    est = pseudo_label_quality(np.zeros(4, dtype=int), np.ones(4, dtype=int), np.ones(4, dtype=int))
    assert est.by_class[1].alpha_hat is None
    assert est.by_class[1].beta_hat == 1.0
    assert est.by_class[0].alpha_hat is None and est.by_class[0].beta_hat is None
    with pytest.raises(EmptyGroupError, match="majority"):
        est.by_class[1].one_minus_sum
    with pytest.raises(EmptyGroupError, match="majority"):
        est.by_class[0].one_minus_sum
    # Only an empty minority group.
    all_majority = pseudo_label_quality(np.ones(4, dtype=int), np.ones(4, dtype=int), np.ones(4, dtype=int))
    with pytest.raises(EmptyGroupError, match="minority"):
        all_majority.by_class[1].one_minus_sum


def test_estimate_recovers_mixing_rates():
    maj, mino = gaussian_groups(n=5000, seed=8)
    alpha, beta = 0.25, 0.4
    n = 60_000
    mixed = mix_groups(maj, mino, NoiseSpec(alpha=alpha, beta=beta, seed=9), (n, n))
    pseudo = np.concatenate([np.ones(n, dtype=np.int8), np.zeros(n, dtype=np.int8)])
    truth = np.concatenate(
        [mixed.majority_from_majority.astype(np.int8), mixed.minority_from_majority.astype(np.int8)]
    )
    # One target class for every row: the pooled estimate.
    est = pseudo_label_quality(pseudo, truth, np.zeros(2 * n, dtype=np.int8)).by_class[0]
    assert abs(est.alpha_hat - alpha) <= 3.0 * math.sqrt(alpha * (1 - alpha) / n)
    assert abs(est.beta_hat - beta) <= 3.0 * math.sqrt(beta * (1 - beta) / n)


def targets_for(n, seed):
    return np.random.default_rng(seed).integers(0, 2, n)


def test_proportionality_zero_noise():
    maj, mino = gaussian_groups(seed=10)
    probe = difference_of_means_probe(maj, mino)
    y1, y0 = targets_for(len(maj), 11), targets_for(len(mino), 12)
    rec = verify_proportionality(probe, (maj, y1), (mino, y0), NoiseSpec(0.0, 0.0, seed=13), 100_000)
    assert abs(rec.ratio_dp - 1.0) <= 0.02
    assert abs(rec.ratio_eo - 1.0) <= 0.02


def test_proportionality_half():
    maj, mino = gaussian_groups(seed=14)
    probe = difference_of_means_probe(maj, mino)
    y1, y0 = targets_for(len(maj), 15), targets_for(len(mino), 16)
    rec = verify_proportionality(probe, (maj, y1), (mino, y0), NoiseSpec(0.2, 0.3, seed=17), 100_000)
    assert abs(rec.ratio_dp - 0.5) <= 0.03
    assert abs(rec.ratio_eo - 0.5) <= 0.03


def test_proportionality_cancelling_noise():
    maj, mino = gaussian_groups(seed=18)
    probe = difference_of_means_probe(maj, mino)
    y1, y0 = targets_for(len(maj), 19), targets_for(len(mino), 20)
    rec = verify_proportionality(probe, (maj, y1), (mino, y0), NoiseSpec(0.5, 0.5, seed=21), 100_000)
    assert abs(rec.dp_noisy) <= 0.02


def test_proportionality_class_dependent_rates():
    maj, mino = gaussian_groups(seed=22)
    probe = difference_of_means_probe(maj, mino)
    y1, y0 = targets_for(len(maj), 23), targets_for(len(mino), 24)
    spec = NoiseSpec(alpha=0.1, beta=0.1, alpha_1=0.3, beta_1=0.2, seed=25)
    rec = verify_proportionality(probe, (maj, y1), (mino, y0), spec, 100_000)
    assert abs(rec.ratio_dp - 0.8) <= 0.03
    assert abs(rec.ratio_eo - 0.5) <= 0.03
    assert (rec.alpha_1, rec.beta_1) == (0.3, 0.2)


def test_proportionality_degenerate_gap_reports_absent_ratio():
    rng = np.random.default_rng(26)
    same = rng.normal(size=(20_000, 2))
    probe = difference_of_means_probe(np.ones((10, 2)), -np.ones((10, 2)))
    y = targets_for(len(same), 27)
    rec = verify_proportionality(probe, (same, y), (same.copy(), y.copy()), NoiseSpec(0.2, 0.2, seed=28), 50_000)
    assert rec.ratio_dp is None


@pytest.mark.parametrize("d", [2, 50])
def test_proportionality_equals_the_feature_row_gather_bit_for_bit(d):
    rng = np.random.default_rng(d)
    maj = rng.normal(0.5, 1.0, (700, d))
    mino = rng.normal(-0.5, 1.0, (400, d))
    probe = difference_of_means_probe(maj, mino)
    y1, y0 = targets_for(len(maj), 44), targets_for(len(mino), 45)
    specs = [
        NoiseSpec(0.0, 0.0, seed=1),
        NoiseSpec(0.2, 0.3, seed=2),
        NoiseSpec(0.5, 0.5, seed=3),
        NoiseSpec(1.0, 0.0, seed=4),
        NoiseSpec(0.1, 0.4, seed=5, alpha_1=0.3, beta_1=0.2),
        NoiseSpec(0.3, 0.1, seed=6, beta_1=0.6),
    ]
    for spec in specs:
        rec = verify_proportionality(probe, (maj, y1), (mino, y0), spec, 3000)
        # repr tells -0.0 from 0.0, so equal reprs mean equal bits.
        assert repr(rec) == repr(proportionality_by_gather(probe, (maj, y1), (mino, y0), spec, 3000))


def test_edm_lemma_sampled_records():
    maj, mino = gaussian_groups(seed=29)
    records = verify_edm_lemma(maj, mino, [(0.0, 0.0), (0.2, 0.3)], 100_000, seed=30)
    assert abs(records[0].ratio - 1.0) <= 0.02
    assert abs(records[1].edm_noisy - 0.5 * math.sqrt(2.0)) <= 0.03
    again = verify_edm_lemma(maj, mino, [(0.0, 0.0), (0.2, 0.3)], 100_000, seed=30)
    assert [r.edm_noisy for r in again] == [r.edm_noisy for r in records]


def test_edm_lemma_monotone_in_alpha():
    maj, mino = gaussian_groups(n=50_000, seed=31)
    grid = [(a, 0.1) for a in (0.0, 0.2, 0.4, 0.6)]
    records = verify_edm_lemma(maj, mino, grid, 50_000, seed=32)
    ratios = [r.ratio for r in records]
    assert all(x > y for x, y in zip(ratios, ratios[1:]))


def test_edm_lemma_rejects_coincident_means():
    rng = np.random.default_rng(36)
    same = rng.normal(size=(1000, 2))
    with pytest.raises(ValueError, match="coincide"):
        verify_edm_lemma(same, same.copy(), [(0.1, 0.1)], 100, seed=37)


def test_exact_edm_identity_on_grid():
    # Population path: mixture means exactly satisfy the |1-a-b| scaling.
    # Error is measured relative to the clean distance; at cells where
    # a + b == 1 the target vanishes and only that scale is meaningful.
    mu1, mu0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    worst = 0.0
    for i in range(10):
        for j in range(10):
            a, b = i / 10.0, j / 10.0
            true, noisy = edm_exact(mu1, mu0, a, b)
            target = abs(1.0 - a - b) * true
            worst = max(worst, abs(noisy - target) / true)
    assert worst <= 1e-12


def test_exact_dp_proportionality_including_sign_flip():
    p1, p0 = 0.7, 0.2
    for i in range(0, 20):
        for j in range(0, 20):
            a, b = i / 20.0, j / 20.0
            noisy = dp_gap_noisy_exact(p1, p0, a, b)
            assert abs(noisy - (1.0 - a - b) * (p1 - p0)) <= 1e-12
    # past a + b = 1 the measured gap flips sign
    assert dp_gap_noisy_exact(p1, p0, 0.8, 0.7) < 0.0


def test_sweep_csv_round_trip(tmp_path):
    maj, mino = gaussian_groups(n=5000, seed=38)
    records = verify_edm_lemma(maj, mino, [(0.0, 0.0), (0.2, 0.3)], 5000, seed=39)
    probe = difference_of_means_probe(maj, mino)
    y1, y0 = targets_for(len(maj), 40), targets_for(len(mino), 41)
    dp_records = [
        verify_proportionality(probe, (maj, y1), (mino, y0), NoiseSpec(a, b, seed=42), 5000)
        for a, b in ((0.0, 0.0), (0.2, 0.3))
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, records, dp_records)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert float(rows[1]["alpha"]) == 0.2
    assert float(rows[1]["edm_noisy"]) == records[1].edm_noisy
    assert float(rows[1]["dp_ratio"]) == dp_records[1].ratio_dp


def test_sweep_csv_keeps_each_draw_of_a_repeated_cell_on_its_row(tmp_path):
    maj, mino = gaussian_groups(n=5000, seed=46)
    grid = [(0.2, 0.3), (0.2, 0.3)]
    records = verify_edm_lemma(maj, mino, grid, 5000, seed=47)
    probe = difference_of_means_probe(maj, mino)
    y1, y0 = targets_for(len(maj), 48), targets_for(len(mino), 49)
    dp_records = [
        verify_proportionality(probe, (maj, y1), (mino, y0), NoiseSpec(a, b, seed=50 + i), 5000)
        for i, (a, b) in enumerate(grid)
    ]
    assert dp_records[0].dp_noisy != dp_records[1].dp_noisy
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, records, dp_records)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for row, rec, dp in zip(rows, records, dp_records, strict=True):
        assert (row["edm_noisy"], row["dp_noisy"], row["eo_noisy"]) == (
            repr(rec.edm_noisy), repr(dp.dp_noisy), repr(dp.eo_noisy)
        )
