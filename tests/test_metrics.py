import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairtune.metrics
from fairtune.metrics import (
    METRIC_NAMES,
    EmptyGroupError,
    FairnessReport,
    accuracy,
    confusion_counts,
    dp_gap,
    eo_gap,
    full_report,
    pseudo_label_quality,
    report_from_counts,
    report_from_predictions,
    subgroup_accuracies,
    wga,
)
from fairtune.training import HyperParams, ModelParams

import reference


# ---------------------------------------------------------------------------
# Independent counting oracle: plain python loops, no numpy shortcuts.
# ---------------------------------------------------------------------------

def oracle_dp(preds, sens):
    counts = {0: [0, 0], 1: [0, 0]}  # a -> [positives, total]
    for p, a in zip(preds, sens):
        counts[a][0] += 1 if p == 1 else 0
        counts[a][1] += 1
    if counts[0][1] == 0 or counts[1][1] == 0:
        raise EmptyGroupError("oracle: empty group")
    return abs(counts[1][0] / counts[1][1] - counts[0][0] / counts[0][1])


def oracle_eo(preds, targets, sens):
    counts = {0: [0, 0], 1: [0, 0]}
    for p, y, a in zip(preds, targets, sens):
        if y != 1:
            continue
        counts[a][0] += 1 if p == 1 else 0
        counts[a][1] += 1
    if counts[0][1] == 0 or counts[1][1] == 0:
        raise EmptyGroupError("oracle: empty positive subgroup")
    return abs(counts[1][0] / counts[1][1] - counts[0][0] / counts[0][1])


def oracle_wga(preds, targets, sens):
    cells = {}
    for p, y, a in zip(preds, targets, sens):
        hit, total = cells.get((y, a), (0, 0))
        cells[(y, a)] = (hit + (1 if p == y else 0), total + 1)
    if len(cells) != 4:
        raise EmptyGroupError("oracle: empty subgroup")
    return min(hit / total for hit, total in cells.values())


def oracle_quality(pseudo, truth, targets):
    per = {}
    for y in (0, 1):
        for a in (0, 1):
            tp = sum(1 for p, t, c in zip(pseudo, truth, targets) if c == y and p == a and t == a)
            n_pred = sum(1 for p, c in zip(pseudo, targets) if c == y and p == a)
            n_act = sum(1 for t, c in zip(truth, targets) if c == y and t == a)
            precision = tp / n_pred if n_pred else None
            recall = tp / n_act if n_act else None
            per[(y, a)] = (precision, recall)
    overall = sum(1 for p, t in zip(pseudo, truth) if p == t) / len(pseudo)
    return per, overall


def oracle_contamination(pseudo, truth, targets):
    """Per target class (alpha_hat, beta_hat): the share of rows labelled
    majority that are truly minority, and the converse; None for an empty
    pseudo group."""
    rates = {}
    for y in (0, 1):
        pair = []
        for label in (1, 0):
            group = [t for p, t, c in zip(pseudo, truth, targets) if c == y and p == label]
            pair.append(sum(1 for t in group if t != label) / len(group) if group else None)
        rates[y] = tuple(pair)
    return rates


# ---------------------------------------------------------------------------


def test_dp_gap_trivial_cases():
    assert dp_gap([1, 1, 1, 1], [0, 0, 1, 1]) == 0.0
    # a=1 rows predicted (1,1,0,0); a=0 rows predicted (1,0,0,0)
    preds = [1, 1, 0, 0, 1, 0, 0, 0]
    sens = [1, 1, 1, 1, 0, 0, 0, 0]
    assert dp_gap(preds, sens) == pytest.approx(0.25)


def test_eo_gap_trivial_cases():
    targets = [1, 1, 1, 1, 1, 1, 0, 0]
    perfect = targets
    sens = [1, 1, 1, 1, 0, 0, 1, 0]
    assert eo_gap(perfect, targets, sens) == 0.0
    # y=1,a=1 predictions (1,1,1,0); y=1,a=0 predictions (1,0)
    preds = [1, 1, 1, 0, 1, 0, 0, 1]
    assert eo_gap(preds, targets, sens) == pytest.approx(0.25)


def test_wga_trivial_cases():
    targets = [0, 0, 1, 1, 0, 1, 0, 1]
    sens = [0, 1, 0, 1, 1, 0, 0, 1]
    assert wga(targets, targets, sens) == 1.0
    # correct everywhere except the whole (1, 0) cell
    preds = [y if not (y == 1 and a == 0) else 0 for y, a in zip(targets, sens)]
    assert wga(preds, targets, sens) == 0.0
    accs = subgroup_accuracies(preds, targets, sens)
    assert accs[(1, 0)][0] == 0.0


def test_metric_errors_name_the_group():
    with pytest.raises(EmptyGroupError, match="a=0"):
        dp_gap([1, 0], [1, 1])
    with pytest.raises(EmptyGroupError, match=r"y=1, a=1"):
        eo_gap([1, 0], [1, 0], [0, 0])
    with pytest.raises(EmptyGroupError, match=r"\(1, 1\)"):
        wga([0, 0, 1], [0, 0, 1], [0, 1, 0])


def test_metrics_match_counting_oracle_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(6, 16))
        preds = rng.integers(0, 2, n)
        targets = rng.integers(0, 2, n)
        sens = rng.integers(0, 2, n)
        try:
            expected = oracle_dp(preds, sens)
        except EmptyGroupError:
            expected = None
        if expected is not None:
            assert dp_gap(preds, sens) == expected
        try:
            expected = oracle_eo(preds, targets, sens)
        except EmptyGroupError:
            expected = None
        if expected is not None:
            assert eo_gap(preds, targets, sens) == expected
        try:
            expected = oracle_wga(preds, targets, sens)
        except EmptyGroupError:
            expected = None
        if expected is not None:
            assert wga(preds, targets, sens) == expected


FIXED_TARGETS = np.array([0, 0, 1, 1, 0, 1, 0, 1])
FIXED_SENS = np.array([0, 1, 0, 1, 1, 0, 0, 1])


def test_all_256_patterns_match_oracle_exactly():
    for pattern in range(256):
        preds = np.array([(pattern >> i) & 1 for i in range(8)])
        assert dp_gap(preds, FIXED_SENS) == oracle_dp(preds, FIXED_SENS)
        assert eo_gap(preds, FIXED_TARGETS, FIXED_SENS) == oracle_eo(preds, FIXED_TARGETS, FIXED_SENS)
        assert wga(preds, FIXED_TARGETS, FIXED_SENS) == oracle_wga(preds, FIXED_TARGETS, FIXED_SENS)
        per, overall = oracle_quality(preds, FIXED_SENS, FIXED_TARGETS)
        quality = pseudo_label_quality(preds, FIXED_SENS, FIXED_TARGETS)
        assert quality.accuracy_overall == overall
        for key, (precision, recall) in per.items():
            assert quality.per_subgroup[key].precision == precision
            assert quality.per_subgroup[key].recall == recall
        for y, rates in oracle_contamination(preds, FIXED_SENS, FIXED_TARGETS).items():
            assert (quality.by_class[y].alpha_hat, quality.by_class[y].beta_hat) == rates


def test_pseudo_quality_identity_and_complement():
    truth = np.array([1, 0, 1, 0, 1, 1, 0, 0])
    targets = np.array([1, 1, 0, 0, 1, 0, 1, 0])
    q = pseudo_label_quality(truth, truth, targets)
    assert q.accuracy_overall == 1.0
    assert q.accuracy_by_class == {0: 1.0, 1: 1.0}
    for prf in q.per_subgroup.values():
        assert prf.precision == 1.0 and prf.recall == 1.0 and prf.f1 == 1.0
    q2 = pseudo_label_quality(1 - truth, truth, targets)
    assert q2.accuracy_overall == 0.0


def test_pseudo_quality_handcrafted_ten_rows():
    pseudo = [1, 1, 0, 0, 1, 0, 1, 1, 0, 0]
    truth = [1, 0, 0, 1, 1, 0, 1, 0, 1, 0]
    targets = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    q = pseudo_label_quality(pseudo, truth, targets)
    per, overall = oracle_quality(pseudo, truth, targets)
    assert q.accuracy_overall == overall
    for key, (precision, recall) in per.items():
        assert q.per_subgroup[key].precision == precision
        assert q.per_subgroup[key].recall == recall
    # class y=1: pseudo (1,1,0,0,1), truth (1,0,0,1,1) -> 3/5 agree
    assert q.accuracy_by_class[1] == pytest.approx(0.6)


def test_pseudo_quality_absent_and_zero_f1():
    # subgroup (0, 1) never predicted and never present -> f1 == 0
    pseudo = [0, 0]
    truth = [0, 0]
    targets = [0, 0]
    q = pseudo_label_quality(pseudo, truth, targets)
    assert q.per_subgroup[(0, 1)].f1 == 0.0
    assert q.per_subgroup[(0, 1)].precision is None
    # (1, *) cells untouched: no rows with y=1 at all
    assert q.per_subgroup[(1, 0)].f1 == 0.0


def test_pseudo_quality_rejects_bad_columns():
    with pytest.raises(ValueError, match="pseudo values must be 0 or 1"):
        pseudo_label_quality([0, 2], [0, 1], [0, 1])
    with pytest.raises(ValueError, match="truth values must be 0 or 1"):
        pseudo_label_quality([0, 1], [0, -1], [0, 1])
    with pytest.raises(ValueError, match=r"length mismatch: \[2, 3\]"):
        pseudo_label_quality([0, 1], [0, 1, 1], [0, 1])
    with pytest.raises(EmptyGroupError, match="no rows"):
        pseudo_label_quality([], [], [])


def test_gap_symmetry_under_group_swap():
    rng = np.random.default_rng(5)
    preds = rng.integers(0, 2, 40)
    targets = rng.integers(0, 2, 40)
    sens = rng.integers(0, 2, 40)
    assert dp_gap(preds, sens) == pytest.approx(dp_gap(preds, 1 - sens))
    assert eo_gap(preds, targets, sens) == pytest.approx(eo_gap(preds, targets, 1 - sens))


def test_wga_bounded_by_average_accuracy():
    rng = np.random.default_rng(8)
    for _ in range(20):
        preds = rng.integers(0, 2, 32)
        targets = rng.integers(0, 2, 32)
        sens = rng.integers(0, 2, 32)
        try:
            w = wga(preds, targets, sens)
        except EmptyGroupError:
            continue
        assert w <= accuracy(preds, targets) + 1e-12
    # equality when every subgroup accuracy coincides
    targets = np.array([0, 0, 1, 1])
    sens = np.array([0, 1, 0, 1])
    assert wga(targets, targets, sens) == accuracy(targets, targets) == 1.0


def test_pseudo_equal_truth_metrics_coincide():
    rng = np.random.default_rng(11)
    preds = rng.integers(0, 2, 60)
    targets = rng.integers(0, 2, 60)
    sens = rng.integers(0, 2, 60)
    assert dp_gap(preds, sens) == dp_gap(preds, sens.copy())
    r1 = report_from_predictions(preds, targets, sens)
    r2 = report_from_predictions(preds, targets, sens.copy(), sensitive_source="pseudo")
    assert r1.dp_gap == r2.dp_gap and r1.eo_gap == r2.eo_gap and r1.wga == r2.wga


def constant_one_model(d):
    return ModelParams(
        params=np.append(np.zeros(d), 50.0),
        feature_dim=d,
        trained_epochs=0,
        hp=HyperParams(learning_rate=0.1),
    )


def test_full_report_all_correct_model(planted):
    _, validation, _ = planted
    # A model that predicts class membership exactly: targets are recoverable
    # from the planted geometry only imperfectly, so instead check the trivial
    # constant-1 predictor algebra on a crafted dataset.
    from fairtune.data import TabularDataset

    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 2))
    targets = (X[:, 0] > 0).astype(int)
    sens = rng.integers(0, 2, 40)
    data = TabularDataset(features=X, targets=targets, row_ids=np.arange(40), split="test", sensitive=sens)
    perfect = ModelParams(
        params=np.array([100.0, 0.0, 0.0]),
        feature_dim=2,
        trained_epochs=0,
        hp=HyperParams(learning_rate=0.1),
    )
    rep = full_report(perfect, data)
    assert rep.avg_accuracy == 1.0
    assert rep.eo_gap == 0.0
    assert rep.wga == 1.0
    base_rate_gap = abs(targets[sens == 1].mean() - targets[sens == 0].mean())
    assert rep.dp_gap == pytest.approx(base_rate_gap)


def test_full_report_consistency_with_individual_metrics(planted):
    train, validation, _ = planted
    from fairtune.training import predict, train_erm

    model = train_erm(train, HyperParams(learning_rate=0.1, epochs=3, batch_size=64, seed=0))[-1]
    rep = full_report(model, validation)
    preds = predict(model, validation)
    for impl in (reference, fairtune.metrics):
        assert rep.avg_accuracy == impl.accuracy(preds, validation.targets)
        assert rep.dp_gap == impl.dp_gap(preds, validation.sensitive)
        assert rep.eo_gap == impl.eo_gap(preds, validation.targets, validation.sensitive)
        assert rep.wga == impl.wga(preds, validation.targets, validation.sensitive)
    assert rep.sensitive_source == "ground_truth"
    assert sum(rep.subgroup_counts.values()) == validation.n_rows
    # average accuracy is the count-weighted mean of the subgroup accuracies
    weighted = sum(
        rep.subgroup_accuracy[g] * rep.subgroup_counts[g] for g in rep.subgroup_counts
    ) / validation.n_rows
    assert rep.avg_accuracy == pytest.approx(weighted, abs=1e-12)


def test_report_require_controls_error_propagation():
    preds = np.array([1, 0, 1, 0])
    targets = np.array([1, 1, 0, 0])
    sens = np.array([1, 1, 1, 1])  # group a=0 empty everywhere
    with pytest.raises(EmptyGroupError):
        report_from_predictions(preds, targets, sens)
    rep = report_from_predictions(preds, targets, sens, require=())
    assert rep.dp_gap is None and rep.eo_gap is None and rep.wga is None
    assert rep.avg_accuracy == 0.5


def test_report_round_trip():
    rep = report_from_predictions(
        np.array([1, 0, 1, 0]), np.array([1, 0, 0, 1]), np.array([1, 0, 1, 0]), require=()
    )
    back = FairnessReport.from_dict(rep.to_dict())
    assert back == rep


# Counts of any size, also beyond int64 and float range, with rows somewhere.
count_cubes = st.lists(
    st.one_of(st.integers(0, 50), st.integers(0, 2**70), st.integers(2**1030, 2**1040)), min_size=8, max_size=8
).filter(any)


@settings(max_examples=400, deadline=None)
@given(count_cubes, st.sampled_from(["ground_truth", "pseudo"]))
def test_report_read_back_from_its_subgroup_counts(cells, source):
    # A stored report is rebuilt from its subgroup counts and accuracies.
    # Below 2**53 rows per subgroup the accuracy fixes the correct rows, so
    # the report reads back exactly; above, a rebuilt count may differ, and
    # the file then reads exactly or is rejected with one ValueError.
    rep = report_from_counts(np.array(cells, dtype=object).reshape(2, 2, 2), source, require=())
    try:
        back = FairnessReport.from_dict(rep.to_dict())
    except ValueError:
        assert max(rep.subgroup_counts.values()) >= 2**53
    else:
        assert back == rep


def test_report_with_an_impossible_subgroup_accuracy_is_rejected():
    stored = report_from_counts(np.array([[[3, 1], [2, 2]], [[1, 3], [0, 4]]]), require=()).to_dict()
    stored["subgroup_accuracy"]["y0_a0"] = 1.5
    with pytest.raises(ValueError, match=r"subgroup_accuracy.y0_a0: stored 1.5 gives 6 correct of 4 rows"):
        FairnessReport.from_dict(stored)


def test_metrics_within_unit_interval():
    rng = np.random.default_rng(21)
    for _ in range(20):
        preds = rng.integers(0, 2, 24)
        targets = rng.integers(0, 2, 24)
        sens = rng.integers(0, 2, 24)
        try:
            rep = report_from_predictions(preds, targets, sens)
        except EmptyGroupError:
            continue
        for value in (rep.avg_accuracy, rep.dp_gap, rep.eo_gap, rep.wga):
            assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# Counts -> report equals the reference per-row metric functions exactly.
# ---------------------------------------------------------------------------

def report_from_metric_functions(preds, targets, sens, require):
    """FairnessReport assembled from the reference per-row metrics alone."""
    values = {}
    for name, fn in (
        ("dp_gap", lambda: reference.dp_gap(preds, sens)),
        ("eo_gap", lambda: reference.eo_gap(preds, targets, sens)),
        ("wga", lambda: reference.wga(preds, targets, sens)),
    ):
        try:
            values[name] = fn()
        except EmptyGroupError:
            if name in require:
                raise
            values[name] = None
    accs = reference.subgroup_accuracies(preds, targets, sens)
    return FairnessReport(
        avg_accuracy=reference.accuracy(preds, targets),
        subgroup_accuracy={g: acc for g, (acc, _) in accs.items()},
        subgroup_counts={g: n for g, (_, n) in accs.items()},
        **values,
    )


def report_or_error(build):
    try:
        return build()
    except EmptyGroupError as exc:
        return ("EmptyGroupError", str(exc))


# Short columns make empty groups, empty cells and zero rows common.
binary_columns = st.integers(0, 24).flatmap(
    lambda n: st.tuples(*(st.lists(st.integers(0, 1), min_size=n, max_size=n) for _ in range(3)))
)


@settings(max_examples=400, deadline=None)
@given(binary_columns, st.sets(st.sampled_from(METRIC_NAMES)))
def test_report_from_counts_equals_report_from_predictions(columns, require):
    preds, targets, sens = (np.array(c, dtype=np.int64) for c in columns)
    require = tuple(sorted(require))
    counts = confusion_counts(preds, targets, sens)
    assert counts.shape == (2, 2, 2) and counts.sum() == len(preds)
    from_counts = report_or_error(lambda: report_from_counts(counts, require=require))
    assert from_counts == report_or_error(
        lambda: report_from_predictions(preds, targets, sens, require=require)
    )
    assert from_counts == report_or_error(
        lambda: report_from_metric_functions(preds, targets, sens, require)
    )
    for name, args in (
        ("accuracy", (preds, targets)),
        ("dp_gap", (preds, sens)),
        ("eo_gap", (preds, targets, sens)),
        ("wga", (preds, targets, sens)),
        ("subgroup_accuracies", (preds, targets, sens)),
    ):
        library = getattr(fairtune.metrics, name)
        assert report_or_error(lambda: library(*args)) == report_or_error(
            lambda: getattr(reference, name)(*args)
        ), name


def test_metrics_of_zero_rows():
    empty = np.array([], dtype=np.int8)
    assert subgroup_accuracies(empty, empty, empty) == {}
    with pytest.raises(EmptyGroupError, match="^no rows$"):
        accuracy(empty, empty)


def test_confusion_counts_cells():
    counts = confusion_counts([1, 0, 1, 1], [1, 1, 0, 1], [0, 0, 1, 0])
    assert counts[1, 0, 1] == 2 and counts[1, 0, 0] == 1 and counts[0, 1, 1] == 1
    assert counts.sum() == 4
    with pytest.raises(ValueError, match="0 or 1"):
        confusion_counts([2], [1], [0])
