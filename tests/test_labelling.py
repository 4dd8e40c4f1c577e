import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtune.data import TabularDataset
from fairtune.labelling import (
    EDM_BLOCK_CANDIDATES,
    SelectionError,
    edm,
    labeller_predictions,
    score_labels_by_class,
    select_labeller,
)
from fairtune.metrics import EmptyGroupError
from fairtune.metrics import pseudo_label_quality
from fairtune.training import HyperParams, ModelParams, TrainingError, predict, train_erm
from fairtune.tuning import _Task

from conftest import planted_splits, record_submissions


def linear_model(w, b):
    w = np.asarray(w, dtype=np.float64)
    return ModelParams(
        params=np.append(w, float(b)),
        feature_dim=w.shape[0],
        trained_epochs=0,
        hp=HyperParams(learning_rate=0.1),
    )


def dataset(X, targets, sensitive=None, split="validation"):
    X = np.asarray(X, dtype=np.float64)
    return TabularDataset(
        features=X,
        targets=np.asarray(targets),
        row_ids=np.arange(X.shape[0]),
        split=split,
        sensitive=sensitive,
    )


def correct_rows(model, data):
    """Pseudo attribute per row, computed directly: 1 iff the model's
    prediction equals the row's target."""
    return (predict(model, data) == data.targets).astype(np.int8)


def select_by_labels(label_sets, validation):
    """select_labeller over candidates given by their pseudo labels: where a
    candidate's label is 1 it predicts the row's target, else the other
    class. Returns the per-class winners and the merged pseudo labels."""
    targets = np.asarray(validation.targets)
    predictions = np.array([np.where(np.asarray(labels) == 1, targets, 1 - targets) for labels in label_sets])
    candidates = [(HyperParams(learning_rate=0.1), i + 1) for i in range(len(label_sets))]
    labelled = select_labeller(predictions.reshape(len(label_sets), len(targets)), candidates, validation)
    return labelled.by_class, labelled.pseudo


def test_edm_basic_values():
    assert edm(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])) == 0.0
    assert edm(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])) == pytest.approx(np.sqrt(2.0))


def test_edm_scale_equivariance():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 4))
    Y = rng.normal(size=(7, 4))
    c = 3.0
    assert edm(c * X, c * Y) == pytest.approx(c * edm(X, Y), rel=1e-12)


def test_edm_empty_set_is_an_error_not_zero():
    with pytest.raises(EmptyGroupError):
        edm(np.zeros((0, 2)), np.ones((3, 2)))
    with pytest.raises(EmptyGroupError):
        edm(np.ones((3, 2)), np.zeros((0, 2)))


def test_single_candidate_wins_both_classes():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 2))
    targets = np.array([0, 1] * 20)
    data = dataset(X, targets)
    model = linear_model([1.0, 1.0], 0.0)  # mixed correctness in both classes
    labelled = select_labeller(predict(model, data)[None], [(model.hp, 1)], data)
    assert labelled.by_class[0].candidate_index == 0
    assert labelled.by_class[1].candidate_index == 0
    assert labelled.by_class[0].epoch == labelled.by_class[1].epoch == 1
    np.testing.assert_array_equal(labelled.pseudo, correct_rows(model, data))


def oracle_edm_scores(label_sets, features, targets):
    """Per class, each candidate's mean distance computed explicitly from its
    two row sets; None where either set is empty on that class."""
    scores = {0: [], 1: []}
    for y in (0, 1):
        for labels in label_sets:
            rows = targets == y
            correct = features[rows & (labels == 1)]
            incorrect = features[rows & (labels == 0)]
            if len(correct) == 0 or len(incorrect) == 0:
                scores[y].append(None)
            else:
                scores[y].append(float(np.sqrt(((correct.mean(0) - incorrect.mean(0)) ** 2).sum())))
    return scores


def exhaustive_edm_oracle(label_sets, features, targets):
    """Independent per-class argmax over explicitly computed mean distances."""
    winners = {}
    for y, scores in oracle_edm_scores(label_sets, features, targets).items():
        best, best_score = None, -1.0
        for i, score in enumerate(scores):
            if score is not None and score > best_score:
                best, best_score = i, score
        winners[y] = (best, best_score)
    return winners


def test_two_candidates_planted_selection_matches_oracle():
    train, validation, _ = planted_splits(seed=5)
    weak = linear_model([0.02, 0.01], 0.3)
    biased = linear_model([2.0, -2.0], 0.0)  # separates the majority blobs
    models = [weak, biased]
    label_sets = [correct_rows(m, validation) for m in models]
    oracle = exhaustive_edm_oracle(label_sets, validation.features, validation.targets)
    predictions = np.stack([predict(m, validation) for m in models])
    labelled = select_labeller(predictions, [(m.hp, 1) for m in models], validation)
    for y in (0, 1):
        assert labelled.by_class[y].candidate_index == oracle[y][0] == 1
        assert labelled.by_class[y].edm_score == pytest.approx(oracle[y][1])


def corrupted_labels(truth, flip_to_minority, flip_to_majority, rng):
    """Per-row mutual contamination of ground-truth group labels."""
    labels = truth.copy()
    maj = truth == 1
    mino = truth == 0
    labels[maj & (rng.random(len(truth)) < flip_to_minority)] = 0
    labels[mino & (rng.random(len(truth)) < flip_to_majority)] = 1
    return labels


def test_mc_planted_selection_maximizes_one_minus_alpha_beta():
    # Candidates are contaminations of the true group labels at varying
    # rates; the oracle scores each by its estimated 1 - alpha - beta per
    # class and the mean-distance rule must pick (near-)maximizers.
    rng = np.random.default_rng(6)
    n = 6000
    truth = (rng.random(n) < 0.5).astype(np.int8)
    X = np.where(truth[:, None] == 1, rng.normal(1.2, 1.0, (n, 2)), rng.normal(-1.2, 1.0, (n, 2)))
    targets = rng.integers(0, 2, n)
    data = dataset(X, targets, sensitive=truth)
    label_sets = [
        truth.copy(),  # exact labels: |1 - a - b| = 1
        corrupted_labels(truth, 0.2, 0.1, rng),
        corrupted_labels(truth, 0.4, 0.3, rng),
        corrupted_labels(truth, 0.5, 0.5, rng),
    ]
    winners, merged = select_by_labels(label_sets, data)
    for y in (0, 1):
        scores = []
        for labels in label_sets:
            est = pseudo_label_quality(labels, truth, targets)
            scores.append(abs(est.by_class[y].one_minus_sum))
        best = max(scores)
        chosen = scores[winners[y].candidate_index]
        assert chosen >= best - 0.05  # sampling tolerance O(1/sqrt(n))
        assert winners[y].candidate_index == 0  # the exact labeller wins outright
    np.testing.assert_array_equal(merged, truth)


def test_selection_is_deterministic():
    train, validation, _ = planted_splits(seed=7)
    hp = HyperParams(learning_rate=0.1, epochs=5, batch_size=64, seed=1)
    a = select_labeller(*labeller_predictions(train, validation, [hp]), validation)
    b = select_labeller(*labeller_predictions(train, validation, [hp]), validation)
    np.testing.assert_array_equal(a.pseudo, b.pseudo)
    assert a.by_class[0] == b.by_class[0]
    assert a.by_class[1] == b.by_class[1]


def test_argmax_invariant_under_feature_scaling():
    train, validation, _ = planted_splits(seed=8)
    hp = HyperParams(learning_rate=0.1, epochs=6, batch_size=64, seed=2)
    label_sets = [correct_rows(m, validation) for m in train_erm(train, hp)]
    winners, merged = select_by_labels(label_sets, validation)
    scaled = dataset(validation.features * 7.5, validation.targets)
    winners_scaled, merged_scaled = select_by_labels(label_sets, scaled)
    for y in (0, 1):
        assert winners[y].candidate_index == winners_scaled[y].candidate_index
    np.testing.assert_array_equal(merged, merged_scaled)


def test_row_labels_depend_only_on_own_class_winner():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(100, 2))
    targets = np.array([0, 1] * 50)
    data = dataset(X, targets)
    base_sets = [rng.integers(0, 2, 100).astype(np.int8) for _ in range(3)]
    winners_before, merged_before = select_by_labels(base_sets, data)
    # Add a candidate that is skipped for class 0 (labels every class-0 row 1)
    # but dominates class 1 by perfectly separating two far clusters there.
    extra = np.ones(100, dtype=np.int8)
    class1 = targets == 1
    far = X[:, 0] > np.median(X[class1, 0])
    extra[class1 & far] = 1
    extra[class1 & ~far] = 0
    spread = X.copy()
    spread[class1 & far] += 50.0  # guarantee the new candidate wins class 1
    data_spread = dataset(spread, targets)
    winners_b2, merged_b2 = select_by_labels(base_sets, data_spread)
    winners_a2, merged_a2 = select_by_labels(base_sets + [extra], data_spread)
    assert winners_a2[1].candidate_index == 3
    assert winners_a2[0].candidate_index == winners_b2[0].candidate_index
    class0 = targets == 0
    np.testing.assert_array_equal(merged_a2[class0], merged_b2[class0])


def test_selection_failure_names_the_class():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(20, 2))
    targets = np.array([0, 1] * 10)
    data = dataset(X, targets)
    # both candidates label every class-0 row correct -> skipped for class 0
    labels_a = np.ones(20, dtype=np.int8)
    labels_b = np.ones(20, dtype=np.int8)
    labels_b[targets == 1] = rng.integers(0, 2, 10).astype(np.int8)
    with pytest.raises(SelectionError, match="class 0"):
        select_by_labels([labels_a, labels_b], data)


def test_selection_requires_both_classes_and_candidates():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(10, 2))
    single_class = dataset(X, np.ones(10, dtype=int))
    with pytest.raises(SelectionError, match="target 0"):
        select_by_labels([np.ones(10, dtype=np.int8)], single_class)
    both = dataset(X, np.array([0, 1] * 5))
    with pytest.raises(SelectionError, match="no candidates"):
        select_by_labels([], both)


@pytest.mark.parametrize(
    "n_candidates, n_columns",
    [(1, 40), (8, 40), (5, 39)],
    ids=["fewer candidates", "more candidates", "one column short"],
)
def test_selection_refuses_predictions_that_do_not_match_candidates_and_rows(n_candidates, n_columns):
    # Five prediction rows over a 40-row validation split: each mismatch is
    # refused up front with both shapes, not an IndexError, a numpy broadcast
    # error or winners read off the wrong candidates.
    rng = np.random.default_rng(12)
    validation = dataset(rng.normal(size=(40, 2)), np.array([0, 1] * 20))
    predictions = rng.integers(0, 2, (5, n_columns)).astype(np.int8)
    candidates = [(HyperParams(learning_rate=0.1), i + 1) for i in range(n_candidates)]
    expected = f"predictions: expected shape ({n_candidates}, 40) (candidates, validation rows), got (5, {n_columns})"
    with pytest.raises(ValueError) as info:
        select_labeller(predictions, candidates, validation)
    assert str(info.value) == expected


@pytest.mark.parametrize("jobs", [1, 2])
def test_labeller_predictions_order(jobs, monkeypatch):
    train, validation, _ = planted_splits(seed=12)
    short = HyperParams(learning_rate=0.01, epochs=2, batch_size=64, seed=0)
    long = HyperParams(learning_rate=0.1, epochs=3, batch_size=64, seed=0)
    grid = [short, long, short]
    submitted = record_submissions(monkeypatch)
    predictions, candidates = labeller_predictions(train, validation, grid, jobs=jobs)
    assert [(hp.learning_rate, epoch) for hp, epoch in candidates] == [
        (0.01, 1),
        (0.01, 2),
        (0.1, 1),
        (0.1, 2),
        (0.1, 3),
        (0.01, 1),
        (0.01, 2),
    ]
    assert predictions.dtype == np.int8
    assert predictions.shape == (7, validation.n_rows)
    # One sweep: each distinct point trains once, the one with more epochs first.
    assert submitted == [[_Task(long), _Task(short)]]
    # each row is the prediction of the matching checkpoint of a fresh run
    checkpoints = [ckpt for hp in grid for ckpt in train_erm(train, hp)]
    for row, ckpt in zip(predictions, checkpoints):
        np.testing.assert_array_equal(row, predict(ckpt, validation))
    np.testing.assert_array_equal(predictions[5:], predictions[:2])
    if jobs > 1:
        np.testing.assert_array_equal(predictions, labeller_predictions(train, validation, grid, jobs=1)[0])
    with pytest.raises(SelectionError, match="empty"):
        labeller_predictions(train, validation, [], jobs=jobs)


def test_labeller_predictions_looks_up_the_sweep_engine_on_its_module(monkeypatch):
    # A patch of `fairtune.tuning._run_tasks` (a tracer's, say) sees step 1's sweep.
    import fairtune.tuning as tuning

    train, validation, _ = planted_splits(seed=12)
    hp = HyperParams(learning_rate=0.1, epochs=2, batch_size=64, seed=0)
    calls = []
    run_tasks = tuning._run_tasks

    def recording(ctx, tasks, jobs):
        calls.append((list(tasks), jobs))
        return run_tasks(ctx, tasks, jobs)

    monkeypatch.setattr(tuning, "_run_tasks", recording)
    predictions, _ = labeller_predictions(train, validation, [hp])
    assert calls == [([_Task(hp)], 1)]
    assert predictions.shape == (2, validation.n_rows)


def test_untrainable_labeller_data_fails_before_any_training(monkeypatch):
    train, validation, _ = planted_splits(seed=12)
    features = train.features.copy()
    features[3, 1] = np.nan
    broken = TabularDataset(features=features, targets=train.targets, row_ids=train.row_ids, split=train.split)
    submitted = record_submissions(monkeypatch)
    with pytest.raises(TrainingError, match="non-finite"):
        labeller_predictions(broken, validation, [HyperParams(learning_rate=0.1, epochs=2)])
    assert submitted == []


def test_score_labels_by_class_skips_degenerate_candidates():
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    targets = np.array([0, 0, 1, 1])
    all_correct = np.array([1, 1, 1, 1], dtype=np.int8)
    mixed = np.array([1, 0, 0, 1], dtype=np.int8)
    scores = score_labels_by_class([all_correct, mixed], X, targets)
    assert np.isnan(scores[0][0]) and np.isnan(scores[1][0])
    assert not np.isnan(scores[0][1]) and not np.isnan(scores[1][1])


def test_identical_label_sets_score_identically_so_the_earliest_wins():
    # A hypothesis example of the oracle test below. At d = 1 the block
    # product rounds a row by its position in its block: candidates 92, 172
    # and 177 hold one label set on class 1, yet 177 used to score
    # 3.29223059476997 and the other two 3.2922305947699697, so 177 won.
    rng = np.random.default_rng(8181)
    features = rng.normal(size=(27, 1))
    targets = np.arange(27) % 2
    label_sets = (rng.random((178, 27)) < rng.random((178, 1))).astype(np.int8)
    rows = targets == 1
    assert [i for i, labels in enumerate(label_sets) if np.array_equal(labels[rows], label_sets[92][rows])] == [92, 172, 177]
    scores = score_labels_by_class(label_sets, features, targets)
    assert scores[1][92] == scores[1][172] == scores[1][177] == np.nanmax(scores[1])
    # Candidates 31 and 78 hold the complement of 92's labels on class 1,
    # whose EDM is the same; labelling every row correct takes them out.
    complement = [i for i, labels in enumerate(label_sets) if np.array_equal(labels[rows], 1 - label_sets[92][rows])]
    assert complement == [31, 78]
    label_sets[complement] = 1
    chosen, _ = select_by_labels(label_sets, dataset(features, targets))
    assert chosen[1].candidate_index == 92


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(2, 30),
    dim=st.integers(1, 4),
    n_candidates=st.integers(1, 3 * EDM_BLOCK_CANDIDATES),
    data=st.data(),
)
def test_scores_and_winners_match_exhaustive_oracle(seed, n_rows, dim, n_candidates, data):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_rows, dim))
    targets = np.arange(n_rows) % 2
    label_sets = (rng.random((n_candidates, n_rows)) < rng.random((n_candidates, 1))).astype(np.int8)
    index = st.integers(0, n_candidates - 1)
    label_sets[sorted(data.draw(st.sets(index, max_size=5), label="all correct"))] = 1
    label_sets[sorted(data.draw(st.sets(index, max_size=5), label="all incorrect"))] = 0
    for a, b in data.draw(st.lists(st.tuples(index, index), max_size=8), label="duplicates"):
        label_sets[max(a, b)] = label_sets[min(a, b)]
    oracle = oracle_edm_scores(label_sets, features, targets)
    scores = score_labels_by_class(label_sets, features, targets)
    for y in (0, 1):
        assert scores[y].shape == (n_candidates,)
        for got, want in zip(scores[y], oracle[y]):
            if want is None:
                assert np.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-12)

    winners = exhaustive_edm_oracle(label_sets, features, targets)
    validation = dataset(features, targets)
    if winners[0][0] is None or winners[1][0] is None:
        with pytest.raises(SelectionError, match="every candidate was skipped"):
            select_by_labels(label_sets, validation)
        return
    chosen, _ = select_by_labels(label_sets, validation)
    for y in (0, 1):
        rows = targets == y
        best, best_score = winners[y]
        pick = chosen[y].candidate_index
        assert chosen[y].edm_score == scores[y][pick]
        # Among candidates with the same labels on the class, the earliest wins.
        same = [i for i, labels in enumerate(label_sets) if np.array_equal(labels[rows], label_sets[pick][rows])]
        assert pick == same[0]
        # The oracle's winner, unless distinct label sets tie with it to the
        # last bits (a set and its complement on the class have equal EDM).
        tied = [i for i, s in enumerate(oracle[y]) if s is not None and s == pytest.approx(best_score, rel=1e-12)]
        assert pick in tied
        if all(np.array_equal(label_sets[i][rows], label_sets[best][rows]) for i in tied):
            assert pick == best
