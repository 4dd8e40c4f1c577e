import json
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fairtune
import fairtune.training as training
from fairtune.data import TabularDataset
from fairtune.training import (
    HyperParams,
    ModelParams,
    TrainingError,
    _openblas_thread_functions,
    _pool_init,
    _train_loop,
    gradients,
    init_params,
    load_model,
    logits,
    pool_map,
    predict,
    save_model,
    train_erm,
    train_upsampled,
    upsampled_index,
    upsampled_positions,
)

from reference import bce_with_logits, masked_expit, models_equal, regularized_loss, unblocked_logits

# The environment variables that set a BLAS thread count; fairtune runs on one
# thread whatever they say, and the tests below start with none of them set.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def dataset(X, y, split="train"):
    X = np.asarray(X, dtype=np.float64)
    return TabularDataset(
        features=X, targets=np.asarray(y), row_ids=np.arange(X.shape[0]), split=split
    )


def blobs(n=200, mean=2.0, d=2, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack(
        [
            rng.normal(mean, 1.0, (half, d)),
            rng.normal(-mean, 1.0, (n - half, d)),
        ]
    )
    y = np.concatenate([np.ones(half, dtype=int), np.zeros(n - half, dtype=int)])
    return dataset(X, y)


def perturbed(model, tensor_index, flat_index, h):
    tensors = [t.copy() for t in model.tensors]
    tensors[tensor_index].ravel()[flat_index] += h
    return ModelParams(
        params=np.concatenate([t.ravel() for t in tensors]),
        feature_dim=model.feature_dim,
        trained_epochs=model.trained_epochs,
        hp=model.hp,
    )


def finite_difference_gradients(model, X, y, wd, h=1e-5):
    out = []
    for ti, t in enumerate(model.tensors):
        g = np.zeros(t.size)
        for i in range(t.size):
            up = regularized_loss(perturbed(model, ti, i, +h), X, y, wd)
            down = regularized_loss(perturbed(model, ti, i, -h), X, y, wd)
            g[i] = (up - down) / (2.0 * h)
        out.append(g.reshape(t.shape))
    return tuple(out)


def gradient_relative_error(model, X, y, wd):
    analytic = gradients(model, X, y, wd)
    numeric = finite_difference_gradients(model, X, y, wd)
    a = np.concatenate([g.ravel() for g in analytic])
    n = np.concatenate([g.ravel() for g in numeric])
    return np.linalg.norm(a - n) / max(np.linalg.norm(a), np.linalg.norm(n), 1e-12)


@pytest.mark.parametrize("hidden", [0, 6])
def test_gradients_match_finite_differences(hidden):
    rng = np.random.default_rng(7)
    for trial in range(20):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(2, 21))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n).astype(np.float64)
        hp = HyperParams(learning_rate=0.1, weight_decay=0.01, seed=trial, hidden_units=hidden)
        model = init_params(hp, d)
        if hidden == 0:
            # move off the all-zeros point so the loss surface is generic
            model = perturbed(model, 0, 0, 0.3)
        assert gradient_relative_error(model, X, y, 0.01) <= 1e-4


def separator_oracle_accuracy(X, y):
    """Brute-force search over 2-d halfspace separators."""
    best = 0.0
    for theta in np.linspace(0.0, np.pi, 720, endpoint=False):
        w = np.array([np.cos(theta), np.sin(theta)])
        proj = X @ w
        order = np.argsort(proj)
        cuts = np.concatenate([[proj.min() - 1.0], (proj[order][1:] + proj[order][:-1]) / 2.0, [proj.max() + 1.0]])
        for b in cuts:
            preds = (proj >= b).astype(int)
            best = max(best, np.mean(preds == y), np.mean((1 - preds) == y))
    return best


def test_separable_blobs_reach_oracle_accuracy():
    train = blobs(n=200, mean=2.0, seed=1)
    hp = HyperParams(learning_rate=0.1, epochs=50, batch_size=200, seed=0)
    model = train_erm(train, hp)[-1]
    acc = np.mean(predict(model, train) == train.targets)
    oracle = separator_oracle_accuracy(train.features, train.targets)
    assert oracle >= 0.99
    assert acc >= 0.99
    assert acc >= oracle - 0.01


def test_single_full_batch_step_closed_form():
    train = blobs(n=40, mean=1.0, seed=3)
    hp = HyperParams(learning_rate=0.25, epochs=1, batch_size=40, seed=0)
    model = train_erm(train, hp)[0]
    X, y = train.features, train.targets.astype(np.float64)
    # From the zero initializer every predicted probability is 0.5.
    grad_w = X.T @ (0.5 - y) / len(y)
    grad_b = np.mean(0.5 - y)
    np.testing.assert_allclose(model.tensors[0], -0.25 * grad_w, rtol=1e-12)
    np.testing.assert_allclose(model.tensors[1], -0.25 * grad_b, rtol=1e-12)


@pytest.mark.parametrize("hidden", [0, 4])
def test_training_is_bit_deterministic(hidden):
    train = blobs(n=64, seed=5)
    hp = HyperParams(learning_rate=0.05, epochs=4, batch_size=16, seed=9, hidden_units=hidden)
    a = train_erm(train, hp)
    b = train_erm(train, hp)
    assert len(a) == len(b) == 4
    for ca, cb in zip(a, b):
        assert models_equal(ca, cb)


def test_checkpoint_prefix_property():
    train = blobs(n=50, seed=2)
    long_run = train_erm(train, HyperParams(learning_rate=0.1, epochs=7, batch_size=10, seed=4))
    short_run = train_erm(train, HyperParams(learning_rate=0.1, epochs=3, batch_size=10, seed=4))
    assert models_equal(long_run[2], short_run[-1])


def test_full_batch_loss_non_increasing_on_linear_instance():
    train = blobs(n=80, mean=1.0, seed=11)
    hp = HyperParams(learning_rate=0.05, epochs=30, batch_size=80, seed=0)
    ckpts = train_erm(train, hp)
    y = train.targets.astype(np.float64)
    losses = [regularized_loss(m, train.features, y, 0.0) for m in ckpts]
    diffs = np.diff(losses)
    assert (diffs <= 1e-12).all()


def test_weight_decay_shrinks_weights():
    train = blobs(n=100, seed=6)
    plain = train_erm(train, HyperParams(learning_rate=0.1, epochs=20, batch_size=25, seed=1))[-1]
    decayed = train_erm(
        train, HyperParams(learning_rate=0.1, weight_decay=0.1, epochs=20, batch_size=25, seed=1)
    )[-1]
    assert np.linalg.norm(decayed.tensors[0]) < np.linalg.norm(plain.tensors[0])


def test_predict_zero_model_tie_rule():
    model = init_params(HyperParams(learning_rate=0.1), feature_dim=3)
    X = np.random.default_rng(0).normal(size=(5, 3))
    np.testing.assert_array_equal(logits(model, X), np.zeros(5))
    np.testing.assert_array_equal(predict(model, X), np.ones(5, dtype=np.int8))


def test_predict_dimension_mismatch():
    model = init_params(HyperParams(learning_rate=0.1), 3)
    with pytest.raises(TrainingError, match="dimension"):
        predict(model, np.zeros((2, 4)))


def _random_model(d, hidden, seed):
    """A model whose biases are nonzero too, unlike init_params's linear model."""
    rng = np.random.default_rng(seed)
    shapes = ((d, hidden), (hidden,), (hidden,), ()) if hidden else ((d,), ())
    return ModelParams(
        params=np.concatenate([rng.normal(size=s).ravel() for s in shapes]),
        feature_dim=d,
        trained_epochs=1,
        hp=HyperParams(learning_rate=0.1, hidden_units=hidden),
    )


def _scores(model, X):
    return logits(model, X), predict(model, X), unblocked_logits(model, X)


BLOCK = training.SCORE_BLOCK_ROWS


@pytest.mark.parametrize("d", [2, 104])
@pytest.mark.parametrize("hidden", [0, 5, 64])
@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
def test_blocked_scoring_equals_the_unblocked_formula_bit_for_bit(n, hidden, d):
    # Scored through pool_map, so on one BLAS thread as in every training
    # process: with more threads, the unblocked formula's own bits depend on
    # where OpenBLAS splits the rows between its threads.
    model = _random_model(d, hidden, seed=n + hidden + d)
    X = np.random.default_rng(n).normal(size=(n, d))
    [(z, labels, expected)] = pool_map(_scores, model, [X], jobs=1)
    assert z.shape == (n,) and z.dtype == np.float64
    assert np.array_equal(z.view(np.int64), expected.view(np.int64))
    assert np.array_equal(labels, (expected >= 0.0).astype(np.int8)) and labels.dtype == np.int8


def test_expit_equals_the_masked_two_branch_formula_bit_for_bit():
    special = np.array([0.0, 1e-320, 36.7, 709.0, 745.0, 1e308, np.inf])
    rng = np.random.default_rng(5)
    spread = rng.normal(size=10**5) * 10.0 ** rng.uniform(-3.0, 3.0, 10**5)
    for z in (np.concatenate([special, -special]), spread):
        got, expected = training._expit(z), masked_expit(z)
        assert got.dtype == np.float64 and got.shape == z.shape
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_predict_holds_one_block_of_hidden_units_whatever_the_row_count():
    # A census train split: scored whole, its 20k x 64 hidden layer alone
    # would take 10 MB.
    X = np.random.default_rng(3).normal(size=(20_000, 104))
    model = _random_model(104, 64, seed=3)
    tracemalloc.start()
    try:
        predict(model, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_upsampled_lambda_one_is_identity():
    train = blobs(n=30, seed=8)
    hp = HyperParams(learning_rate=0.1, epochs=3, batch_size=8, seed=5)
    plain = train_erm(train, hp)
    up = train_upsampled(train, {0, 5, 7}, 1, hp)
    for a, b in zip(plain, up):
        assert models_equal(a, b)


def test_upsampled_index_construction():
    train = dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1])
    idx = upsampled_index(train, {2}, 3)
    assert list(idx) == [0, 1, 2, 3, 2, 2]
    assert list(upsampled_index(train, set(), 5)) == [0, 1, 2, 3]



def test_upsampled_index_maps_row_ids_to_shared_positions():
    train = TabularDataset(
        features=np.zeros((5, 2)),
        targets=np.array([0, 1, 0, 1, 0]),
        row_ids=np.array([40, 10, 30, 20, 50]),
        split="train",
    )
    idx = upsampled_index(train, [20, 40], 3)
    assert idx.tolist() == [0, 1, 2, 3, 4, 0, 0, 3, 3]
    assert np.array_equal(idx, upsampled_positions(5, (0, 3), 3))
    assert upsampled_positions(5, (0, 3), 1).tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(TrainingError, match="unknown row_ids"):
        upsampled_index(train, [99], 2)

def test_upsampled_matches_weighted_loss_oracle():
    # One full-batch step with lambda=2 on repeat set R equals a gradient step
    # of the weighted BCE with weight 2 on R, normalized by the virtual count.
    train = blobs(n=20, seed=12)
    repeat = {1, 4, 9}
    lam = 2
    hp = HyperParams(learning_rate=0.3, epochs=1, batch_size=20 + len(repeat), seed=0)
    model = train_upsampled(train, repeat, lam, hp)[0]

    X, y = train.features, train.targets.astype(np.float64)
    weights = np.ones(len(y))
    weights[list(repeat)] = lam
    total = weights.sum()
    # From the zero initializer: p = 0.5 for every row.
    grad_w = X.T @ (weights * (0.5 - y)) / total
    grad_b = np.sum(weights * (0.5 - y)) / total
    np.testing.assert_allclose(model.tensors[0], -0.3 * grad_w, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(model.tensors[1], -0.3 * grad_b, rtol=1e-10, atol=1e-14)


def test_upsampled_rejects_bad_input():
    train = blobs(n=10, seed=0)
    with pytest.raises(TrainingError, match="unknown row_ids"):
        train_upsampled(train, {99}, 2, HyperParams(learning_rate=0.1))
    with pytest.raises(TrainingError, match="lambda"):
        train_upsampled(train, {1}, 0, HyperParams(learning_rate=0.1))
    with pytest.raises(TrainingError, match="training set is empty"):
        train_upsampled(train.take(np.arange(0)), (), 2, HyperParams(learning_rate=0.1))


DIVERGED = r"^training diverged: non-finite parameters at epoch \d+, batch \d+$"


def test_non_finite_gradient_reported():
    train = blobs(n=16, seed=1)
    hp = HyperParams(learning_rate=1.0, weight_decay=1e160, epochs=5, batch_size=16, seed=0)
    with pytest.raises(TrainingError, match=DIVERGED):
        train_erm(train, hp)


@pytest.mark.parametrize("hidden", [0, 8])
def test_an_update_that_overflows_is_reported_at_its_batch(hidden):
    # The gradient is finite; the learning rate times it is not.
    rng = np.random.default_rng(0)
    X = rng.normal(size=(50, 3)) * 100
    y = (X[:, 0] > 0).astype(np.float64)
    hp = HyperParams(learning_rate=1e308, epochs=1, batch_size=64, hidden_units=hidden)
    with pytest.raises(TrainingError, match=r"^training diverged: non-finite parameters at epoch 0, batch 0$"):
        _train_loop(X, y, hp)


def test_scoring_huge_finite_parameters_is_silent():
    # Logits that overflow to NaN or -inf predict 0, with no numpy warning
    # (the suite also runs with warnings as errors, in development mode).
    hp = HyperParams(learning_rate=0.1)
    model = ModelParams(params=np.array([1e308, 1e308, 1e308, 0.0]), feature_dim=3, trained_epochs=1, hp=hp)
    X = np.array([[10.0, -10.0, 0.0], [-10.0, -10.0, 0.0], [1.0, 0.0, 0.0]])
    assert predict(model, X).tolist() == [0, 0, 1]


def test_non_finite_features_rejected():
    X = np.array([[1.0], [np.inf]])
    train = dataset(X, [0, 1])
    with pytest.raises(TrainingError, match="non-finite"):
        train_erm(train, HyperParams(learning_rate=0.1))


def test_bce_matches_naive_formula():
    rng = np.random.default_rng(4)
    z = rng.normal(scale=3.0, size=50)
    y = rng.integers(0, 2, 50).astype(np.float64)
    p = 1.0 / (1.0 + np.exp(-z))
    naive = -(y * np.log(p) + (1 - y) * np.log(1 - p))
    np.testing.assert_allclose(bce_with_logits(z, y), naive, rtol=1e-10)


@pytest.mark.parametrize("hidden", [0, 8])
def test_checkpoint_round_trip(tmp_path, hidden):
    train = blobs(n=40, seed=9)
    hp = HyperParams(learning_rate=0.1, epochs=2, batch_size=10, seed=3, hidden_units=hidden)
    model = train_erm(train, hp)[-1]
    path = tmp_path / "model.json"
    save_model(model, path, meta={"config_sha256": "deadbeef"})
    back = load_model(path)
    assert models_equal(model, back)
    assert back.hp == hp
    assert back.trained_epochs == model.trained_epochs
    # identical writes are byte-identical
    path2 = tmp_path / "model2.json"
    save_model(model, path2, meta={"config_sha256": "deadbeef"})
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize(("hidden", "length"), [(0, 2), (0, 4), (2, 8), (2, 10), (3, 9)])
def test_params_length_must_match_the_architecture(hidden, length):
    # d = 2: the linear model has 2 + 1 parameters, two hidden units have 9.
    hp = HyperParams(learning_rate=0.1, hidden_units=hidden)
    with pytest.raises(TrainingError, match="does not match architecture"):
        ModelParams(params=np.zeros(length), feature_dim=2, trained_epochs=0, hp=hp)


def test_model_params_freezes_views_of_one_buffer_not_the_callers_vector():
    vector = np.arange(9.0)
    hp = HyperParams(learning_rate=0.1, hidden_units=2)
    model = ModelParams(params=vector, feature_dim=2, trained_epochs=0, hp=hp)
    vector[0] = -1.0
    assert vector.flags.writeable
    assert not model.params.flags.writeable
    assert model.tensor_names == ("w1", "b1", "w2", "b2")
    assert [t.shape for t in model.tensors] == [(2, 2), (2,), (2,), ()]
    for t in model.tensors:
        assert not t.flags.writeable
        assert np.shares_memory(t, model.params)
    back = pickle.loads(pickle.dumps(model))
    assert models_equal(back, model)
    assert not back.params.flags.writeable
    assert all(np.shares_memory(t, back.params) for t in back.tensors)


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p.update(hidden_units=3),
        lambda p: p["hyperparams"].update(hidden_units=0),
        lambda p: p["tensors"]["w1"].update(shape=[1, 4]),
        lambda p: p["tensors"]["b1"]["data"].append(p["tensors"]["w1"]["data"].pop()),
        lambda p: p.update(feature_dim=4),
    ],
)
def test_load_model_rejects_tensors_that_disagree_with_the_hyperparams(tmp_path, edit):
    hp = HyperParams(learning_rate=0.1, hidden_units=2)
    path = tmp_path / "model.json"
    save_model(init_params(hp, 2), path)
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(TrainingError, match="disagree with its hyperparams"):
        load_model(path)


# save_model's file of init_params(hp, 2), for the hp in the test below and
# meta {"config_sha256": "deadbeef"}, written when a model held one array per
# tensor instead of one parameter vector.
_SAVED_MODEL = """{
 "architecture": "mlp",
 "feature_dim": 2,
 "format_version": 1,
 "hidden_units": 2,
 "hyperparams": {
  "batch_size": 8,
  "epochs": 3,
  "hidden_units": 2,
  "learning_rate": 0.5,
  "seed": 7,
  "weight_decay": 0.25
 },
 "meta": {
  "config_sha256": "deadbeef"
 },
 "tensors": {
  "b1": {
   "data": [
    "-0x1.2163dfa517eb9p-2",
    "0x1.0e7b4941beb14p-1"
   ],
   "shape": [
    2
   ]
  },
  "b2": {
   "data": [
    "0x1.ae33d61d2e360p-2"
   ],
   "shape": []
  },
  "w1": {
   "data": [
    "0x1.6a50af29f8430p-3",
    "0x1.1f9d0f4091654p-1",
    "0x1.8f3c4b58e31d0p-2",
    "-0x1.8df1476b1b6f6p-2"
   ],
   "shape": [
    2,
    2
   ]
  },
  "w2": {
   "data": [
    "-0x1.6639e7358f345p-1",
    "0x1.d1303d99e13b8p-2"
   ],
   "shape": [
    2
   ]
  }
 },
 "trained_epochs": 0
}
"""


def test_load_model_reads_files_saved_by_the_per_tensor_model_bit_for_bit(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(_SAVED_MODEL)
    model = load_model(path)
    hp = HyperParams(learning_rate=0.5, weight_decay=0.25, epochs=3, batch_size=8, seed=7, hidden_units=2)
    assert models_equal(model, init_params(hp, 2))
    assert model.hp == hp and model.trained_epochs == 0
    tensors = json.loads(_SAVED_MODEL)["tensors"]
    stored = [float.fromhex(v) for name in ("w1", "b1", "w2", "b2") for v in tensors[name]["data"]]
    assert model.params.tobytes() == np.array(stored).tobytes()
    save_model(model, tmp_path / "again.json", meta={"config_sha256": "deadbeef"})
    assert (tmp_path / "again.json").read_text() == _SAVED_MODEL


# ---------------------------------------------------------------------------
# Reference training loop: materializes the (upsampled) training set and
# allocates every intermediate, as the loop did before batches were gathered
# into reused buffers. The buffered loop must match it bit for bit.
# ---------------------------------------------------------------------------

def reference_gradients(tensors, is_mlp, X, y, weight_decay):
    m = X.shape[0]
    if not is_mlp:
        w, b = tensors
        z = X @ w + b
        dz = (masked_expit(z) - y) / m
        return (X.T @ dz + 2.0 * weight_decay * w, np.asarray(dz.sum()))
    w1, b1, w2, b2 = tensors
    z1 = X @ w1 + b1
    hidden = np.maximum(z1, 0.0)
    z = hidden @ w2 + b2
    dz = (masked_expit(z) - y) / m
    gw2 = hidden.T @ dz + 2.0 * weight_decay * w2
    gb2 = np.asarray(dz.sum())
    dh = np.outer(dz, w2)
    dz1 = dh * (z1 > 0.0)
    gw1 = X.T @ dz1 + 2.0 * weight_decay * w1
    gb1 = dz1.sum(axis=0)
    return (gw1, gb1, gw2, gb2)


def reference_train_loop(X, y, hp, rows=None):
    if rows is not None:
        X, y = X[rows], y[rows]
    n, d = X.shape
    model = init_params(hp, d)
    tensors = model.tensors
    checkpoints = []
    for epoch in range(hp.epochs):
        order = np.random.default_rng(hp.seed + epoch).permutation(n)
        for start in range(0, n, hp.batch_size):
            idx = order[start : start + hp.batch_size]
            grads = reference_gradients(tensors, model.is_mlp, X[idx], y[idx], hp.weight_decay)
            tensors = tuple(t - hp.learning_rate * g for t, g in zip(tensors, grads))
        checkpoints.append(tuple(t.copy() for t in tensors))
    return checkpoints


@pytest.mark.parametrize("weight_decay", [0.01, 0.0])
@pytest.mark.parametrize("hidden", [0, 5])
@pytest.mark.parametrize("upsampled", [False, True])
@pytest.mark.parametrize(
    "n, batch_size",
    [(96, 16), (100, 32), (37, 64)],
    ids=["even-batches", "ragged-last-batch", "batch-above-n"],
)
def test_buffered_loop_matches_allocating_reference_bit_for_bit(hidden, upsampled, n, batch_size, weight_decay):
    rng = np.random.default_rng(n + hidden)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, n).astype(np.float64)
    rows = upsampled_positions(n, rng.choice(n, n // 4, replace=False), 3) if upsampled else None
    hp = HyperParams(
        learning_rate=0.3, weight_decay=weight_decay, epochs=4, batch_size=batch_size, seed=n, hidden_units=hidden
    )
    got = _train_loop(X, y, hp, rows)
    expected = reference_train_loop(X, y, hp, rows)
    assert len(got) == len(expected) == hp.epochs
    for ckpt, ref in zip(got, expected):
        for t, r in zip(ckpt.tensors, ref):
            assert t.shape == r.shape
            assert np.array_equal(t.view(np.int64), r.view(np.int64))


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_gradients_mask_dead_and_zero_units_as_the_reference_does(weight_decay):
    # The step masks the ReLU with its output, the reference with its input:
    # unit 0 is dead on every row, and unit 1's pre-activation is a signed
    # zero on every row, where dz1, gw1 and gb1 can hold signed zeros.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, 40).astype(np.float64)
    w1, b1 = rng.normal(size=(3, 4)), rng.normal(size=4)
    w1[:, 1], b1[:2] = 0.0, (-1e3, -0.0)
    params = np.concatenate((w1.ravel(), b1, rng.normal(size=5)))
    model = ModelParams(params=params, feature_dim=3, trained_epochs=0, hp=HyperParams(learning_rate=0.1, hidden_units=4))
    z1 = X @ w1 + b1
    assert (z1[:, 0] < 0.0).all() and (z1[:, 1] == 0.0).all() and (z1[:, 2:] > 0.0).any()
    got = gradients(model, X, y, weight_decay)
    expected = reference_gradients(model.tensors, True, X, y, weight_decay)
    for g, r in zip(got, expected):
        assert g.shape == r.shape
        assert np.array_equal(g.view(np.int64), r.view(np.int64))


def test_train_loop_rejects_row_positions_out_of_range():
    X, y = np.zeros((4, 2)), np.zeros(4)
    hp = HyperParams(learning_rate=0.1)
    for rows in ([0, 4], [-1, 2]):
        with pytest.raises(TrainingError, match="row positions"):
            _train_loop(X, y, hp, np.array(rows))


def _add(ctx, item):
    return ctx + item


def test_importing_the_cli_leaves_the_worker_pool_unloaded():
    # Only a pool_map call that forks loads concurrent.futures.process and
    # multiprocessing.
    src = str(Path(fairtune.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, fairtune.cli; print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pool_map_starts_no_more_workers_than_items(monkeypatch):
    from concurrent.futures import ProcessPoolExecutor

    spawned = []
    spawn = ProcessPoolExecutor._spawn_process

    def counting_spawn(self):
        spawned.append(1)
        spawn(self)

    monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process", counting_spawn)
    assert pool_map(_add, 10, [1, 2], jobs=4) == [11, 12]
    assert 1 <= len(spawned) <= 2


# ---------------------------------------------------------------------------
# pool_map runs every call with BLAS on one thread.
# ---------------------------------------------------------------------------

def _mapped_openblas():
    """Paths of the mapped libraries named like an OpenBLAS ([] without /proc)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return []
    return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())


needs_openblas = pytest.mark.skipif(not _mapped_openblas(), reason="no OpenBLAS is mapped into this process")


@pytest.fixture
def blas_threads(monkeypatch):
    """(get, set) of the mapped OpenBLAS, with no thread-count variable set;
    the thread count is restored afterwards."""
    functions = _openblas_thread_functions()
    assert functions is not None
    for name in _BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    get, set_ = functions
    before = get()
    yield get, set_
    set_(before)


def _blas_thread_count(ctx, item):
    if item == "raise":
        raise RuntimeError("raised in fn")
    return _openblas_thread_functions()[0]()


@needs_openblas
def test_thread_functions_are_found_in_every_mapped_openblas():
    # A renamed symbol must fail here, not silently stop the pinning.
    assert _openblas_thread_functions() is not None, _mapped_openblas()


@needs_openblas
def test_pool_workers_run_blas_on_one_thread(blas_threads):
    get, set_ = blas_threads
    set_(2)
    assert pool_map(_blas_thread_count, None, [0, 1, 2], jobs=2) == [1, 1, 1]
    assert get() == 1  # the caller keeps the count its workers inherited


@needs_openblas
def test_in_process_calls_run_blas_on_one_thread_and_restore_the_count(blas_threads):
    get, set_ = blas_threads
    set_(2)
    assert pool_map(_blas_thread_count, None, [0, 1], jobs=1) == [1, 1]
    assert get() == 2
    assert pool_map(_blas_thread_count, None, [0], jobs=2) == [1]
    assert get() == 2
    with pytest.raises(RuntimeError, match="raised in fn"):
        pool_map(_blas_thread_count, None, [0, "raise"], jobs=1)
    assert get() == 2


# A stand-in OpenBLAS: its thread count, and the count of every set call.
_FAKE_BLAS = {"count": 4, "sets": []}


def _fake_set(count):
    _FAKE_BLAS["sets"].append(count)
    _FAKE_BLAS["count"] = count


@pytest.fixture
def fake_blas(monkeypatch):
    monkeypatch.setitem(_FAKE_BLAS, "count", 4)
    monkeypatch.setitem(_FAKE_BLAS, "sets", [])
    monkeypatch.setattr(training, "_openblas_thread_functions", lambda: (lambda: _FAKE_BLAS["count"], _fake_set))
    for name in _BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    return _FAKE_BLAS


def _fake_blas_state(ctx, item):
    return _FAKE_BLAS["count"], _FAKE_BLAS["sets"]


def test_forked_workers_inherit_one_blas_thread_without_a_set_call(fake_blas):
    # After a fork any set call restarts OpenBLAS's thread pool, whose new
    # threads spin: the workers inherit the caller's count, and the caller
    # is not set back.
    assert pool_map(_fake_blas_state, None, [0, 1, 2], jobs=2) == [(1, [1])] * 3
    assert fake_blas["sets"] == [1]
    assert pool_map(_fake_blas_state, None, [0, 1], jobs=2) == [(1, [1])] * 2
    assert pool_map(_fake_blas_state, None, [0], jobs=1) == [(1, [1])]
    assert fake_blas["sets"] == [1]


def test_pool_init_sets_one_blas_thread_in_a_worker_that_was_not_forked(fake_blas, monkeypatch):
    monkeypatch.setattr(training, "_POOL_STATE", None)
    _pool_init(_add, 0)
    assert fake_blas["sets"] == [1]
    _pool_init(_add, 0)
    assert fake_blas["sets"] == [1]


_REPORT_THREADS = """
import json
from fairtune.training import _openblas_thread_functions, pool_map

def count(ctx, item):
    return _openblas_thread_functions()[0]()

print(json.dumps([count(None, 0), pool_map(count, None, [0], jobs=1), pool_map(count, None, [0, 1], jobs=2)]))
"""


@needs_openblas
def test_a_thread_count_the_user_set_is_overridden():
    start, in_process, workers = _run_fresh(_REPORT_THREADS, OPENBLAS_NUM_THREADS="2")
    # numpy loaded before fairtune.cli, so OpenBLAS started on the user's
    # count, capped at the CPUs this process may run on.
    assert start == min(2, len(os.sched_getaffinity(0)))
    assert in_process == [1] and workers == [1, 1]


def _train_with_thread_count(ctx, hp):
    X, y = ctx
    return _openblas_thread_functions()[0](), _train_loop(X, y, hp)


@needs_openblas
def test_one_blas_thread_leaves_training_bit_identical(blas_threads):
    # The census step shape: d=100, 64 hidden units, batches of 256 rows,
    # large enough for OpenBLAS to split each GEMM over its threads.
    get, set_ = blas_threads
    rng = np.random.default_rng(11)
    X = rng.normal(size=(1024, 100))
    y = rng.integers(0, 2, 1024).astype(np.float64)
    hp = HyperParams(learning_rate=0.3, weight_decay=0.01, epochs=3, batch_size=256, seed=11, hidden_units=64)
    set_(2)
    threaded = _train_loop(X, y, hp)
    [(count, pinned)] = pool_map(_train_with_thread_count, (X, y), [hp], jobs=1)
    assert count == 1 and get() == 2
    for a, b in zip(threaded, pinned, strict=True):
        for ta, tb in zip(a.tensors, b.tensors, strict=True):
            assert np.array_equal(ta.view(np.int64), tb.view(np.int64))


# ---------------------------------------------------------------------------
# Importing the package loads no numpy; importing the CLI starts OpenBLAS on
# one thread, whatever the environment says, unless numpy was loaded first.
# ---------------------------------------------------------------------------

def _run_fresh(code, *args, **variables):
    """JSON printed by `code` in a fresh interpreter on src/, with no
    thread-count variable set but `variables`."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARIABLES}
    src = str(Path(fairtune.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(variables)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_PACKAGE_NAMES = """
import importlib, json, sys
import fairtune
numpy_loaded = "numpy" in sys.modules
mismatched = [
    name for name in fairtune.__all__
    if getattr(fairtune, name) is not getattr(importlib.import_module("fairtune." + fairtune._SUBMODULE[name]), name)
]
try:
    fairtune.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([numpy_loaded, len(fairtune.__all__), mismatched, set(fairtune.__all__) <= set(dir(fairtune)), unknown]))
"""


def test_importing_the_package_loads_no_numpy_and_every_name_resolves():
    numpy_loaded, names, mismatched, listed, unknown = _run_fresh(_PACKAGE_NAMES)
    assert not numpy_loaded
    assert names >= 41 and mismatched == [] and listed
    assert unknown == "module 'fairtune' has no attribute 'no_such_name'"


def test_metrics_imports_nothing_from_training():
    # Counts in, report out: the metrics reach no model, so no import of
    # `fairtune.metrics` may load the training module.
    loaded = _run_fresh('import json, sys, fairtune.metrics; print(json.dumps(sorted(sys.modules)))')
    assert "fairtune.metrics" in loaded and "fairtune.training" not in loaded


_CLI_IMPORT = """
import json, os, sys
environ = dict(os.environ)
counts = []
if sys.argv[1:] == ["numpy-first"]:
    import numpy
    from fairtune.training import _openblas_thread_functions
    counts.append(_openblas_thread_functions()[0]())
import fairtune.cli
from fairtune.training import _openblas_thread_functions
counts.append(_openblas_thread_functions()[0]())
print(json.dumps([counts, len(os.listdir("/proc/self/task")), dict(os.environ) == environ]))
"""


@needs_openblas
def test_importing_the_cli_starts_openblas_on_one_thread_and_leaves_the_environment():
    counts, threads, environ_kept = _run_fresh(_CLI_IMPORT)
    assert counts == [1] and threads == 1 and environ_kept


@needs_openblas
def test_importing_the_cli_overrides_a_thread_count_the_user_set():
    counts, threads, environ_kept = _run_fresh(_CLI_IMPORT, OPENBLAS_NUM_THREADS="2")
    assert counts == [1] and threads == 1 and environ_kept


@needs_openblas
def test_importing_the_cli_after_numpy_leaves_the_thread_count():
    counts, _, environ_kept = _run_fresh(_CLI_IMPORT, "numpy-first")
    assert len(counts) == 2 and counts[1] == counts[0] and environ_kept


_STEP2_SCORES = """
import json
import fairtune.cli
import numpy as np
from fairtune.labelling import score_labels_by_class
rng = np.random.default_rng(3)
features = rng.normal(size=(1000, 104))
label_sets = rng.integers(0, 2, (64, 1000)).astype(np.int8)
scores = score_labels_by_class(label_sets, features, np.ones(1000, dtype=np.int8))
print(json.dumps([scores[y].tobytes().hex() for y in (0, 1)]))
"""


@needs_openblas
def test_step2_scores_do_not_depend_on_a_thread_count_the_user_set():
    # Every row is in class 1, so each product sums over 1,000 rows: at that
    # length two OpenBLAS threads round differently from one.
    assert _run_fresh(_STEP2_SCORES, OPENBLAS_NUM_THREADS="2") == _run_fresh(_STEP2_SCORES)


_SELECT_LABELLER = """
import json
import numpy as np
from fairtune.data import TabularDataset
from fairtune.labelling import select_labeller
from fairtune.training import HyperParams, _openblas_thread_functions
get = _openblas_thread_functions()[0]
before = get()
candidates = [(HyperParams(learning_rate=0.1), epoch) for epoch in range(1, 65)]
winners = []
for seed in range(4):
    rng = np.random.default_rng(seed)
    validation = TabularDataset(
        features=rng.normal(size=(2000, 104)),
        targets=np.repeat(np.array([0, 1], dtype=np.int8), 1000),
        row_ids=np.arange(2000),
        split="validation",
    )
    predictions = rng.integers(0, 2, (64, 2000)).astype(np.int8)
    by_class = select_labeller(predictions, candidates, validation).by_class
    winners += [[by_class[y].candidate_index, by_class[y].edm_score.hex()] for y in (0, 1)]
print(json.dumps([before, get(), winners]))
"""


@needs_openblas
def test_step2_in_library_use_runs_on_one_thread_and_restores_the_count():
    # numpy is loaded before fairtune.cli (never imported here), so OpenBLAS
    # starts on its default count, one thread per CPU. 64 label sets x 1,000
    # rows per class x 104 features is long enough for two threads to round
    # some candidates' scores differently from one; over four draws, some
    # winning score is among them.
    before, after, scores = _run_fresh(_SELECT_LABELLER)
    assert after == before
    assert scores == _run_fresh(_SELECT_LABELLER, OPENBLAS_NUM_THREADS="1")[2]
