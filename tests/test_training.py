import json
import os
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
    _expit,
    _openblas_thread_functions,
    _pool_init,
    _train_loop,
    gradients,
    init_params,
    load_model,
    logits,
    pool_map,
    predict,
    predict_proba,
    save_model,
    train_erm,
    train_upsampled,
    upsampled_index,
    upsampled_positions,
)

from reference import bce_with_logits, models_equal, regularized_loss, unblocked_logits

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
        tensors=tuple(tensors),
        hidden_units=model.hidden_units,
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
    np.testing.assert_array_equal(predict_proba(model, X), np.full(5, 0.5))
    np.testing.assert_array_equal(predict(model, X), np.ones(5, dtype=np.int8))


def test_predict_saturates():
    model = ModelParams(
        tensors=(np.array([10.0]), np.asarray(0.0)),
        hidden_units=0,
        feature_dim=1,
        trained_epochs=0,
        hp=HyperParams(learning_rate=0.1),
    )
    p = predict_proba(model, np.array([[1.0]]))
    assert abs(p[0] - 1.0) < 1e-4


def test_predict_consistent_with_proba():
    rng = np.random.default_rng(3)
    model = init_params(HyperParams(learning_rate=0.1, hidden_units=5, seed=2), 4)
    X = rng.normal(size=(100, 4))
    np.testing.assert_array_equal(predict(model, X), (predict_proba(model, X) >= 0.5).astype(np.int8))


def test_predict_dimension_mismatch():
    model = init_params(HyperParams(learning_rate=0.1), 3)
    with pytest.raises(TrainingError, match="dimension"):
        predict(model, np.zeros((2, 4)))


def _random_model(d, hidden, seed):
    """A model whose biases are nonzero too, unlike init_params's linear model."""
    rng = np.random.default_rng(seed)
    shapes = ((d, hidden), (hidden,), (hidden,), ()) if hidden else ((d,), ())
    return ModelParams(
        tensors=tuple(rng.normal(size=s) for s in shapes),
        hidden_units=hidden,
        feature_dim=d,
        trained_epochs=1,
        hp=HyperParams(learning_rate=0.1, hidden_units=hidden),
    )


def _scores(model, X):
    return logits(model, X), predict(model, X), predict_proba(model, X), unblocked_logits(model, X)


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
    [(z, labels, proba, expected)] = pool_map(_scores, model, [X], jobs=1)
    assert z.shape == (n,) and z.dtype == np.float64
    assert np.array_equal(z.view(np.int64), expected.view(np.int64))
    assert np.array_equal(labels, (expected >= 0.0).astype(np.int8)) and labels.dtype == np.int8
    assert np.array_equal(proba.view(np.int64), _expit(expected).view(np.int64))


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


def test_non_finite_gradient_reported():
    train = blobs(n=16, seed=1)
    hp = HyperParams(learning_rate=1.0, weight_decay=1e160, epochs=5, batch_size=16, seed=0)
    with np.errstate(over="ignore"):
        with pytest.raises(TrainingError, match=r"non-finite gradient at epoch \d+, batch \d+"):
            train_erm(train, hp)


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
        dz = (_expit(z) - y) / m
        return (X.T @ dz + 2.0 * weight_decay * w, np.asarray(dz.sum()))
    w1, b1, w2, b2 = tensors
    z1 = X @ w1 + b1
    hidden = np.maximum(z1, 0.0)
    z = hidden @ w2 + b2
    dz = (_expit(z) - y) / m
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


@pytest.mark.parametrize("hidden", [0, 5])
@pytest.mark.parametrize("upsampled", [False, True])
@pytest.mark.parametrize(
    "n, batch_size",
    [(96, 16), (100, 32), (37, 64)],
    ids=["even-batches", "ragged-last-batch", "batch-above-n"],
)
def test_buffered_loop_matches_allocating_reference_bit_for_bit(hidden, upsampled, n, batch_size):
    rng = np.random.default_rng(n + hidden)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, n).astype(np.float64)
    rows = upsampled_positions(n, rng.choice(n, n // 4, replace=False), 3) if upsampled else None
    hp = HyperParams(
        learning_rate=0.3, weight_decay=0.01, epochs=4, batch_size=batch_size, seed=n, hidden_units=hidden
    )
    got = _train_loop(X, y, hp, rows)
    expected = reference_train_loop(X, y, hp, rows)
    assert len(got) == len(expected) == hp.epochs
    for ckpt, ref in zip(got, expected):
        for t, r in zip(ckpt.tensors, ref):
            assert t.shape == r.shape
            assert np.array_equal(t.view(np.int64), r.view(np.int64))


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
    assert names >= 49 and mismatched == [] and listed
    assert unknown == "module 'fairtune' has no attribute 'no_such_name'"


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
