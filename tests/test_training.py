import numpy as np
import pytest

from fairtune.data import TabularDataset
from fairtune.training import (
    HyperParams,
    ModelParams,
    TrainingError,
    bce_with_logits,
    gradients,
    init_params,
    load_model,
    models_equal,
    predict,
    predict_proba,
    regularized_loss,
    save_model,
    train_erm,
    train_upsampled,
    upsampled_index,
    upsampled_positions,
)


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
