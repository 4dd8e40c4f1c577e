"""Deterministic gradient-descent training of binary classifiers.

Two architectures: a plain logistic model and a one-hidden-layer rectifier
network. Training is plain mini-batch gradient descent on mean binary
cross-entropy plus an L2 penalty on weights (biases excluded); batch order
comes from a per-epoch shuffle seeded with seed + epoch, so the checkpoint
after epoch k of a long run equals the final checkpoint of a k-epoch run.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .data import TabularDataset


class TrainingError(RuntimeError):
    """Training failed (non-finite loss/gradient, bad inputs)."""


@dataclass(frozen=True)
class HyperParams:
    """One grid point of the training configuration.

    hidden_units == 0 trains the plain logistic model; hidden_units > 0 trains
    a one-hidden-layer rectifier network of that width.
    """

    learning_rate: float
    weight_decay: float = 0.0
    epochs: int = 1
    batch_size: int = 64
    seed: int = 0
    hidden_units: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.hidden_units < 0:
            raise ValueError("hidden_units must be >= 0")

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "weight_decay": self.weight_decay,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "hidden_units": self.hidden_units,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "HyperParams":
        return cls(
            learning_rate=float(d["learning_rate"]),
            weight_decay=float(d.get("weight_decay", 0.0)),
            epochs=int(d.get("epochs", 1)),
            batch_size=int(d.get("batch_size", 64)),
            seed=int(d.get("seed", 0)),
            hidden_units=int(d.get("hidden_units", 0)),
        )


# Tensor layout per architecture; True marks tensors subject to weight decay.
_LINEAR_NAMES = ("w", "b")
_LINEAR_DECAY = (True, False)
_MLP_NAMES = ("w1", "b1", "w2", "b2")
_MLP_DECAY = (True, False, True, False)


@dataclass(frozen=True)
class ModelParams:
    """Immutable trained parameters plus their provenance."""

    tensors: tuple[np.ndarray, ...]
    hidden_units: int
    feature_dim: int
    trained_epochs: int
    hp: HyperParams

    def __post_init__(self) -> None:
        frozen = []
        for t in self.tensors:
            t = np.asarray(t, dtype=np.float64)
            t.flags.writeable = False
            frozen.append(t)
        d, h = self.feature_dim, self.hidden_units
        expected = ((d, h), (h,), (h,), ()) if h > 0 else ((d,), ())
        shapes = tuple(t.shape for t in frozen)
        if shapes != expected:
            raise TrainingError(f"tensor shapes {shapes} do not match architecture {expected}")
        object.__setattr__(self, "tensors", tuple(frozen))

    @property
    def is_mlp(self) -> bool:
        return self.hidden_units > 0

    @property
    def tensor_names(self) -> tuple[str, ...]:
        return _MLP_NAMES if self.is_mlp else _LINEAR_NAMES

    @property
    def decay_mask(self) -> tuple[bool, ...]:
        return _MLP_DECAY if self.is_mlp else _LINEAR_DECAY


def _expit(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def init_params(hp: HyperParams, feature_dim: int) -> ModelParams:
    """Deterministic initial parameters.

    Logistic model starts at zero; the hidden-layer network draws uniform
    values in +-1/sqrt(fan_in) from hp.seed.
    """
    if hp.hidden_units == 0:
        tensors = (np.zeros(feature_dim), np.zeros(()))
    else:
        rng = np.random.default_rng(hp.seed)
        h = hp.hidden_units
        k1 = 1.0 / np.sqrt(feature_dim)
        k2 = 1.0 / np.sqrt(h)
        tensors = (
            rng.uniform(-k1, k1, (feature_dim, h)),
            rng.uniform(-k1, k1, h),
            rng.uniform(-k2, k2, h),
            rng.uniform(-k2, k2, ()),
        )
    return ModelParams(
        tensors=tensors,
        hidden_units=hp.hidden_units,
        feature_dim=feature_dim,
        trained_epochs=0,
        hp=hp,
    )


def logits(model: ModelParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise TrainingError(
            f"feature dimension mismatch: model expects {model.feature_dim}, got {X.shape}"
        )
    if model.is_mlp:
        w1, b1, w2, b2 = model.tensors
        hidden = np.maximum(X @ w1 + b1, 0.0)
        return hidden @ w2 + b2
    w, b = model.tensors
    return X @ w + b


def _features_of(data) -> np.ndarray:
    return data.features if isinstance(data, TabularDataset) else np.asarray(data)


def predict_proba(model: ModelParams, data) -> np.ndarray:
    """Per-row probability of the positive class."""
    return _expit(logits(model, _features_of(data)))


def predict(model: ModelParams, data) -> np.ndarray:
    """Per-row label; probability ties at 0.5 resolve to label 1."""
    return (logits(model, _features_of(data)) >= 0.0).astype(np.int8)


def bce_with_logits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise binary cross-entropy, numerically stable."""
    return np.logaddexp(0.0, z) - z * y


def regularized_loss(model: ModelParams, X: np.ndarray, y: np.ndarray, weight_decay: float) -> float:
    """Mean BCE plus weight_decay * sum of squared weights (biases excluded)."""
    z = logits(model, X)
    penalty = sum(
        float(np.sum(t * t)) for t, dec in zip(model.tensors, model.decay_mask) if dec
    )
    return float(np.mean(bce_with_logits(z, y))) + weight_decay * penalty


def _gradients(
    tensors: tuple[np.ndarray, ...],
    is_mlp: bool,
    X: np.ndarray,
    y: np.ndarray,
    weight_decay: float,
) -> tuple[np.ndarray, ...]:
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


def gradients(model: ModelParams, X: np.ndarray, y: np.ndarray, weight_decay: float) -> tuple[np.ndarray, ...]:
    """Analytic gradient of regularized_loss w.r.t. each model tensor."""
    return _gradients(model.tensors, model.is_mlp, np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64), weight_decay)


def _train_loop(X: np.ndarray, y: np.ndarray, hp: HyperParams) -> list[ModelParams]:
    n, d = X.shape
    model = init_params(hp, d)
    tensors = model.tensors
    is_mlp = model.is_mlp
    lr = hp.learning_rate
    checkpoints: list[ModelParams] = []
    for epoch in range(hp.epochs):
        order = np.random.default_rng(hp.seed + epoch).permutation(n)
        for bi, start in enumerate(range(0, n, hp.batch_size)):
            idx = order[start : start + hp.batch_size]
            grads = _gradients(tensors, is_mlp, X[idx], y[idx], hp.weight_decay)
            if not all(np.isfinite(g).all() for g in grads):
                raise TrainingError(f"non-finite gradient at epoch {epoch}, batch {bi}")
            tensors = tuple(t - lr * g for t, g in zip(tensors, grads))
        checkpoints.append(
            ModelParams(
                tensors=tuple(t.copy() for t in tensors),
                hidden_units=hp.hidden_units,
                feature_dim=d,
                trained_epochs=epoch + 1,
                hp=hp,
            )
        )
    return checkpoints


# (fn, ctx) of pool_map, set in its worker processes only: ctx is sent once
# per worker, not once per item.
_POOL_STATE: tuple[Callable, object] | None = None


def _pool_init(fn: Callable, ctx: object) -> None:
    global _POOL_STATE
    _POOL_STATE = (fn, ctx)


def _pool_call(item):
    fn, ctx = _POOL_STATE
    return fn(ctx, item)


def pool_map(fn: Callable, ctx: object, items: Sequence, jobs: int) -> list:
    """[fn(ctx, item) for item in items]; with jobs > 1 and more than one item
    the calls run in `jobs` worker processes (fn must then be module-level)."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(ctx, item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs, initializer=_pool_init, initargs=(fn, ctx)) as pool:
        return list(pool.map(_pool_call, items, chunksize=1))


def train_erm(train: TabularDataset, hp: HyperParams) -> list[ModelParams]:
    """Train on the given split, returning the checkpoint after every epoch."""
    if train.n_rows == 0:
        raise TrainingError("training set is empty")
    if not np.isfinite(train.features).all():
        raise TrainingError("training features contain non-finite values")
    return _train_loop(train.features, train.targets.astype(np.float64), hp)


def upsampled_positions(n_rows: int, repeat_pos: Sequence[int], lam: int) -> np.ndarray:
    """Positional index of the virtual training set.

    All n_rows original rows in order, then lam - 1 extra copies of each
    repeated position (in the given order). With lam == 1 or no repeated
    position the virtual set equals the original.
    """
    base = np.arange(n_rows)
    if lam == 1 or len(repeat_pos) == 0:
        return base
    return np.concatenate([base, np.repeat(np.asarray(repeat_pos, dtype=np.intp), lam - 1)])


def upsampled_index(train: TabularDataset, repeat_ids: Iterable[int], lam: int) -> np.ndarray:
    """`upsampled_positions` of the rows whose row ids are repeated, in
    dataset order."""
    if lam < 1:
        raise TrainingError("lambda must be >= 1")
    repeat = set(int(r) for r in repeat_ids)
    known = set(int(r) for r in train.row_ids)
    unknown = repeat - known
    if unknown:
        raise TrainingError(f"unknown row_ids in repeat set: {sorted(unknown)[:5]}")
    hits = np.flatnonzero(np.isin(train.row_ids, sorted(repeat)))
    return upsampled_positions(train.n_rows, hits, lam)


def train_upsampled(
    train: TabularDataset,
    repeat_ids: Iterable[int],
    lam: int,
    hp: HyperParams,
) -> list[ModelParams]:
    """train_erm on the virtual set where each repeated row appears lam times."""
    idx = upsampled_index(train, repeat_ids, lam)
    X = train.features[idx]
    y = train.targets[idx].astype(np.float64)
    if not np.isfinite(X).all():
        raise TrainingError("training features contain non-finite values")
    return _train_loop(X, y, hp)


_FORMAT_VERSION = 1


def save_model(model: ModelParams, path: str | Path, meta: Mapping[str, str] | None = None) -> None:
    """Write a checkpoint file; floats are hex-encoded for exact round-trips."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "architecture": "mlp" if model.is_mlp else "linear",
        "hidden_units": model.hidden_units,
        "feature_dim": model.feature_dim,
        "trained_epochs": model.trained_epochs,
        "hyperparams": model.hp.to_dict(),
        "tensors": {
            name: {
                "shape": list(t.shape),
                "data": [float.hex(float(v)) for v in np.ravel(t)],
            }
            for name, t in zip(model.tensor_names, model.tensors)
        },
        "meta": dict(meta) if meta else {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path: str | Path) -> ModelParams:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format_version") != _FORMAT_VERSION:
        raise TrainingError(f"{path}: unsupported checkpoint format {payload.get('format_version')!r}")
    hp = HyperParams.from_dict(payload["hyperparams"])
    names = _MLP_NAMES if payload["architecture"] == "mlp" else _LINEAR_NAMES
    tensors = []
    for name in names:
        raw = payload["tensors"][name]
        t = np.asarray([float.fromhex(v) for v in raw["data"]], dtype=np.float64)
        tensors.append(t.reshape(raw["shape"]))
    return ModelParams(
        tensors=tuple(tensors),
        hidden_units=int(payload["hidden_units"]),
        feature_dim=int(payload["feature_dim"]),
        trained_epochs=int(payload["trained_epochs"]),
        hp=hp,
    )


def models_equal(a: ModelParams, b: ModelParams) -> bool:
    """Bit-exact tensor equality (provenance fields excluded)."""
    if a.hidden_units != b.hidden_units or a.feature_dim != b.feature_dim:
        return False
    return all(
        ta.shape == tb.shape and np.array_equal(ta, tb, equal_nan=True)
        for ta, tb in zip(a.tensors, b.tensors)
    )
