"""Deterministic gradient-descent training of binary classifiers.

Two architectures: a plain logistic model and a one-hidden-layer rectifier
network. Training is plain mini-batch gradient descent on mean binary
cross-entropy plus an L2 penalty on weights (biases excluded); batch order
comes from a per-epoch shuffle seeded with seed + epoch, so the checkpoint
after epoch k of a long run equals the final checkpoint of a k-epoch run.
"""

from __future__ import annotations

import ctypes
import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .data import TabularDataset, check_float, check_int


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
        for name in ("learning_rate", "weight_decay"):
            object.__setattr__(self, name, check_float(getattr(self, name), name))
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate: must be > 0, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay: must be >= 0, got {self.weight_decay}")
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("seed", 0), ("hidden_units", 0)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, minimum))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "HyperParams":
        """The grid point of a config object or of a stored to_dict(). A key
        that names no field is an error, so a typo cannot fall back to the
        field's default."""
        for key in d:
            if key not in cls.__dataclass_fields__:
                raise ValueError(f"{key}: unknown key")
        if "learning_rate" not in d:
            raise ValueError("learning_rate: missing required key")
        return cls(**d)


# Tensor names per architecture, in tensor order.
_LINEAR_NAMES = ("w", "b")
_MLP_NAMES = ("w1", "b1", "w2", "b2")


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


# Rows per block of `logits`: a 1,024 x 64 hidden-layer buffer is 512 KiB.
SCORE_BLOCK_ROWS = 1024


def block_stops(n: int, rows: int = SCORE_BLOCK_ROWS) -> list[int]:
    """End rows of the `rows`-row blocks of an n-row matrix. numpy computes
    a one-row product with dot or gemv, not gemm, which rounds differently,
    so a last block of one row joins the block before it."""
    stops = list(range(rows, n, rows))
    if stops and n - stops[-1] == 1:
        stops.pop()
    return stops + [n] if n else []


def logits(model: ModelParams, X: np.ndarray) -> np.ndarray:
    """Per-row logit of X's rows, scored in blocks of SCORE_BLOCK_ROWS rows
    (the last block takes up to one row more). The hidden layer of each block
    is computed in one buffer that every block reuses, and each block's
    output goes straight into the result, so scoring holds O(block x hidden)
    memory whatever the row count. The results do not depend on the block
    size: on one BLAS thread, as every training process runs (`pool_map`),
    they equal np.maximum(X @ w1 + b1, 0) @ w2 + b2 (X @ w + b for the
    linear model) bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise TrainingError(
            f"feature dimension mismatch: model expects {model.feature_dim}, got {X.shape}"
        )
    n = X.shape[0]
    out = np.empty(n)
    start = 0
    if model.is_mlp:
        w1, b1, w2, bias = model.tensors
        buffer = np.empty((min(n, SCORE_BLOCK_ROWS + 1), model.hidden_units))
        for stop in block_stops(n):
            hidden = np.matmul(X[start:stop], w1, out=buffer[: stop - start])
            hidden += b1
            np.maximum(hidden, 0.0, out=hidden)
            np.matmul(hidden, w2, out=out[start:stop])
            start = stop
    else:
        w, bias = model.tensors
        for stop in block_stops(n):
            np.matmul(X[start:stop], w, out=out[start:stop])
            start = stop
    out += bias
    return out


def _features_of(data) -> np.ndarray:
    return data.features if isinstance(data, TabularDataset) else np.asarray(data)


def predict_proba(model: ModelParams, data) -> np.ndarray:
    """Per-row probability of the positive class."""
    return _expit(logits(model, _features_of(data)))


def predict(model: ModelParams, data) -> np.ndarray:
    """Per-row label; probability ties at 0.5 resolve to label 1."""
    return (logits(model, _features_of(data)) >= 0.0).astype(np.int8)


def _hidden_workspace(m: int, d: int, h: int) -> tuple[np.ndarray, ...]:
    """Hidden-layer step buffers for batches of up to m rows: z1, the ReLU
    output and dz1 (m x h each), and gw1 (d x h)."""
    return (np.empty((m, h)), np.empty((m, h)), np.empty((m, h)), np.empty((d, h)))


def _gradients(
    tensors: tuple[np.ndarray, ...],
    is_mlp: bool,
    X: np.ndarray,
    y: np.ndarray,
    weight_decay: float,
    workspace: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, ...]:
    """Gradients of one batch. The hidden-layer step writes its intermediates
    and gw1 into `workspace` (from `_hidden_workspace`, at least X.shape[0]
    rows); the returned gw1 is then that buffer, valid until the next call."""
    m = X.shape[0]
    if not is_mlp:
        w, b = tensors
        z = X @ w + b
        dz = (_expit(z) - y) / m
        return (X.T @ dz + 2.0 * weight_decay * w, np.asarray(dz.sum()))
    w1, b1, w2, b2 = tensors
    if workspace is None:
        workspace = _hidden_workspace(m, *w1.shape)
    z1, hidden, dz1, gw1 = workspace
    z1, hidden, dz1 = z1[:m], hidden[:m], dz1[:m]
    np.matmul(X, w1, out=z1)
    z1 += b1
    np.maximum(z1, 0.0, out=hidden)
    z = hidden @ w2 + b2
    dz = (_expit(z) - y) / m
    gw2 = hidden.T @ dz + 2.0 * weight_decay * w2
    gb2 = np.asarray(dz.sum())
    np.multiply.outer(dz, w2, out=dz1)
    dz1 *= z1 > 0.0
    np.matmul(X.T, dz1, out=gw1)
    gw1 += 2.0 * weight_decay * w1
    gb1 = dz1.sum(axis=0)
    return (gw1, gb1, gw2, gb2)


def gradients(model: ModelParams, X: np.ndarray, y: np.ndarray, weight_decay: float) -> tuple[np.ndarray, ...]:
    """Analytic gradient, w.r.t. each model tensor, of the training loss: mean
    binary cross-entropy plus weight_decay times the sum of squared weights
    (biases excluded)."""
    return _gradients(model.tensors, model.is_mlp, np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64), weight_decay)


def _train_loop(
    X: np.ndarray, y: np.ndarray, hp: HyperParams, rows: np.ndarray | None = None
) -> list[ModelParams]:
    """Train on the rows of X (float64 features) and y (float64 targets),
    returning the checkpoint after every epoch.

    `rows` lists the positions in X and y of the training set's rows, in
    order and with repeats (an upsampled set); None means each row once.
    Each epoch shuffles that list, and each batch is gathered from X and y
    into a buffer reused across steps, so the set is never materialized.
    """
    n_all, d = X.shape
    rows = np.arange(n_all) if rows is None else np.asarray(rows, dtype=np.intp)
    if rows.size and (rows.min() < 0 or rows.max() >= n_all):
        raise TrainingError(f"row positions outside 0..{n_all - 1}")
    n = len(rows)
    model = init_params(hp, d)
    tensors = tuple(t.copy() for t in model.tensors)
    is_mlp = model.is_mlp
    lr = hp.learning_rate
    m = min(hp.batch_size, n)
    X_batch, y_batch = np.empty((m, d)), np.empty(m)
    workspace = _hidden_workspace(m, d, hp.hidden_units) if is_mlp else None
    checkpoints: list[ModelParams] = []
    for epoch in range(hp.epochs):
        order = rows[np.random.default_rng(hp.seed + epoch).permutation(n)]
        for bi, start in enumerate(range(0, n, hp.batch_size)):
            idx = order[start : start + hp.batch_size]
            # Positions are in range, so "clip" only skips numpy's buffered check.
            Xb = np.take(X, idx, axis=0, out=X_batch[: len(idx)], mode="clip")
            yb = np.take(y, idx, out=y_batch[: len(idx)], mode="clip")
            grads = _gradients(tensors, is_mlp, Xb, yb, hp.weight_decay, workspace)
            if not all(np.isfinite(g).all() for g in grads):
                raise TrainingError(f"non-finite gradient at epoch {epoch}, batch {bi}")
            for t, g in zip(tensors, grads):
                t -= lr * g
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


# Thread-count functions of the bundled OpenBLAS of numpy >= 2 wheels, of
# numpy 1.x wheels (64-bit integer build) and of a system OpenBLAS.
_OPENBLAS_PREFIXES = ("scipy_openblas", "openblas")
_OPENBLAS_SUFFIXES = ("64_", "")


@lru_cache(maxsize=None)
def _openblas_thread_functions() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) thread-count functions of the OpenBLAS mapped into this
    process, or None (another BLAS, or no /proc). Looked up once per process;
    the function pointers stay valid in forked children."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            # A mapping line ends in the path of the mapped file, if any.
            libraries = sorted(
                {line.split(None, 5)[-1].strip() for line in fh if "openblas" in line.rsplit("/", 1)[-1].lower()}
            )
    except OSError:
        return None
    for path in libraries:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


def _set_blas_threads(count: int) -> int | None:
    """Set the OpenBLAS thread count and return the previous one; None, with
    nothing set, when there is no OpenBLAS. An unchanged count is not set
    again: after a fork, any set restarts OpenBLAS's thread pool, whose new
    threads spin for ~0.1 s of CPU each."""
    functions = _openblas_thread_functions()
    if functions is None:
        return None
    get, set_ = functions
    previous = get()
    if previous != count:
        set_(count)
    return previous


# (fn, ctx) of pool_map, set in its worker processes only: ctx is sent once
# per worker, not once per item.
_POOL_STATE: tuple[Callable, object] | None = None


def _pool_init(fn: Callable, ctx: object) -> None:
    global _POOL_STATE
    _POOL_STATE = (fn, ctx)
    _set_blas_threads(1)


def _pool_call(item):
    fn, ctx = _POOL_STATE
    return fn(ctx, item)


def pool_map(fn: Callable, ctx: object, items: Sequence, jobs: int) -> list:
    """[fn(ctx, item) for item in items]; with jobs > 1 and more than one item
    the calls run in min(jobs, len(items)) worker processes (fn must then be
    module-level).

    Every call runs with BLAS on one thread (`_set_blas_threads`), whatever
    the environment says: a training step's GEMMs are too small for more
    threads to help, and idle BLAS threads spin on the other cores. The
    caller is set to one thread first and forked workers inherit it;
    _pool_init sets it in workers that were not forked. The in-process loop
    then restores the previous count; after a fork the caller keeps one
    thread, since a set call would restart OpenBLAS's spinning thread pool.
    A dead worker (killed, or out of memory) is a TrainingError."""
    previous = _set_blas_threads(1)
    if jobs <= 1 or len(items) <= 1:
        try:
            return [fn(ctx, item) for item in items]
        finally:
            if previous is not None:
                _set_blas_threads(previous)
    # Imported here: loading the pool pulls in multiprocessing, which a call
    # that does not fork never needs.
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(items)), initializer=_pool_init, initargs=(fn, ctx)) as pool:
            return list(pool.map(_pool_call, items, chunksize=1))
    except BrokenProcessPool:
        raise TrainingError("a worker process ended abruptly (killed, or out of memory?)") from None


def check_trainable(train: TabularDataset) -> None:
    """Raise TrainingError for an empty split or non-finite features."""
    if train.n_rows == 0:
        raise TrainingError("training set is empty")
    if not np.isfinite(train.features).all():
        raise TrainingError("training features contain non-finite values")


def train_erm(train: TabularDataset, hp: HyperParams) -> list[ModelParams]:
    """Train on the given split, returning the checkpoint after every epoch."""
    check_trainable(train)
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
    check_trainable(train)
    rows = upsampled_index(train, repeat_ids, lam)
    return _train_loop(train.features, train.targets.astype(np.float64), hp, rows)


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
