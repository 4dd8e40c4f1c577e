"""Deterministic gradient-descent training of binary classifiers.

Two architectures: a plain logistic model and a one-hidden-layer rectifier
network. Training is plain mini-batch gradient descent on mean binary
cross-entropy plus an L2 penalty on weights (biases excluded); batch order
comes from a per-epoch shuffle seeded with seed + epoch, so the checkpoint
after epoch k of a long run equals the final checkpoint of a k-epoch run.
A model's parameters are one float64 vector (`ModelParams.params`); the
training loop updates one such vector in place and checkpoints a copy of it
after each epoch. `tensor_layout` alone declares each architecture's tensors.
"""

from __future__ import annotations

import ctypes
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .data import MAX_SIZE, TabularDataset, _frozen, check_float, check_int, check_keys


class TrainingError(RuntimeError):
    """Training failed (a diverging run, bad inputs)."""


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
        for name, minimum in (("epochs", 1), ("batch_size", 1), ("hidden_units", 0)):
            object.__setattr__(self, name, check_int(getattr(self, name), name, minimum, MAX_SIZE))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "HyperParams":
        """The grid point of a config object or of a stored to_dict(), whose
        keys `check_keys` checks against the fields."""
        if not isinstance(d, Mapping):
            raise ValueError(f"grid point: expected an object, got {type(d).__name__}")
        return cls(**check_keys(d, cls.__dataclass_fields__, ("learning_rate",)))


def tensor_layout(feature_dim: int, hidden_units: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """(name, shape) of each tensor of a model, in parameter-vector order:
    (w, b) for the logistic model, (w1, b1, w2, b2) for the hidden-layer
    network."""
    d, h = feature_dim, hidden_units
    if h == 0:
        return (("w", (d,)), ("b", ()))
    return (("w1", (d, h)), ("b1", (h,)), ("w2", (h,)), ("b2", ()))


def _tensor_views(vector: np.ndarray, feature_dim: int, hidden_units: int) -> tuple[np.ndarray, ...]:
    """One view per `tensor_layout` tensor, of consecutive slices of the flat
    `vector`, whose length must be the layout's."""
    layout = tensor_layout(feature_dim, hidden_units)
    stops = np.cumsum([math.prod(shape) for _, shape in layout])
    if vector.shape != (stops[-1],):
        raise TrainingError(f"parameter vector of shape {vector.shape} does not match architecture {layout}")
    return tuple(part.reshape(shape) for part, (_, shape) in zip(np.split(vector, stops[:-1]), layout))


@dataclass(frozen=True)
class ModelParams:
    """Trained parameters plus their provenance: `params` is one float64
    vector of every tensor of the architecture hp.hidden_units selects, and
    `tensors` are its views in `tensor_layout` order, all read-only (`_frozen`)."""

    params: np.ndarray
    feature_dim: int
    trained_epochs: int
    hp: HyperParams

    def __post_init__(self) -> None:
        params = _frozen(np.asarray(self.params, dtype=np.float64))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "tensors", _tensor_views(params, self.feature_dim, self.hidden_units))

    def __reduce__(self):
        # A pickle holds the vector alone; unpickling rebuilds the views.
        return ModelParams, (self.params, self.feature_dim, self.trained_epochs, self.hp)

    @property
    def hidden_units(self) -> int:
        return self.hp.hidden_units

    @property
    def is_mlp(self) -> bool:
        return self.hidden_units > 0

    @property
    def tensor_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in tensor_layout(self.feature_dim, self.hidden_units))


def _expit(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so no
    exp overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def init_params(hp: HyperParams, feature_dim: int) -> ModelParams:
    """Deterministic initial parameters.

    Logistic model starts at zero; the hidden-layer network draws uniform
    values in +-1/sqrt(fan_in) from hp.seed.
    """
    d, h = feature_dim, hp.hidden_units
    if h == 0:
        params = np.zeros(d + 1)
    else:
        rng = np.random.default_rng(hp.seed)
        k1, k2 = 1.0 / np.sqrt(d), 1.0 / np.sqrt(h)  # bounds of (w1, b1), then of (w2, b2)
        params = np.concatenate((rng.uniform(-k1, k1, (d + 1) * h), rng.uniform(-k2, k2, h + 1)))
    return ModelParams(params=params, feature_dim=d, trained_epochs=0, hp=hp)


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


def _forward(tensors: tuple[np.ndarray, ...], X: np.ndarray, out: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """Write the logits of X's rows into `out` and return what the output
    layer read: X for the linear model (w, b), max(X @ w1 + b1, 0) in `buffer`
    (>= X.shape[0] rows) for the hidden-layer network (w1, b1, w2, b2)."""
    hidden = X
    if len(tensors) == 4:
        hidden = np.matmul(X, tensors[0], out=buffer[: X.shape[0]])
        hidden += tensors[1]
        np.maximum(hidden, 0.0, out=hidden)
    np.matmul(hidden, tensors[-2], out=out)
    out += tensors[-1]
    return hidden


def logits(model: ModelParams, X: np.ndarray) -> np.ndarray:
    """Per-row logit of X's rows, scored in blocks of SCORE_BLOCK_ROWS rows
    (the last block takes up to one row more). Every block reuses one
    hidden-layer buffer and writes straight into the result, so scoring holds
    O(block x hidden) memory whatever the row count. The results do not
    depend on the block size: on one BLAS thread, as every training process
    runs (`pool_map`), they equal np.maximum(X @ w1 + b1, 0) @ w2 + b2
    (X @ w + b for the linear model) bit for bit."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise TrainingError(
            f"feature dimension mismatch: model expects {model.feature_dim}, got {X.shape}"
        )
    n = X.shape[0]
    out = np.empty(n)
    buffer = np.empty((min(n, SCORE_BLOCK_ROWS + 1), model.hidden_units))
    stops = block_stops(n)
    # Huge finite parameters can overflow to inf or NaN logits (NaN predicts 0).
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop in zip([0] + stops, stops):
            _forward(model.tensors, X[start:stop], out[start:stop], buffer)
    return out


def predict(model: ModelParams, data) -> np.ndarray:
    """Per-row label of a dataset's or a matrix's rows; probability ties at 0.5
    resolve to label 1."""
    X = data.features if isinstance(data, TabularDataset) else data
    return (logits(model, X) >= 0.0).astype(np.int8)


def _gradients(
    tensors: tuple[np.ndarray, ...], X: np.ndarray, y: np.ndarray, weight_decay: float,
    grads: tuple[np.ndarray, ...], workspace: tuple[np.ndarray, np.ndarray],
) -> None:
    """Write the gradients of one batch into `grads`, one array per tensor.
    `workspace` holds a (2, >= m, h) buffer, for the activations and dz1, and
    >= m logits (m = X.shape[0]). The ReLU mask hidden > 0 equals z1 > 0, as
    neither a signed zero nor NaN is > 0."""
    m = X.shape[0]
    decay = 2.0 * weight_decay
    buffers, z = workspace[0], workspace[1][:m]
    hidden = _forward(tensors, X, z, buffers[0])
    dz = (_expit(z) - y) / m
    w2, (gw2, gb2) = tensors[-2], grads[-2:]
    np.matmul(hidden.T, dz, out=gw2)
    gw2 += decay * w2
    gb2[...] = dz.sum()
    if len(tensors) == 4:
        w1, (gw1, gb1), dz1 = tensors[0], grads[:2], buffers[1, :m]
        np.multiply.outer(dz, w2, out=dz1)
        dz1 *= hidden > 0.0
        np.matmul(X.T, dz1, out=gw1)
        gw1 += decay * w1
        dz1.sum(axis=0, out=gb1)


def gradients(model: ModelParams, X: np.ndarray, y: np.ndarray, weight_decay: float) -> tuple[np.ndarray, ...]:
    """Analytic gradient, w.r.t. each model tensor, of the training loss: mean
    binary cross-entropy plus weight_decay times the sum of squared weights
    (biases excluded)."""
    X = np.asarray(X, dtype=np.float64)
    grads = tuple(np.empty_like(t) for t in model.tensors)
    workspace = (np.empty((2, X.shape[0], model.hidden_units)), np.empty(X.shape[0]))
    _gradients(model.tensors, X, np.asarray(y, dtype=np.float64), weight_decay, grads, workspace)
    return grads


def _train_loop(X: np.ndarray, y: np.ndarray, hp: HyperParams, rows: np.ndarray | None = None) -> list[ModelParams]:
    """Train on the rows of X (float64 features) and y (float64 targets),
    returning the checkpoint after every epoch.

    `rows` lists the positions in X and y of the training set's rows, in
    order and with repeats (an upsampled set); None means each row once.
    Each epoch shuffles that list, and each batch is gathered from X and y
    into a buffer reused across steps, so the set is never materialized.
    The parameters are a copy of init_params' vector and the gradients
    another vector of its layout, with the tensors as views: each step writes
    every gradient into its view, makes one update and checks the updated
    parameters, so a non-finite gradient or an overflowing update raises at
    its batch, with no numpy warning. Each epoch's checkpoint wraps one copy
    of the parameter vector.
    """
    n_all, d = X.shape
    rows = np.arange(n_all) if rows is None else np.asarray(rows, dtype=np.intp)
    if rows.size and (rows.min() < 0 or rows.max() >= n_all):
        raise TrainingError(f"row positions outside 0..{n_all - 1}")
    n = len(rows)
    model = init_params(hp, d)
    params, grad = model.params.copy(), np.empty_like(model.params)
    tensors, grads = _tensor_views(params, d, hp.hidden_units), _tensor_views(grad, d, hp.hidden_units)
    m = min(hp.batch_size, n)
    X_batch, y_batch = np.empty((m, d)), np.empty(m)
    workspace = (np.empty((2, m, hp.hidden_units)), np.empty(m))
    checkpoints: list[ModelParams] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hp.epochs):
            order = rows[np.random.default_rng(hp.seed + epoch).permutation(n)]
            for bi, start in enumerate(range(0, n, hp.batch_size)):
                idx = order[start : start + hp.batch_size]
                # Positions are in range, so "clip" only skips numpy's buffered check.
                Xb = np.take(X, idx, axis=0, out=X_batch[: len(idx)], mode="clip")
                yb = np.take(y, idx, out=y_batch[: len(idx)], mode="clip")
                _gradients(tensors, Xb, yb, hp.weight_decay, grads, workspace)
                params -= hp.learning_rate * grad
                if not np.isfinite(params).all():
                    raise TrainingError(f"training diverged: non-finite parameters at epoch {epoch}, batch {bi}")
            checkpoints.append(ModelParams(params=params.copy(), feature_dim=d, trained_epochs=epoch + 1, hp=hp))
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


@contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore the caller's
    count (`_set_blas_threads`). Also a decorator."""
    previous = _set_blas_threads(1)
    try:
        yield
    finally:
        if previous is not None:
            _set_blas_threads(previous)


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
    in-process loop runs under `one_blas_thread`, which then restores the
    caller's count. Before forking, the caller is set to one thread, which
    forked workers inherit (_pool_init sets it in workers that were not
    forked), and keeps it: a set call after a fork would restart OpenBLAS's
    spinning thread pool. A dead worker (killed, or out of memory) is a
    TrainingError."""
    if jobs <= 1 or len(items) <= 1:
        with one_blas_thread():
            return [fn(ctx, item) for item in items]
    _set_blas_threads(1)
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
    """Read a save_model file whose tensors fit its hyperparams' architecture."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format_version") != _FORMAT_VERSION:
        raise TrainingError(f"{path}: unsupported checkpoint format {payload.get('format_version')!r}")
    hp = HyperParams.from_dict(payload["hyperparams"])
    feature_dim = int(payload["feature_dim"])
    expected = {name: (shape, math.prod(shape)) for name, shape in tensor_layout(feature_dim, hp.hidden_units)}
    stored = {name: (tuple(t["shape"]), len(t["data"])) for name, t in payload["tensors"].items()}
    if payload["hidden_units"] != hp.hidden_units or stored != expected:
        raise TrainingError(f"{path}: hidden_units or tensors {stored} disagree with its hyperparams")
    params = [float.fromhex(v) for name in expected for v in payload["tensors"][name]["data"]]
    return ModelParams(
        params=np.asarray(params, dtype=np.float64),
        feature_dim=feature_dim,
        trained_epochs=int(payload["trained_epochs"]),
        hp=hp,
    )
