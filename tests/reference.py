"""Reference implementations that the oracle tests compare the library with.

`jtt_train` is a direct restatement of the two stages, built from the public
training calls: train stage 1, read its training mistakes at epoch T, then
retrain on the set with those rows repeated lambda times.

The per-row metrics below compute each group metric as a mean over masked
rows, independently of the library's counts-based `report_from_counts`.
They raise the library's EmptyGroupError with the library's messages.

`regularized_loss` is the training objective whose gradient the library
computes analytically; `models_equal` compares checkpoints bit for bit.
`masked_expit` is the logistic function in two masked branches, one per
sign of z, which the library's one-expression `_expit` must equal bit for
bit.
`unblocked_logits` scores the whole matrix at once, the formula that the
library's `logits` computes block by block.

`proportionality_by_gather` measures the noisy DP/EO gaps the way
`verify_proportionality` once did: it mixes the groups' feature rows and
then gathers each drawn row's prediction from its source group.

`load_csv_per_cell` encodes a raw CSV one row and one cell at a time, the
way `load_csv` once did; `load_csv` encodes it column by column.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fairtune.data import NUMERIC, DataError, DatasetSchema, SchemaError, TabularDataset
from fairtune.metrics import SUBGROUPS, EmptyGroupError
from fairtune.noise import RATIO_DENOM_FLOOR, NoiseSpec, ProportionalityRecord, mix_groups
from fairtune.training import (
    HyperParams,
    ModelParams,
    TrainingError,
    logits,
    predict,
    train_erm,
    train_upsampled,
)


# Per architecture, in tensor order: True marks the tensors subject to
# weight decay (the weights; biases are excluded).
_LINEAR_DECAY = (True, False)
_MLP_DECAY = (True, False, True, False)


def decay_mask(model: ModelParams) -> tuple[bool, ...]:
    return _MLP_DECAY if model.is_mlp else _LINEAR_DECAY


def masked_expit(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) where z >= 0, exp(z) / (1 + exp(z)) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_with_logits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise binary cross-entropy, numerically stable."""
    return np.logaddexp(0.0, z) - z * y


def regularized_loss(model: ModelParams, X: np.ndarray, y: np.ndarray, weight_decay: float) -> float:
    """Mean BCE plus weight_decay * sum of squared weights (biases excluded)."""
    z = logits(model, X)
    penalty = sum(float(np.sum(t * t)) for t, dec in zip(model.tensors, decay_mask(model)) if dec)
    return float(np.mean(bce_with_logits(z, y))) + weight_decay * penalty


def unblocked_logits(model: ModelParams, X: np.ndarray) -> np.ndarray:
    if model.is_mlp:
        w1, b1, w2, b2 = model.tensors
        return np.maximum(X @ w1 + b1, 0.0) @ w2 + b2
    w, b = model.tensors
    return X @ w + b


def models_equal(a: ModelParams, b: ModelParams) -> bool:
    """Bit-exact tensor equality (provenance fields excluded)."""
    if a.hidden_units != b.hidden_units or a.feature_dim != b.feature_dim:
        return False
    return all(
        ta.shape == tb.shape and np.array_equal(ta, tb, equal_nan=True)
        for ta, tb in zip(a.tensors, b.tensors)
    )


@dataclass(frozen=True)
class JttOutcome:
    """Final stage-2 model plus stage-1 provenance."""

    model: ModelParams
    stage1_error_ids: tuple[int, ...]
    plain_erm: bool


def stage1_error_ids(model: ModelParams, train: TabularDataset) -> np.ndarray:
    """Row ids of training rows the stage-1 model misclassifies."""
    return train.row_ids[predict(model, train) != train.targets]


def jtt_train(train: TabularDataset, stage1_hp: HyperParams, t: int, lam: int, stage2_hp: HyperParams) -> JttOutcome:
    """Run both stages and return the final stage-2 model. A stage 1 that
    classifies the whole training set correctly yields an empty repeat set;
    the result is then a plain model, flagged rather than raised."""
    if not 1 <= t <= stage1_hp.epochs:
        raise TrainingError(f"early stop t={t} outside 1..{stage1_hp.epochs}")
    err_ids = stage1_error_ids(train_erm(train, stage1_hp)[t - 1], train)
    ckpts = train_upsampled(train, err_ids, lam, stage2_hp)
    return JttOutcome(
        model=ckpts[-1], stage1_error_ids=tuple(int(r) for r in err_ids), plain_erm=len(err_ids) == 0
    )


def accuracy(predictions, targets) -> float:
    preds, targ = np.asarray(predictions), np.asarray(targets)
    if len(preds) == 0:
        raise EmptyGroupError("no rows")
    return float(np.mean(preds == targ))


def _gap(predictions, sensitive, within, empty: str) -> float:
    """|mean prediction over a=1 rows - over a=0 rows|, among rows in `within`."""
    preds, sens = np.asarray(predictions), np.asarray(sensitive)
    rates = []
    for a in (1, 0):
        mask = within & (sens == a)
        if not mask.any():
            raise EmptyGroupError(empty.format(a=a))
        rates.append(float(np.mean(preds[mask])))
    return abs(rates[0] - rates[1])


def dp_gap(predictions, sensitive) -> float:
    everywhere = np.ones(len(predictions), dtype=bool)
    return _gap(predictions, sensitive, everywhere, "no rows with sensitive attribute a={a}")


def eo_gap(predictions, targets, sensitive) -> float:
    positive = np.asarray(targets) == 1
    return _gap(predictions, sensitive, positive, "no rows in positive subgroup (y=1, a={a})")


def subgroup_accuracies(predictions, targets, sensitive) -> dict[tuple[int, int], tuple[float, int]]:
    """Per (y, a) cell: (accuracy, row count); empty cells are omitted."""
    preds, targ, sens = np.asarray(predictions), np.asarray(targets), np.asarray(sensitive)
    out: dict[tuple[int, int], tuple[float, int]] = {}
    for (y, a) in SUBGROUPS:
        mask = (targ == y) & (sens == a)
        count = int(mask.sum())
        if count:
            out[(y, a)] = (float(np.mean(preds[mask] == y)), count)
    return out


def wga(predictions, targets, sensitive) -> float:
    accs = subgroup_accuracies(predictions, targets, sensitive)
    missing = [g for g in SUBGROUPS if g not in accs]
    if missing:
        raise EmptyGroupError(f"empty subgroups (y, a): {missing}")
    return min(acc for acc, _ in accs.values())


def _gather(from_majority: np.ndarray, src: np.ndarray, majority_payload: np.ndarray, minority_payload: np.ndarray) -> np.ndarray:
    """Per-row payload of drawn rows; src indexes into each row's own source."""
    out = np.empty(len(src), dtype=np.float64)
    out[from_majority] = majority_payload[src[from_majority]]
    out[~from_majority] = minority_payload[src[~from_majority]]
    return out


def _ratio(noisy: float, true: float) -> float | None:
    return None if abs(true) <= RATIO_DENOM_FLOOR else noisy / true


def proportionality_by_gather(
    classifier: ModelParams,
    majority: tuple[np.ndarray, np.ndarray],
    minority: tuple[np.ndarray, np.ndarray],
    spec: NoiseSpec,
    n_samples: int,
) -> ProportionalityRecord:
    """`verify_proportionality` through mixed feature rows: DP mixes whole
    groups with (alpha, beta), EO their target-1 rows with the class-1
    rates, from one generator seeded with spec.seed."""
    X_maj, y_maj = np.asarray(majority[0], dtype=np.float64), np.asarray(majority[1])
    X_min, y_min = np.asarray(minority[0], dtype=np.float64), np.asarray(minority[1])
    pred_maj = predict(classifier, X_maj).astype(np.float64)
    pred_min = predict(classifier, X_min).astype(np.float64)
    dp_true = float(pred_maj.mean() - pred_min.mean())
    rng = np.random.default_rng(spec.seed)
    mixed = mix_groups(X_maj, X_min, spec, (n_samples, n_samples), rng=rng)
    noisy_maj = _gather(mixed.majority_from_majority, mixed.majority_source_index, pred_maj, pred_min)
    noisy_min = _gather(mixed.minority_from_majority, mixed.minority_source_index, pred_maj, pred_min)
    dp_noisy = float(noisy_maj.mean() - noisy_min.mean())

    alpha_1, beta_1 = spec.class_1_rates()
    pos_maj, pos_min = np.flatnonzero(y_maj == 1), np.flatnonzero(y_min == 1)
    tpr_maj, tpr_min = pred_maj[pos_maj], pred_min[pos_min]
    eo_true = float(tpr_maj.mean() - tpr_min.mean())
    mixed = mix_groups(
        X_maj[pos_maj], X_min[pos_min], NoiseSpec(alpha=alpha_1, beta=beta_1), (n_samples, n_samples), rng=rng
    )
    noisy_maj = _gather(mixed.majority_from_majority, mixed.majority_source_index, tpr_maj, tpr_min)
    noisy_min = _gather(mixed.minority_from_majority, mixed.minority_source_index, tpr_maj, tpr_min)
    eo_noisy = float(noisy_maj.mean() - noisy_min.mean())
    return ProportionalityRecord(
        alpha=spec.alpha,
        beta=spec.beta,
        alpha_1=alpha_1,
        beta_1=beta_1,
        dp_true=dp_true,
        dp_noisy=dp_noisy,
        eo_true=eo_true,
        eo_noisy=eo_noisy,
        ratio_dp=_ratio(dp_noisy, dp_true),
        ratio_eo=_ratio(eo_noisy, eo_true),
    )


def load_csv_per_cell(path: Path, schema: DatasetSchema) -> TabularDataset:
    """`load_csv` one row at a time: each row is its own zero vector, each
    cell is parsed and checked on its own, and the rows are stacked."""
    names: list[str] = []
    mask: list[bool] = []
    for name, kind in schema.feature_columns:
        if kind == NUMERIC:
            names.append(name)
            mask.append(True)
        else:
            names.extend(f"{name}={cat}" for cat in schema.categorical_vocab[name])
            mask.extend([False] * len(schema.categorical_vocab[name]))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        col_index: dict[str, int] = {}
        for name in [n for n, _ in schema.feature_columns] + [schema.target_column[0]] + (
            [schema.sensitive_column[0]] if schema.sensitive_column else []
        ):
            if name not in header:
                raise SchemaError(f"{path}: missing column {name!r}")
            col_index[name] = header.index(name)
        rows: list[np.ndarray] = []
        targets: list[int] = []
        sensitive: list[int] = []
        for ridx, row in enumerate(reader):
            if len(row) != len(header):
                raise DataError(f"{path}: data row {ridx} has {len(row)} cells, expected {len(header)}")
            out = np.zeros(len(names), dtype=np.float64)
            pos = 0
            for name, kind in schema.feature_columns:
                cell = row[col_index[name]].strip()
                if kind == NUMERIC:
                    try:
                        out[pos] = float(cell)
                    except ValueError:
                        raise DataError(f"{path}: data row {ridx}, column {name!r}: unparseable numeric value {cell!r}") from None
                    if not np.isfinite(out[pos]):
                        raise DataError(f"{path}: data row {ridx}, column {name!r}: non-finite numeric value {cell!r}")
                    pos += 1
                else:
                    vocab = schema.categorical_vocab[name]
                    try:
                        out[pos + vocab.index(cell)] = 1.0
                    except ValueError:
                        raise DataError(f"{path}: data row {ridx}, column {name!r}: unseen category {cell!r}") from None
                    pos += len(vocab)
            rows.append(out)
            targets.append(1 if row[col_index[schema.target_column[0]]].strip() == schema.target_column[1] else 0)
            if schema.sensitive_column is not None:
                sensitive.append(1 if row[col_index[schema.sensitive_column[0]]].strip() == schema.sensitive_column[1] else 0)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return TabularDataset(
        features=np.vstack(rows),
        targets=np.asarray(targets, dtype=np.int8),
        row_ids=np.arange(len(rows), dtype=np.int64),
        sensitive=np.asarray(sensitive, dtype=np.int8) if schema.sensitive_column else None,
        feature_names=tuple(names),
        numeric_mask=np.asarray(mask, dtype=bool),
    )
