"""Reference implementations that the oracle tests compare the library with.

`jtt_train` is a direct restatement of the two stages, built from the public
training calls: train stage 1, read its training mistakes at epoch T, then
retrain on the set with those rows repeated lambda times.

The per-row metrics below compute each group metric as a mean over masked
rows, independently of the library's counts-based `report_from_counts`.
They raise the library's EmptyGroupError with the library's messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fairtune.data import TabularDataset
from fairtune.metrics import SUBGROUPS, EmptyGroupError
from fairtune.training import HyperParams, ModelParams, TrainingError, predict, train_erm, train_upsampled


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
