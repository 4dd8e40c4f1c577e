"""Reference two-stage run, built from the public training calls.

The oracle tests compare the tuner's tasks against this direct restatement
of the two stages: train stage 1, read its training mistakes at epoch T,
then retrain on the set with those rows repeated lambda times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fairtune.data import TabularDataset
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
