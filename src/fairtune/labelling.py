"""The paper's steps 1 and 2: labeller candidates and mean-distance selection.

Step 1, `labeller_predictions`, trains every labeller grid point and
predicts the validation set at every epoch checkpoint; each checkpoint is a
candidate. A candidate splits the validation set into rows it predicts
correctly (pseudo attribute 1, majority proxy) and incorrectly (pseudo
attribute 0, minority proxy). Step 2, `select_labeller`, scores the
candidates separately within each target class by the Euclidean distance
between the means (EDM) of the two row sets; the highest-scoring candidate
labels that class. Features are expected to be standardized so no single
column dominates the distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import TabularDataset
from .metrics import EmptyGroupError
from .training import HyperParams, pool_map, predict, train_erm


class SelectionError(RuntimeError):
    """No candidate could be scored for some target class."""


def edm(correct_rows: np.ndarray, incorrect_rows: np.ndarray) -> float:
    """Euclidean distance between the empirical means of two row sets."""
    a = np.asarray(correct_rows, dtype=np.float64)
    b = np.asarray(incorrect_rows, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("row sets must be 2-d matrices")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise EmptyGroupError("EDM is undefined for an empty row set")
    return float(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)))


def _grid_point_predictions(ctx: tuple[TabularDataset, np.ndarray], hp: HyperParams) -> np.ndarray:
    """Validation predictions of one grid point, one row per epoch checkpoint."""
    train, val_X = ctx
    return np.stack([predict(m, val_X) for m in train_erm(train, hp)])


def labeller_predictions(
    train: TabularDataset,
    validation: TabularDataset,
    grid: Sequence[HyperParams],
    jobs: int = 1,
) -> tuple[np.ndarray, list[tuple[HyperParams, int]]]:
    """Train every grid point and predict the validation set at every epoch.

    Returns the int8 predictions, one row per candidate and one column per
    validation row, and each row's (hyper-params, epoch). Rows come in grid
    order, then epoch order, which is the tie-break order. Grid points train
    in up to `jobs` worker processes; the result does not depend on `jobs`.
    """
    if not grid:
        raise SelectionError("empty hyper-parameter grid")
    predictions = np.concatenate(pool_map(_grid_point_predictions, (train, validation.features), grid, jobs))
    return predictions, [(hp, epoch) for hp in grid for epoch in range(1, hp.epochs + 1)]


def score_labels_by_class(
    label_sets: Sequence[np.ndarray],
    features: np.ndarray,
    targets: np.ndarray,
) -> dict[int, list[float | None]]:
    """EDM score of each pseudo-label set, restricted to each target class.

    None marks a skipped candidate (its correct or incorrect set is empty on
    that class restriction, so it carries no group signal there).
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets)
    scores: dict[int, list[float | None]] = {0: [], 1: []}
    for y in (0, 1):
        rows = np.flatnonzero(targets == y)
        for labels in label_sets:
            sub = np.asarray(labels)[rows]
            correct = rows[sub == 1]
            incorrect = rows[sub == 0]
            if len(correct) == 0 or len(incorrect) == 0:
                scores[y].append(None)
            else:
                scores[y].append(edm(features[correct], features[incorrect]))
    return scores


@dataclass(frozen=True)
class ClassSelection:
    """Winning candidate for one target class."""

    candidate_index: int
    edm_score: float
    hp: HyperParams
    epoch: int

    def to_dict(self) -> dict:
        return {
            "candidate_index": self.candidate_index,
            "edm_score": self.edm_score,
            "hyperparams": self.hp.to_dict(),
            "epoch": self.epoch,
        }


@dataclass(frozen=True)
class PseudoLabelledValidation:
    """Merged pseudo attributes, one per validation row in the split's row
    order, and the per-class winners."""

    pseudo: np.ndarray
    by_class: Mapping[int, ClassSelection]

    def __post_init__(self) -> None:
        ps = np.array(self.pseudo, dtype=np.int8)
        ps.flags.writeable = False
        object.__setattr__(self, "pseudo", ps)


def select_labeller(
    predictions: np.ndarray,
    candidates: Sequence[tuple[HyperParams, int]],
    validation: TabularDataset,
) -> PseudoLabelledValidation:
    """Select per target class from every candidate's validation predictions.

    predictions holds one row per candidate, in tie-break order, and one
    column per validation row (as `labeller_predictions` returns them);
    candidates gives each row's hyper-params and stop epoch. Row i's pseudo
    labels are 1 where candidate i predicts the target correctly. Each target
    class takes the candidate with the highest EDM on that class, the
    earliest on a tie, and each row receives the label of its own class's
    winner.
    """
    label_sets = (np.asarray(predictions) == validation.targets).astype(np.int8)
    if len(label_sets) == 0:
        raise SelectionError("no candidates to select from")
    for y in (0, 1):
        if not (validation.targets == y).any():
            raise SelectionError(f"validation set has no rows with target {y}")
    scores = score_labels_by_class(label_sets, validation.features, validation.targets)
    by_class: dict[int, ClassSelection] = {}
    merged = np.empty(validation.n_rows, dtype=np.int8)
    for y in (0, 1):
        best_idx: int | None = None
        best_score = -np.inf
        for i, s in enumerate(scores[y]):
            if s is not None and s > best_score:
                best_idx, best_score = i, s
        if best_idx is None:
            raise SelectionError(
                f"every candidate was skipped for target class {y} "
                "(all-correct or all-incorrect on that class)"
            )
        hp, epoch = candidates[best_idx]
        by_class[y] = ClassSelection(candidate_index=best_idx, edm_score=best_score, hp=hp, epoch=epoch)
        rows = validation.targets == y
        merged[rows] = label_sets[best_idx][rows]
    return PseudoLabelledValidation(pseudo=merged, by_class=by_class)
