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
from .training import HyperParams, block_stops, one_blas_thread, pool_map, predict, train_erm


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


def labeller_candidates(grid: Sequence[HyperParams]) -> list[tuple[HyperParams, int]]:
    """Each candidate's (hyper-params, epoch) in tie-break order: grid order,
    then epoch order."""
    return [(hp, epoch) for hp in grid for epoch in range(1, hp.epochs + 1)]


def labeller_predictions(
    train: TabularDataset,
    validation: TabularDataset,
    grid: Sequence[HyperParams],
    jobs: int = 1,
) -> tuple[np.ndarray, list[tuple[HyperParams, int]]]:
    """Train every grid point and predict the validation set at every epoch.

    Returns the int8 predictions, one row per candidate and one column per
    validation row, and each row's (hyper-params, epoch) as
    `labeller_candidates` lists them. Grid points train in up to `jobs`
    worker processes; the result does not depend on `jobs`.
    """
    if not grid:
        raise SelectionError("empty hyper-parameter grid")
    predictions = np.concatenate(pool_map(_grid_point_predictions, (train, validation.features), grid, jobs))
    return predictions, labeller_candidates(grid)


EDM_BLOCK_CANDIDATES = 64  # label sets per product: 3 MB of float64 on a 6k-row class


@one_blas_thread()
def score_labels_by_class(label_sets: np.ndarray, features: np.ndarray, targets: np.ndarray) -> dict[int, np.ndarray]:
    """EDM score of each 0/1 pseudo-label set (one row per candidate) on each
    target class, from the class's feature sums: one product per block of
    EDM_BLOCK_CANDIDATES label sets gives the correct rows' sums, and the
    incorrect rows' are the class total minus them. NaN marks a skipped
    candidate, whose correct or incorrect set is empty on that class. The
    products run on one BLAS thread, as training does, so the scores do not
    depend on the caller's thread count. Candidates with the same labels on
    a class take the first one's score: a product rounds a row by its place."""
    label_sets = np.asarray(label_sets)
    features = np.asarray(features, dtype=np.float64)
    scores = {y: np.empty(len(label_sets)) for y in (0, 1)}
    for y in (0, 1):
        rows = np.asarray(targets) == y
        X = features[rows]
        n, total = X.shape[0], X.sum(axis=0)
        start = 0
        for stop in block_stops(len(label_sets), EDM_BLOCK_CANDIDATES):
            block = label_sets[start:stop][:, rows]
            counts, sums = block.sum(axis=1), block @ X  # the product casts the block to float64
            with np.errstate(divide="ignore", invalid="ignore"):
                gaps = sums / counts[:, None] - (total - sums) / (n - counts[:, None])
            scores[y][start:stop] = np.where((counts > 0) & (counts < n), np.linalg.norm(gaps, axis=1), np.nan)
            start = stop
        # Keyed on each row's bytes, not np.unique, whose first call imports numpy.ma.
        first: dict[bytes, int] = {}
        for i, labels in enumerate(label_sets[:, rows]):
            scores[y][i] = scores[y][first.setdefault(labels.tobytes(), i)]
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
    class takes the `np.nanargmax` of its scores: the highest EDM, never a
    skipped candidate, the earliest on a tie. Each row receives the label of
    its own class's winner.
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
        if np.isnan(scores[y]).all():
            raise SelectionError(
                f"every candidate was skipped for target class {y} "
                "(all-correct or all-incorrect on that class)"
            )
        best = int(np.nanargmax(scores[y]))
        hp, epoch = candidates[best]
        by_class[y] = ClassSelection(candidate_index=best, edm_score=float(scores[y][best]), hp=hp, epoch=epoch)
        rows = validation.targets == y
        merged[rows] = label_sets[best][rows]
    return PseudoLabelledValidation(pseudo=merged, by_class=by_class)
