"""Pseudo sensitive-attribute labelling and mean-distance labeller selection.

A trained classifier splits the validation set into rows it predicts
correctly (pseudo attribute 1, majority proxy) and incorrectly (pseudo
attribute 0, minority proxy). Candidates are scored, separately within each
target class, by the Euclidean distance between the means (EDM) of the two
row sets; the highest-scoring candidate labels that class. Features are
expected to be standardized so no single column dominates the distance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .data import TabularDataset
from .metrics import EmptyGroupError
from .training import HyperParams, ModelParams, predict, train_erm


class SelectionError(RuntimeError):
    """No candidate could be scored for some target class."""


def pseudo_label(model: ModelParams, validation: TabularDataset) -> np.ndarray:
    """Pseudo attribute per validation row: 1 iff the model predicts the row's
    target correctly."""
    return (predict(model, validation) == validation.targets).astype(np.int8)


def edm(correct_rows: np.ndarray, incorrect_rows: np.ndarray) -> float:
    """Euclidean distance between the empirical means of two row sets."""
    a = np.asarray(correct_rows, dtype=np.float64)
    b = np.asarray(incorrect_rows, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("row sets must be 2-d matrices")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise EmptyGroupError("EDM is undefined for an empty row set")
    return float(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0)))


@dataclass(frozen=True)
class LabellerCandidate:
    """One checkpoint of the labeller grid: hyper-params plus stop epoch."""

    hp: HyperParams
    epoch: int
    model: ModelParams


def enumerate_candidates(
    train: TabularDataset, grid: Sequence[HyperParams]
) -> list[LabellerCandidate]:
    """Train every grid point and expose every per-epoch checkpoint as a
    candidate, in grid order then epoch order (the tie-break order)."""
    if not grid:
        raise SelectionError("empty hyper-parameter grid")
    candidates: list[LabellerCandidate] = []
    for hp in grid:
        for ckpt in train_erm(train, hp):
            candidates.append(LabellerCandidate(hp=hp, epoch=ckpt.trained_epochs, model=ckpt))
    return candidates


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
    hp: HyperParams | None = None
    epoch: int | None = None

    def to_dict(self) -> dict:
        return {
            "candidate_index": self.candidate_index,
            "edm_score": self.edm_score,
            "hyperparams": None if self.hp is None else self.hp.to_dict(),
            "epoch": self.epoch,
        }


@dataclass(frozen=True)
class PseudoLabelledValidation:
    """Validation rows with merged pseudo attributes and the per-class winners."""

    row_ids: np.ndarray
    pseudo: np.ndarray
    by_class: Mapping[int, ClassSelection]

    def __post_init__(self) -> None:
        ids = np.asarray(self.row_ids, dtype=np.int64)
        ps = np.asarray(self.pseudo, dtype=np.int8)
        if ids.shape != ps.shape:
            raise ValueError("row_ids and pseudo labels must align")
        ids.flags.writeable = False
        ps.flags.writeable = False
        object.__setattr__(self, "row_ids", ids)
        object.__setattr__(self, "pseudo", ps)

    def aligned_to(self, data: TabularDataset) -> np.ndarray:
        """Pseudo labels reordered to match the row order of `data`."""
        order = {int(r): i for i, r in enumerate(self.row_ids)}
        try:
            idx = np.asarray([order[int(r)] for r in data.row_ids])
        except KeyError as exc:
            raise ValueError(f"dataset row id {exc} has no pseudo label") from None
        return self.pseudo[idx]


def select_from_labels(
    label_sets: Sequence[np.ndarray],
    validation: TabularDataset,
) -> tuple[dict[int, ClassSelection], np.ndarray]:
    """Pick the per-class argmax-EDM label set and merge the pseudo labels.

    Ties keep the earliest candidate. Each row receives the label produced by
    the winner of its own target class.
    """
    if len(label_sets) == 0:
        raise SelectionError("no candidates to select from")
    for y in (0, 1):
        if not (validation.targets == y).any():
            raise SelectionError(f"validation set has no rows with target {y}")
    scores = score_labels_by_class(label_sets, validation.features, validation.targets)
    winners: dict[int, ClassSelection] = {}
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
        winners[y] = ClassSelection(candidate_index=best_idx, edm_score=best_score)
    merged = np.empty(validation.n_rows, dtype=np.int8)
    for y in (0, 1):
        rows = validation.targets == y
        merged[rows] = np.asarray(label_sets[winners[y].candidate_index])[rows]
    return winners, merged


def select_labeller(
    candidates: Sequence[LabellerCandidate],
    validation: TabularDataset,
) -> PseudoLabelledValidation:
    """Run every candidate on the validation set and select per target class.

    Candidate order is the tie-break order (grid position, then epoch, when
    the list comes from enumerate_candidates).
    """
    if not candidates:
        raise SelectionError("no candidates to select from")
    predictions = np.stack([predict(c.model, validation) for c in candidates])
    return select_from_predictions(predictions, [(c.hp, c.epoch) for c in candidates], validation)


def select_from_predictions(
    predictions: np.ndarray,
    candidates: Sequence[tuple[HyperParams, int]],
    validation: TabularDataset,
) -> PseudoLabelledValidation:
    """Select per target class from every candidate's validation predictions.

    predictions holds one row per candidate, in tie-break order, and one
    column per validation row; candidates gives each row's hyper-params and
    stop epoch. Row i's pseudo labels are pseudo_label of candidate i.
    """
    label_sets = (np.asarray(predictions) == validation.targets).astype(np.int8)
    winners, merged = select_from_labels(label_sets, validation)
    enriched = {
        y: replace(sel, hp=candidates[sel.candidate_index][0], epoch=candidates[sel.candidate_index][1])
        for y, sel in winners.items()
    }
    return PseudoLabelledValidation(
        row_ids=validation.row_ids.copy(),
        pseudo=merged,
        by_class=enriched,
    )
