"""Group fairness metrics and pseudo-label quality scores.

All functions are pure and operate on aligned 1-d arrays of binary values,
except `report_from_counts`, which takes their counts n[y, a, yhat] from
`confusion_counts`.
Gaps are reported as absolute values; the *_signed variants keep the sign
(group 1 rate minus group 0 rate), which the noise laboratory needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import TabularDataset
from .training import ModelParams, predict

SUBGROUPS = ((0, 0), (0, 1), (1, 0), (1, 1))

METRIC_NAMES = ("dp_gap", "eo_gap", "wga")


class EmptyGroupError(ValueError):
    """A metric's conditioning group has no rows."""


def _binary(values, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{what} values must be 0 or 1")
    return arr.astype(np.int8)


def _aligned(*pairs) -> list[np.ndarray]:
    arrays = [_binary(v, w) for v, w in pairs]
    lengths = {len(a) for a in arrays}
    if len(lengths) != 1:
        raise ValueError(f"length mismatch: {sorted(lengths)}")
    return arrays


def accuracy(predictions, targets) -> float:
    preds, targ = _aligned((predictions, "predictions"), (targets, "targets"))
    if len(preds) == 0:
        raise EmptyGroupError("no rows")
    return float(np.mean(preds == targ))


def dp_gap_signed(predictions, sensitive) -> float:
    """P[pred=1 | a=1] - P[pred=1 | a=0], empirical frequencies."""
    preds, sens = _aligned((predictions, "predictions"), (sensitive, "sensitive"))
    rates = []
    for a in (1, 0):
        mask = sens == a
        if not mask.any():
            raise EmptyGroupError(f"no rows with sensitive attribute a={a}")
        rates.append(float(np.mean(preds[mask])))
    return rates[0] - rates[1]


def dp_gap(predictions, sensitive) -> float:
    return abs(dp_gap_signed(predictions, sensitive))


def eo_gap_signed(predictions, targets, sensitive) -> float:
    """TPR(a=1) - TPR(a=0) over rows with target 1."""
    preds, targ, sens = _aligned(
        (predictions, "predictions"), (targets, "targets"), (sensitive, "sensitive")
    )
    rates = []
    for a in (1, 0):
        mask = (targ == 1) & (sens == a)
        if not mask.any():
            raise EmptyGroupError(f"no rows in positive subgroup (y=1, a={a})")
        rates.append(float(np.mean(preds[mask])))
    return rates[0] - rates[1]


def eo_gap(predictions, targets, sensitive) -> float:
    return abs(eo_gap_signed(predictions, targets, sensitive))


def subgroup_accuracies(predictions, targets, sensitive) -> dict[tuple[int, int], tuple[float, int]]:
    """Per (y, a) cell: (accuracy, row count); empty cells are omitted."""
    preds, targ, sens = _aligned(
        (predictions, "predictions"), (targets, "targets"), (sensitive, "sensitive")
    )
    out: dict[tuple[int, int], tuple[float, int]] = {}
    for (y, a) in SUBGROUPS:
        mask = (targ == y) & (sens == a)
        count = int(mask.sum())
        if count:
            out[(y, a)] = (float(np.mean(preds[mask] == y)), count)
    return out


def wga(predictions, targets, sensitive) -> float:
    """Minimum accuracy over the four (y, a) subgroups."""
    accs = subgroup_accuracies(predictions, targets, sensitive)
    missing = [g for g in SUBGROUPS if g not in accs]
    if missing:
        raise EmptyGroupError(f"empty subgroups (y, a): {missing}")
    return min(acc for acc, _ in accs.values())


@dataclass(frozen=True)
class SubgroupPRF:
    """Precision/recall/F1 of one (y, a) cell; None when undefined."""

    precision: float | None
    recall: float | None
    f1: float | None


@dataclass(frozen=True)
class PseudoLabelQuality:
    per_subgroup: Mapping[tuple[int, int], SubgroupPRF]
    accuracy_overall: float
    accuracy_by_class: Mapping[int, float]


def pseudo_label_quality(pseudo, truth, targets) -> PseudoLabelQuality:
    """Score pseudo attribute labels against ground truth.

    Within each target class y, cell (y, a) is treated as a retrieval class:
    precision over rows the labeller assigned to a, recall over rows truly in
    a. Accuracy is the plain agreement rate, overall and per target class.
    """
    ps, tr, targ = _aligned((pseudo, "pseudo"), (truth, "truth"), (targets, "targets"))
    per: dict[tuple[int, int], SubgroupPRF] = {}
    for (y, a) in SUBGROUPS:
        in_class = targ == y
        predicted = in_class & (ps == a)
        actual = in_class & (tr == a)
        hit = int((predicted & actual).sum())
        n_pred = int(predicted.sum())
        n_act = int(actual.sum())
        precision = hit / n_pred if n_pred else None
        recall = hit / n_act if n_act else None
        if precision is None and recall is None:
            f1 = 0.0  # never predicted and never present
        elif precision is None or recall is None:
            f1 = None
        elif precision + recall == 0:
            f1 = 0.0
        else:
            f1 = 2 * precision * recall / (precision + recall)
        per[(y, a)] = SubgroupPRF(precision, recall, f1)
    by_class: dict[int, float] = {}
    for y in (0, 1):
        mask = targ == y
        if mask.any():
            by_class[y] = float(np.mean(ps[mask] == tr[mask]))
    if len(ps) == 0:
        raise EmptyGroupError("no rows")
    return PseudoLabelQuality(
        per_subgroup=per,
        accuracy_overall=float(np.mean(ps == tr)),
        accuracy_by_class=by_class,
    )


@dataclass(frozen=True)
class FairnessReport:
    """All group metrics for one model on one dataset, from one prediction
    pass. Metrics whose groups were empty (and were not required) are None."""

    avg_accuracy: float
    dp_gap: float | None
    eo_gap: float | None
    wga: float | None
    subgroup_accuracy: Mapping[tuple[int, int], float]
    subgroup_counts: Mapping[tuple[int, int], int]
    sensitive_source: str = "ground_truth"

    def metric(self, name: str) -> float | None:
        if name not in METRIC_NAMES:
            raise ValueError(f"unknown metric {name!r}")
        return getattr(self, name)

    def to_dict(self) -> dict:
        return {
            "avg_accuracy": self.avg_accuracy,
            "dp_gap": self.dp_gap,
            "eo_gap": self.eo_gap,
            "wga": self.wga,
            "subgroup_accuracy": {f"y{y}_a{a}": v for (y, a), v in sorted(self.subgroup_accuracy.items())},
            "subgroup_counts": {f"y{y}_a{a}": v for (y, a), v in sorted(self.subgroup_counts.items())},
            "sensitive_source": self.sensitive_source,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FairnessReport":
        def parse_key(k: str) -> tuple[int, int]:
            return (int(k[1]), int(k[4]))

        return cls(
            avg_accuracy=float(d["avg_accuracy"]),
            dp_gap=None if d.get("dp_gap") is None else float(d["dp_gap"]),
            eo_gap=None if d.get("eo_gap") is None else float(d["eo_gap"]),
            wga=None if d.get("wga") is None else float(d["wga"]),
            subgroup_accuracy={parse_key(k): float(v) for k, v in d.get("subgroup_accuracy", {}).items()},
            subgroup_counts={parse_key(k): int(v) for k, v in d.get("subgroup_counts", {}).items()},
            sensitive_source=str(d.get("sensitive_source", "ground_truth")),
        )


def confusion_counts(predictions, targets, sensitive) -> np.ndarray:
    """Row counts n[y, a, yhat] of every (target, sensitive, prediction) cell."""
    preds, targ, sens = _aligned(
        (predictions, "predictions"), (targets, "targets"), (sensitive, "sensitive")
    )
    return np.bincount(4 * targ + 2 * sens + preds, minlength=8).reshape(2, 2, 2)


def report_from_counts(
    counts,
    sensitive_source: str = "ground_truth",
    require: tuple[str, ...] = METRIC_NAMES,
) -> FairnessReport:
    """Assemble a FairnessReport from the counts of `confusion_counts`.

    Every rate is a count over a count, which equals the mean over the 0/1
    values it counts exactly. Metrics listed in `require` propagate
    EmptyGroupError; the rest fall back to None when their groups are empty.
    """
    n = np.asarray(counts).reshape(2, 2, 2)

    def rate(hits, total, empty: str) -> float:
        if total == 0:
            raise EmptyGroupError(empty)
        return int(hits) / int(total)

    def gap(cells, empty: str) -> float:
        """|P[yhat=1 | a=1] - P[yhat=1 | a=0]| over the counts cells[a, yhat]."""
        r1, r0 = (rate(cells[a, 1], cells[a].sum(), empty.format(a=a)) for a in (1, 0))
        return abs(r1 - r0)

    sizes = {g: int(n[g].sum()) for g in SUBGROUPS}
    accs = {g: int(n[g][g[0]]) / sizes[g] for g in SUBGROUPS if sizes[g]}
    missing = [g for g in SUBGROUPS if g not in accs]

    def worst() -> float:
        if missing:
            raise EmptyGroupError(f"empty subgroups (y, a): {missing}")
        return min(accs.values())

    values: dict[str, float | None] = {}
    for name, fn in (
        ("dp_gap", lambda: gap(n.sum(axis=0), "no rows with sensitive attribute a={a}")),
        ("eo_gap", lambda: gap(n[1], "no rows in positive subgroup (y=1, a={a})")),
        ("wga", worst),
    ):
        try:
            values[name] = fn()
        except EmptyGroupError:
            if name in require:
                raise
            values[name] = None
    return FairnessReport(
        avg_accuracy=rate(n[0, :, 0].sum() + n[1, :, 1].sum(), n.sum(), "no rows"),
        dp_gap=values["dp_gap"],
        eo_gap=values["eo_gap"],
        wga=values["wga"],
        subgroup_accuracy=accs,
        subgroup_counts={g: sizes[g] for g in accs},
        sensitive_source=sensitive_source,
    )


def report_from_predictions(
    predictions,
    targets,
    sensitive,
    sensitive_source: str = "ground_truth",
    require: tuple[str, ...] = METRIC_NAMES,
) -> FairnessReport:
    """`report_from_counts` over the confusion counts of these predictions."""
    counts = confusion_counts(predictions, targets, sensitive)
    return report_from_counts(counts, sensitive_source=sensitive_source, require=require)


def full_report(
    model: ModelParams,
    data: TabularDataset,
    sensitive: np.ndarray | None = None,
    sensitive_source: str = "ground_truth",
    require: tuple[str, ...] = METRIC_NAMES,
) -> FairnessReport:
    """Predict once on `data` and assemble every metric.

    `sensitive` overrides the dataset's own attribute column (used to score
    with pseudo labels); `sensitive_source` records which one was used.
    """
    sens = data.sensitive if sensitive is None else sensitive
    if sens is None:
        raise EmptyGroupError("dataset has no sensitive attributes and none were provided")
    preds = predict(model, data)
    return report_from_predictions(
        preds, data.targets, sens, sensitive_source=sensitive_source, require=require
    )
