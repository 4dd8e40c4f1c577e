"""Group fairness metrics and pseudo-label quality scores: counts in,
`FairnessReport` out.

A candidate reaches its metrics one way: its 0/1 predictions (from
`training.predict`) go through `confusion_counts`, which counts aligned 1-d
arrays of predictions, targets and sensitive attributes into n[y, a, yhat],
and `report_from_counts` turns those counts into a `FairnessReport`. Gaps
are absolute values. `MINIMIZED` names every objective and whether the
tuner minimizes it. `pseudo_label_quality` reads the same counts, with
pseudo labels in the prediction slot and ground truth in the sensitive slot.

`report_from_predictions`, `dp_gap`, `eo_gap` and `wga` compose the two
steps and read single fields of the report. The pipeline does not call
them; they stay because perfbench/spans.py traces them on `fairtune.tuning`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import check_binary, check_float, check_int, check_keys, placed

SUBGROUPS = ((0, 0), (0, 1), (1, 0), (1, 1))

# Every objective, and whether the tuner minimizes it.
MINIMIZED = {"dp_gap": True, "eo_gap": True, "wga": False}
METRIC_NAMES = tuple(MINIMIZED)


class EmptyGroupError(ValueError):
    """A metric's conditioning group has no rows."""


def dp_gap(predictions, sensitive) -> float:
    """|P[pred=1 | a=1] - P[pred=1 | a=0]|, empirical frequencies."""
    targets = np.zeros(np.shape(predictions)[:1], dtype=np.int8)  # not read by the DP gap
    return report_from_predictions(predictions, targets, sensitive, require=("dp_gap",)).dp_gap


def eo_gap(predictions, targets, sensitive) -> float:
    """|TPR(a=1) - TPR(a=0)| over rows with target 1."""
    return report_from_predictions(predictions, targets, sensitive, require=("eo_gap",)).eo_gap


def wga(predictions, targets, sensitive) -> float:
    """Minimum accuracy over the four (y, a) subgroups."""
    return report_from_predictions(predictions, targets, sensitive, require=("wga",)).wga


@dataclass(frozen=True)
class SubgroupPRF:
    """Precision/recall/F1 of one (y, a) cell; None when undefined."""

    precision: float | None
    recall: float | None
    f1: float | None


@dataclass(frozen=True)
class ClassContamination:
    """Contamination rates of the pseudo groups within one target class, as
    in the mutually contaminated noise model: alpha_hat is the share of rows
    labelled majority that are truly minority, beta_hat the share of rows
    labelled minority that are truly majority. None marks an empty pseudo
    group."""

    alpha_hat: float | None
    beta_hat: float | None

    @property
    def one_minus_sum(self) -> float:
        for group, rate in (("majority", self.alpha_hat), ("minority", self.beta_hat)):
            if rate is None:
                raise EmptyGroupError(f"no rows labelled {group} within the target class")
        return 1.0 - self.alpha_hat - self.beta_hat


@dataclass(frozen=True)
class PseudoLabelQuality:
    per_subgroup: Mapping[tuple[int, int], SubgroupPRF]
    accuracy_overall: float
    accuracy_by_class: Mapping[int, float]
    by_class: Mapping[int, ClassContamination]


def _share(hits, total) -> float | None:
    return int(hits) / int(total) if total else None


def pseudo_label_quality(pseudo, truth, targets) -> PseudoLabelQuality:
    """Score pseudo attribute labels against ground truth.

    Within each target class y, cell (y, a) is treated as a retrieval class:
    precision over rows the labeller assigned to a, recall over rows truly in
    a. Accuracy is the plain agreement rate, overall and per target class
    (classes without rows are omitted). `by_class` holds each target class's
    contamination rates.
    """
    n = confusion_counts(check_binary(pseudo, "pseudo"), targets, check_binary(truth, "truth"))  # n[y, true a, pseudo a]
    if not n.any():
        raise EmptyGroupError("no rows")
    per: dict[tuple[int, int], SubgroupPRF] = {}
    for (y, a) in SUBGROUPS:
        precision = _share(n[y, a, a], n[y, :, a].sum())
        recall = _share(n[y, a, a], n[y, a].sum())
        if precision is None and recall is None:
            f1 = 0.0  # never predicted and never present
        elif precision is None or recall is None:
            f1 = None
        elif precision + recall == 0:
            f1 = 0.0
        else:
            f1 = 2 * precision * recall / (precision + recall)
        per[(y, a)] = SubgroupPRF(precision, recall, f1)
    agree, sizes = n[:, 0, 0] + n[:, 1, 1], n.sum(axis=(1, 2))
    return PseudoLabelQuality(
        per_subgroup=per,
        accuracy_overall=_share(agree.sum(), sizes.sum()),
        accuracy_by_class={y: _share(agree[y], sizes[y]) for y in (0, 1) if sizes[y]},
        by_class={
            y: ClassContamination(
                alpha_hat=_share(n[y, 0, 1], n[y, :, 1].sum()), beta_hat=_share(n[y, 1, 0], n[y, :, 0].sum())
            )
            for y in (0, 1)
        },
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
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "FairnessReport":
        """The report whose to_dict() is `d`; its keys are the fields, and
        each subgroup table's keys are cells "y<y>_a<a>"."""
        check_keys(d, cls.__dataclass_fields__, cls.__dataclass_fields__)
        cells = {f"y{y}_a{a}": (y, a) for y, a in SUBGROUPS}

        def table(name: str, parse) -> dict:
            return placed(name, lambda: {cells[key]: parse(value, key) for key, value in check_keys(d[name], cells).items()})

        gaps = {name: None if d[name] is None else check_float(d[name], name) for name in METRIC_NAMES}
        return cls(
            avg_accuracy=check_float(d["avg_accuracy"], "avg_accuracy"),
            subgroup_accuracy=table("subgroup_accuracy", check_float),
            subgroup_counts=table("subgroup_counts", lambda value, key: check_int(value, key, 1)),
            **gaps,
        )


def confusion_counts(predictions, targets, sensitive) -> np.ndarray:
    """Row counts n[y, a, yhat] of every (target, sensitive, prediction) cell."""
    preds, targ, sens = (
        check_binary(predictions, "predictions"), check_binary(targets, "targets"), check_binary(sensitive, "sensitive")
    )
    lengths = {len(preds), len(targ), len(sens)}
    if len(lengths) != 1:
        raise ValueError(f"length mismatch: {sorted(lengths)}")
    return np.bincount(4 * targ + 2 * sens + preds, minlength=8).reshape(2, 2, 2)


def report_from_counts(
    counts,
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
    )


def report_from_predictions(
    predictions,
    targets,
    sensitive,
    require: tuple[str, ...] = METRIC_NAMES,
) -> FairnessReport:
    """`report_from_counts` over the confusion counts of these predictions."""
    counts = confusion_counts(predictions, targets, sensitive)
    return report_from_counts(counts, require=require)
