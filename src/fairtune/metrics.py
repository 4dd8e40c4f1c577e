"""Group fairness metrics and pseudo-label quality scores.

Every group metric comes from one implementation: `confusion_counts` turns
aligned 1-d arrays of binary predictions, targets and sensitive attributes
into counts n[y, a, yhat], and `report_from_counts` turns those counts into a
`FairnessReport`. `accuracy`, `dp_gap`, `eo_gap`, `wga` and
`subgroup_accuracies` read single fields of that report. Gaps are absolute
values. `pseudo_label_quality` reads the same counts, with pseudo labels in
the prediction slot and ground truth in the sensitive slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import TabularDataset, check_binary, check_float, check_int
from .training import ModelParams, predict

SUBGROUPS = ((0, 0), (0, 1), (1, 0), (1, 1))

METRIC_NAMES = ("dp_gap", "eo_gap", "wga")


class EmptyGroupError(ValueError):
    """A metric's conditioning group has no rows."""


def _zeros_for(values) -> np.ndarray:
    """A constant zero column standing in for an input a metric does not read."""
    return np.zeros(np.shape(values)[:1], dtype=np.int8)


def accuracy(predictions, targets) -> float:
    return report_from_predictions(predictions, targets, _zeros_for(predictions), require=()).avg_accuracy


def dp_gap(predictions, sensitive) -> float:
    """|P[pred=1 | a=1] - P[pred=1 | a=0]|, empirical frequencies."""
    return report_from_predictions(predictions, _zeros_for(predictions), sensitive, require=("dp_gap",)).dp_gap


def eo_gap(predictions, targets, sensitive) -> float:
    """|TPR(a=1) - TPR(a=0)| over rows with target 1."""
    return report_from_predictions(predictions, targets, sensitive, require=("eo_gap",)).eo_gap


def subgroup_accuracies(predictions, targets, sensitive) -> dict[tuple[int, int], tuple[float, int]]:
    """Per (y, a) cell: (accuracy, row count); empty cells are omitted."""
    counts = confusion_counts(predictions, targets, sensitive)
    if not counts.any():
        return {}  # no rows, so every cell is empty
    report = report_from_counts(counts, require=())
    return {g: (acc, report.subgroup_counts[g]) for g, acc in report.subgroup_accuracy.items()}


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
        """The report whose to_dict() is `d`, rebuilt by `report_from_counts`
        from round(accuracy * count) correct rows per subgroup."""
        n = np.zeros((2, 2, 2), dtype=object)  # Python ints hold any stored count exactly
        for y, a in SUBGROUPS:
            key = f"y{y}_a{a}"
            if key in d["subgroup_counts"]:
                size = check_int(d["subgroup_counts"][key], f"subgroup_counts.{key}", 1)
                acc = check_float(d["subgroup_accuracy"][key], f"subgroup_accuracy.{key}")
                num, den = acc.as_integer_ratio()
                correct = (2 * num * size + den) // (2 * den)  # acc * size rounded, exactly
                if not 0 <= correct <= size:
                    raise ValueError(f"subgroup_accuracy.{key}: stored {acc} gives {correct} correct of {size} rows")
                n[y, a, y], n[y, a, 1 - y] = correct, size - correct
        report = report_from_counts(n, d["sensitive_source"], require=())
        check_round_trip(d, report.to_dict(), "its subgroup counts give")
        return report


def check_round_trip(stored, written, writer: str, path: str = "") -> None:
    """Raises ValueError at the first key or index, in `written`'s order, where
    `stored` differs in value or type from `written`, what `writer` gives for it."""
    if isinstance(stored, (dict, list)) and type(stored) is type(written):
        stored, written = (v if isinstance(v, dict) else dict(enumerate(v)) for v in (stored, written))
        for key in {**written, **stored}:
            at = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}" if path else key
            if key not in stored:
                raise ValueError(f"{at}: missing, but {writer} {written[key]!r}")
            if key not in written:
                raise ValueError(f"{at}: stored {stored[key]!r}, but {writer} no such key")
            check_round_trip(stored[key], written[key], writer, at)
    elif type(stored) is not type(written) or stored != written:
        raise ValueError(f"{path}: stored {stored!r}, but {writer} {written!r}")


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
