"""Two-stage error-upweighting training and accuracy-constrained tuning.

Stage 1 trains a deliberately plain model for T epochs and collects the
training rows it misclassifies; stage 2 retrains with those rows repeated
lambda times. The tuner sweeps every (stage-1 point, T, lambda, stage-2
point, stage-2 epoch) combination, buckets candidates into half-open average
validation-accuracy bins, and picks the candidate per bin that optimizes a
fairness objective measured on the validation set's (pseudo or ground-truth)
sensitive labels. Each stage-2 run counts every epoch's predictions on
validation and on the test split's ground truth; all selection reads the
validation counts, and the test counts feed only the winners' test reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .data import TabularDataset
from .labelling import PseudoLabelledValidation
from .metrics import (
    METRIC_NAMES,
    EmptyGroupError,
    FairnessReport,
    confusion_counts,
    report_from_counts,
)
from .training import (
    HyperParams,
    ModelParams,
    TrainingError,
    _train_loop,
    pool_map,
    predict,
    train_erm,
    train_upsampled,
    upsampled_positions,
)

# Unused here, but perfbench/spans.py traces these names on this module.
from .metrics import dp_gap, eo_gap, report_from_predictions, wga  # noqa: F401

GROUND_TRUTH = "ground_truth"
PSEUDO = "pseudo"

_MINIMIZED = {"dp_gap": True, "eo_gap": True, "wga": False}


@dataclass(frozen=True)
class JttConfig:
    """Search space and selection rule for the two-stage tuner."""

    stage1_grid: tuple[HyperParams, ...]
    t_grid: tuple[int, ...]
    lambda_grid: tuple[int, ...]
    stage2_grid: tuple[HyperParams, ...]
    objective: str
    accuracy_bins: tuple[tuple[float, float], ...]
    sensitive_source: str = PSEUDO

    def __post_init__(self) -> None:
        for name in ("stage1_grid", "t_grid", "lambda_grid", "stage2_grid", "accuracy_bins"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        object.__setattr__(self, "stage1_grid", tuple(self.stage1_grid))
        object.__setattr__(self, "stage2_grid", tuple(self.stage2_grid))
        object.__setattr__(self, "t_grid", tuple(int(t) for t in self.t_grid))
        object.__setattr__(self, "lambda_grid", tuple(int(l) for l in self.lambda_grid))
        if any(t < 1 for t in self.t_grid):
            raise ValueError("t_grid entries must be >= 1")
        if any(l < 1 for l in self.lambda_grid):
            raise ValueError("lambda_grid entries must be >= 1")
        if self.objective not in METRIC_NAMES:
            raise ValueError(f"objective must be one of {METRIC_NAMES}")
        if self.sensitive_source not in (PSEUDO, GROUND_TRUTH):
            raise ValueError(f"sensitive_source must be {PSEUDO!r} or {GROUND_TRUTH!r}")
        bins = tuple((float(lo), float(hi)) for lo, hi in self.accuracy_bins)
        for lo, hi in bins:
            if not lo < hi:
                raise ValueError(f"bin [{lo}, {hi}) is empty")
        ordered = sorted(bins)
        for (lo1, hi1), (lo2, _) in zip(ordered, ordered[1:]):
            if hi1 > lo2:
                raise ValueError(f"bins [{lo1}, {hi1}) and [{lo2}, ...) overlap")
        object.__setattr__(self, "accuracy_bins", bins)

    def to_dict(self) -> dict:
        return {
            "stage1_grid": [hp.to_dict() for hp in self.stage1_grid],
            "t_grid": list(self.t_grid),
            "lambda_grid": list(self.lambda_grid),
            "stage2_grid": [hp.to_dict() for hp in self.stage2_grid],
            "objective": self.objective,
            "accuracy_bins": [list(b) for b in self.accuracy_bins],
            "sensitive_source": self.sensitive_source,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "JttConfig":
        return cls(
            stage1_grid=tuple(HyperParams.from_dict(h) for h in d["stage1_grid"]),
            t_grid=tuple(d["t_grid"]),
            lambda_grid=tuple(d["lambda_grid"]),
            stage2_grid=tuple(HyperParams.from_dict(h) for h in d["stage2_grid"]),
            objective=d["objective"],
            accuracy_bins=tuple((b[0], b[1]) for b in d["accuracy_bins"]),
            sensitive_source=d.get("sensitive_source", PSEUDO),
        )


@dataclass(frozen=True)
class CandidateRef:
    """Grid point and epoch of one evaluated candidate; together they
    determine its model exactly, so a winner can be retrained outside the
    tuner."""

    kind: str  # "jtt" or "erm"
    stage2: HyperParams
    epoch: int
    stage1: HyperParams | None = None
    t: int | None = None
    lam: int | None = None
    plain_fallback: bool = False  # stage 1 made no training mistakes

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "stage2": self.stage2.to_dict(),
            "epoch": self.epoch,
            "stage1": None if self.stage1 is None else self.stage1.to_dict(),
            "t": self.t,
            "lambda": self.lam,
            "plain_fallback": self.plain_fallback,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "CandidateRef":
        return cls(
            kind=d["kind"],
            stage2=HyperParams.from_dict(d["stage2"]),
            epoch=int(d["epoch"]),
            stage1=None if d.get("stage1") is None else HyperParams.from_dict(d["stage1"]),
            t=None if d.get("t") is None else int(d["t"]),
            lam=None if d.get("lambda") is None else int(d["lambda"]),
            plain_fallback=bool(d.get("plain_fallback", False)),
        )


@dataclass(frozen=True)
class JttOutcome:
    """Final stage-2 model plus stage-1 provenance."""

    model: ModelParams
    stage1_error_ids: tuple[int, ...]
    plain_erm: bool


def stage1_error_ids(model: ModelParams, train: TabularDataset) -> np.ndarray:
    """Row ids of training rows the stage-1 model misclassifies."""
    preds = predict(model, train)
    return train.row_ids[preds != train.targets]


def jtt_train(
    train: TabularDataset,
    stage1_hp: HyperParams,
    t: int,
    lam: int,
    stage2_hp: HyperParams,
) -> JttOutcome:
    """Run both stages and return the final stage-2 model.

    A stage 1 that classifies the whole training set correctly yields an
    empty repeat set; the result is then a plain single-stage model, flagged
    rather than raised.
    """
    if not 1 <= t <= stage1_hp.epochs:
        raise TrainingError(f"early stop t={t} outside 1..{stage1_hp.epochs}")
    stage1_ckpts = train_erm(train, stage1_hp)
    err_ids = stage1_error_ids(stage1_ckpts[t - 1], train)
    ckpts = train_upsampled(train, err_ids, lam, stage2_hp)
    return JttOutcome(
        model=ckpts[-1],
        stage1_error_ids=tuple(int(r) for r in err_ids),
        plain_erm=len(err_ids) == 0,
    )


# ----------------------------------------------------------------------------
# Grid evaluation machinery.
#
# A *task* is one stage-2 training run; a *candidate* is one task epoch.
# Tasks are deduplicated (lambda == 1 or an empty repeat set collapse to the
# plain run of their stage-2 point) and may be evaluated in parallel; each
# returns the confusion counts of every epoch. The selection pass is a
# sequential reduction in canonical grid order, so the winners never depend
# on the degree of parallelism.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class _Task:
    key: tuple
    err_pos: tuple[int, ...]  # positional indices into the training arrays
    lam: int
    stage2: HyperParams


@dataclass(frozen=True)
class _Combo:
    ref_base: CandidateRef  # epoch filled in during reduction
    task_key: tuple


@dataclass
class _Best:
    obj: float
    acc: float
    ref: CandidateRef
    task_key: tuple


def _evaluate_task(ctx: dict, task: _Task) -> np.ndarray:
    """Train one stage-2 run and count every epoch checkpoint's predictions:
    counts[epoch - 1, split, y, a, yhat], split 0 on validation (selection
    labels) and split 1 on test (ground truth)."""
    X, y = ctx["train_X"], ctx["train_y"]
    if task.err_pos:
        idx = upsampled_positions(X.shape[0], task.err_pos, task.lam)
        X, y = X[idx], y[idx]
    ckpts = _train_loop(X, y.astype(np.float64), task.stage2)
    del X, y  # release the upsampled copy before scoring
    return np.array(
        [
            [
                confusion_counts(predict(ckpt, ctx["val_X"]), ctx["val_y"], ctx["val_sens"]),
                confusion_counts(predict(ckpt, ctx["test_X"]), ctx["test_y"], ctx["test_sens"]),
            ]
            for ckpt in ckpts
        ]
    )


def _run_tasks(ctx: dict, tasks: Sequence[_Task], jobs: int) -> dict[tuple, np.ndarray]:
    return {t.key: r for t, r in zip(tasks, pool_map(_evaluate_task, ctx, tasks, jobs))}


def _bin_of(acc: float, bins: Sequence[tuple[float, float]]) -> int | None:
    for i, (lo, hi) in enumerate(bins):
        if lo <= acc < hi:
            return i
    return None


def _selection_labels(
    validation: TabularDataset,
    test: TabularDataset,
    objective: str,
    sensitive_source: str,
    pseudo: PseudoLabelledValidation | None,
) -> np.ndarray:
    """Validation sensitive labels to select on, once the objective and the
    test reports are known to be computable."""
    if sensitive_source == PSEUDO:
        if pseudo is None:
            raise ValueError("sensitive_source 'pseudo' needs a PseudoLabelledValidation")
        val_sens = pseudo.aligned_to(validation)
    elif validation.sensitive is None:
        raise EmptyGroupError("validation set has no ground-truth sensitive attributes")
    else:
        val_sens = validation.sensitive
    # Group emptiness depends only on the fixed labels, not on the candidate.
    probe = np.zeros(validation.n_rows, dtype=np.int8)
    report_from_counts(confusion_counts(probe, validation.targets, val_sens), require=(objective,))
    if test.sensitive is None:
        raise EmptyGroupError("test set has no ground-truth sensitive attributes")
    return val_sens


@dataclass(frozen=True)
class BinOutcome:
    bin: tuple[float, float]
    winner: CandidateRef | None
    validation: FairnessReport | None
    test: FairnessReport | None

    @property
    def empty(self) -> bool:
        return self.winner is None

    def to_dict(self) -> dict:
        return {
            "bin": list(self.bin),
            "winner": None if self.winner is None else self.winner.to_dict(),
            "validation": None if self.validation is None else self.validation.to_dict(),
            "test": None if self.test is None else self.test.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "BinOutcome":
        return cls(
            bin=(float(d["bin"][0]), float(d["bin"][1])),
            winner=None if d.get("winner") is None else CandidateRef.from_dict(d["winner"]),
            validation=None if d.get("validation") is None else FairnessReport.from_dict(d["validation"]),
            test=None if d.get("test") is None else FairnessReport.from_dict(d["test"]),
        )


@dataclass(frozen=True)
class TunerResult:
    """Per-bin winners for the two-stage search, per-bin plain-training
    winners, and the unconstrained plain baseline (best validation accuracy).
    """

    objective: str
    sensitive_source: str
    bins: tuple[BinOutcome, ...]
    erm_bins: tuple[BinOutcome, ...]
    erm_baseline: BinOutcome | None

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "sensitive_source": self.sensitive_source,
            "bins": [b.to_dict() for b in self.bins],
            "erm_bins": [b.to_dict() for b in self.erm_bins],
            "erm_baseline": None if self.erm_baseline is None else self.erm_baseline.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TunerResult":
        return cls(
            objective=d["objective"],
            sensitive_source=d["sensitive_source"],
            bins=tuple(BinOutcome.from_dict(b) for b in d["bins"]),
            erm_bins=tuple(BinOutcome.from_dict(b) for b in d["erm_bins"]),
            erm_baseline=None if d.get("erm_baseline") is None else BinOutcome.from_dict(d["erm_baseline"]),
        )


def _task_key(err_pos: tuple[int, ...], lam: int, stage2: HyperParams) -> tuple:
    if lam == 1 or not err_pos:
        return ("erm", stage2)
    return ("jtt", err_pos, lam, stage2)


def _erm_combos(grid: Sequence[HyperParams], tasks: dict[tuple, _Task]) -> list[_Combo]:
    """Plain-training candidates of every grid point, adding their tasks."""
    combos = []
    for hp in grid:
        key = ("erm", hp)
        tasks.setdefault(key, _Task(key=key, err_pos=(), lam=1, stage2=hp))
        combos.append(_Combo(ref_base=CandidateRef(kind="erm", stage2=hp, epoch=0), task_key=key))
    return combos


def _reduce_candidates(
    combos: Sequence[_Combo],
    scores: Mapping[tuple, list[tuple[float, float]]],
    bins: Sequence[tuple[float, float]],
    minimize: bool,
) -> tuple[list[_Best | None], _Best | None]:
    """Sequential selection in canonical order; returns per-bin bests and the
    unconstrained best-accuracy candidate."""
    best_per_bin: list[_Best | None] = [None] * len(bins)
    best_acc: _Best | None = None
    for combo in combos:
        for epoch, (acc, obj) in enumerate(scores[combo.task_key], start=1):
            ref = replace(combo.ref_base, epoch=epoch)
            if best_acc is None or acc > best_acc.acc:
                best_acc = _Best(obj=obj, acc=acc, ref=ref, task_key=combo.task_key)
            b = _bin_of(acc, bins)
            if b is None:
                continue
            cur = best_per_bin[b]
            if cur is None or (obj < cur.obj if minimize else obj > cur.obj):
                best_per_bin[b] = _Best(obj=obj, acc=acc, ref=ref, task_key=combo.task_key)
    return best_per_bin, best_acc


def _sweep(
    train: TabularDataset,
    validation: TabularDataset,
    test: TabularDataset,
    val_sens: np.ndarray,
    tasks: Mapping[tuple, _Task],
    jtt_combos: Sequence[_Combo] | None,
    erm_combos: Sequence[_Combo],
    bins: Sequence[tuple[float, float]],
    objective: str,
    sensitive_source: str,
    jobs: int,
) -> TunerResult:
    """Run every task, then select per bin among the two-stage candidates
    (none for a plain sweep) and among the plain ones."""
    ctx = {
        "train_X": train.features,
        "train_y": train.targets,
        "val_X": validation.features,
        "val_y": validation.targets,
        "val_sens": val_sens,
        "test_X": test.features,
        "test_y": test.targets,
        "test_sens": test.sensitive,
    }
    counts = _run_tasks(ctx, list(tasks.values()), jobs)

    def validation_report(val_counts: np.ndarray) -> FairnessReport:
        return report_from_counts(val_counts, sensitive_source, require=(objective,))

    scores = {
        key: [(r.avg_accuracy, r.metric(objective)) for r in map(validation_report, task_counts[:, 0])]
        for key, task_counts in counts.items()
    }

    def outcome(best: _Best | None, bin_: tuple[float, float]) -> BinOutcome:
        if best is None:
            return BinOutcome(bin=bin_, winner=None, validation=None, test=None)
        val_counts, test_counts = counts[best.task_key][best.ref.epoch - 1]
        test_report = report_from_counts(test_counts, GROUND_TRUTH, require=())
        return BinOutcome(bin=bin_, winner=best.ref, validation=validation_report(val_counts), test=test_report)

    minimize = _MINIMIZED[objective]
    erm_best, erm_overall = _reduce_candidates(erm_combos, scores, bins, minimize)
    jtt_bins = ()
    if jtt_combos is not None:
        jtt_best, _ = _reduce_candidates(jtt_combos, scores, bins, minimize)
        jtt_bins = tuple(outcome(b, bn) for b, bn in zip(jtt_best, bins))
    return TunerResult(
        objective=objective,
        sensitive_source=sensitive_source,
        bins=jtt_bins,
        erm_bins=tuple(outcome(b, bn) for b, bn in zip(erm_best, bins)),
        erm_baseline=None if erm_overall is None else outcome(erm_overall, (0.0, 1.0 + 1e-12)),
    )


def grid_search(
    train: TabularDataset,
    validation: TabularDataset,
    test: TabularDataset,
    config: JttConfig,
    pseudo: PseudoLabelledValidation | None = None,
    jobs: int = 1,
) -> TunerResult:
    """Sweep the two-stage grid plus a plain baseline sweep of the stage-2
    grid, selecting per accuracy bin by the configured fairness objective."""
    val_sens = _selection_labels(validation, test, config.objective, config.sensitive_source, pseudo)
    combos: list[_Combo] = []
    tasks: dict[tuple, _Task] = {}
    # Stage 1: one training run per grid point, reused across T values.
    for s1 in config.stage1_grid:
        ckpts = train_erm(train, s1)
        for t in config.t_grid:
            if t > s1.epochs:
                continue
            preds = predict(ckpts[t - 1], train)
            err_pos = tuple(int(p) for p in np.flatnonzero(preds != train.targets))
            for lam in config.lambda_grid:
                for s2 in config.stage2_grid:
                    key = _task_key(err_pos, lam, s2)
                    if key not in tasks:
                        plain = key[0] == "erm"
                        tasks[key] = _Task(key, () if plain else err_pos, 1 if plain else lam, s2)
                    ref = CandidateRef(
                        kind="jtt", stage2=s2, epoch=0, stage1=s1, t=t, lam=lam, plain_fallback=not err_pos
                    )
                    combos.append(_Combo(ref_base=ref, task_key=key))
        del ckpts
    erm_combos = _erm_combos(config.stage2_grid, tasks)
    return _sweep(
        train, validation, test, val_sens, tasks, combos, erm_combos,
        config.accuracy_bins, config.objective, config.sensitive_source, jobs,
    )


def erm_sweep(
    train: TabularDataset,
    validation: TabularDataset,
    test: TabularDataset,
    grid: Sequence[HyperParams],
    bins: Sequence[tuple[float, float]],
    objective: str,
    sensitive_source: str = GROUND_TRUTH,
    pseudo: PseudoLabelledValidation | None = None,
    jobs: int = 1,
) -> TunerResult:
    """Plain-training sweep: grid_search restricted to single-stage candidates
    (every epoch checkpoint of every grid point)."""
    if not grid:
        raise ValueError("grid must be nonempty")
    val_sens = _selection_labels(validation, test, objective, sensitive_source, pseudo)
    tasks: dict[tuple, _Task] = {}
    erm_combos = _erm_combos(grid, tasks)
    bins = tuple((float(lo), float(hi)) for lo, hi in bins)
    return _sweep(
        train, validation, test, val_sens, tasks, None, erm_combos, bins, objective, sensitive_source, jobs
    )


def summarize_runs(results: Sequence[TunerResult]) -> dict:
    """Mean and population stddev of (accuracy, objective) across repeated
    single-seed runs, per bin, for multi-seed reporting."""
    if not results:
        raise ValueError("no results to summarize")
    objective = results[0].objective

    def stats(values: list[float]) -> dict:
        arr = np.asarray(values, dtype=np.float64)
        return {"mean": float(arr.mean()), "std": float(arr.std()), "n": len(values)}

    out: dict = {"objective": objective, "bins": []}
    n_bins = len(results[0].bins)
    for i in range(n_bins):
        accs, objs = [], []
        for r in results:
            b = r.bins[i]
            if b.winner is not None and b.test is not None:
                accs.append(b.test.avg_accuracy)
                value = b.test.metric(objective)
                if value is not None:
                    objs.append(value)
        entry = {"bin": list(results[0].bins[i].bin)}
        if accs:
            entry["test_accuracy"] = stats(accs)
        if objs:
            entry["test_objective"] = stats(objs)
        out["bins"].append(entry)
    return out
