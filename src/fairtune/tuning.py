"""Two-stage error-upweighting training and accuracy-constrained tuning.

Stage 1 trains a deliberately plain model for T epochs and collects the
training rows it misclassifies; stage 2 retrains with those rows repeated
lambda times. The tuner sweeps every (stage-1 point, T, lambda, stage-2
point, stage-2 epoch) combination, buckets candidates into half-open average
validation-accuracy bins, and picks the candidate per bin that optimizes a
fairness objective measured on the validation set's (pseudo or ground-truth)
sensitive labels.

The sweep trains in two waves of one task kind. Wave 1 is the plain run of
every distinct stage-1 point, which also returns the training rows it
misclassifies at each T. Wave 2 is the two-stage runs those mistakes imply,
plus the plain run of every stage-2 point that wave 1 did not train; a
point in both grids trains once. Each run counts every epoch's
predictions on validation, and all selection reads those counts. The run
predicts the test split's ground truth only at the few epochs that can win a
bin or the unconstrained baseline; those counts feed only the winners' test
reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import MAX_SIZE, TabularDataset, check_int, check_pair
from .metrics import (
    METRIC_NAMES,
    EmptyGroupError,
    FairnessReport,
    check_round_trip,
    confusion_counts,
    report_from_counts,
)
from .training import HyperParams, _train_loop, check_trainable, pool_map, predict, upsampled_positions

# Unused here, but perfbench/spans.py traces these names on this module.
from .metrics import dp_gap, eo_gap, report_from_predictions, wga  # noqa: F401
from .training import train_erm, train_upsampled  # noqa: F401

GROUND_TRUTH = "ground_truth"
PSEUDO = "pseudo"
# The bin of the unconstrained plain baseline: every validation accuracy lies in it.
ERM_BASELINE_BIN = (0.0, 1.0 + 1e-12)

_MINIMIZED = {"dp_gap": True, "eo_gap": True, "wga": False}


def _check_selection_rule(objective: str, sensitive_source: str) -> None:
    if objective not in METRIC_NAMES:
        raise ValueError(f"objective: must be one of {METRIC_NAMES}, got {objective!r}")
    if sensitive_source not in (PSEUDO, GROUND_TRUTH):
        raise ValueError(f"sensitive_source: must be {PSEUDO!r} or {GROUND_TRUTH!r}, got {sensitive_source!r}")


def check_bins(bins, name: str) -> tuple[tuple[float, float], ...]:
    """`bins` as half-open accuracy bins [lo, hi): pairs of numbers with
    lo < hi, no two of which overlap."""
    bins = tuple(check_pair(b, f"{name}[{i}]", "lo, hi") for i, b in enumerate(bins))
    for i, (lo, hi) in enumerate(bins):
        if not lo < hi:
            raise ValueError(f"{name}[{i}]: bin [{lo}, {hi}) is empty")
    ordered = sorted(bins)
    for (lo1, hi1), (lo2, _) in zip(ordered, ordered[1:]):
        if hi1 > lo2:
            raise ValueError(f"{name}: bins [{lo1}, {hi1}) and [{lo2}, ...) overlap")
    return bins


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
                raise ValueError(f"{name}: must be nonempty")
        for name in ("stage1_grid", "stage2_grid"):
            for i, hp in enumerate(getattr(self, name)):
                if not isinstance(hp, HyperParams):
                    raise ValueError(f"{name}[{i}]: expected HyperParams, got {type(hp).__name__}")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name, maximum in (("t_grid", None), ("lambda_grid", MAX_SIZE)):
            values = tuple(check_int(v, f"{name}[{i}]", 1, maximum) for i, v in enumerate(getattr(self, name)))
            object.__setattr__(self, name, values)
        _check_selection_rule(self.objective, self.sensitive_source)
        object.__setattr__(self, "accuracy_bins", check_bins(self.accuracy_bins, "accuracy_bins"))

    def to_dict(self) -> dict:
        # The grids go through HyperParams.to_dict, which decides what a grid
        # point stores.
        grids = {name: [hp.to_dict() for hp in getattr(self, name)] for name in ("stage1_grid", "stage2_grid")}
        return {**asdict(self), **grids}


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
        """A stored to_dict(): a "jtt" candidate names its stage-1 point, T and
        lambda, an "erm" candidate none of them; stage 2 trains its epoch."""
        kind = d["kind"]
        if kind not in ("jtt", "erm"):
            raise ValueError(f"kind: must be 'jtt' or 'erm', got {kind!r}")
        if [d[key] is not None for key in ("stage1", "t", "lambda")] != [kind == "jtt"] * 3:
            raise ValueError(f"stage1, t, lambda: a 'jtt' candidate sets all three, an 'erm' one none; got {kind!r}")
        plain_fallback = d["plain_fallback"]
        if not isinstance(plain_fallback, bool):
            raise ValueError(f"plain_fallback: expected bool, got {type(plain_fallback).__name__}")
        if plain_fallback and kind == "erm":
            raise ValueError("plain_fallback: an 'erm' candidate has no stage 1 to fall back from, got True")
        stage2 = HyperParams.from_dict(d["stage2"])
        epoch = check_int(d["epoch"], "epoch", 1)
        if epoch > stage2.epochs:
            raise ValueError(f"epoch: stage 2 trains {stage2.epochs} epochs, got {epoch}")
        return cls(
            kind=kind, stage2=stage2, epoch=epoch, plain_fallback=plain_fallback,
            stage1=None if d["stage1"] is None else HyperParams.from_dict(d["stage1"]),
            t=None if d["t"] is None else check_int(d["t"], "t", 1),
            lam=None if d["lambda"] is None else check_int(d["lambda"], "lambda", 1),
        )


# ----------------------------------------------------------------------------
# Grid evaluation machinery.
#
# A *task* is one training run; a *candidate* is one task epoch. Tasks are
# deduplicated (lambda == 1 or an empty repeat set collapse to the plain run
# of their stage-2 point) and may be evaluated in parallel; each returns
# every epoch's validation score, the confusion counts of the epochs that can
# win and the training mistakes stage 1 asked for. The selection pass is a
# sequential reduction in canonical grid order, so the winners never depend
# on the degree of parallelism.
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class _Task:
    """One training run, which is also its own result key: the plain run of
    `stage2`, or the run with the rows at `err_pos` repeated `lam` times.
    `mistakes_at` lists the epochs whose training mistakes stage 1 reads; it
    is not part of the key, so a combo's `_Task(stage2)` finds the plain
    run."""

    stage2: HyperParams
    err_pos: tuple[int, ...] = ()  # positional indices into the training arrays
    lam: int = 1
    mistakes_at: tuple[int, ...] = field(default=(), compare=False)


def _task(err_pos: tuple[int, ...], lam: int, stage2: HyperParams) -> _Task:
    """The run of a two-stage combo: the plain run of `stage2` when lam is 1
    or stage 1 made no training mistakes."""
    return _Task(stage2) if lam == 1 or not err_pos else _Task(stage2, err_pos, lam)


@dataclass(frozen=True)
class _TaskResult:
    scores: tuple[tuple[float, float], ...]  # (accuracy, objective) per epoch on validation
    counts: Mapping[int, tuple[np.ndarray, np.ndarray]]  # candidate epoch -> (validation, test) counts
    mistakes: Mapping[int, tuple[int, ...]]  # epoch of mistakes_at -> positions of misclassified training rows


def _bin_of(acc: float, bins: Sequence[tuple[float, float]]) -> int | None:
    for i, (lo, hi) in enumerate(bins):
        if lo <= acc < hi:
            return i
    return None


def _select(candidates: Iterable[tuple], bins: Sequence[tuple[float, float]], minimize: bool) -> tuple[list, tuple | None]:
    """Sequential selection over (item, accuracy, objective) triples in the
    given order. A bin's best is replaced only on a strict improvement of the
    objective, and the overall best only on a strictly higher accuracy, so
    each winner is the first triple with its bin's best objective (the top
    accuracy). Returns the per-bin winners (None for an empty bin) and the
    overall one."""
    best_per_bin: list[tuple | None] = [None] * len(bins)
    best_acc: tuple | None = None
    for cand in candidates:
        _, acc, obj = cand
        if best_acc is None or acc > best_acc[1]:
            best_acc = cand
        b = _bin_of(acc, bins)
        if b is None:
            continue
        cur = best_per_bin[b]
        if cur is None or (obj < cur[2] if minimize else obj > cur[2]):
            best_per_bin[b] = cand
    return best_per_bin, best_acc


def _candidate_epochs(
    scores: Sequence[tuple[float, float]], bins: Sequence[tuple[float, float]], minimize: bool, plain: bool
) -> list[int]:
    """The epochs of one task that can win in a sweep: its own `_select`
    winners. Every combo of a task sees the same scores in epoch order, and
    objectives are finite, so an epoch of the task that wins among all
    candidates also wins among the task's own; at most len(bins) + 1. The
    top-accuracy epoch counts for a plain task only: the plain baseline is
    the one top-accuracy winner a sweep reports."""
    per_bin, top = _select(((e, acc, obj) for e, (acc, obj) in enumerate(scores, start=1)), bins, minimize)
    return sorted({cand[0] for cand in (*per_bin, top if plain else None) if cand is not None})


def _evaluate_task(ctx: dict, task: _Task) -> _TaskResult:
    """Train one run, score every epoch checkpoint on validation (selection
    labels), and predict the test split (ground truth) only at the candidate
    epochs. Returns the validation (accuracy, objective) of every epoch, per
    candidate epoch the validation and the test confusion counts, and per
    epoch of `mistakes_at` the training rows that checkpoint misclassifies.
    The plain run of a stage-1 point outside the stage-2 grid is no
    candidate, so it returns its mistakes only."""
    X, y = ctx["train_X"], ctx["train_y"]
    ckpts = _train_loop(X, y, task.stage2, upsampled_positions(X.shape[0], task.err_pos, task.lam))
    mistakes = {t: tuple(np.flatnonzero(predict(ckpts[t - 1], X) != y).tolist()) for t in task.mistakes_at}
    if task.stage2 not in ctx["stage2_grid"]:
        return _TaskResult(scores=(), counts={}, mistakes=mistakes)
    val_counts = [confusion_counts(predict(ckpt, ctx["val_X"]), ctx["val_y"], ctx["val_sens"]) for ckpt in ckpts]
    reports = [report_from_counts(c, ctx["source"], require=(ctx["objective"],)) for c in val_counts]
    scores = tuple((r.avg_accuracy, r.metric(ctx["objective"])) for r in reports)
    counts = {
        epoch: (
            val_counts[epoch - 1],
            confusion_counts(predict(ckpts[epoch - 1], ctx["test_X"]), ctx["test_y"], ctx["test_sens"]),
        )
        for epoch in _candidate_epochs(scores, ctx["bins"], _MINIMIZED[ctx["objective"]], plain=not task.err_pos)
    }
    return _TaskResult(scores=scores, counts=counts, mistakes=mistakes)


def _task_cost(n_train: int, task: _Task) -> int:
    """Rows a task trains on over all its epochs, in proportion to its time."""
    return (n_train + len(task.err_pos) * (task.lam - 1)) * task.stage2.epochs


def _run_tasks(ctx: dict, tasks: Sequence[_Task], jobs: int) -> dict[_Task, _TaskResult]:
    """Evaluate every task, keyed by task. Tasks are submitted longest first,
    so that no long task starts last while the other workers idle."""
    n_train = ctx["train_X"].shape[0]
    ordered = sorted(tasks, key=lambda task: -_task_cost(n_train, task))
    return dict(zip(ordered, pool_map(_evaluate_task, ctx, ordered, jobs)))


def _selection_labels(
    validation: TabularDataset,
    test: TabularDataset,
    objective: str,
    sensitive_source: str,
    pseudo: np.ndarray | None,
) -> np.ndarray:
    """Validation sensitive labels to select on, once the objective and the
    test reports are known to be computable."""
    if sensitive_source == PSEUDO:
        if pseudo is None:
            raise ValueError("sensitive_source 'pseudo' needs the validation split's pseudo labels")
        val_sens = np.asarray(pseudo)
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

    def _check_written(self, where: str, kind: str, objective: str) -> None:
        """Raises ValueError unless `grid_search` could write this outcome at
        `where`, whose winners are of `kind`: a winner exactly when both
        reports, a validation accuracy inside the bin, and an objective."""
        if len({part is None for part in (self.winner, self.validation, self.test)}) > 1:
            raise ValueError(f"{where}: a tuner writes a winner and both its reports, or none of them")
        if self.winner is None:
            return
        if self.winner.kind != kind:
            raise ValueError(f"{where}.winner.kind: a tuner writes {kind!r} winners here, got {self.winner.kind!r}")
        (lo, hi), acc = self.bin, self.validation.avg_accuracy
        if not lo <= acc < hi:
            raise ValueError(f"{where}.validation.avg_accuracy: {acc} lies outside the bin [{lo}, {hi})")
        if self.validation.metric(objective) is None:
            raise ValueError(f"{where}.validation.{objective}: a winner's objective is never None")

    @classmethod
    def from_dict(cls, d: Mapping, source: str) -> "BinOutcome":
        """A stored to_dict(), its reports labelled as a tuner scores them."""
        lo, hi = check_pair(d["bin"], "bin", "lo, hi")
        on = {"validation": source, "test": GROUND_TRUTH}  # the sensitive labels a tuner scores each report on
        reports = (
            None if d[k] is None else replace(FairnessReport.from_dict(d[k]), sensitive_source=on[k]) for k in on
        )
        winner = None if d["winner"] is None else CandidateRef.from_dict(d["winner"])
        return cls((lo, hi), winner, *reports)


@dataclass(frozen=True)
class TunerResult:
    """Per-bin winners for the two-stage search, per-bin plain-training
    winners, and the unconstrained plain baseline (best validation accuracy).
    """

    objective: str
    sensitive_source: str
    bins: tuple[BinOutcome, ...]
    erm_bins: tuple[BinOutcome, ...]
    erm_baseline: BinOutcome

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "sensitive_source": self.sensitive_source,
            "bins": [b.to_dict() for b in self.bins],
            "erm_bins": [b.to_dict() for b in self.erm_bins],
            "erm_baseline": self.erm_baseline.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "TunerResult":
        """The result whose to_dict() is `d`; raises ValueError where no tuner
        run could have written `d`, naming the first key of `d` that differs."""
        objective, source = d["objective"], d["sensitive_source"]
        _check_selection_rule(objective, source)
        if d["erm_baseline"] is None:
            raise ValueError("erm_baseline: a tuner always writes the plain baseline, got null")
        bins, erm_bins = (tuple(BinOutcome.from_dict(b, source) for b in d[key]) for key in ("bins", "erm_bins"))
        baseline = BinOutcome.from_dict(d["erm_baseline"], source)
        result = cls(objective, source, bins, erm_bins, baseline)
        check_round_trip(d, result.to_dict(), "a tuner writes")
        if not result.bins or [b.bin for b in result.bins] != [b.bin for b in result.erm_bins]:
            raise ValueError("bins and erm_bins must list the same nonempty accuracy bins in the same order")
        check_bins([b.bin for b in bins], "bins")
        if baseline.bin != ERM_BASELINE_BIN:
            raise ValueError(f"erm_baseline.bin: a tuner writes {list(ERM_BASELINE_BIN)}, got {list(baseline.bin)}")
        if baseline.empty:
            raise ValueError("erm_baseline.winner: a tuner always writes the plain baseline's winner, got null")
        outcomes = [(f"bins[{i}]", "jtt", b) for i, b in enumerate(bins)]
        outcomes += [(f"erm_bins[{i}]", "erm", b) for i, b in enumerate(erm_bins)]
        outcomes.append(("erm_baseline", "erm", baseline))
        for where, kind, outcome in outcomes:
            outcome._check_written(where, kind, objective)
        return result


def grid_search(
    train: TabularDataset,
    validation: TabularDataset,
    test: TabularDataset,
    config: JttConfig,
    pseudo: np.ndarray | None = None,
    jobs: int = 1,
) -> TunerResult:
    """Sweep the two-stage grid plus a plain baseline sweep of the stage-2
    grid, selecting per accuracy bin by the configured fairness objective.
    With sensitive_source 'pseudo', `pseudo` holds one 0/1 label per
    validation row, in the split's row order.
    `erm_bins` and `erm_baseline` are the plain sweep; with lambda_grid=(1,)
    and stage1_grid == stage2_grid, only the plain runs are trained."""
    val_sens = _selection_labels(validation, test, config.objective, config.sensitive_source, pseudo)
    check_trainable(train)
    ctx = {
        "train_X": train.features,
        "train_y": train.targets.astype(np.float64),
        "val_X": validation.features,
        "val_y": validation.targets,
        "val_sens": val_sens,
        "test_X": test.features,
        "test_y": test.targets,
        "test_sens": test.sensitive,
        "stage2_grid": frozenset(config.stage2_grid),
        "bins": config.accuracy_bins,
        "objective": config.objective,
        "source": config.sensitive_source,
    }
    # Wave 1: the plain run of every distinct stage-1 point, which also
    # returns its training mistakes at each T within its epochs.
    wave1 = [_Task(s1, mistakes_at=tuple(t for t in config.t_grid if t <= s1.epochs)) for s1 in config.stage1_grid]
    results = _run_tasks(ctx, list(dict.fromkeys(wave1)), jobs)
    # Wave 2: every other run the combos read, the plain runs of stage-2
    # points outside the stage-1 grid among them; a point in both grids has
    # trained in wave 1.
    jtt_combos = [
        (CandidateRef(kind="jtt", stage2=s2, epoch=0, stage1=s1, t=t, lam=lam, plain_fallback=not err_pos),
         _task(err_pos, lam, s2))
        for s1 in config.stage1_grid
        for t, err_pos in results[_Task(s1)].mistakes.items()
        for lam in config.lambda_grid
        for s2 in config.stage2_grid
    ]
    erm_combos = [(CandidateRef(kind="erm", stage2=s2, epoch=0), _Task(s2)) for s2 in config.stage2_grid]
    wave2 = dict.fromkeys(task for _, task in (*jtt_combos, *erm_combos) if task not in results)
    results.update(_run_tasks(ctx, list(wave2), jobs))

    def candidates(combos: Sequence[tuple[CandidateRef, _Task]]):
        for ref, task in combos:
            for epoch, (acc, obj) in enumerate(results[task].scores, start=1):
                yield (ref, task, epoch), acc, obj

    def outcome(best: tuple | None, bin_: tuple[float, float]) -> BinOutcome:
        if best is None:
            return BinOutcome(bin=bin_, winner=None, validation=None, test=None)
        (ref, task, epoch), _, _ = best
        val_counts, test_counts = results[task].counts[epoch]
        return BinOutcome(
            bin=bin_,
            winner=replace(ref, epoch=epoch),
            validation=report_from_counts(val_counts, config.sensitive_source, require=(config.objective,)),
            test=report_from_counts(test_counts, GROUND_TRUTH, require=()),
        )

    bins, minimize = config.accuracy_bins, _MINIMIZED[config.objective]
    jtt_best, _ = _select(candidates(jtt_combos), bins, minimize)
    erm_best, erm_overall = _select(candidates(erm_combos), bins, minimize)
    return TunerResult(
        objective=config.objective,
        sensitive_source=config.sensitive_source,
        bins=tuple(outcome(b, bn) for b, bn in zip(jtt_best, bins)),
        erm_bins=tuple(outcome(b, bn) for b, bn in zip(erm_best, bins)),
        erm_baseline=outcome(erm_overall, ERM_BASELINE_BIN),
    )
