"""Seeded inputs for the benchmark workloads.

Every workload is a fairtune experiment config built here from the benchmark
seed; the program receives only the config (and the data `prepare` generates
from it). The census shape mirrors the UCI census-income data the paper tunes
on, which cannot be fetched offline: d=100, about 45k rows, cell counts
(y, a) = 11 / 10 / 01 / 00 of about 9.5k / 1.7k / 21k / 13k, split with the
fractions of configs/adult.json into about 21k / 9k / 15k rows. The rows
are scaled to one third (CENSUS_SCALE) so that every benchmark run, with its
repeated set-ups, fits the time a run is given; d, the cell proportions, the
split fractions and the grids keep the census shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

CENSUS_DIM = 100
CENSUS_COUNTS = {(1, 1): 9500, (1, 0): 1700, (0, 1): 21000, (0, 0): 13000}
CENSUS_SCALE = 1 / 3
ADULT_SPLIT = [0.46686, 0.20011, 0.33303]

# Geometry of the census blocks. Dims 0-3 carry the class; its minority
# (a=0) sits CLASS_SHIFT closer to the decision boundary in both classes, so a
# plain model's mistakes concentrate on it and the mistake-based labeller
# beats chance. Dims 4-33 carry the group, which also makes them predictive
# of y (P(y=1|a) differs); the rest is unit noise. With these values a plain
# model's validation accuracy lands near 0.82-0.86 and pseudo labels match
# the true groups on 63-66% of validation rows for every seed from 1 to 30.
# With 20 group dims, seeds 7-10 fell to 0.53: EDM then prefers a first-epoch
# candidate that predicts nearly all of a class wrong.
CLASS_SIGNAL = 0.5
CLASS_SHIFT = 0.6
GROUP_SIGNAL = 0.4
CLASS_DIMS = range(0, 4)
GROUP_DIMS = range(4, 34)

# The paper's labeller grid shape: 3 learning rates x 2 weight decays, 64
# hidden units, batch 256. Plain gradient descent over a few epochs needs
# larger steps than the paper's 100-epoch grid: below 0.5 the first epoch
# predicts one class only, and EDM selection then picks such a candidate
# (its few correct rows have a far-off mean) and pseudo labels fall to chance.
LABELLER_LRS = (1.0, 0.7, 0.5)
LABELLER_WDS = (0.01, 0.001)
LABEL_EPOCHS = 10

TUNE_STAGE1_EPOCHS = 2
TUNE_STAGE2_EPOCHS = 4
# Half-point bins over the accuracies the reduced grid reaches: lambda=5
# candidates land near 0.70-0.79, plain ones near 0.75-0.85 (lambda=20 ones
# fall below and are swept but never selected). About 15 bins fill, so the
# winner retrains after the sweep are a real part of the work.
TUNE_BINS = [[round(0.70 + 0.005 * i, 3), round(0.705 + 0.005 * i, 3)] for i in range(30)]


def _hp(lr: float, wd: float, epochs: int) -> dict:
    return {"learning_rate": lr, "weight_decay": wd, "epochs": epochs, "batch_size": 256, "hidden_units": 64}


def census_blocks() -> dict:
    """Block specs of the census-shaped synthetic dataset, in config form."""
    blocks = {}
    for (y, a), count in CENSUS_COUNTS.items():
        mean = [0.0] * CENSUS_DIM
        sign = 1.0 if y == 1 else -1.0
        for j in CLASS_DIMS:
            mean[j] = sign * (CLASS_SIGNAL if a == 1 else CLASS_SIGNAL - CLASS_SHIFT)
        for j in GROUP_DIMS:
            mean[j] = GROUP_SIGNAL if a == 1 else -GROUP_SIGNAL
        blocks[f"y{y}_a{a}"] = {"count": round(count * CENSUS_SCALE), "mean": mean, "var": [1.0] * CENSUS_DIM}
    return blocks


def _census_base(seed: int) -> dict:
    return {
        "seed": seed,
        "output_dir": "out",
        "dataset": {"kind": "synthetic", "synthetic": {"blocks": census_blocks()}},
        "split": {"fractions": ADULT_SPLIT},
        "labelling": {"policy": "every_epoch"},
    }


def label_config(seed: int) -> dict:
    """`label`: the 6-point labeller grid on census-shaped data."""
    cfg = _census_base(seed)
    cfg["labeller_grid"] = [_hp(lr, wd, LABEL_EPOCHS) for lr in LABELLER_LRS for wd in LABELLER_WDS]
    return cfg


def tune_config(seed: int) -> dict:
    """`tune`: a reduced two-stage grid on census-shaped data, labelled by a
    one-point labeller grid."""
    cfg = _census_base(seed)
    cfg["labeller_grid"] = [_hp(0.5, 0.01, 5)]
    cfg["jtt"] = {
        "stage1_grid": [_hp(0.3, 0.001, TUNE_STAGE1_EPOCHS)],
        "t_grid": [1, 2],
        "lambda_grid": [5, 20],
        "stage2_grid": [_hp(0.3, 0.001, TUNE_STAGE2_EPOCHS), _hp(0.2, 0.01, TUNE_STAGE2_EPOCHS)],
        "objective": "dp_gap",
        "accuracy_bins": TUNE_BINS,
        "sensitive_source": "pseudo",
    }
    return cfg


def pipeline_small_config(seed: int) -> dict:
    """`pipeline_small`: configs/synthetic.json as of this benchmark's
    writing, kept here so later edits to the example config do not change
    the workload. The seed reaches it through --seed."""
    return {
        "seed": 13,
        "output_dir": "out/synthetic",
        "dataset": {
            "kind": "synthetic",
            "synthetic": {
                "blocks": {
                    "y1_a1": {"count": 900, "mean": [2.0, 0.0], "var": [1.0, 1.0]},
                    "y1_a0": {"count": 100, "mean": [-2.0, 0.0], "var": [1.0, 1.0]},
                    "y0_a1": {"count": 900, "mean": [0.0, 2.0], "var": [1.0, 1.0]},
                    "y0_a0": {"count": 100, "mean": [0.0, -2.0], "var": [1.0, 1.0]},
                }
            },
        },
        "split": {"fractions": [0.6, 0.2, 0.2]},
        "labeller_grid": [
            {"learning_rate": 0.1, "weight_decay": 0.0, "epochs": 20, "batch_size": 64},
            {"learning_rate": 0.01, "weight_decay": 0.001, "epochs": 20, "batch_size": 64},
        ],
        "labelling": {"policy": "every_epoch"},
        "jtt": {
            "stage1_grid": [{"learning_rate": 0.1, "epochs": 20, "batch_size": 64}],
            "t_grid": [1, 5],
            "lambda_grid": [1, 5, 20],
            "stage2_grid": [{"learning_rate": 0.1, "epochs": 30, "batch_size": 64, "hidden_units": 8}],
            "objective": "dp_gap",
            "accuracy_bins": [[0.8, 0.825], [0.825, 0.85], [0.85, 0.875]],
            "sensitive_source": "pseudo",
        },
        "mc_noise": {"grid": [[0.0, 0.0], [0.2, 0.3], [0.5, 0.5]], "n_samples": 20000},
    }


@dataclass(frozen=True)
class Workload:
    """A seeded config plus the fairtune commands run before (setup) and
    during (timed) the measured phase. A command is its subcommand and extra
    flags; --config, --out and --seed are added when it runs, and `report`
    receives the tuner result path instead."""

    name: str
    why: str
    config: Callable[[int], dict]
    setup: tuple[tuple[str, ...], ...]
    timed: tuple[tuple[str, ...], ...]
    # Config key of the grid whose first point the training micro-measures use.
    train_grid: str
    # The traced run also times `tune` as subprocesses at --jobs 1 and 2.
    compare_jobs: bool = False

    @property
    def runs_tune(self) -> bool:
        return any(cmd[0] == "tune" for cmd in self.timed)


_CHAIN = tuple(
    (cmd, "--jobs", "2") for cmd in ("prepare", "train-grid", "label", "mc-sweep", "tune")
) + (("report",),)

WORKLOADS = {
    "tune": Workload(
        name="tune",
        why="census-shaped two-stage search: stage-2 training on upsampled sets, per-epoch "
        "scoring and winner retrains; no checkpoints, no EDM",
        config=tune_config,
        setup=(("prepare",), ("train-grid", "--jobs", "1"), ("label",)),
        # One job: at --jobs 2 each worker's OpenBLAS starts its own threads
        # on the same cores and a run takes 1.2-2.8x as long, spread too wide
        # to gate on. The traced run measures that defect (compare_jobs).
        # One job also keeps the traced pass's spans, which pool workers lose.
        timed=(("tune", "--jobs", "1"),),
        train_grid="stage2_grid",
        compare_jobs=True,
    ),
    "label": Workload(
        name="label",
        why="census-shaped labeller grid at --jobs 1: plain training, one checkpoint written "
        "and re-read per epoch, EDM selection; no upsampling, no tuning",
        config=label_config,
        setup=(("prepare",),),
        timed=(("train-grid", "--jobs", "1"), ("label",)),
        train_grid="labeller_grid",
    ),
    "pipeline_small": Workload(
        name="pipeline_small",
        why="whole six-command chain on 2k rows, d=2, --jobs 2: interpreter start, import, "
        "config hashing, pool start-up and small CSV I/O dominate",
        config=pipeline_small_config,
        # Set-up generates the data the chain starts from; the timed chain
        # runs `prepare` again, as the whole chain is what it measures.
        setup=_CHAIN[:1],
        timed=_CHAIN,
        train_grid="labeller_grid",
    ),
}
