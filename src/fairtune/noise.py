"""Mutually contaminated group-noise laboratory.

Noisy groups are mixtures of the true sensitive-attribute groups: a fraction
alpha of the noisy majority is drawn from the true minority and a fraction
beta of the noisy minority from the true majority. Group-fairness gaps
measured under such noise shrink by the factor 1 - alpha - beta, and the
distance between the noisy group means shrinks by |1 - alpha - beta|; this
module checks both facts numerically, with an exact path on population
quantities (no sampling) and a Monte-Carlo path on drawn rows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import DataError, check_float, check_int, write_meta_lines
from .labelling import edm
from .metrics import EmptyGroupError
from .training import HyperParams, ModelParams, predict

RATIO_DENOM_FLOOR = 1e-6


@dataclass(frozen=True)
class NoiseSpec:
    """Contamination rates, optionally others for the rows of target 1 (the
    EO measurement), plus the draw seed."""

    alpha: float
    beta: float
    seed: int = 0
    alpha_1: float | None = None
    beta_1: float | None = None

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "alpha_1", "beta_1"):
            value = getattr(self, name)
            if value is not None:
                value = check_float(value, name)
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"{name}: must lie in [0, 1], got {value}")
                object.__setattr__(self, name, value)
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0))

    def class_1_rates(self) -> tuple[float, float]:
        """(alpha, beta) for the rows of target 1, falling back to the global rates."""
        return (
            self.alpha if self.alpha_1 is None else self.alpha_1,
            self.beta if self.beta_1 is None else self.beta_1,
        )


@dataclass(frozen=True)
class MixedGroups:
    """Drawn noisy groups with full provenance.

    *_from_majority is True where the drawn row came from the true majority;
    *_source_index is the row's index within its source group.
    """

    majority: np.ndarray
    minority: np.ndarray
    majority_from_majority: np.ndarray
    minority_from_majority: np.ndarray
    majority_source_index: np.ndarray
    minority_source_index: np.ndarray


def _draw(
    majority_rows: np.ndarray,
    minority_rows: np.ndarray,
    contamination: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    from_major = rng.random(n) >= contamination
    idx_major = rng.integers(0, majority_rows.shape[0], n)
    idx_minor = rng.integers(0, minority_rows.shape[0], n)
    src_idx = np.where(from_major, idx_major, idx_minor)
    rows = np.where(from_major[:, None], majority_rows[idx_major], minority_rows[idx_minor])
    return rows, from_major, src_idx


def mix_groups(
    majority_rows: np.ndarray,
    minority_rows: np.ndarray,
    spec: NoiseSpec,
    n_out: tuple[int, int],
    rng: np.random.Generator | None = None,
) -> MixedGroups:
    """Draw noisy groups with replacement from the true groups.

    Each noisy-majority row comes from the true majority with probability
    1 - alpha, else from the minority; the noisy minority uses beta
    symmetrically.
    """
    majority_rows = np.asarray(majority_rows, dtype=np.float64)
    minority_rows = np.asarray(minority_rows, dtype=np.float64)
    if majority_rows.shape[0] == 0 or minority_rows.shape[0] == 0:
        raise EmptyGroupError("source groups must be nonempty")
    n_maj, n_min = int(n_out[0]), int(n_out[1])
    if n_maj < 1 or n_min < 1:
        raise ValueError("n_out sizes must be >= 1")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    maj_rows, maj_from_major, maj_src = _draw(majority_rows, minority_rows, spec.alpha, n_maj, rng)
    min_rows, min_from_minor, min_src = _draw(minority_rows, majority_rows, spec.beta, n_min, rng)
    return MixedGroups(
        majority=maj_rows,
        minority=min_rows,
        majority_from_majority=maj_from_major,
        minority_from_majority=~min_from_minor,
        majority_source_index=maj_src,
        minority_source_index=min_src,
    )


# ----------------------------------------------------------------------------
# Population-exact path: identities on analytic mixture quantities.
# ----------------------------------------------------------------------------

def edm_exact(
    mean_majority: np.ndarray, mean_minority: np.ndarray, alpha: float, beta: float
) -> tuple[float, float]:
    """(clean EDM, noisy EDM) computed from exact mixture means."""
    mu1 = np.asarray(mean_majority, dtype=np.float64)
    mu0 = np.asarray(mean_minority, dtype=np.float64)
    noisy_maj, noisy_min = (1.0 - alpha) * mu1 + alpha * mu0, beta * mu1 + (1.0 - beta) * mu0
    return float(np.linalg.norm(mu1 - mu0)), float(np.linalg.norm(noisy_maj - noisy_min))


def dp_gap_noisy_exact(
    rate_majority: float, rate_minority: float, alpha: float, beta: float
) -> float:
    """Signed DP gap measured on exact noisy groups, given the true
    group-conditional positive-prediction rates."""
    noisy_major_rate = (1.0 - alpha) * rate_majority + alpha * rate_minority
    noisy_minor_rate = beta * rate_majority + (1.0 - beta) * rate_minority
    return noisy_major_rate - noisy_minor_rate


# ----------------------------------------------------------------------------
# Sampled path: Monte-Carlo verification records.
# ----------------------------------------------------------------------------

def _ratio(noisy: float, true: float) -> float | None:
    if abs(true) <= RATIO_DENOM_FLOOR:
        return None
    return noisy / true


@dataclass(frozen=True)
class ProportionalityRecord:
    alpha: float
    beta: float
    alpha_1: float
    beta_1: float
    dp_true: float
    dp_noisy: float
    eo_true: float
    eo_noisy: float
    ratio_dp: float | None
    ratio_eo: float | None


def verify_proportionality(
    classifier: ModelParams,
    majority: tuple[np.ndarray, np.ndarray],
    minority: tuple[np.ndarray, np.ndarray],
    spec: NoiseSpec,
    n_samples: int,
) -> ProportionalityRecord:
    """Measure signed DP/EO gaps on drawn noisy groups against the clean gaps.

    DP uses the global (alpha, beta); the EO measurement, which conditions on
    target 1, mixes the positive-class rows with the class-1 rates (equal to
    the global ones unless ``spec`` overrides them).
    """
    X_maj, y_maj = np.asarray(majority[0], dtype=np.float64), np.asarray(majority[1])
    X_min, y_min = np.asarray(minority[0], dtype=np.float64), np.asarray(minority[1])
    if X_maj.shape[0] == 0 or X_min.shape[0] == 0:
        raise EmptyGroupError("source groups must be nonempty")
    pred_maj = predict(classifier, X_maj).astype(np.float64)
    pred_min = predict(classifier, X_min).astype(np.float64)
    rng = np.random.default_rng(spec.seed)

    def gaps(maj: np.ndarray, mino: np.ndarray, rates: NoiseSpec) -> tuple[float, float]:
        """The true and the noisy gap in mean prediction. Mixing each group's
        predictions as one-column rows draws what mixing its feature rows
        would, without copying n_samples feature rows."""
        mixed = mix_groups(maj[:, None], mino[:, None], rates, (n_samples, n_samples), rng=rng)
        return float(maj.mean() - mino.mean()), float(mixed.majority[:, 0].mean() - mixed.minority[:, 0].mean())

    dp_true, dp_noisy = gaps(pred_maj, pred_min, spec)
    # EO: restrict the sources to target 1, then mix with the class-1 rates.
    alpha_1, beta_1 = spec.class_1_rates()
    pos_maj = np.flatnonzero(y_maj == 1)
    pos_min = np.flatnonzero(y_min == 1)
    if len(pos_maj) == 0 or len(pos_min) == 0:
        raise EmptyGroupError("both groups need rows with target 1 for the EO check")
    eo_true, eo_noisy = gaps(pred_maj[pos_maj], pred_min[pos_min], NoiseSpec(alpha=alpha_1, beta=beta_1))
    return ProportionalityRecord(
        alpha=spec.alpha,
        beta=spec.beta,
        alpha_1=alpha_1,
        beta_1=beta_1,
        dp_true=dp_true,
        dp_noisy=dp_noisy,
        eo_true=eo_true,
        eo_noisy=eo_noisy,
        ratio_dp=_ratio(dp_noisy, dp_true),
        ratio_eo=_ratio(eo_noisy, eo_true),
    )


@dataclass(frozen=True)
class EdmSweepRecord:
    alpha: float
    beta: float
    edm_true: float
    edm_noisy: float
    ratio: float | None


def verify_edm_lemma(
    majority_rows: np.ndarray,
    minority_rows: np.ndarray,
    spec_grid: Sequence[tuple[float, float]],
    n_samples: int,
    seed: int = 0,
) -> list[EdmSweepRecord]:
    """Sample noisy groups per (alpha, beta) and compare the noisy EDM with
    the clean EDM. Each grid cell draws from its own child seed, so cells are
    independent and the sweep is reproducible.
    """
    X_maj = np.asarray(majority_rows, dtype=np.float64)
    X_min = np.asarray(minority_rows, dtype=np.float64)
    edm_true = edm(X_maj, X_min)
    if edm_true <= 1e-9:
        raise DataError("clean group means coincide; the EDM ratio is undefined")
    records: list[EdmSweepRecord] = []
    for i, (alpha, beta) in enumerate(spec_grid):
        rng = np.random.default_rng([seed, i])
        mixed = mix_groups(X_maj, X_min, NoiseSpec(alpha=alpha, beta=beta), (n_samples, n_samples), rng=rng)
        edm_noisy = edm(mixed.majority, mixed.minority)
        ratio = _ratio(edm_noisy, edm_true)
        records.append(
            EdmSweepRecord(alpha=alpha, beta=beta, edm_true=edm_true, edm_noisy=edm_noisy, ratio=ratio)
        )
    return records


def difference_of_means_probe(majority_rows: np.ndarray, minority_rows: np.ndarray) -> ModelParams:
    """Fixed linear classifier along the difference of the group means.

    A deterministic probe for proportionality sweeps: predicts 1 on the
    majority side of the midpoint hyperplane.
    """
    mu1 = np.asarray(majority_rows, dtype=np.float64).mean(axis=0)
    mu0 = np.asarray(minority_rows, dtype=np.float64).mean(axis=0)
    w = mu1 - mu0
    b = -float(w @ (mu1 + mu0) / 2.0)
    hp = HyperParams(learning_rate=1.0, epochs=1)
    return ModelParams(params=np.append(w, b), feature_dim=w.shape[0], trained_epochs=0, hp=hp)


_SWEEP_COLUMNS = (
    "alpha",
    "beta",
    "edm_true",
    "edm_noisy",
    "edm_ratio",
    "dp_true",
    "dp_noisy",
    "dp_ratio",
    "eo_true",
    "eo_noisy",
    "eo_ratio",
)


def write_sweep_csv(
    path: str | Path,
    edm_records: Sequence[EdmSweepRecord],
    dp_records: Sequence[ProportionalityRecord],
    meta: Mapping[str, str] | None = None,
) -> None:
    """Emit one CSV row per grid cell for external plotting; edm_records[i]
    and dp_records[i] are the draws of cell i, so a cell listed twice keeps
    each draw on its own row. csv writes a float as its repr and None (a
    ratio with a vanishing denominator) as a blank cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_meta_lines(fh, meta or {})
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SWEEP_COLUMNS)
        for rec, dp in zip(edm_records, dp_records, strict=True):
            writer.writerow(
                [rec.alpha, rec.beta, rec.edm_true, rec.edm_noisy, rec.ratio]
                + [dp.dp_true, dp.dp_noisy, dp.ratio_dp, dp.eo_true, dp.eo_noisy, dp.ratio_eo]
            )
