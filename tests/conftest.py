"""Shared builders for planted datasets, and a recorder of sweep submissions, used across the suite."""

from __future__ import annotations

import pytest

import fairtune.tuning as tuning
from fairtune.data import (
    BlockSpec,
    SyntheticSpec,
    TabularDataset,
    generate_synthetic,
    split,
    standardize,
)


def planted_spec(
    n_per_class: int = 1000,
    minority_fraction: float = 0.1,
    seed: int = 13,
    scale: float = 2.0,
) -> SyntheticSpec:
    """Biased two-class geometry.

    Majorities sit at (+s, 0) for class 1 and (0, +s) for class 0; minorities
    at the mirrored points, so a classifier that fits the majorities
    misclassifies the minorities and its mistakes track group membership.
    """
    n_min = int(round(minority_fraction * n_per_class))
    n_maj = n_per_class - n_min
    s = scale
    return SyntheticSpec(
        blocks={
            (1, 1): BlockSpec(n_maj, (s, 0.0), (1.0, 1.0)),
            (1, 0): BlockSpec(n_min, (-s, 0.0), (1.0, 1.0)),
            (0, 1): BlockSpec(n_maj, (0.0, s), (1.0, 1.0)),
            (0, 0): BlockSpec(n_min, (0.0, -s), (1.0, 1.0)),
        },
        seed=seed,
    )


def planted_splits(
    n_per_class: int = 1000,
    minority_fraction: float = 0.1,
    seed: int = 13,
) -> tuple[TabularDataset, TabularDataset, TabularDataset]:
    data = generate_synthetic(planted_spec(n_per_class, minority_fraction, seed))
    return standardize(*split(data, (0.6, 0.2, 0.2), seed=seed + 1))


@pytest.fixture(scope="session")
def planted():
    return planted_splits()


def record_submissions(monkeypatch) -> list[list]:
    """Record the task list of every `tuning._run_tasks` call, in submission
    order: one list per wave of a sweep."""
    submitted = []
    pool_map = tuning.pool_map

    def recording(fn, ctx, items, jobs):
        if fn is tuning._evaluate_task:
            submitted.append(list(items))
        return pool_map(fn, ctx, items, jobs)

    monkeypatch.setattr(tuning, "pool_map", recording)
    return submitted
