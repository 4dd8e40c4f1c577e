"""Tabular datasets: ingestion, preprocessing, splitting, synthetic generation.

All datasets are immutable after construction (arrays are frozen) and safe to
share between threads. Every source of randomness is an explicit integer seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

SPLIT_TAGS = ("train", "validation", "test", "all")

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# Reserved columns of the canonical dataset file format.
_RESERVED = ("__row_id", "__target", "__sensitive", "__split")


class DataError(ValueError):
    """Malformed input data or a violated dataset contract."""


class SchemaError(DataError):
    """Invalid schema definition or schema/file mismatch."""


class EmptySplitError(DataError):
    """A requested split received zero rows."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _check_binary(values: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values)
    if values.ndim != 1:
        raise DataError(f"{what} must be one-dimensional")
    out = values.astype(np.int8, copy=True)
    if not np.array_equal(out, values) or not np.isin(out, (0, 1)).all():
        raise DataError(f"{what} values must be exactly 0 or 1")
    return out


@dataclass(frozen=True)
class TabularDataset:
    """Feature matrix with binary targets, optional binary sensitive attribute,
    stable row ids and a split tag.

    `numeric_mask` marks which feature columns are raw numeric values (as
    opposed to one-hot indicator columns); ``None`` means all numeric.
    """

    features: np.ndarray
    targets: np.ndarray
    row_ids: np.ndarray
    split: str = "all"
    sensitive: np.ndarray | None = None
    feature_names: tuple[str, ...] | None = None
    numeric_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        n = feats.shape[0]
        targets = _check_binary(self.targets, "target")
        row_ids = np.asarray(self.row_ids, dtype=np.int64)
        if row_ids.ndim != 1:
            raise DataError("row_ids must be one-dimensional")
        if len(targets) != n or len(row_ids) != n:
            raise DataError(
                f"length mismatch: {n} feature rows, {len(targets)} targets, "
                f"{len(row_ids)} row_ids"
            )
        if len(np.unique(row_ids)) != n:
            raise DataError("row_ids must be unique")
        if self.split not in SPLIT_TAGS:
            raise DataError(f"unknown split tag {self.split!r}")
        sensitive = self.sensitive
        if sensitive is not None:
            sensitive = _check_binary(sensitive, "sensitive")
            if len(sensitive) != n:
                raise DataError(
                    f"length mismatch: {n} rows but {len(sensitive)} sensitive values"
                )
            sensitive = _frozen(sensitive)
        names = self.feature_names
        if names is not None:
            names = tuple(names)
            if len(names) != feats.shape[1]:
                raise DataError("feature_names length must match feature columns")
        mask = self.numeric_mask
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != (feats.shape[1],):
                raise DataError("numeric_mask length must match feature columns")
            mask = _frozen(mask)
        object.__setattr__(self, "features", _frozen(feats))
        object.__setattr__(self, "targets", _frozen(targets))
        object.__setattr__(self, "row_ids", _frozen(row_ids))
        object.__setattr__(self, "sensitive", sensitive)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "numeric_mask", mask)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray, split: str | None = None) -> "TabularDataset":
        """New dataset consisting of the given positional rows, ids preserved."""
        indices = np.asarray(indices)
        return TabularDataset(
            features=self.features[indices],
            targets=self.targets[indices],
            row_ids=self.row_ids[indices],
            split=self.split if split is None else split,
            sensitive=None if self.sensitive is None else self.sensitive[indices],
            feature_names=self.feature_names,
            numeric_mask=self.numeric_mask,
        )

    def restrict_to_class(self, y: int) -> "TabularDataset":
        return self.take(np.flatnonzero(self.targets == y))

    def with_sensitive(self, sensitive: np.ndarray) -> "TabularDataset":
        return TabularDataset(
            features=self.features,
            targets=self.targets,
            row_ids=self.row_ids,
            split=self.split,
            sensitive=sensitive,
            feature_names=self.feature_names,
            numeric_mask=self.numeric_mask,
        )


@dataclass(frozen=True)
class DatasetSchema:
    """Column layout of an input CSV.

    feature_columns: ordered (name, kind) pairs, kind "numeric" or "categorical".
    target_column:   (name, positive-class token); token match maps to 1.
    sensitive_column: optional (name, group-1 token).
    categorical_vocab: per categorical column, the ordered category list fixed
    at schema definition time; unseen categories at load time are an error.
    """

    feature_columns: tuple[tuple[str, str], ...]
    target_column: tuple[str, str]
    sensitive_column: tuple[str, str] | None = None
    categorical_vocab: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        cols = tuple((str(n), str(k)) for n, k in self.feature_columns)
        if not cols:
            raise SchemaError("schema needs at least one feature column")
        names = [n for n, _ in cols]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature column names")
        for name, kind in cols:
            if kind not in (NUMERIC, CATEGORICAL):
                raise SchemaError(f"column {name!r}: unknown kind {kind!r}")
        vocab = {str(k): tuple(str(c) for c in v) for k, v in dict(self.categorical_vocab).items()}
        for name, kind in cols:
            if kind == CATEGORICAL:
                if name not in vocab or not vocab[name]:
                    raise SchemaError(f"categorical column {name!r} has no vocabulary")
                if len(set(vocab[name])) != len(vocab[name]):
                    raise SchemaError(f"column {name!r}: duplicate vocabulary entries")
        target = (str(self.target_column[0]), str(self.target_column[1]))
        if target[0] in names:
            raise SchemaError("target column must not appear in feature_columns")
        sens = self.sensitive_column
        if sens is not None:
            sens = (str(sens[0]), str(sens[1]))
            if sens[0] == target[0]:
                raise SchemaError("sensitive column must differ from the target column")
        object.__setattr__(self, "feature_columns", cols)
        object.__setattr__(self, "target_column", target)
        object.__setattr__(self, "sensitive_column", sens)
        object.__setattr__(self, "categorical_vocab", vocab)

    def encoded_feature_names(self) -> tuple[str, ...]:
        names: list[str] = []
        for name, kind in self.feature_columns:
            if kind == NUMERIC:
                names.append(name)
            else:
                names.extend(f"{name}={cat}" for cat in self.categorical_vocab[name])
        return tuple(names)

    def encoded_numeric_mask(self) -> np.ndarray:
        mask: list[bool] = []
        for name, kind in self.feature_columns:
            if kind == NUMERIC:
                mask.append(True)
            else:
                mask.extend([False] * len(self.categorical_vocab[name]))
        return np.asarray(mask, dtype=bool)

    def to_dict(self) -> dict:
        d = {
            "feature_columns": [[n, k] for n, k in self.feature_columns],
            "target_column": list(self.target_column),
            "categorical_vocab": {k: list(v) for k, v in self.categorical_vocab.items()},
        }
        if self.sensitive_column is not None:
            d["sensitive_column"] = list(self.sensitive_column)
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "DatasetSchema":
        try:
            return cls(
                feature_columns=tuple((c[0], c[1]) for c in d["feature_columns"]),
                target_column=(d["target_column"][0], d["target_column"][1]),
                sensitive_column=(
                    (d["sensitive_column"][0], d["sensitive_column"][1])
                    if d.get("sensitive_column")
                    else None
                ),
                categorical_vocab=d.get("categorical_vocab", {}),
            )
        except (KeyError, IndexError, TypeError) as exc:
            raise SchemaError(f"malformed schema definition: {exc}") from exc


def load_csv(path: str | Path, schema: DatasetSchema) -> TabularDataset:
    """Load a headered CSV into a dataset per the schema.

    Numeric columns are parsed as floats, categorical columns one-hot encoded
    in vocabulary order, targets and sensitive values mapped by token match.
    Row ids follow file order starting at 0. Errors carry the data row number
    (0-based, header excluded) and column name.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        col_index: dict[str, int] = {}
        for name, _ in schema.feature_columns:
            if name not in header:
                raise SchemaError(f"{path}: missing column {name!r}")
            col_index[name] = header.index(name)
        for name in (schema.target_column[0],) + (
            (schema.sensitive_column[0],) if schema.sensitive_column else ()
        ):
            if name not in header:
                raise SchemaError(f"{path}: missing column {name!r}")
            col_index[name] = header.index(name)

        n_out = len(schema.encoded_feature_names())
        rows: list[list[float]] = []
        targets: list[int] = []
        sensitive: list[int] = []
        for ridx, row in enumerate(reader):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: data row {ridx} has {len(row)} cells, expected {len(header)}"
                )
            out = np.zeros(n_out, dtype=np.float64)
            pos = 0
            for name, kind in schema.feature_columns:
                cell = row[col_index[name]].strip()
                if kind == NUMERIC:
                    try:
                        out[pos] = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: data row {ridx}, column {name!r}: "
                            f"unparseable numeric value {cell!r}"
                        ) from None
                    pos += 1
                else:
                    vocab = schema.categorical_vocab[name]
                    try:
                        out[pos + vocab.index(cell)] = 1.0
                    except ValueError:
                        raise DataError(
                            f"{path}: data row {ridx}, column {name!r}: "
                            f"unseen category {cell!r}"
                        ) from None
                    pos += len(vocab)
            rows.append(out)
            targets.append(1 if row[col_index[schema.target_column[0]]].strip() == schema.target_column[1] else 0)
            if schema.sensitive_column is not None:
                sensitive.append(
                    1 if row[col_index[schema.sensitive_column[0]]].strip() == schema.sensitive_column[1] else 0
                )
    if not rows:
        raise DataError(f"{path}: no data rows")
    return TabularDataset(
        features=np.vstack(rows),
        targets=np.asarray(targets, dtype=np.int8),
        row_ids=np.arange(len(rows), dtype=np.int64),
        split="all",
        sensitive=np.asarray(sensitive, dtype=np.int8) if schema.sensitive_column else None,
        feature_names=schema.encoded_feature_names(),
        numeric_mask=schema.encoded_numeric_mask(),
    )


def fit_categorical_vocab(path: str | Path, columns: Sequence[str]) -> dict[str, tuple[str, ...]]:
    """Scan a headered CSV and collect the sorted category list per column."""
    path = Path(path)
    seen: dict[str, set[str]] = {c: set() for c in columns}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        idx = {}
        for c in columns:
            if c not in header:
                raise SchemaError(f"{path}: missing column {c!r}")
            idx[c] = header.index(c)
        for row in reader:
            for c in columns:
                seen[c].add(row[idx[c]].strip())
    return {c: tuple(sorted(seen[c])) for c in columns}


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine transform fitted on a training split.

    Columns are mapped to (value - mean) / stdev with the population (divide
    by n) stdev convention; zero-variance columns map to 0; columns outside
    `apply_mask` (one-hot indicators) pass through unchanged.
    """

    mean: np.ndarray | None = None
    scale: np.ndarray | None = None
    apply_mask: np.ndarray | None = None

    @property
    def fitted(self) -> bool:
        return self.mean is not None


def fit_standardizer(data: TabularDataset) -> Standardizer:
    if data.split != "train":
        raise DataError(f"standardizer must be fitted on the train split, got {data.split!r}")
    mean = data.features.mean(axis=0)
    scale = data.features.std(axis=0)
    mask = np.ones(data.n_features, dtype=bool) if data.numeric_mask is None else data.numeric_mask.copy()
    # Leave one-hot columns untouched, including their mean.
    mean = np.where(mask, mean, 0.0)
    scale = np.where(mask, scale, 1.0)
    return Standardizer(mean=_frozen(mean), scale=_frozen(scale), apply_mask=_frozen(mask))


def apply_standardizer(std: Standardizer, data: TabularDataset) -> TabularDataset:
    if not std.fitted:
        raise DataError("standardizer has not been fitted")
    if std.mean.shape != (data.n_features,):
        raise DataError(
            f"standardizer fitted on {std.mean.shape[0]} columns, dataset has {data.n_features}"
        )
    denom = np.where(std.scale == 0.0, 1.0, std.scale)
    out = (data.features - std.mean) / denom
    return TabularDataset(
        features=out,
        targets=data.targets,
        row_ids=data.row_ids,
        split=data.split,
        sensitive=data.sensitive,
        feature_names=data.feature_names,
        numeric_mask=data.numeric_mask,
    )


def split(
    data: TabularDataset,
    fractions: tuple[float, float, float],
    seed: int,
) -> tuple[TabularDataset, TabularDataset, TabularDataset]:
    """Deterministic (train, validation, test) partition.

    Validation and test sizes are floor(fraction * n); remainder rows go to
    train. Row ids are preserved; rows land in seed-permuted order.
    """
    if len(fractions) != 3 or any(f < 0 for f in fractions):
        raise DataError("fractions must be three nonnegative values")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError(f"fractions must sum to 1, got {sum(fractions)!r}")
    n = data.n_rows
    n_val = math.floor(fractions[1] * n + 1e-9)
    n_test = math.floor(fractions[2] * n + 1e-9)
    n_train = n - n_val - n_test
    for count, tag in ((n_train, "train"), (n_val, "validation"), (n_test, "test")):
        if count <= 0:
            raise EmptySplitError(f"empty {tag} split (n={n}, fractions={tuple(fractions)})")
    perm = np.random.default_rng(seed).permutation(n)
    return (
        data.take(perm[:n_train], split="train"),
        data.take(perm[n_train : n_train + n_val], split="validation"),
        data.take(perm[n_train + n_val :], split="test"),
    )


@dataclass(frozen=True)
class BlockSpec:
    """One (target, group) cell of a synthetic dataset: a diagonal Gaussian."""

    count: int
    mean: tuple[float, ...]
    var: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.count < 0:
            raise DataError("block count must be >= 0")
        mean = tuple(float(v) for v in self.mean)
        var = tuple(float(v) for v in self.var)
        if len(mean) != len(var):
            raise DataError("block mean and var must have the same dimension")
        if any(v <= 0 for v in var):
            raise DataError("block variances must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "var", var)


# Canonical sampling order of the four (y, a) cells.
BLOCK_ORDER = ((1, 1), (1, 0), (0, 1), (0, 0))


@dataclass(frozen=True)
class SyntheticSpec:
    """Four-block biased dataset: per (y, a) cell a diagonal Gaussian."""

    blocks: Mapping[tuple[int, int], BlockSpec]
    seed: int = 0

    def __post_init__(self) -> None:
        blocks = dict(self.blocks)
        if set(blocks) != set(BLOCK_ORDER):
            raise DataError(f"blocks must cover exactly the cells {BLOCK_ORDER}")
        dims = {len(b.mean) for b in blocks.values()}
        if len(dims) != 1:
            raise DataError("all blocks must share one feature dimension")
        if sum(b.count for b in blocks.values()) == 0:
            raise DataError("at least one block must have a positive count")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return len(next(iter(self.blocks.values())).mean)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "blocks": {
                f"y{y}_a{a}": {
                    "count": b.count,
                    "mean": list(b.mean),
                    "var": list(b.var),
                }
                for (y, a), b in ((k, self.blocks[k]) for k in BLOCK_ORDER)
            },
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "SyntheticSpec":
        try:
            blocks = {}
            for (y, a) in BLOCK_ORDER:
                raw = d["blocks"][f"y{y}_a{a}"]
                blocks[(y, a)] = BlockSpec(
                    count=int(raw["count"]), mean=raw["mean"], var=raw["var"]
                )
            return cls(blocks=blocks, seed=int(d.get("seed", 0)))
        except (KeyError, TypeError) as exc:
            raise DataError(f"malformed synthetic spec: {exc}") from exc


def generate_synthetic(spec: SyntheticSpec) -> TabularDataset:
    """Sample the four Gaussian blocks and shuffle rows, all from spec.seed.

    Ground-truth group labels are kept in `sensitive` for evaluation.
    """
    rng = np.random.default_rng(spec.seed)
    feats: list[np.ndarray] = []
    ys: list[np.ndarray] = []
    as_: list[np.ndarray] = []
    d = spec.dim
    for (y, a) in BLOCK_ORDER:
        block = spec.blocks[(y, a)]
        x = np.asarray(block.mean) + np.sqrt(np.asarray(block.var)) * rng.standard_normal(
            (block.count, d)
        )
        feats.append(x)
        ys.append(np.full(block.count, y, dtype=np.int8))
        as_.append(np.full(block.count, a, dtype=np.int8))
    features = np.vstack(feats)
    targets = np.concatenate(ys)
    sensitive = np.concatenate(as_)
    perm = rng.permutation(features.shape[0])
    return TabularDataset(
        features=features[perm],
        targets=targets[perm],
        row_ids=np.arange(features.shape[0], dtype=np.int64),
        split="all",
        sensitive=sensitive[perm],
        feature_names=tuple(f"x{j}" for j in range(d)),
        numeric_mask=np.ones(d, dtype=bool),
    )


def write_dataset(data: TabularDataset, path: str | Path, meta: Mapping[str, str] | None = None) -> None:
    """Write the canonical dataset CSV.

    Reserved columns __row_id, __target, __sensitive (blank when absent) and
    __split come first, then the feature columns. Floats are written in
    shortest round-trip form, so read_dataset reproduces them bit-exactly.
    Optional metadata is stored as leading '#key=value' lines.
    """
    path = Path(path)
    names = data.feature_names or tuple(f"x{j}" for j in range(data.n_features))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if meta:
            for key in sorted(meta):
                fh.write(f"#{key}={meta[key]}\n")
        fh.write(",".join(_RESERVED + names) + "\n")
        sens = data.sensitive
        for i in range(data.n_rows):
            cells = [
                str(int(data.row_ids[i])),
                str(int(data.targets[i])),
                "" if sens is None else str(int(sens[i])),
                data.split,
            ]
            cells.extend(repr(float(v)) for v in data.features[i])
            fh.write(",".join(cells) + "\n")


def read_dataset(path: str | Path) -> TabularDataset:
    """Read a canonical dataset CSV back; inverse of write_dataset."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        numbered = [(i, ln) for i, ln in enumerate(fh, start=1) if not ln.startswith("#")]
    if not numbered:
        raise DataError(f"{path}: empty dataset file")
    if not numbered[-1][1].endswith("\n"):
        # write_dataset ends every line with one: the file was cut short.
        raise DataError(f"{path}:{numbered[-1][0]}: last line lacks its newline (truncated file?)")
    reader = csv.reader(ln for _, ln in numbered)
    header = next(reader)
    if tuple(header[: len(_RESERVED)]) != _RESERVED:
        raise DataError(f"{path}: not a canonical dataset file (bad reserved columns)")
    names = tuple(header[len(_RESERVED) :])
    row_ids: list[int] = []
    targets: list[int] = []
    sens: list[int | None] = []
    splits: set[str] = set()
    feats: list[list[float]] = []
    for row in reader:
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, expected {len(header)}")
            row_ids.append(int(row[0]))
            targets.append(int(row[1]))
            sens.append(None if row[2] == "" else int(row[2]))
            feats.append([float(c) for c in row[len(_RESERVED) :]])
        except ValueError as exc:
            raise DataError(f"{path}:{numbered[reader.line_num - 1][0]}: {exc}") from None
        splits.add(row[3])
    if len(splits) != 1:
        raise DataError(f"{path}: mixed split tags {sorted(splits)}")
    blank = [s is None for s in sens]
    if any(blank) and not all(blank):
        raise DataError(f"{path}: sensitive column is partially blank")
    return TabularDataset(
        features=np.asarray(feats, dtype=np.float64),
        targets=np.asarray(targets, dtype=np.int8),
        row_ids=np.asarray(row_ids, dtype=np.int64),
        split=splits.pop(),
        sensitive=None if all(blank) else np.asarray(sens, dtype=np.int8),
        feature_names=names if names else None,
    )


def dataset_file_meta(path: str | Path) -> dict[str, str]:
    """Metadata key/value pairs stored in a canonical dataset file."""
    meta: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            key, _, value = line[1:].rstrip("\n").partition("=")
            meta[key] = value
    return meta
