"""Tabular datasets: ingestion, preprocessing, splitting, synthetic generation,
and the canonical dataset files (write_dataset / read_dataset): a CSV of the
reserved columns plus, for data with features, a binary float64 matrix.

A dataset cannot be changed through its own arrays, which are read-only: its
features, row ids and numeric mask are views of the caller's arrays, copied
only to convert their dtype or make them contiguous, and its targets and
sensitive values are new int8 arrays. The caller's arrays stay writable.
Every source of randomness is an explicit integer seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
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


# The largest size a config may set (rows of a block, samples, hidden units,
# epochs, batch rows, repeats). Such a size times a data dimension of up to
# 2**12 (features, batch rows) in 16-byte elements stays under 2**60 bytes,
# so its size fits np.intp: numpy refuses what a machine cannot hold with a
# MemoryError (exit 3), never with the ValueError of an overflowing size.
MAX_SIZE = 2**44


def check_int(value, what: str, minimum: int, maximum: int | None = None) -> int:
    """`value` as an int >= minimum (and <= maximum, if given). numpy integers
    pass; bools, which Python would take as 0 or 1, and floats, which would
    truncate, do not."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what}: expected int, got bool")
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what}: expected int, got {type(value).__name__}") from None
    if value < minimum:
        raise ValueError(f"{what}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{what}: must be <= {maximum}, got {value}")
    return value


def check_float(value, what: str) -> float:
    """`value` as a finite float; bools and text are rejected."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what}: expected float, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what}: must be finite, got {value}")
    return value


def check_pair(cell, what: str, names: str) -> tuple[float, float]:
    """`cell` as two finite floats, such as the [lo, hi] of a bin."""
    if isinstance(cell, (list, tuple)) and len(cell) == 2:
        try:
            return check_float(cell[0], what), check_float(cell[1], what)
        except ValueError:
            pass
    raise ValueError(f"{what}: expected [{names}], two numbers")


def check_fractions(fractions) -> tuple[float, float, float]:
    """The (train, validation, test) fractions of `split`: three finite
    numbers >= 0 that sum to 1."""
    values = tuple(check_float(f, f"fractions[{i}]") for i, f in enumerate(fractions))
    if len(values) != 3 or any(f < 0 for f in values):
        raise DataError(f"fractions: expected three numbers >= 0, got {list(values)}")
    if abs(sum(values) - 1.0) > 1e-9:
        raise DataError(f"fractions: must sum to 1, got {sum(values)!r}")
    return values


def check_binary(values, what: str) -> np.ndarray:
    """`values` as a new one-dimensional int8 array of 0s and 1s."""
    values = np.asarray(values)
    if values.ndim != 1:
        raise DataError(f"{what} must be one-dimensional")
    if not np.isin(values, (0, 1)).all():
        raise DataError(f"{what} values must be 0 or 1")
    return values.astype(np.int8)


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of `a` made contiguous: the caller's own array, when
    it is already contiguous, is neither copied nor frozen."""
    a = np.ascontiguousarray(a).view()
    a.flags.writeable = False
    return a


@contextmanager
def _utf8(path: Path):
    """Reports text that is not UTF-8, read inside the block, as a DataError."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not a UTF-8 text file ({exc.reason})") from None


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
        targets = check_binary(self.targets, "target")
        row_ids = np.asarray(self.row_ids, dtype=np.int64)
        if row_ids.ndim != 1:
            raise DataError("row_ids must be one-dimensional")
        if len(targets) != n or len(row_ids) != n:
            raise DataError(
                f"length mismatch: {n} feature rows, {len(targets)} targets, "
                f"{len(row_ids)} row_ids"
            )
        # A sorted copy, not np.unique, whose first call imports numpy.ma.
        ordered = np.sort(row_ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise DataError("row_ids must be unique")
        if self.split not in SPLIT_TAGS:
            raise DataError(f"unknown split tag {self.split!r}")
        sensitive = self.sensitive
        if sensitive is not None:
            sensitive = check_binary(sensitive, "sensitive")
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
        return replace(
            self,
            features=self.features[indices],
            targets=self.targets[indices],
            row_ids=self.row_ids[indices],
            split=self.split if split is None else split,
            sensitive=None if self.sensitive is None else self.sensitive[indices],
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
        if not isinstance(self.feature_columns, (list, tuple)) or not self.feature_columns:
            raise SchemaError("feature_columns: expected a nonempty list of [name, kind] pairs")
        cols = tuple(_column(c, f"feature_columns[{i}]", "name, kind") for i, c in enumerate(self.feature_columns))
        names = [n for n, _ in cols]
        if len(set(names)) != len(names):
            raise SchemaError("feature_columns: duplicate column names")
        for i, (name, kind) in enumerate(cols):
            if kind not in (NUMERIC, CATEGORICAL):
                raise SchemaError(f"feature_columns[{i}]: column {name!r}: unknown kind {kind!r}")
        vocab = self.categorical_vocab
        if not isinstance(vocab, Mapping) or not all(isinstance(v, (list, tuple)) for v in vocab.values()):
            raise SchemaError("categorical_vocab: expected an object of category lists")
        vocab = {str(k): tuple(str(c) for c in v) for k, v in vocab.items()}
        for name, kind in cols:
            if kind == CATEGORICAL:
                if not vocab.get(name):
                    raise SchemaError(f"categorical_vocab.{name}: categorical column {name!r} has no vocabulary")
                if len(set(vocab[name])) != len(vocab[name]):
                    raise SchemaError(f"categorical_vocab.{name}: duplicate vocabulary entries")
        target = _column(self.target_column, "target_column", "name, token")
        if target[0] in names:
            raise SchemaError("target_column: the target column must not appear in feature_columns")
        sens = self.sensitive_column
        if sens is not None:
            sens = _column(sens, "sensitive_column", "name, token")
            if sens[0] == target[0]:
                raise SchemaError("sensitive_column: the sensitive column must differ from the target column")
        object.__setattr__(self, "feature_columns", cols)
        object.__setattr__(self, "target_column", target)
        object.__setattr__(self, "sensitive_column", sens)
        object.__setattr__(self, "categorical_vocab", vocab)

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
        """The schema of a to_dict()-shaped object. A key that names no
        field is an error, so a typo cannot fall back to a default."""
        for key in d:
            if key not in cls.__dataclass_fields__:
                raise SchemaError(f"{key}: unknown key")
        for key in ("feature_columns", "target_column"):
            if key not in d:
                raise SchemaError(f"{key}: missing required key")
        return cls(**d)


def _column(entry, what: str, names: str) -> tuple[str, str]:
    """A schema column entry, [name, kind] or [name, token], as two strings."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise SchemaError(f"{what}: expected [{names}], a list of two items")
    return str(entry[0]), str(entry[1])


def _read_columns(path: Path, names: Sequence[str]) -> dict[str, list[str]]:
    """The stripped cells of each named column of a headered CSV, in file
    order; a leading byte-order mark is skipped. An empty file, a missing
    column, a ragged row, malformed CSV and text that is not UTF-8 are
    DataErrors that name the file."""
    if not path.exists():
        raise DataError(f"no such file: {path}")
    names = tuple(dict.fromkeys(names))
    columns: tuple[list[str], ...] = tuple([] for _ in names)
    with _utf8(path), open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            header = [h.strip() for h in header]
            for name in names:
                if name not in header:
                    raise SchemaError(f"{path}: missing column {name!r}")
            index = [header.index(name) for name in names]
            for ridx, row in enumerate(reader):
                if len(row) != len(header):
                    raise DataError(f"{path}: data row {ridx} has {len(row)} cells, expected {len(header)}")
                for column, i in zip(columns, index):
                    column.append(row[i].strip())
        except csv.Error as exc:
            raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if names and not columns[0]:
        raise DataError(f"{path}: no data rows")
    return dict(zip(names, columns))


def load_csv(path: str | Path, schema: DatasetSchema) -> TabularDataset:
    """Load a headered CSV into a dataset per the schema.

    Numeric columns are parsed as floats, categorical columns one-hot encoded
    in vocabulary order, targets and sensitive values mapped by token match;
    a token that occurs in no data row is a DataError. Row ids follow file
    order starting at 0. Errors carry the data row number (0-based, header
    excluded) and column name; the columns are checked in schema order, so
    the first bad cell of the first bad column is reported.
    """
    path = Path(path)
    target, sensitive = schema.target_column, schema.sensitive_column
    columns = _read_columns(path, [name for name, _ in schema.feature_columns] + [c[0] for c in (target, sensitive) if c])
    n = len(columns[target[0]])
    widths = [1 if kind == NUMERIC else len(schema.categorical_vocab[name]) for name, kind in schema.feature_columns]
    features = np.zeros((n, sum(widths)))
    names: list[str] = []

    def cell_error(ridx, problem: str) -> DataError:
        return DataError(f"{path}: data row {ridx}, column {name!r}: {problem} {cells[ridx]!r}")

    for (name, kind), pos in zip(schema.feature_columns, np.cumsum([0] + widths)):
        cells = columns[name]
        if kind == NUMERIC:
            try:
                values = np.fromiter(map(float, cells), np.float64, n)
            except ValueError:
                for ridx, cell in enumerate(cells):
                    try:
                        float(cell)
                    except ValueError:
                        raise cell_error(ridx, "unparseable numeric value") from None
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise cell_error(bad[0], "non-finite numeric value")
            features[:, pos] = values
            names.append(name)
        else:
            vocab = schema.categorical_vocab[name]
            index = {category: i for i, category in enumerate(vocab)}
            codes = np.fromiter((index.get(cell, -1) for cell in cells), np.intp, n)
            bad = np.flatnonzero(codes < 0)
            if bad.size:
                raise cell_error(bad[0], "unseen category")
            features[np.arange(n), pos + codes] = 1.0
            names.extend(f"{name}={category}" for category in vocab)

    def token_flags(column: tuple[str, str]) -> np.ndarray:
        # A misspelt token ('>50K' against '>50K.' cells) would load as an
        # all-zero column.
        name, token = column
        flags = np.array([cell == token for cell in columns[name]], dtype=np.int8)
        if not flags.any():
            raise DataError(f"{path}: column {name!r}: token {token!r} occurs in no data row")
        return flags

    return TabularDataset(
        features=features,
        targets=token_flags(target),
        row_ids=np.arange(n, dtype=np.int64),
        sensitive=token_flags(sensitive) if sensitive else None,
        feature_names=tuple(names),
        numeric_mask=np.repeat([kind == NUMERIC for _, kind in schema.feature_columns], widths),
    )


def fit_categorical_vocab(path: str | Path, columns: Sequence[str]) -> dict[str, tuple[str, ...]]:
    """Scan a headered CSV and collect the sorted category list per column."""
    cells = _read_columns(Path(path), columns)
    return {c: tuple(sorted(set(cells[c]))) for c in columns}


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine transform fitted on a training split by
    `fit_standardizer`.

    Columns are mapped to (value - mean) / stdev with the population (divide
    by n) stdev convention; zero-variance columns map to 0; columns outside
    `apply_mask` (one-hot indicators) pass through unchanged.
    """

    mean: np.ndarray
    scale: np.ndarray
    apply_mask: np.ndarray


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
    if std.mean.shape != (data.n_features,):
        raise DataError(
            f"standardizer fitted on {std.mean.shape[0]} columns, dataset has {data.n_features}"
        )
    denom = np.where(std.scale == 0.0, 1.0, std.scale)
    return replace(data, features=(data.features - std.mean) / denom)


def split(
    data: TabularDataset,
    fractions: tuple[float, float, float],
    seed: int,
) -> tuple[TabularDataset, TabularDataset, TabularDataset]:
    """Deterministic (train, validation, test) partition.

    Validation and test sizes are floor(fraction * n); remainder rows go to
    train. Row ids are preserved; rows land in seed-permuted order.
    """
    fractions = check_fractions(fractions)
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
        object.__setattr__(self, "count", check_int(self.count, "count", 0, MAX_SIZE))
        mean = tuple(check_float(v, f"mean[{j}]") for j, v in enumerate(self.mean))
        var = tuple(check_float(v, f"var[{j}]") for j, v in enumerate(self.var))
        if len(mean) != len(var):
            raise DataError(f"var: {len(var)} entries, but mean has {len(mean)}")
        for j, v in enumerate(var):
            if v <= 0:
                raise DataError(f"var[{j}]: must be > 0, got {v}")
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
            raise DataError("blocks: at least one block must have a positive count")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0))

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
        """The spec of a to_dict()-shaped object; an error names the key
        path inside it, e.g. "blocks.y1_a1.count: ..."."""
        blocks = {}
        for (y, a) in BLOCK_ORDER:
            path = f"blocks.y{y}_a{a}"
            try:
                raw = d["blocks"][f"y{y}_a{a}"]
                blocks[(y, a)] = BlockSpec(count=raw["count"], mean=raw["mean"], var=raw["var"])
            except (KeyError, TypeError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
                raise DataError(f"{path}: expected an object of count, mean and var ({reason})") from None
            except ValueError as exc:
                raise DataError(f"{path}.{exc}") from None
        return cls(blocks=blocks, seed=d.get("seed", 0))


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
    """Write the canonical dataset CSV of the reserved columns __row_id,
    __target, __sensitive (blank when absent) and __split; with feature
    columns, also their float64 (n_rows, d) matrix as `<stem>.features.npy`
    next to it, whose name, sha256 and feature names the CSV records, so
    read_dataset restores the features bit-exactly and rejects any other
    matrix. Metadata is stored as leading '#key=value' lines, `meta`'s and
    `n_rows`, the row count, so read_dataset rejects a file cut at a line end.
    """
    path = Path(path)
    meta = {**(meta or {}), "n_rows": str(data.n_rows)}
    if data.n_features:
        matrix = path.with_name(path.stem + ".features.npy")
        with open(matrix, "wb") as fh:
            np.save(fh, data.features, allow_pickle=False)
        names = data.feature_names or tuple(f"x{j}" for j in range(data.n_features))
        meta.update(
            feature_names=json.dumps(list(names)),
            features_file=matrix.name,
            features_sha256=hashlib.sha256(data.features).hexdigest(),
        )
    sens = [""] * data.n_rows if data.sensitive is None else data.sensitive.tolist()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_meta_lines(fh, meta)
        fh.write(",".join(_RESERVED) + "\n")
        fh.writelines(
            f"{row_id},{target},{s},{data.split}\n"
            for row_id, target, s in zip(data.row_ids.tolist(), data.targets.tolist(), sens)
        )


def write_meta_lines(fh, meta: Mapping[str, str]) -> None:
    """Write `meta` as the leading '#key=value' lines, in key order, that
    _meta_lines reads back."""
    fh.writelines(f"#{key}={meta[key]}\n" for key in sorted(meta))


def _meta_lines(lines) -> dict[str, str]:
    meta: dict[str, str] = {}
    for line in lines:
        if not line.startswith("#"):
            break
        key, _, value = line[1:].rstrip("\r\n").partition("=")
        meta[key] = value
    return meta


def _scan_dataset(path: Path) -> tuple[dict[str, str], dict]:
    """The line scan of a canonical dataset CSV: its metadata and its
    reserved columns as TabularDataset keyword arguments. '#' lines are
    skipped wherever they are; the leading ones are metadata.
    """
    with _utf8(path), open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    numbers: list[int] = []
    rows: list[str] = []
    for number, line in enumerate(lines, start=1):
        if not line.startswith("#"):
            numbers.append(number)
            rows.append(line)
    if not rows:
        raise DataError(f"{path}: empty dataset file")
    if not rows[-1].endswith("\n"):
        # write_dataset ends every line with one: the file was cut short.
        raise DataError(f"{path}:{numbers[-1]}: last line lacks its newline (truncated file?)")
    if rows[0].rstrip("\r\n") != ",".join(_RESERVED):
        raise DataError(f"{path}: not a canonical dataset file (its header is not {','.join(_RESERVED)}); re-run 'prepare'")
    del numbers[0], rows[0]
    meta = _meta_lines(lines)
    recorded = meta.get("n_rows")
    if recorded != str(len(rows)):
        stated = "no n_rows" if recorded is None else f"n_rows={recorded}"
        raise DataError(f"{path}: {len(rows)} data rows, but the file records {stated} (truncated file?)")
    row_ids: list[int] = []
    targets: list[int] = []
    sens: list[int | None] = []
    splits: set[str] = set()
    for number, line in zip(numbers, rows):
        try:
            if line.count(",") != len(_RESERVED) - 1:
                fields = line.count(",") + 1 if line.strip("\r\n") else 0
                raise ValueError(f"{fields} fields, expected {len(_RESERVED)}")
            row_id, target, s, tag = line.split(",")
            row_ids.append(int(row_id))
            targets.append(int(target))
            sens.append(None if s == "" else int(s))
        except ValueError as exc:
            raise DataError(f"{path}:{number}: {exc}") from None
        splits.add(tag)
    splits = {tag.rstrip("\r\n") for tag in splits}
    if len(splits) != 1:
        raise DataError(f"{path}: mixed split tags {sorted(splits)}")
    blank = sens.count(None)
    if blank and blank != len(sens):
        raise DataError(f"{path}: sensitive column is partially blank")
    reserved = {
        "targets": np.asarray(targets, dtype=np.int8),
        "row_ids": np.asarray(row_ids, dtype=np.int64),
        "split": splits.pop(),
        "sensitive": None if blank else np.asarray(sens, dtype=np.int8),
    }
    return meta, reserved


def read_matrix(path: Path, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """The array of an .npy file that must hold `dtype` values in `shape`;
    any other file (an .npz archive, a cut file) is a DataError naming it."""
    try:
        # The npy reader itself: np.load would return an archive for a .npz.
        with open(path, "rb") as fh:
            array = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise DataError(f"{path}: not a readable .npy file ({type(exc).__name__}: {exc})") from None
    if array.dtype != dtype or array.shape != shape:
        raise DataError(f"{path}: holds {array.dtype} {array.shape}, expected {np.dtype(dtype)} {shape}")
    return array


def read_dataset(path: str | Path) -> TabularDataset:
    """Read canonical dataset files back; inverse of write_dataset."""
    path = Path(path)
    meta, reserved = _scan_dataset(path)
    n = len(reserved["row_ids"])
    if "features_file" not in meta:
        return TabularDataset(features=np.empty((n, 0)), **reserved)
    try:
        names = tuple(json.loads(meta["feature_names"]))
        matrix = path.with_name(meta["features_file"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed features metadata ({type(exc).__name__}: {exc})") from None
    if not matrix.exists():
        raise DataError(f"{matrix}: missing, but {path.name} records it (re-run 'prepare')")
    features = read_matrix(matrix, np.float64, (n, len(names)))
    if hashlib.sha256(np.ascontiguousarray(features)).hexdigest() != meta.get("features_sha256"):
        raise DataError(f"{matrix}: sha256 differs from the one {path.name} records (from another 'prepare'?)")
    return TabularDataset(features=features, feature_names=names, **reserved)


def dataset_file_meta(path: str | Path) -> dict[str, str]:
    """Metadata key/value pairs stored in a canonical dataset file."""
    with _utf8(path), open(path, encoding="utf-8") as fh:
        return _meta_lines(fh)
