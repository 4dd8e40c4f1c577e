import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairtune.data import (
    BlockSpec,
    DataError,
    DatasetSchema,
    SyntheticSpec,
    TabularDataset,
    features_path,
    fit_categorical_vocab,
    generate_synthetic,
    load_csv,
    read_dataset,
    split,
    standardize,
    write_dataset,
)
from fairtune.metrics import EmptyGroupError, wga

from conftest import planted_spec
from reference import load_csv_per_cell


SCHEMA = DatasetSchema(
    feature_columns=(("age", "numeric"), ("sex", "categorical")),
    target_column=("income", ">50K"),
    sensitive_column=("sex", "M"),
    categorical_vocab={"sex": ("F", "M")},
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_csv_one_hot_layout(tmp_path):
    path = write_lines(
        tmp_path / "toy.csv",
        [
            "age,sex,income",
            "30,F,>50K",
            "40,M,<=50K",
            "50,M,>50K",
        ],
    )
    ds = load_csv(path, SCHEMA)
    assert ds.n_features == 3  # age + 2 one-hot columns
    assert ds.feature_names == ("age", "sex=F", "sex=M")
    np.testing.assert_array_equal(ds.features[:, 0], [30.0, 40.0, 50.0])
    np.testing.assert_array_equal(ds.features[:, 1], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(ds.features[:, 2], [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(ds.targets, [1, 0, 1])
    np.testing.assert_array_equal(ds.sensitive, [0, 1, 1])
    np.testing.assert_array_equal(ds.row_ids, [0, 1, 2])
    np.testing.assert_array_equal(ds.numeric_mask, [True, False, False])


def test_load_csv_unseen_category(tmp_path):
    path = write_lines(
        tmp_path / "toy.csv", ["age,sex,income", "30,F,>50K", "40,X,<=50K"]
    )
    with pytest.raises(DataError, match=r"row 1.*'sex'.*unseen category 'X'"):
        load_csv(path, SCHEMA)


def test_load_csv_missing_column(tmp_path):
    path = write_lines(tmp_path / "toy.csv", ["age,income", "30,>50K"])
    with pytest.raises(DataError, match="missing column 'sex'"):
        load_csv(path, SCHEMA)


def test_load_csv_unparseable_numeric(tmp_path):
    path = write_lines(
        tmp_path / "toy.csv", ["age,sex,income", "30,F,>50K", "old,M,>50K"]
    )
    with pytest.raises(DataError, match=r"row 1.*'age'.*unparseable"):
        load_csv(path, SCHEMA)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_load_csv_non_finite_numeric(tmp_path, token):
    path = write_lines(tmp_path / "toy.csv", ["age,sex,income", "30,F,>50K", f"{token},M,>50K"])
    with pytest.raises(DataError, match=rf"row 1.*'age'.*non-finite numeric value '{token}'"):
        load_csv(path, SCHEMA)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty file"):
        load_csv(path, SCHEMA)
    header_only = write_lines(tmp_path / "toy2.csv", ["age,sex,income"])
    with pytest.raises(DataError, match="no data rows"):
        load_csv(header_only, SCHEMA)


@pytest.mark.parametrize(
    "column, token, lines",
    [("income", ">50K", ["30,F,>50K.", "40,M,<=50K."]), ("sex", "M", ["30,F,>50K", "40,M.,<=50K"])],
    ids=["target", "sensitive"],
)
def test_load_csv_token_that_occurs_in_no_row(tmp_path, column, token, lines):
    # Cells in the UCI test file's form ('>50K.') never equal the token.
    path = write_lines(tmp_path / "toy.csv", ["age,sex,income", *lines])
    schema = DatasetSchema(
        feature_columns=(("age", "numeric"),),
        target_column=SCHEMA.target_column,
        sensitive_column=SCHEMA.sensitive_column,
        categorical_vocab={},
    )
    with pytest.raises(DataError, match=rf"toy\.csv: column '{column}': token '{token}' occurs in no data row$"):
        load_csv(path, schema)


def test_load_csv_ragged_row(tmp_path):
    path = write_lines(tmp_path / "toy.csv", ["age,sex,income", "30,F"])
    with pytest.raises(DataError, match="row 0 has 2 cells"):
        load_csv(path, SCHEMA)


def test_adult_shaped_split_sizes(tmp_path):
    # The published splits of the income benchmark: 21112/9049/15060 rows out
    # of 45221 after dropping incomplete rows; reproduced by proportional
    # fractions on a file of that size.
    n = 45221
    rng = np.random.default_rng(0)
    lines = ["age,sex,income"]
    sexes = rng.choice(["F", "M"], n)
    incomes = rng.choice([">50K", "<=50K"], n)
    ages = rng.integers(18, 90, n)
    lines.extend(f"{a},{s},{i}" for a, s, i in zip(ages, sexes, incomes))
    path = write_lines(tmp_path / "adult_shaped.csv", lines)
    ds = load_csv(path, SCHEMA)
    assert ds.n_rows == n
    train, validation, test = split(ds, (21112 / n, 9049 / n, 15060 / n), seed=0)
    assert (train.n_rows, validation.n_rows, test.n_rows) == (21112, 9049, 15060)


def test_fit_categorical_vocab(tmp_path):
    path = write_lines(
        tmp_path / "toy.csv", ["age,sex,income", "30, F ,>50K", "40,M,<=50K"]
    )
    vocab = fit_categorical_vocab(path, ["sex"])
    assert vocab == {"sex": ("F", "M")}


@pytest.mark.parametrize("row", ["30", "30,F,>50K,extra"])
def test_fit_categorical_vocab_ragged_row(tmp_path, row):
    path = write_lines(tmp_path / "toy.csv", ["age,sex,income", "40,M,<=50K", row])
    with pytest.raises(DataError, match=rf"toy\.csv: data row 1 has {row.count(',') + 1} cells, expected 3"):
        fit_categorical_vocab(path, ["sex"])


# The census-income layout in the UCI column order: 6 numeric and 8
# categorical columns of 2-41 categories, 104 encoded features.
ADULT_SIZES = {
    "workclass": 7, "education": 16, "marital-status": 7, "occupation": 14,
    "relationship": 6, "race": 5, "sex": 2, "native-country": 41,
}
ADULT_NUMERIC = ("age", "fnlwgt", "education-num", "capital-gain", "capital-loss", "hours-per-week")
ADULT_ORDER = (
    "age", "workclass", "fnlwgt", "education", "education-num", "marital-status", "occupation",
    "relationship", "race", "sex", "capital-gain", "capital-loss", "hours-per-week", "native-country", "income",
)


def census_shaped(tmp_path, n=3000):
    """A census-shaped raw CSV and its schema; numeric cells include
    underscores, signs, -0, the least subnormal, padding and 1e308."""
    rng = np.random.default_rng(15)
    cells = {c: [str(v) for v in rng.integers(0, 100_000, n)] for c in ADULT_NUMERIC}
    specials = ["1_000", "+5", "-0", "4.9e-324", " 7 ", "1e308", "-2.5e-3"]
    for c in ADULT_NUMERIC:
        for row, cell in zip(rng.choice(n, len(specials), replace=False), specials):
            cells[c][row] = cell
    for c, size in ADULT_SIZES.items():
        names = ["Female", "Male"] if c == "sex" else [f"{c}-{k}" for k in range(size)]
        cells[c] = [f" {names[k]}" for k in rng.integers(0, size, n)]
    cells["income"] = [(" <=50K", " >50K")[k] for k in rng.integers(0, 2, n)]
    path = tmp_path / "adult.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([ADULT_ORDER, *zip(*(cells[c] for c in ADULT_ORDER))])
    schema = DatasetSchema(
        feature_columns=tuple((c, "numeric") for c in ADULT_NUMERIC) + tuple((c, "categorical") for c in ADULT_SIZES),
        target_column=("income", ">50K"),
        sensitive_column=("sex", "Male"),
        categorical_vocab=fit_categorical_vocab(path, list(ADULT_SIZES)),
    )
    return path, schema


def test_load_csv_matches_the_per_cell_oracle_bit_for_bit(tmp_path):
    path, schema = census_shaped(tmp_path)
    got, want = load_csv(path, schema), load_csv_per_cell(path, schema)
    assert got.features.shape == (3000, 104)
    np.testing.assert_array_equal(got.features.view(np.int64), want.features.view(np.int64))
    for name in ("targets", "sensitive", "row_ids", "numeric_mask"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.feature_names == want.feature_names


def test_raw_csv_with_a_byte_order_mark_reads_as_without(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with a BOM, right before the
    # first column's name ("age" here).
    plain, schema = census_shaped(tmp_path, n=300)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    got, want = load_csv(bom, schema), load_csv(plain, schema)
    np.testing.assert_array_equal(got.features.view(np.int64), want.features.view(np.int64))
    for name in ("targets", "sensitive", "row_ids", "numeric_mask"):
        assert getattr(got, name).dtype == getattr(want, name).dtype
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert got.feature_names == want.feature_names
    columns = ["age", *ADULT_SIZES]
    assert fit_categorical_vocab(bom, columns) == fit_categorical_vocab(plain, columns)


@pytest.mark.parametrize(
    "column, cell",
    [("fnlwgt", "1,2"), ("hours-per-week", "12x"), ("capital-gain", "-inf"), ("native-country", "Atlantis")],
    ids=["ragged", "unparseable", "non-finite", "unseen"],
)
def test_load_csv_reports_a_bad_cell_as_the_oracle_does(tmp_path, column, cell):
    path, schema = census_shaped(tmp_path, n=200)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = next(csv.reader([lines[58]]))
    row[ADULT_ORDER.index(column)] = cell
    lines[58] = ",".join(row) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(DataError) as want:
        load_csv_per_cell(path, schema)
    with pytest.raises(DataError, match="data row 57") as got:
        load_csv(path, schema)
    assert str(got.value) == str(want.value)


def test_schema_validation():
    with pytest.raises(DataError, match="no vocabulary"):
        DatasetSchema(
            feature_columns=(("sex", "categorical"),),
            target_column=("income", ">50K"),
        )
    with pytest.raises(DataError, match="target column"):
        DatasetSchema(
            feature_columns=(("income", "numeric"),),
            target_column=("income", ">50K"),
        )
    with pytest.raises(DataError, match="unknown kind"):
        DatasetSchema(
            feature_columns=(("age", "continuous"),),
            target_column=("income", ">50K"),
        )
    round_trip = DatasetSchema.from_dict(SCHEMA.to_dict())
    assert round_trip == SCHEMA


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.update(sensitive_colum=["sex", "M"]), r"^sensitive_colum: unknown key$"),
        (lambda d: d.pop("target_column"), r"^target_column: missing required key$"),
        (lambda d: d.update(target_column="income"), r"^target_column: expected \[name, token\], a list of two items$"),
        (lambda d: d.update(sensitive_column="sex"), r"^sensitive_column: expected \[name, token\], a list of two items$"),
        (lambda d: d["feature_columns"][0].append("x"), r"^feature_columns\[0\]: expected \[name, kind\], a list of two items$"),
        (lambda d: d.update(categorical_vocab={"sex": "FM"}), r"^categorical_vocab: expected an object of category lists$"),
        (lambda d: d.update(feature_columns=[]), r"^feature_columns: expected a nonempty list of \[name, kind\] pairs$"),
        (lambda d: d["categorical_vocab"].update(sx=["F", "M"]), r"^categorical_vocab\.sx: names no categorical feature column$"),
        (lambda d: d["categorical_vocab"].update(age=["1"]), r"^categorical_vocab\.age: names no categorical feature column$"),
    ],
    ids=[
        "unknown-key", "missing-key", "target-text", "sensitive-text", "column-three-items", "vocabulary-text",
        "no-columns", "vocabulary-of-no-column", "vocabulary-of-numeric-column",
    ],
)
def test_schema_from_dict_takes_each_entry_whole(edit, message):
    # Slicing would have read "income" as the column 'i' with the token 'n'.
    d = SCHEMA.to_dict()
    edit(d)
    with pytest.raises(DataError, match=message):
        DatasetSchema.from_dict(d)


def make_dataset(features, targets, split_tag="train", sensitive=None, numeric_mask=None):
    features = np.asarray(features, dtype=np.float64)
    return TabularDataset(
        features=features,
        targets=np.asarray(targets),
        row_ids=np.arange(features.shape[0]),
        split=split_tag,
        sensitive=sensitive,
        numeric_mask=numeric_mask,
    )


def test_standardizer_population_convention():
    ds = make_dataset([[2.0], [4.0], [6.0]], [0, 1, 0])
    (out,) = standardize(ds)
    expected = math.sqrt(3.0 / 2.0)  # (6-4)/sqrt(8/3)
    np.testing.assert_allclose(out.features[:, 0], [-expected, 0.0, expected], atol=1e-12)


def test_standardizer_constant_column():
    ds = make_dataset([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 1, 0])
    (out,) = standardize(ds)
    np.testing.assert_array_equal(out.features[:, 0], [0.0, 0.0, 0.0])


def test_standardizer_one_hot_passthrough():
    ds = make_dataset(
        [[2.0, 1.0, 0.0], [4.0, 0.0, 1.0], [6.0, 1.0, 0.0]],
        [0, 1, 0],
        numeric_mask=[True, False, False],
    )
    (out,) = standardize(ds)
    np.testing.assert_array_equal(out.features[:, 1:], ds.features[:, 1:])


def test_standardizer_train_mean_row_maps_to_zero():
    train = make_dataset([[2.0, 10.0], [4.0, 20.0], [6.0, 30.0]], [0, 1, 0])
    val = make_dataset([[4.0, 20.0]], [1], split_tag="validation")
    out_train, out_val = standardize(train, val)
    np.testing.assert_allclose(out_val.features, [[0.0, 0.0]], atol=1e-12)
    np.testing.assert_allclose(out_train.features[1], [0.0, 0.0], atol=1e-12)
    assert (out_train.split, out_val.split) == ("train", "validation")


def test_standardizer_guards():
    val = make_dataset([[1.0]], [0], split_tag="validation")
    with pytest.raises(DataError, match="train split"):
        standardize(val)
    with pytest.raises(DataError, match="columns"):
        standardize(make_dataset([[1.0, 2.0]], [0]), make_dataset([[1.0]], [0]))


def test_standardized_train_split_invariant(planted):
    train, _, _ = planted
    means = train.features.mean(axis=0)
    stds = train.features.std(axis=0)
    assert np.abs(means).max() <= 1e-9
    assert np.abs(stds - 1.0).max() <= 1e-9


def test_split_example_partition():
    ds = make_dataset(np.arange(20.0).reshape(10, 2), [0, 1] * 5, split_tag="all")
    train, validation, test = split(ds, (0.6, 0.2, 0.2), seed=7)
    assert (train.n_rows, validation.n_rows, test.n_rows) == (6, 2, 2)
    ids = np.concatenate([train.row_ids, validation.row_ids, test.row_ids])
    assert sorted(ids) == list(range(10))
    assert (train.split, validation.split, test.split) == ("train", "validation", "test")
    again = split(ds, (0.6, 0.2, 0.2), seed=7)
    for a, b in zip((train, validation, test), again):
        np.testing.assert_array_equal(a.row_ids, b.row_ids)


def test_split_empty_split_errors():
    ds = make_dataset(np.arange(20.0).reshape(10, 2), [0, 1] * 5, split_tag="all")
    with pytest.raises(DataError, match="empty test split"):
        split(ds, (0.5, 0.5, 0.0), seed=1)
    with pytest.raises(DataError, match="sum to 1"):
        split(ds, (0.5, 0.2, 0.2), seed=1)


def test_split_remainder_goes_to_train():
    ds = make_dataset(np.arange(22.0).reshape(11, 2), [0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0], split_tag="all")
    third = 1.0 / 3.0
    train, validation, test = split(ds, (third, third, third), seed=3)
    assert (train.n_rows, validation.n_rows, test.n_rows) == (5, 3, 3)


@pytest.mark.parametrize("n,seed", [(17, 0), (100, 5), (1001, 9)])
def test_split_is_partition(n, seed):
    ds = make_dataset(
        np.random.default_rng(seed).normal(size=(n, 3)),
        np.random.default_rng(seed).integers(0, 2, n),
        split_tag="all",
    )
    parts = split(ds, (0.5, 0.3, 0.2), seed=seed)
    all_ids = np.concatenate([p.row_ids for p in parts])
    assert len(all_ids) == n
    assert len(np.unique(all_ids)) == n


def test_generate_synthetic_construction():
    spec = planted_spec(n_per_class=1000, minority_fraction=0.1, seed=13)
    ds = generate_synthetic(spec)
    assert ds.n_rows == 2000
    for y in (0, 1):
        in_class = ds.targets == y
        assert in_class.sum() == 1000
        assert (ds.sensitive[in_class] == 0).sum() == 100


def test_generate_synthetic_zero_count_block_surfaces_downstream():
    spec = SyntheticSpec(
        blocks={
            (1, 1): BlockSpec(50, (1.0,), (1.0,)),
            (1, 0): BlockSpec(0, (-1.0,), (1.0,)),
            (0, 1): BlockSpec(50, (0.0,), (1.0,)),
            (0, 0): BlockSpec(50, (0.0,), (1.0,)),
        },
        seed=1,
    )
    ds = generate_synthetic(spec)
    assert ds.n_rows == 150
    with pytest.raises(EmptyGroupError, match=r"\(1, 0\)"):
        wga(np.zeros(150, dtype=int), ds.targets, ds.sensitive)


def test_generate_synthetic_block_means_concentrate():
    # Law-of-large-numbers check by direct sampling: the empirical mean of
    # each unit-variance block stays within 4 sigma/sqrt(n) of its target.
    spec = planted_spec(n_per_class=20000, minority_fraction=0.5, seed=99)
    ds = generate_synthetic(spec)
    bound = 4.0 / math.sqrt(10000)
    for (y, a), block in spec.blocks.items():
        rows = (ds.targets == y) & (ds.sensitive == a)
        assert rows.sum() == 10000
        emp = ds.features[rows].mean(axis=0)
        assert np.abs(emp - np.asarray(block.mean)).max() < bound


def test_generate_synthetic_determinism():
    spec = planted_spec(seed=42)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(a.sensitive, b.sensitive)
    c = generate_synthetic(planted_spec(seed=43))
    assert not np.array_equal(a.features, c.features)


def test_dataset_invariants():
    with pytest.raises(DataError, match="unique"):
        TabularDataset(
            features=np.zeros((2, 1)), targets=[0, 1], row_ids=[0, 0]
        )
    with pytest.raises(DataError, match="0 or 1"):
        TabularDataset(features=np.zeros((2, 1)), targets=[0, 2], row_ids=[0, 1])
    with pytest.raises(DataError, match="length mismatch"):
        TabularDataset(features=np.zeros((2, 1)), targets=[0], row_ids=[0, 1])
    with pytest.raises(DataError, match="split"):
        TabularDataset(features=np.zeros((1, 1)), targets=[0], row_ids=[0], split="dev")
    ds = TabularDataset(features=np.zeros((1, 1)), targets=[0], row_ids=[0])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0  # frozen


def test_dataset_holds_read_only_views_and_leaves_the_callers_arrays_writable():
    X = np.arange(6.0).reshape(3, 2)
    row_ids = np.array([4, 5, 6], dtype=np.int64)
    mask = np.array([True, False])
    ds = TabularDataset(features=X, targets=[0, 1, 0], row_ids=row_ids, numeric_mask=mask)
    for given, held in ((X, ds.features), (row_ids, ds.row_ids), (mask, ds.numeric_mask)):
        assert np.shares_memory(given, held)
        assert given.flags.writeable
        assert not held.flags.writeable
    X += 1


def test_round_trip_bit_exact(tmp_path, planted):
    train, _, _ = planted
    path = tmp_path / "train.csv"
    write_dataset(train, path)
    back = read_dataset(path)
    np.testing.assert_array_equal(back.features.view(np.int64), train.features.view(np.int64))
    np.testing.assert_array_equal(back.targets, train.targets)
    np.testing.assert_array_equal(back.row_ids, train.row_ids)
    np.testing.assert_array_equal(back.sensitive, train.sensitive)
    assert back.split == train.split
    assert back.feature_names == train.feature_names
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:2] == ['#feature_names=["x0", "x1"]', "__row_id,__target,__sensitive,__split"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.csv", "train.features.npy"]
    np.testing.assert_array_equal(np.load(tmp_path / "train.features.npy"), train.features)


def test_round_trip_without_sensitive(tmp_path):
    ds = make_dataset([[1.5, -2.25], [0.1, 3.0]], [0, 1])
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.sensitive is None
    np.testing.assert_array_equal(back.features, ds.features)


@pytest.mark.parametrize("d", [0, 2])
def test_every_dataset_written_reads_back(tmp_path, d):
    # read_dataset refuses a file without rows, so write_dataset writes none.
    one_row = TabularDataset(features=np.ones((1, d)), targets=[1], row_ids=[7], split="test", sensitive=[0])
    write_dataset(one_row, tmp_path / "one.csv")
    back = read_dataset(tmp_path / "one.csv")
    assert (back.features.shape, back.row_ids.tolist(), back.sensitive.tolist(), back.split) == ((1, d), [7], [0], "test")
    empty = one_row.take(np.arange(0))
    with pytest.raises(DataError, match=r"empty\.csv: empty dataset, not written"):
        write_dataset(empty, tmp_path / "empty.csv")
    assert not list(tmp_path.glob("empty*"))


def test_write_is_deterministic(tmp_path, planted):
    train, _, _ = planted
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        write_dataset(train, out / "train.csv")
    for name in ("train.csv", "train.features.npy"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _text(edit):
    """A corruption of the dataset CSV's text."""

    def corrupt(path):
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")

    return corrupt


def _edit_line(k, edit, meta_lines):
    """Apply edit to the k-th data row (1-based) of a CSV with meta_lines metadata lines."""

    def corrupt(text):
        lines = text.splitlines(keepends=True)
        lines[meta_lines + k] = edit(lines[meta_lines + k])
        return "".join(lines)

    return _text(corrupt)


def _cut_in_row(k, meta_lines):
    """Cut the CSV three characters into its k-th data row (1-based)."""

    def corrupt(text):
        lines = text.splitlines(keepends=True)
        return "".join(lines[: meta_lines + k]) + lines[meta_lines + k][:3]

    return _text(corrupt)


def _features_matrix(edit):
    """A corruption of the features matrix: edit(path of the .npy)."""
    return lambda path: edit(features_path(path))


# Line numbers: 1 metadata (feature_names), 2 header, 3-10 the eight data rows.
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_cut_in_row(4, 1), r"ds\.csv:6: 2 fields, expected 4"),
        (_cut_in_row(8, 1), r"ds\.csv:10: 2 fields, expected 4"),
        (_text(lambda text: text[:-4]), r"ds\.csv: mixed split tags \['tr', 'train'\]"),
        (_edit_line(4, lambda ln: ln.rsplit(",", 1)[0] + "\n", 1), r"ds\.csv:6: 3 fields, expected 4"),
        (
            _edit_line(4, lambda ln: ln.replace(",,", ",1.2.3,"), 1),
            r"ds\.csv:6: invalid literal for int\(\) with base 10: '1\.2\.3'",
        ),
    ],
    ids=["cut-mid-row", "cut-in-last-row", "cut-in-last-tag", "short-row", "garbled-cell"],
)
def test_read_rejects_damaged_rows_with_their_line(tmp_path, corrupt, message):
    ds = make_dataset([[i + 0.25] for i in range(8)], [0, 1] * 4)
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    corrupt(path)
    with pytest.raises(DataError, match=message):
        read_dataset(path)


def test_a_file_that_lost_only_its_last_newline_reads_back_equal(tmp_path):
    # It still holds every row; a cut anywhere else fails a check.
    for d in (1, 0):
        ds = make_dataset(np.arange(3.0).reshape(3, 1)[:, :d] + 1.5, [0, 1, 0], sensitive=[1, 1, 0])
        path = tmp_path / "ds.csv"
        write_dataset(ds, path)
        _text(lambda text: text[:-1])(path)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.row_ids, ds.row_ids)
        np.testing.assert_array_equal(back.targets, ds.targets)
        np.testing.assert_array_equal(back.sensitive, ds.sensitive)
        assert back.split == ds.split


# Floats whose text form stresses a parser: subnormals, signed zeros, the
# extremes of the exponent range and reprs in exponent form.
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e308, 1e-308, 1e-05, -1e-05,
    1e16, 1e22, 0.1, 1.0, float("inf"), float("-inf"),
)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 40),
    d=st.integers(0, 8),
    with_sensitive=st.booleans(),
    tag=st.sampled_from(("train", "validation", "test", "all")),
)
def test_round_trip_property(tmp_path_factory, data, n, d, with_sensitive, tag):
    cell = st.one_of(st.floats(allow_nan=False), st.sampled_from(EDGE_FLOATS))
    features = np.array(data.draw(st.lists(cell, min_size=n * d, max_size=n * d)), dtype=np.float64)
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    ds = TabularDataset(
        features=features.reshape(n, d),
        targets=data.draw(bits),
        row_ids=data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n, unique=True)),
        split=tag,
        sensitive=data.draw(bits) if with_sensitive else None,
    )
    path = tmp_path_factory.mktemp("rt") / "ds.csv"
    write_dataset(ds, path)
    back = read_dataset(path)
    np.testing.assert_array_equal(back.features.view(np.int64), ds.features.view(np.int64))
    np.testing.assert_array_equal(back.row_ids, ds.row_ids)
    np.testing.assert_array_equal(back.targets, ds.targets)
    if with_sensitive:
        np.testing.assert_array_equal(back.sensitive, ds.sensitive)
    else:
        assert back.sensitive is None
    assert back.split == tag
    assert back.features.shape == (n, d)
    assert back.feature_names == (tuple(f"x{j}" for j in range(d)) if d else None)
    # A zero-feature dataset is the CSV alone.
    assert path.with_name("ds.features.npy").exists() == bool(d)


def _reference_read(path):
    """csv-module parse of a canonical dataset CSV's reserved columns."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    body = rows[1:]
    assert rows[0] == ["__row_id", "__target", "__sensitive", "__split"]
    return (
        np.array([int(row[0]) for row in body]),
        np.array([int(row[1]) for row in body]),
        np.array([int(row[2]) for row in body]),
        {row[3] for row in body},
    )


def test_read_matches_per_cell_float_oracle(tmp_path):
    """Census-shaped data: 100 columns of standardized numerics, one-hot
    indicators and values with long or exponent-form reprs. The oracle is
    what the earlier text layout read back: float() of each cell's repr."""
    rng = np.random.default_rng(5)
    n = 400
    numeric = rng.standard_normal((n, 40)) * 10.0 ** rng.integers(-12, 12, (n, 40))
    onehot = (rng.random((n, 50)) < 0.2).astype(np.float64)
    edges = rng.choice(np.array(EDGE_FLOATS[:-2]), size=(n, 10))
    ds = TabularDataset(
        features=np.hstack([numeric, onehot, edges]),
        targets=rng.integers(0, 2, n),
        row_ids=rng.permutation(10 * n)[:n],
        split="validation",
        sensitive=rng.integers(0, 2, n),
    )
    path = tmp_path / "census.csv"
    write_dataset(ds, path)
    features = np.array([[float(repr(v)) for v in row] for row in ds.features.tolist()], dtype=np.float64)
    row_ids, targets, sensitive, splits = _reference_read(path)
    back = read_dataset(path)
    assert back.features.shape == (n, 100)
    np.testing.assert_array_equal(back.features.view(np.int64), features.view(np.int64))
    np.testing.assert_array_equal(back.features.view(np.int64), ds.features.view(np.int64))
    np.testing.assert_array_equal(back.row_ids, row_ids)
    np.testing.assert_array_equal(back.targets, targets)
    np.testing.assert_array_equal(back.sensitive, sensitive)
    assert {back.split} == splits


def _save_over(edit):
    """Replace the features matrix by np.save(edit(matrix))."""
    return _features_matrix(lambda npy: np.save(npy, edit(np.load(npy))))


# Line numbers: 1 metadata (feature_names), 2 header, 3-10 the eight data
# rows. A CSV with a row count the matrix does not share
# is blamed; which rows either file holds, the manifest of the command that
# wrote them vouches for (tests/test_cli.py).
COUNT_MESSAGE = r"ds\.csv: (7|9) rows, but ds\.features\.npy holds 8$"


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_edit_line(3, lambda ln: "\n", 1), r"ds\.csv:5: 0 fields, expected 4"),
        (_edit_line(3, lambda ln: ln[:-1] + ",\n", 1), r"ds\.csv:5: 5 fields, expected 4"),
        (_edit_line(2, lambda ln: "1.5" + ln[1:], 1), r"ds\.csv:4: invalid literal for int\(\)"),
        (_edit_line(2, lambda ln: ln[ln.index(","):], 1), r"ds\.csv:4: invalid literal for int\(\)"),
        # Row 3's id made a copy of row 1's.
        (_edit_line(3, lambda ln: "0" + ln[ln.index(","):], 1), r"ds\.csv: row_ids must be unique$"),
        # Cut at a line end, a row added, a row duplicated: the matrix is
        # intact, and the CSV is blamed.
        (_text(lambda text: "".join(text.splitlines(keepends=True)[:9])), COUNT_MESSAGE),
        (_text(lambda text: "".join(text.splitlines(keepends=True)[:2])), r"ds\.csv: empty dataset file$"),
        (_text(lambda text: text + "8,0,1,train\n"), COUNT_MESSAGE),
        (_edit_line(3, lambda ln: ln + ln, 1), COUNT_MESSAGE),
        (_cut_in_row(4, 1), r"ds\.csv:6: 2 fields, expected 4"),
    ],
    ids=[
        "blank-line", "trailing-comma", "float-row-id", "empty-row-id", "duplicate-row-id",
        "cut-at-line-end", "cut-after-header", "extra-row", "duplicated-row", "cut-mid-row",
    ],
)
def test_reader_fault_injection(tmp_path, corrupt, message):
    ds = make_dataset([[i + 0.25] for i in range(8)], [0, 1] * 4, sensitive=[1, 0] * 4)
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    corrupt(path)
    with pytest.raises(DataError, match=message):
        read_dataset(path)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_features_matrix(lambda npy: npy.unlink()), r"ds\.features\.npy: missing, but ds\.csv records it \(re-run 'prepare'\)"),
        (
            _features_matrix(lambda npy: npy.write_bytes(npy.read_bytes()[:-8])),
            r"ds\.features\.npy: not a readable \.npy file \(ValueError: ",
        ),
        (_features_matrix(lambda npy: npy.write_bytes(b"")), r"ds\.features\.npy: not a readable \.npy file \(ValueError: EOF"),
        (
            _features_matrix(lambda npy: npy.write_text("0.25,1.25,2.25\n")),
            r"ds\.features\.npy: not a readable \.npy file \(ValueError: the magic string is not correct",
        ),
        (_save_over(lambda m: m.astype(np.float32)), r"ds\.features\.npy: holds float32 \(8, 1\), expected float64 \(8, 1\)"),
        (_save_over(lambda m: m[:-1]), r"ds\.csv: 8 rows, but ds\.features\.npy holds 7$"),
        (_save_over(lambda m: np.hstack([m, m])), r"ds\.features\.npy: holds float64 \(8, 2\), expected float64 \(8, 1\)"),
        (_save_over(lambda m: m[:, 0]), r"ds\.features\.npy: holds float64 \(8,\), expected float64 \(None, 1\)"),
        (
            _text(lambda text: text.replace('#feature_names=["x0"]', "#feature_names=[x0")),
            r"ds\.csv: malformed features metadata \(JSONDecodeError: ",
        ),
    ],
    ids=[
        "missing", "truncated", "empty", "not-npy", "wrong-dtype", "missing-row", "wrong-width", "one-dimensional",
        "malformed-names",
    ],
)
def test_features_file_faults(tmp_path, corrupt, message):
    ds = make_dataset([[i + 0.25] for i in range(8)], [0, 1] * 4, sensitive=[1, 0] * 4)
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    corrupt(path)
    with pytest.raises(DataError, match=message) as exc:
        read_dataset(path)
    assert len(str(exc.value).splitlines()) == 1


def test_a_csv_without_feature_names_has_no_features(tmp_path):
    # The '#feature_names=' line, not a matrix beside the CSV, says that a
    # dataset has feature columns.
    ds = make_dataset([[i + 0.25] for i in range(8)], [0, 1] * 4, sensitive=[1, 0] * 4)
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    _text(lambda text: text.split("\n", 1)[1])(path)
    back = read_dataset(path)
    assert features_path(path).exists()
    assert back.features.shape == (8, 0) and back.feature_names is None
    np.testing.assert_array_equal(back.row_ids, ds.row_ids)


HEADER_MESSAGE = r"ds\.csv: not a canonical dataset file \(its header is not __row_id,__target,__sensitive,__split\); re-run 'prepare'$"


def test_earlier_text_layout_asks_for_prepare(tmp_path):
    # Earlier versions wrote the features as text columns after the four
    # reserved ones; that header, like any other, gets the one message.
    ds = make_dataset([[i + 0.25] for i in range(8)], [0, 1] * 4, sensitive=[1, 0] * 4)
    path = tmp_path / "ds.csv"
    for header in ("__row_id,__target,__sensitive,__split,x0", "__row_id,__target,__split", "row_id,target,sensitive,split"):
        write_dataset(ds, path)
        _text(lambda text: text.replace("__row_id,__target,__sensitive,__split\n", header + "\n"))(path)
        with pytest.raises(DataError, match=HEADER_MESSAGE):
            read_dataset(path)


@pytest.mark.parametrize(
    "edit, message",
    [
        # After the header, a '#' line is a data row that does not parse.
        (lambda lines: lines.insert(5, "# a note\n"), r"ds\.csv:6: 1 fields, expected 4$"),
        (lambda lines: lines.append("#trailer\n"), r"ds\.csv:9: 1 fields, expected 4$"),
        (lambda lines: lines.insert(3, "#a,b,c,d\n"), r"ds\.csv:4: invalid literal for int\(\) with base 10: '#a'$"),
        # Before it, any '#' line but a first '#feature_names=' one stands
        # where the header should.
        (lambda lines: lines.insert(0, "# a note\n"), HEADER_MESSAGE),
        (lambda lines: lines.insert(1, "#features_file=ds.features.npy\n"), HEADER_MESSAGE),
        (lambda lines: lines.insert(2, "#features_file=ds.features.npy\n"), r"ds\.csv:3: 1 fields, expected 4$"),
        (lambda lines: lines.__setitem__(0, lines[0].replace("#feature_names=", "#names=")), HEADER_MESSAGE),
    ],
    ids=["note-between-rows", "trailer", "commented-row", "leading-note", "features-file-before-header", "features-file-after-header", "other-key"],
)
def test_only_a_first_feature_names_line_starts_with_a_hash(tmp_path, edit, message):
    ds = make_dataset([[i + 0.25, -i * 1e-5] for i in range(6)], [0, 1] * 3)
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    # Line 1 feature names, 2 header, 3-8 the six data rows.
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    edit(lines)
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(DataError, match=message):
        read_dataset(path)


def test_a_file_cut_at_a_line_end_is_refused(tmp_path):
    # With a features matrix, a CSV cut at a line end no longer shares the
    # matrix's row count. (Without one, the manifest of the command that
    # wrote the file refuses the cut: tests/test_cli.py.)
    ds = make_dataset(np.arange(3.0).reshape(3, 1) + 1.5, [0, 1, 0], sensitive=[1, 0, 0])
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    back = read_dataset(path)
    np.testing.assert_array_equal(back.features, ds.features)
    np.testing.assert_array_equal(back.sensitive, ds.sensitive)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    with pytest.raises(DataError, match=r"ds\.csv: 2 rows, but ds\.features\.npy holds 3$"):
        read_dataset(path)


def test_non_utf8_input_files_are_data_errors(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_bytes(b"age,sex,income\n37,M,>50K\n\xff\xfe,F,<=50K\n")
    with pytest.raises(DataError, match=r"raw\.csv: not a UTF-8 text file \(invalid start byte\)"):
        load_csv(path, SCHEMA)
    with pytest.raises(DataError, match=r"raw\.csv: not a UTF-8 text file"):
        fit_categorical_vocab(path, ["sex"])
    with pytest.raises(DataError, match=r"raw\.csv: not a UTF-8 text file"):
        read_dataset(path)
