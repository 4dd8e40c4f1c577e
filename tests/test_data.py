import math

import numpy as np
import pytest

from fairtune.data import (
    BlockSpec,
    DataError,
    DatasetSchema,
    EmptySplitError,
    SchemaError,
    Standardizer,
    SyntheticSpec,
    TabularDataset,
    apply_standardizer,
    dataset_file_meta,
    fit_categorical_vocab,
    fit_standardizer,
    generate_synthetic,
    load_csv,
    read_dataset,
    split,
    write_dataset,
)
from fairtune.metrics import EmptyGroupError, wga

from conftest import planted_spec


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
    with pytest.raises(SchemaError, match="missing column 'sex'"):
        load_csv(path, SCHEMA)


def test_load_csv_unparseable_numeric(tmp_path):
    path = write_lines(
        tmp_path / "toy.csv", ["age,sex,income", "30,F,>50K", "old,M,>50K"]
    )
    with pytest.raises(DataError, match=r"row 1.*'age'.*unparseable"):
        load_csv(path, SCHEMA)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty file"):
        load_csv(path, SCHEMA)
    header_only = write_lines(tmp_path / "toy2.csv", ["age,sex,income"])
    with pytest.raises(DataError, match="no data rows"):
        load_csv(header_only, SCHEMA)


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


def test_schema_validation():
    with pytest.raises(SchemaError, match="no vocabulary"):
        DatasetSchema(
            feature_columns=(("sex", "categorical"),),
            target_column=("income", ">50K"),
        )
    with pytest.raises(SchemaError, match="target column"):
        DatasetSchema(
            feature_columns=(("income", "numeric"),),
            target_column=("income", ">50K"),
        )
    with pytest.raises(SchemaError, match="unknown kind"):
        DatasetSchema(
            feature_columns=(("age", "continuous"),),
            target_column=("income", ">50K"),
        )
    round_trip = DatasetSchema.from_dict(SCHEMA.to_dict())
    assert round_trip == SCHEMA


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
    std = fit_standardizer(ds)
    out = apply_standardizer(std, ds)
    expected = math.sqrt(3.0 / 2.0)  # (6-4)/sqrt(8/3)
    np.testing.assert_allclose(out.features[:, 0], [-expected, 0.0, expected], atol=1e-12)


def test_standardizer_constant_column():
    ds = make_dataset([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 1, 0])
    out = apply_standardizer(fit_standardizer(ds), ds)
    np.testing.assert_array_equal(out.features[:, 0], [0.0, 0.0, 0.0])


def test_standardizer_one_hot_passthrough():
    ds = make_dataset(
        [[2.0, 1.0, 0.0], [4.0, 0.0, 1.0], [6.0, 1.0, 0.0]],
        [0, 1, 0],
        numeric_mask=[True, False, False],
    )
    out = apply_standardizer(fit_standardizer(ds), ds)
    np.testing.assert_array_equal(out.features[:, 1:], ds.features[:, 1:])


def test_standardizer_train_mean_row_maps_to_zero():
    train = make_dataset([[2.0, 10.0], [4.0, 20.0], [6.0, 30.0]], [0, 1, 0])
    std = fit_standardizer(train)
    val = make_dataset([[4.0, 20.0]], [1], split_tag="validation")
    out = apply_standardizer(std, val)
    np.testing.assert_allclose(out.features, [[0.0, 0.0]], atol=1e-12)


def test_standardizer_guards():
    with pytest.raises(DataError, match="unfitted|not been fitted"):
        apply_standardizer(Standardizer(), make_dataset([[1.0]], [0]))
    val = make_dataset([[1.0]], [0], split_tag="validation")
    with pytest.raises(DataError, match="train split"):
        fit_standardizer(val)
    std = fit_standardizer(make_dataset([[1.0, 2.0]], [0]))
    with pytest.raises(DataError, match="columns"):
        apply_standardizer(std, make_dataset([[1.0]], [0]))


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
    with pytest.raises(EmptySplitError, match="empty test split"):
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


def test_round_trip_bit_exact(tmp_path, planted):
    train, _, _ = planted
    path = tmp_path / "train.csv"
    write_dataset(train, path, meta={"config_sha256": "abc", "tool_version": "0.1.0"})
    back = read_dataset(path)
    np.testing.assert_array_equal(back.features, train.features)
    np.testing.assert_array_equal(back.targets, train.targets)
    np.testing.assert_array_equal(back.row_ids, train.row_ids)
    np.testing.assert_array_equal(back.sensitive, train.sensitive)
    assert back.split == train.split
    assert back.feature_names == train.feature_names
    assert dataset_file_meta(path) == {"config_sha256": "abc", "tool_version": "0.1.0"}


def test_round_trip_without_sensitive(tmp_path):
    ds = make_dataset([[1.5, -2.25], [0.1, 3.0]], [0, 1])
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.sensitive is None
    np.testing.assert_array_equal(back.features, ds.features)


def test_write_is_deterministic(tmp_path, planted):
    train, _, _ = planted
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(train, p1, meta={"k": "v"})
    write_dataset(train, p2, meta={"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()


def _cut_in_half(text):
    return text[: len(text) // 2]


def _drop_last_newline(text):
    return text[:-1]


def _short_row(text):
    lines = text.splitlines(keepends=True)
    lines[4] = lines[4].rsplit(",", 1)[0] + "\n"
    return "".join(lines)


def _garbled_float(text):
    lines = text.splitlines(keepends=True)
    lines[4] = lines[4].rsplit(",", 1)[0] + ",1.2.3\n"
    return "".join(lines)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_cut_in_half, r"ds\.csv:5: last line lacks its newline"),
        (_drop_last_newline, r"ds\.csv:10: last line lacks its newline"),
        (_short_row, r"ds\.csv:5: 4 fields, expected 5"),
        (_garbled_float, r"ds\.csv:5: could not convert string to float: '1\.2\.3'"),
    ],
)
def test_read_rejects_damaged_rows_with_their_line(tmp_path, corrupt, message):
    ds = make_dataset([[i + 0.25] for i in range(8)], [0, 1] * 4)
    path = tmp_path / "ds.csv"
    write_dataset(ds, path, meta={"config_sha256": "abc"})
    path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(DataError, match=message):
        read_dataset(path)
