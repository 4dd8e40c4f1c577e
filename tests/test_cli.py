import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from fairtune.cli import main, render_table
from fairtune.tuning import TunerResult

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def load_synthetic_config(tmp_path, out_name="out", **edits):
    raw = json.loads((CONFIGS / "synthetic.json").read_text())
    raw["output_dir"] = str(tmp_path / out_name)
    for key, value in edits.items():
        raw[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path, Path(raw["output_dir"])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full pipeline run on the bundled synthetic config (shared, read-only)."""
    tmp_path = tmp_path_factory.mktemp("cli")
    config, out = load_synthetic_config(tmp_path)
    for command in ("prepare", "train-grid", "label", "mc-sweep", "tune"):
        assert main([command, "--config", str(config)]) == 0
    return config, out


def test_pipeline_artifacts_exist(pipeline):
    _, out = pipeline
    for rel in (
        "datasets/train.csv",
        "datasets/validation.csv",
        "datasets/test.csv",
        "standardizer.json",
        "checkpoints/index.json",
        "labelled_validation.csv",
        "labelling.json",
        "mc_sweep.csv",
        "tuner_result.json",
    ):
        assert (out / rel).exists(), rel


def test_pipeline_tuner_bins_populated(pipeline):
    _, out = pipeline
    payload = json.loads((out / "tuner_result.json").read_text())
    result = TunerResult.from_dict(payload["result"])
    populated = [b for b in result.bins if b.winner is not None]
    assert populated, "no accuracy bin was populated"
    for outcome in populated:
        lo, hi = outcome.bin
        assert lo <= outcome.validation.avg_accuracy < hi
    assert result.erm_baseline is not None
    # the upweighting winner improves the target-gap over the plain baseline
    best_dp = min(b.test.dp_gap for b in populated)
    assert best_dp < result.erm_baseline.test.dp_gap


def test_pipeline_outputs_carry_provenance(pipeline):
    config, out = pipeline
    from fairtune.config import load_config
    from fairtune.data import dataset_file_meta

    expected = load_config(config).canonical_hash()
    meta = dataset_file_meta(out / "datasets" / "train.csv")
    assert meta["config_sha256"] == expected
    index = json.loads((out / "checkpoints" / "index.json").read_text())
    assert index["config_sha256"] == expected
    payload = json.loads((out / "tuner_result.json").read_text())
    assert payload["config_sha256"] == expected
    assert payload["tool_version"]


def test_rerun_is_byte_identical(pipeline, tmp_path):
    config, out = pipeline
    before = (out / "labelled_validation.csv").read_bytes()
    assert main(["label", "--config", str(config)]) == 0
    assert (out / "labelled_validation.csv").read_bytes() == before
    before_tune = (out / "tuner_result.json").read_bytes()
    assert main(["tune", "--config", str(config)]) == 0
    assert (out / "tuner_result.json").read_bytes() == before_tune


def test_report_table_and_json(pipeline, capsys):
    _, out = pipeline
    result_file = out / "tuner_result.json"
    assert main(["report", str(result_file)]) == 0
    table = capsys.readouterr().out
    assert "objective: dp_gap" in table
    assert "[82.5,85.0)" in table
    assert "unconstrained" in table
    assert main(["report", str(result_file), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert TunerResult.from_dict(payload["result"]) is not None



def report_exit_and_stderr(path, capsys):
    code = main(["report", str(path)])
    return code, capsys.readouterr().err


def test_report_truncated_result_is_a_data_error(pipeline, tmp_path, capsys):
    _, out = pipeline
    text = (out / "tuner_result.json").read_text()
    truncated = tmp_path / "truncated.json"
    truncated.write_text(text[: len(text) // 2])
    code, err = report_exit_and_stderr(truncated, capsys)
    assert code == 3
    assert err.startswith("data error: ") and "JSONDecodeError" in err
    assert len(err.splitlines()) == 1


def test_report_wrong_schema_result_is_a_data_error(tmp_path, capsys):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"result": {}}))
    code, err = report_exit_and_stderr(wrong, capsys)
    assert code == 3
    assert err.startswith("data error: ") and "'objective'" in err
    assert len(err.splitlines()) == 1

def test_render_table_one_row_per_bin():
    raw = {
        "objective": "dp_gap",
        "sensitive_source": "pseudo",
        "bins": [
            {
                "bin": [0.8, 0.9],
                "winner": {"kind": "jtt", "epoch": 3, "stage2": {"learning_rate": 0.1}},
                "validation": {"avg_accuracy": 0.85, "dp_gap": 0.05, "eo_gap": None, "wga": None},
                "test": {"avg_accuracy": 0.84, "dp_gap": 0.06, "eo_gap": None, "wga": None},
            },
            {"bin": [0.9, 1.0], "winner": None, "validation": None, "test": None},
        ],
        "erm_bins": [
            {"bin": [0.8, 0.9], "winner": None, "validation": None, "test": None},
            {"bin": [0.9, 1.0], "winner": None, "validation": None, "test": None},
        ],
        "erm_baseline": None,
    }
    table = render_table(TunerResult.from_dict(raw))
    lines = table.splitlines()
    assert sum(1 for l in lines if "[80.0,90.0)" in l) == 1
    assert sum(1 for l in lines if "(85.0, 5.0)" in l) == 1
    assert sum(1 for l in lines if "(empty)" in l) >= 1


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1, "output_dir": str(tmp_path / "o")}))
    assert main(["prepare", "--config", str(bad)]) == 2
    assert "dataset" in capsys.readouterr().err
    bad.write_text("{not json")
    assert main(["prepare", "--config", str(bad)]) == 2


def test_missing_upstream_artifact_exit_code(tmp_path, capsys):
    config, _ = load_synthetic_config(tmp_path, out_name="fresh")
    assert main(["tune", "--config", str(config)]) == 3
    assert "prepare" in capsys.readouterr().err


def test_seed_mismatch_detected(tmp_path, capsys):
    config, out = load_synthetic_config(tmp_path, out_name="mismatch")
    assert main(["prepare", "--config", str(config), "--seed", "1"]) == 0
    assert main(["train-grid", "--config", str(config), "--seed", "2"]) == 3
    assert "different configuration" in capsys.readouterr().err


def test_selection_failure_exit_code(tmp_path, capsys):
    raw = json.loads((CONFIGS / "synthetic.json").read_text())
    raw["output_dir"] = str(tmp_path / "perfect")
    # fully separated blobs and a strong labeller: every candidate classifies
    # the validation split perfectly, so no class has an incorrect set
    for block in raw["dataset"]["synthetic"]["blocks"].values():
        block["var"] = [0.01, 0.01]
    raw["dataset"]["synthetic"]["blocks"]["y1_a0"]["mean"] = [8.0, 0.0]
    raw["dataset"]["synthetic"]["blocks"]["y1_a1"]["mean"] = [8.0, 0.5]
    raw["dataset"]["synthetic"]["blocks"]["y0_a0"]["mean"] = [-8.0, 0.0]
    raw["dataset"]["synthetic"]["blocks"]["y0_a1"]["mean"] = [-8.0, 0.5]
    raw["labeller_grid"] = [{"learning_rate": 0.5, "epochs": 10, "batch_size": 64}]
    raw["labelling"] = {"policy": "final_epoch"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["prepare", "--config", str(config)]) == 0
    assert main(["train-grid", "--config", str(config)]) == 0
    assert main(["label", "--config", str(config)]) == 4
    assert "skipped" in capsys.readouterr().err


def test_out_override(tmp_path):
    config, _ = load_synthetic_config(tmp_path, out_name="ignored")
    override = tmp_path / "elsewhere"
    assert main(["prepare", "--config", str(config), "--out", str(override)]) == 0
    assert (override / "datasets" / "train.csv").exists()


def test_mc_sweep_csv_columns(pipeline):
    _, out = pipeline
    header = None
    for line in (out / "mc_sweep.csv").read_text().splitlines():
        if not line.startswith("#"):
            header = line
            break
    assert header.split(",") == [
        "alpha", "beta", "edm_true", "edm_noisy", "edm_ratio",
        "dp_true", "dp_noisy", "dp_ratio", "eo_true", "eo_noisy", "eo_ratio",
    ]


def test_train_grid_parallel_matches_sequential(tmp_path):
    config, _ = load_synthetic_config(tmp_path)
    outs = [tmp_path / "seq", tmp_path / "par"]
    for out, jobs in zip(outs, ("1", "2")):
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        assert main(["train-grid", "--config", str(config), "--out", str(out), "--jobs", jobs]) == 0
    assert sorted(p.name for p in (outs[0] / "checkpoints").iterdir()) == ["index.json", "predictions.npy"]
    for name in ("index.json", "predictions.npy"):
        assert (outs[0] / "checkpoints" / name).read_bytes() == (outs[1] / "checkpoints" / name).read_bytes()


def test_failed_command_removes_what_it_wrote(tmp_path, monkeypatch):
    import fairtune.cli as cli
    from fairtune.data import DataError

    config, out = load_synthetic_config(tmp_path)
    assert main(["prepare", "--config", str(config)]) == 0

    def failing_json_text(payload):
        raise DataError("disk full")

    monkeypatch.setattr(cli, "_json_text", failing_json_text)
    assert main(["train-grid", "--config", str(config)]) == 3
    assert list((out / "checkpoints").iterdir()) == []


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    config, _ = load_synthetic_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train-grid", "--config", str(config), "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--jobs" in err


@pytest.mark.parametrize("policy", ["every_epoch", "final_epoch"])
def test_label_matches_library_selection(tmp_path, policy):
    from fairtune.config import load_config
    from fairtune.data import read_dataset
    from fairtune.labelling import enumerate_candidates, select_labeller

    config, out = load_synthetic_config(tmp_path, labelling={"policy": policy})
    for command in ("prepare", "train-grid", "label"):
        assert main([command, "--config", str(config)]) == 0
    train = read_dataset(out / "datasets" / "train.csv")
    validation = read_dataset(out / "datasets" / "validation.csv")
    candidates = enumerate_candidates(train, load_config(config).labeller_grid)
    if policy == "final_epoch":
        candidates = [c for c in candidates if c.epoch == c.hp.epochs]
    expected = select_labeller(candidates, validation)
    labelled = read_dataset(out / "labelled_validation.csv")
    np.testing.assert_array_equal(labelled.sensitive, expected.pseudo)
    labelling = json.loads((out / "labelling.json").read_text())
    assert labelling["n_candidates"] == len(candidates)
    assert labelling["by_class"] == json.loads(
        json.dumps({str(y): sel.to_dict() for y, sel in expected.by_class.items()})
    )


@pytest.fixture(scope="module")
def labeller_grid_run(tmp_path_factory):
    """prepare and train-grid on the bundled synthetic config (copied per test)."""
    tmp_path = tmp_path_factory.mktemp("grid")
    config, out = load_synthetic_config(tmp_path)
    for command in ("prepare", "train-grid"):
        assert main([command, "--config", str(config)]) == 0
    return config, out


def _npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _damage_index(edit):
    def damage(ckpt):
        path = ckpt / "index.json"
        path.write_text(edit(path.read_text()))

    return damage


def _damage_matrix(edit):
    def damage(ckpt):
        path = ckpt / "predictions.npy"
        path.write_bytes(edit(path.read_bytes(), np.load(path)))

    return damage


def _shorten_index(text):
    payload = json.loads(text)
    payload["candidates"].pop()
    return json.dumps(payload)


@pytest.mark.parametrize(
    "damage",
    [
        _damage_index(lambda t: t[: len(t) // 2]),
        _damage_index(lambda t: ""),
        _damage_index(lambda t: json.dumps({"x": 1})),
        _damage_index(lambda t: json.dumps({"candidates": [{"grid_index": 0, "epoch": 1}]})),
        _damage_index(lambda t: json.dumps({"candidates": [1, 2]})),
        _damage_index(lambda t: json.dumps([1])),
        _damage_index(_shorten_index),
        _damage_matrix(lambda raw, m: raw[: len(raw) // 2]),
        _damage_matrix(lambda raw, m: b""),
        _damage_matrix(lambda raw, m: b'{"x": 1}\n'),
        _damage_matrix(lambda raw, m: _npy_bytes(m.astype(np.float64))),
        _damage_matrix(lambda raw, m: _npy_bytes(m[:, :-1])),
        _damage_matrix(lambda raw, m: _npy_bytes(m[:-1])),
        _damage_matrix(lambda raw, m: _npy_bytes(m[0])),
    ],
    ids=[
        "index-truncated", "index-empty", "index-no-candidates", "index-entry-missing-key",
        "index-entry-not-object", "index-not-object", "index-shorter-than-matrix",
        "matrix-truncated", "matrix-empty", "matrix-not-npy", "matrix-float64",
        "matrix-short-rows", "matrix-missing-row", "matrix-1d",
    ],
)
def test_label_damaged_grid_artifacts_are_data_errors(labeller_grid_run, tmp_path, capsys, damage):
    config, out = labeller_grid_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    damage(copy / "checkpoints")
    assert main(["label", "--config", str(config), "--out", str(copy)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1
    assert not (copy / "labelled_validation.csv").exists()


def _cut_mid_row(text):
    return text[: len(text) // 2]


def _cut_at_line_end(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[: len(lines) // 2])


@pytest.mark.parametrize("cut", [_cut_mid_row, _cut_at_line_end])
@pytest.mark.parametrize("command, path", [("label", "datasets/validation.csv"), ("tune", "labelled_validation.csv")])
def test_truncated_dataset_is_a_data_error(pipeline, tmp_path, capsys, command, path, cut):
    config, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / path).write_text(cut((copy / path).read_text()))
    assert main([command, "--config", str(config), "--out", str(copy)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1
