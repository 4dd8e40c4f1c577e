import json
from pathlib import Path

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
    config1, out1 = load_synthetic_config(tmp_path, out_name="seq")
    assert main(["prepare", "--config", str(config1)]) == 0
    assert main(["train-grid", "--config", str(config1)]) == 0
    config2, out2 = load_synthetic_config(tmp_path, out_name="par")
    raw = json.loads(config2.read_text())
    raw["output_dir"] = str(out2)
    config2.write_text(json.dumps(raw))
    assert main(["prepare", "--config", str(config2), "--out", str(out2)]) == 0
    assert main(["train-grid", "--config", str(config2), "--out", str(out2), "--jobs", "2"]) == 0
    files = sorted((out1 / "checkpoints").glob("g*.json"))
    assert files
    for f in files:
        a = json.loads(f.read_text())
        b = json.loads((out2 / "checkpoints" / f.name).read_text())
        assert a["tensors"] == b["tensors"], f.name
