import copy
import gc
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairtune.cli
from fairtune.cli import main, render_table
from fairtune.config import parse_config
from fairtune.data import MAX_SIZE
from fairtune.labelling import _grid_point_predictions
from fairtune.metrics import report_from_counts
from fairtune.training import HyperParams
from fairtune.tuning import ERM_BASELINE_BIN, CandidateRef, TunerResult

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
    assert list(out.rglob(".stage-*")) == []


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


@pytest.mark.parametrize("field", ["epoch", "t", "lambda"])
def test_report_fractional_winner_integer_is_a_data_error(pipeline, tmp_path, capsys, field):
    _, out = pipeline
    payload = json.loads((out / "tuner_result.json").read_text())
    winner = next(b["winner"] for b in payload["result"]["bins"] if b["winner"] and b["winner"]["t"] is not None)
    winner[field] = winner[field] + 0.7
    damaged = tmp_path / "damaged.json"
    damaged.write_text(json.dumps(payload))
    code, err = report_exit_and_stderr(damaged, capsys)
    assert code == 3
    assert err.startswith("data error: ") and f"{field}: expected int, got float" in err
    assert len(err.splitlines()) == 1


def _won(result):
    """The first JTT bin of a stored result that has a winner."""
    return next(b for b in result["bins"] if b["winner"])


def _erm_winner_in_its_jtt_bin(result):
    i = next(i for i, b in enumerate(result["erm_bins"]) if b["winner"])
    result["bins"][i] = copy.deepcopy(result["erm_bins"][i])


def _move_won_bin(result, lo_hi):
    i = next(i for i, b in enumerate(result["bins"]) if b["winner"])
    result["bins"][i]["bin"] = result["erm_bins"][i]["bin"] = lo_hi


def _won_on_one_group(result):
    # Validation counts without a row of group a=0, so no DP gap: 81 of 100
    # rows correct, inside the bin [0.8, 0.825).
    counts = np.array([[[0, 0], [41, 9]], [[0, 0], [10, 40]]])
    _won(result)["validation"] = report_from_counts(counts, result["sensitive_source"], require=()).to_dict()
    _move_won_bin(result, [0.8, 0.825])


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda r: r.update(objective="foo"), "objective: must be one of"),
        (lambda r: r.update(sensitive_source="foo"), "sensitive_source: must be"),
        (lambda r: r.update(bins=[]), "bins and erm_bins must list the same"),
        (lambda r: r["erm_bins"][0].update(bin=[0.0, 0.5]), "bins and erm_bins must list the same"),
        (lambda r: _won(r)["validation"]["subgroup_accuracy"].update(y9_a9=0.5), "subgroup_accuracy.y9_a9: stored 0.5"),
        (lambda r: _won(r)["test"].update(avg_accuracy=7.5), "avg_accuracy: stored 7.5, but its subgroup counts give"),
        (lambda r: _won(r)["test"].update(avg_accuracy="0.5"), "avg_accuracy: stored '0.5', but"),
        (lambda r: _won(r)["validation"].update(dp_gap=2.0), "dp_gap: stored 2.0, but its subgroup counts give"),
        (lambda r: _won(r)["test"]["subgroup_counts"].update(y0_a0=-3), "subgroup_counts.y0_a0: must be >= 1"),
        (lambda r: _won(r)["validation"].update(sensitive_source=5), "validation.sensitive_source: stored 5, but"),
        (lambda r: _won(r)["winner"].update(kind="bogus"), "kind: must be 'jtt' or 'erm', got 'bogus'"),
        (lambda r: _won(r)["winner"].update(t=None), "a 'jtt' candidate sets all three"),
        (lambda r: r["erm_baseline"]["winner"].update(t=1), "an 'erm' one none"),
        (lambda r: _won(r)["winner"].update(plain_fallback="no"), "plain_fallback: expected bool, got str"),
        (lambda r: _won(r)["winner"].update(epoch=99), "epoch: stage 2 trains"),
        (lambda r: _won(r)["winner"].update(stage2="abc"), "grid point: expected an object, got str"),
        (
            lambda r: [b.update(bin=[0.9, 0.1]) for b in (r["bins"][0], r["erm_bins"][0])],
            "bins[0]: bin [0.9, 0.1) is empty",
        ),
        (lambda r: _won(r).update(validation=None, test=None), "a tuner writes a winner and both its reports"),
        (_erm_winner_in_its_jtt_bin, "winner.kind: a tuner writes 'jtt' winners here, got 'erm'"),
        (lambda r: _won(r)["test"].pop("subgroup_counts"), "KeyError: 'subgroup_counts'"),
        (lambda r: _won(r)["winner"].pop("plain_fallback"), "KeyError: 'plain_fallback'"),
        (lambda r: r.update(extra=1), "extra: stored 1, but a tuner writes no such key"),
        (lambda r: _won(r)["validation"].update(sensitive_source="bogus"), "sensitive_source: stored 'bogus', but"),
        (lambda r: _won(r).update(winner=None), "a tuner writes a winner and both its reports"),
        (lambda r: _move_won_bin(r, [0.1, 0.2]), "lies outside the bin [0.1, 0.2)"),
        (lambda r: _won(r)["validation"].update(dp_gap=None), "dp_gap: stored None, but its subgroup counts give"),
        (lambda r: _won(r)["test"].update(dp_gap=0.01234), "dp_gap: stored 0.01234, but its subgroup counts give"),
        (_won_on_one_group, "validation.dp_gap: a winner's objective is never None"),
        (lambda r: r["erm_baseline"].update(bin=[0.0, 0.9]), "erm_baseline.bin: a tuner writes [0.0, 1.000000000001]"),
        (lambda r: r["erm_baseline"]["winner"].update(plain_fallback=True), "an 'erm' candidate has no stage 1"),
        (
            lambda r: [b.update(bin=[0.8, 0.86]) for b in (r["bins"][0], r["erm_bins"][0])],
            "bins: bins [0.8, 0.86) and [0.825, ...) overlap",
        ),
        (
            lambda r: r["erm_baseline"].update(winner=None, validation=None, test=None),
            "erm_baseline.winner: a tuner always writes the plain baseline's winner, got null",
        ),
        (lambda r: r.update(erm_baseline=None), "erm_baseline: a tuner always writes the plain baseline, got null"),
    ],
    ids=[
        "unknown_objective", "unknown_source", "empty_bins", "mismatched_erm_bin", "unknown_subgroup",
        "accuracy_above_one", "accuracy_as_text", "gap_above_one", "negative_count", "numeric_report_source",
        "unknown_kind", "jtt_without_t", "erm_with_t", "text_plain_fallback", "epoch_beyond_stage2",
        "text_grid_point", "inverted_bin", "winner_without_reports", "erm_winner_in_jtt_bin",
        "report_without_counts", "winner_without_plain_fallback", "extra_top_level_key", "bogus_report_source",
        "reports_without_winner", "winner_outside_its_bin", "validation_objective_null", "test_gap_changed",
        "winner_without_objective", "moved_baseline_bin", "erm_plain_fallback", "overlapping_bins",
        "baseline_without_winner", "null_baseline",
    ],
)
def test_report_inconsistent_result_is_a_data_error(pipeline, tmp_path, capsys, damage, message):
    _, out = pipeline
    payload = json.loads((out / "tuner_result.json").read_text())
    damage(payload["result"])
    damaged = tmp_path / "damaged.json"
    damaged.write_text(json.dumps(payload))
    for fmt in ("table", "json"):
        code = main(["report", str(damaged), "--format", fmt])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("data error: ") and message in err
        assert len(err.splitlines()) == 1


def test_report_wrong_schema_result_is_a_data_error(tmp_path, capsys):
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"result": {}}))
    code, err = report_exit_and_stderr(wrong, capsys)
    assert code == 3
    assert err.startswith("data error: ") and "'objective'" in err
    assert len(err.splitlines()) == 1

def test_render_table_one_row_per_bin():
    # The validation counts give the (85.0, 5.0) cell: 40 rows, 34 correct,
    # and 10 of 20 against 9 of 20 positive predictions by group.
    validation = report_from_counts(np.array([[[8, 2], [9, 0]], [[3, 7], [1, 10]]]), "pseudo", require=())
    test = report_from_counts(np.array([[[9, 1], [9, 1]], [[2, 8], [0, 10]]]), require=())
    winner = CandidateRef(
        kind="jtt", stage2=HyperParams(learning_rate=0.1, epochs=3), epoch=3,
        stage1=HyperParams(learning_rate=0.1), t=1, lam=2,
    )
    # The plain baseline scores 36 of 40 validation rows: the (90.0, 10.0) cell.
    baseline = {
        "bin": list(ERM_BASELINE_BIN),
        "winner": CandidateRef(kind="erm", stage2=HyperParams(learning_rate=0.1, epochs=3), epoch=2).to_dict(),
        "validation": report_from_counts(np.array([[[9, 1], [9, 1]], [[2, 8], [0, 10]]]), "pseudo", require=()).to_dict(),
        "test": test.to_dict(),
    }
    empty = {"winner": None, "validation": None, "test": None}
    raw = {
        "objective": "dp_gap",
        "sensitive_source": "pseudo",
        "bins": [
            {"bin": [0.8, 0.9], "winner": winner.to_dict(), "validation": validation.to_dict(), "test": test.to_dict()},
            {"bin": [0.9, 1.0], **empty},
        ],
        "erm_bins": [{"bin": [0.8, 0.9], **empty}, {"bin": [0.9, 1.0], **empty}],
        "erm_baseline": baseline,
    }
    table = render_table(TunerResult.from_dict(raw))
    lines = table.splitlines()
    assert [l.split()[2:4] for l in lines if l.startswith("unconstrained")] == [["(90.0,", "10.0)"]]
    assert sum(1 for l in lines if "[80.0,90.0)" in l) == 1
    assert sum(1 for l in lines if "(85.0, 5.0)" in l) == 1
    assert sum(1 for l in lines if "(empty)" in l) >= 1


def _leaf_paths(node, path=()):
    """The key path of every value of a JSON document that is no object or list."""
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield from _leaf_paths(child, (*path, key))


def _key_paths(node, path=()):
    """The key path of every object key of a JSON document."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield (*path, key)
            yield from _key_paths(child, (*path, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _key_paths(child, (*path, i))


_DELETE = object()


@pytest.mark.parametrize(
    "replacement", [None, "x", -1, 1.5, True, _DELETE], ids=["null", "text", "minus_one", "fraction", "true", "deleted"]
)
def test_report_of_a_result_with_any_value_replaced_exits_0_or_3(pipeline, tmp_path, capsys, replacement):
    # Every leaf of a stored result in turn (every key, for a deletion):
    # `report` accepts the file or rejects it in one line, never raising.
    _, out = pipeline
    text = (out / "tuner_result.json").read_text()
    stored = json.loads(text)["result"]
    paths = list(_key_paths(stored) if replacement is _DELETE else _leaf_paths(stored))
    assert len(paths) > 100
    damaged = tmp_path / "damaged.json"
    for path in paths:
        payload = json.loads(text)
        node = payload["result"]
        for key in path[:-1]:
            node = node[key]
        if replacement is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = replacement
        damaged.write_text(json.dumps(payload))
        code = main(["report", str(damaged)])
        err = capsys.readouterr().err
        assert (code, len(err.splitlines())) in ((0, 0), (3, 1)), (path, err)


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


def test_labelled_validation_holds_the_reserved_columns_only(pipeline):
    from fairtune.data import read_dataset

    _, out = pipeline
    labelled = read_dataset(out / "labelled_validation.csv")
    validation = read_dataset(out / "datasets" / "validation.csv")
    assert labelled.n_features == 0
    assert labelled.split == validation.split
    np.testing.assert_array_equal(labelled.row_ids, validation.row_ids)
    np.testing.assert_array_equal(labelled.targets, validation.targets)
    header = next(l for l in (out / "labelled_validation.csv").read_text().splitlines() if not l.startswith("#"))
    assert header == "__row_id,__target,__sensitive,__split"


def test_tune_and_train_grid_outputs_do_not_depend_on_jobs(tmp_path):
    config, _ = load_synthetic_config(tmp_path)
    outs = {}
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}"
        for command in ("prepare", "train-grid", "label", "tune"):
            assert main([command, "--config", str(config), "--out", str(out), "--jobs", jobs]) == 0
        outs[jobs] = out
    for rel in ("checkpoints/index.json", "checkpoints/predictions.npy", "labelled_validation.csv", "tuner_result.json"):
        assert (outs["1"] / rel).read_bytes() == (outs["3"] / rel).read_bytes(), rel


def test_train_grid_parallel_matches_sequential(tmp_path):
    config, _ = load_synthetic_config(tmp_path)
    outs = [tmp_path / "seq", tmp_path / "par"]
    for out, jobs in zip(outs, ("1", "2")):
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        assert main(["train-grid", "--config", str(config), "--out", str(out), "--jobs", jobs]) == 0
    assert sorted(p.name for p in (outs[0] / "checkpoints").iterdir()) == ["index.json", "predictions.npy"]
    for name in ("index.json", "predictions.npy"):
        assert (outs[0] / "checkpoints" / name).read_bytes() == (outs[1] / "checkpoints" / name).read_bytes()


_RUN_AND_LIST_MASKED_ARRAYS = """
import json, sys
from fairtune.cli import main
status = main(sys.argv[1:])
print(json.dumps([status, "numpy.ma" in sys.modules]))
"""


def test_no_command_imports_numpy_masked_arrays(tmp_path):
    # numpy.ma takes ~10 ms to import; np.unique's first call loads it.
    config, out = load_synthetic_config(tmp_path)
    src = str(Path(fairtune.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for command in ("prepare", "train-grid", "label", "tune"):
        args = [sys.executable, "-c", _RUN_AND_LIST_MASKED_ARRAYS, command, "--config", str(config), "--out", str(out)]
        proc = subprocess.run(args, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, False], command


def _files(out):
    """Every file under out and every *.tmp entry, relative to out."""
    return sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file() or p.suffix == ".tmp")


def test_failed_command_removes_what_it_wrote(tmp_path, monkeypatch):
    import fairtune.cli as cli
    from fairtune.data import DataError

    config, out = load_synthetic_config(tmp_path)
    assert main(["prepare", "--config", str(config)]) == 0
    prepared = _files(out)

    def failing_json_text(payload):
        raise DataError("disk full")

    monkeypatch.setattr(cli, "_json_text", failing_json_text)
    assert main(["train-grid", "--config", str(config)]) == 3
    assert _files(out) == prepared


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    import fairtune.cli as cli
    from fairtune.data import DataError

    config, out = load_synthetic_config(tmp_path)

    def failing_write_dataset(data, path, meta=None):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("__row_id,__target,__sensitive,__split\n1,0,")
        raise DataError("disk full")

    monkeypatch.setattr(cli, "write_dataset", failing_write_dataset)
    assert main(["prepare", "--config", str(config)]) == 3
    assert _files(out) == []


def test_failed_prepare_removes_both_files_of_every_split(tmp_path, monkeypatch):
    import fairtune.cli as cli
    from fairtune.data import DataError

    config, out = load_synthetic_config(tmp_path)
    real = cli.write_dataset
    names = []

    def write_two_then_fail(data, path, meta=None):
        names.append(path.name)
        if len(names) == 3:
            raise DataError("disk full")
        real(data, path, meta=meta)

    monkeypatch.setattr(cli, "write_dataset", write_two_then_fail)
    assert main(["prepare", "--config", str(config)]) == 3
    assert names == ["train.csv", "validation.csv", "test.csv"]
    assert _files(out) == []


def test_failed_prepare_rerun_keeps_the_previous_run(tmp_path, monkeypatch):
    import fairtune.cli as cli
    from fairtune.data import DataError

    config, out = load_synthetic_config(tmp_path)
    assert main(["prepare", "--config", str(config)]) == 0
    before = {rel: (out / rel).read_bytes() for rel in _files(out)}
    assert sorted(before) == [
        *(f"datasets/{name}.{ext}" for name in ("test", "train", "validation") for ext in ("csv", "features.npy")),
        "standardizer.json",
    ]
    real = cli.write_dataset
    names = []

    def fail_on_the_second_split(data, path, meta=None):
        names.append(path.name)
        if len(names) == 2:
            raise DataError("disk full")
        real(data, path, meta=meta)

    monkeypatch.setattr(cli, "write_dataset", fail_on_the_second_split)
    # Another seed, so a file the failed run replaced could not match by chance.
    assert main(["prepare", "--config", str(config), "--seed", "2"]) == 3
    assert names == ["train.csv", "validation.csv"]
    assert {rel: (out / rel).read_bytes() for rel in _files(out)} == before


_TEST_PROCESS = os.getpid()


def _die_on_the_second_grid_point(ctx, hp):
    # A worker process only: the test process must survive to check the exit.
    if hp.learning_rate == 0.01 and os.getpid() != _TEST_PROCESS:
        os._exit(9)
    return _grid_point_predictions(ctx, hp)


def test_a_dead_worker_is_a_one_line_data_error(tmp_path, capsys, monkeypatch):
    import fairtune.labelling as labelling

    config, out = load_synthetic_config(tmp_path)
    assert main(["prepare", "--config", str(config)]) == 0
    prepared = _files(out)
    # Forked workers inherit the patch.
    monkeypatch.setattr(labelling, "_grid_point_predictions", _die_on_the_second_grid_point)
    assert main(["train-grid", "--config", str(config), "--jobs", "2"]) == 3
    assert capsys.readouterr().err == "data error: a worker process ended abruptly (killed, or out of memory?)\n"
    assert _files(out) == prepared


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_out_of_memory_is_a_one_line_data_error(tmp_path, capsys, jobs):
    # 10**13 hidden units at d=2 ask for a 218 TiB parameter vector, more
    # than a 64-bit address space maps, so numpy refuses it at once without
    # touching memory.
    grid = json.loads((CONFIGS / "synthetic.json").read_text())["labeller_grid"]
    grid[0]["hidden_units"] = 10**13
    config, out = load_synthetic_config(tmp_path, labeller_grid=grid)
    assert main(["prepare", "--config", str(config)]) == 0
    prepared = {rel: (out / rel).read_bytes() for rel in _files(out)}
    assert main(["train-grid", "--config", str(config), "--jobs", jobs]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: out of memory: Unable to allocate") and len(err.splitlines()) == 1
    assert {rel: (out / rel).read_bytes() for rel in _files(out)} == prepared


def test_run_freezes_the_import_heap_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(fairtune.cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(fairtune.cli, "main", lambda: calls.append("main") or 7)
    assert fairtune.cli.run() == 7
    assert calls == ["freeze", "main"]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_enabled", "gc_disabled"])
def test_main_leaves_the_garbage_collector_as_it_was(pipeline, capsys, enabled):
    _, out = pipeline
    frozen = gc.get_freeze_count()
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["report", str(out / "tuner_result.json")]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def test_both_process_entries_name_run():
    root = CONFIGS.parent
    cli_source = (root / "src" / "fairtune" / "cli.py").read_text(encoding="utf-8")
    assert cli_source.endswith('\nif __name__ == "__main__":\n    raise SystemExit(run())\n')
    scripts = (root / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]\n", 1)[1]
    assert scripts.split("\n", 1)[0] == 'fairtune = "fairtune.cli:run"'


def _drop_meta_line(key):
    def edit(path):
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(line for line in lines if not line.startswith(f"#{key}=")), encoding="utf-8")

    return edit


def _drop_json_key(key):
    def edit(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload[key]
        path.write_text(json.dumps(payload), encoding="utf-8")

    return edit


@pytest.mark.parametrize(
    "rel, edit, command",
    [
        ("datasets/validation.csv", _drop_meta_line("config_sha256"), "train-grid"),
        ("checkpoints/index.json", _drop_json_key("config_sha256"), "label"),
        ("labelled_validation.csv", _drop_meta_line("config_sha256"), "tune"),
    ],
    ids=["validation-csv", "index-json", "labelled-validation"],
)
def test_artifact_without_a_config_hash_is_refused(pipeline, tmp_path, capsys, rel, edit, command):
    config, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    edit(copy / rel)
    before = {p: (copy / p).read_bytes() for p in _files(copy)}
    assert main([command, "--config", str(config), "--out", str(copy)]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {copy / rel} records no config hash; re-run the pipeline\n"
    assert {p: (copy / p).read_bytes() for p in _files(copy)} == before


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
    from fairtune.labelling import labeller_predictions, select_labeller

    config, out = load_synthetic_config(tmp_path, labelling={"policy": policy})
    for command in ("prepare", "train-grid", "label"):
        assert main([command, "--config", str(config)]) == 0
    train = read_dataset(out / "datasets" / "train.csv")
    validation = read_dataset(out / "datasets" / "validation.csv")
    predictions, candidates = labeller_predictions(train, validation, load_config(config).labeller_grid)
    if policy == "final_epoch":
        keep = [i for i, (hp, epoch) in enumerate(candidates) if epoch == hp.epochs]
        predictions, candidates = predictions[keep], [candidates[i] for i in keep]
    expected = select_labeller(predictions, candidates, validation)
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


def _npz_bytes(array):
    buf = io.BytesIO()
    np.savez(buf, predictions=array)
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


def _fractional_epoch(text):
    payload = json.loads(text)
    payload["candidates"][1]["epoch"] = 2.7
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
        _damage_matrix(lambda raw, m: raw[: len(raw) // 2]),
        _damage_matrix(lambda raw, m: b""),
        _damage_matrix(lambda raw, m: b'{"x": 1}\n'),
        _damage_matrix(lambda raw, m: _npy_bytes(m.astype(np.float64))),
        _damage_matrix(lambda raw, m: _npy_bytes(m[:, :-1])),
        _damage_matrix(lambda raw, m: _npy_bytes(m[:-1])),
        _damage_matrix(lambda raw, m: _npy_bytes(m[0])),
        _damage_matrix(lambda raw, m: _npz_bytes(m)),
    ],
    ids=[
        "index-truncated", "index-empty", "index-no-candidates", "index-entry-missing-key",
        "index-entry-not-object", "index-not-object",
        "matrix-truncated", "matrix-empty", "matrix-not-npy", "matrix-float64",
        "matrix-short-rows", "matrix-missing-row", "matrix-1d", "npz-archive",
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


def test_label_names_the_dtype_a_prediction_matrix_holds(labeller_grid_run, tmp_path, capsys):
    config, out = labeller_grid_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    matrix = copy / "checkpoints" / "predictions.npy"
    shape = np.load(matrix).shape
    np.save(matrix, np.load(matrix).astype(np.float64))
    assert main(["label", "--config", str(config), "--out", str(copy)]) == 3
    assert capsys.readouterr().err == f"data error: {matrix}: holds float64 {shape}, expected int8 {shape}\n"


@pytest.mark.parametrize(
    "edit", [_shorten_index, _fractional_epoch], ids=["index-shorter-than-matrix", "index-epoch-fractional"]
)
def test_label_reads_index_json_for_its_hash_only(labeller_grid_run, tmp_path, edit):
    # index.json is the audit table of predictions.npy's rows; its hash says
    # they are the candidates of this config's labeller grid.
    config, out = labeller_grid_run
    outputs = []
    for name, damage in (("plain", None), ("edited", _damage_index(edit))):
        copy = tmp_path / name
        shutil.copytree(out, copy)
        if damage is not None:
            damage(copy / "checkpoints")
        assert main(["label", "--config", str(config), "--out", str(copy)]) == 0
        outputs.append([(copy / rel).read_bytes() for rel in ("labelled_validation.csv", "labelling.json")])
    assert outputs[0] == outputs[1]


def _cut_mid_row(text):
    return text[: len(text) // 2]


def _cut_at_line_end(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[: len(lines) // 2])


@pytest.mark.parametrize("cut", [_cut_mid_row, _cut_at_line_end])
@pytest.mark.parametrize(
    "command, path",
    [("label", "datasets/validation.csv"), ("tune", "labelled_validation.csv"), ("train-grid", "datasets/train.csv")],
)
def test_truncated_dataset_is_a_data_error(pipeline, tmp_path, capsys, command, path, cut):
    config, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    (copy / path).write_text(cut((copy / path).read_text()))
    assert main([command, "--config", str(config), "--out", str(copy)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1


def _damage_row(edit):
    def damage(text):
        lines = text.splitlines(keepends=True)
        lines[10] = edit(lines[10])
        return "".join(lines)

    return damage


def _swap_rows(text):
    lines = text.splitlines(keepends=True)
    lines[10], lines[11] = lines[11], lines[10]
    return "".join(lines)


def _blank_sensitive(text):
    return re.sub(r"^(\d+,[01]),[01],", r"\1,,", text, flags=re.M)


@pytest.mark.parametrize(
    "damage, message",
    [
        (_damage_row(lambda ln: "\n"), r":11: 0 fields, expected 4"),
        (_damage_row(lambda ln: ln[:-1] + ",\n"), r":11: 5 fields, expected 4"),
        (_damage_row(lambda ln: "x" + ln), r":11: invalid literal for int\(\)"),
        (_damage_row(lambda ln: ln.replace(",validation\n", ",test\n")), r": mixed split tags"),
        (_damage_row(lambda ln: ln.replace(",validation\n", ",,validation\n")), r":11: 5 fields, expected 4"),
        (lambda text: text + text.splitlines(keepends=True)[-1], r": 401 data rows, but the file records n_rows=400"),
        (lambda text: text.replace("#n_rows=", "#n_rows=1"), r": 400 data rows, but the file records n_rows=1400"),
        # The row-id check in `tune` is all that keeps pseudo labels aligned
        # with the validation rows they were computed for.
        (_swap_rows, r" does not label the rows of the validation split"),
        (_blank_sensitive, r" carries no pseudo labels"),
        (lambda text: re.sub(r"^(\d+,[01]),[01],", r"\1,,", text, count=1, flags=re.M), r": sensitive column is partially blank"),
        (lambda text: "".join(line for line in text.splitlines(keepends=True) if line.startswith("#")), r": empty dataset file"),
    ],
    ids=[
        "blank-line", "trailing-comma", "bad-row-id", "mixed-split", "shifted-cells", "duplicate-row", "bad-count",
        "reordered-rows", "no-pseudo", "partly-blank-pseudo", "only-comment-lines",
    ],
)
def test_tune_damaged_labelled_validation_is_a_data_error(pipeline, tmp_path, capsys, damage, message):
    config, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "labelled_validation.csv"
    text = path.read_text()
    damaged = damage(text)
    assert damaged != text
    path.write_text(damaged)
    assert main(["tune", "--config", str(config), "--out", str(copy)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1
    assert re.match(r"data error: \S*labelled_validation\.csv" + message, err)


def test_dataset_files_keep_the_layout_perfbench_reads(pipeline):
    # perfbench/run.py reads the sensitive column with line.split(",", 3) and
    # its micro-measures read the train split with fairtune.data.read_dataset.
    from fairtune.config import load_config
    from fairtune.data import apply_standardizer, fit_standardizer, generate_synthetic, read_dataset, split

    config, out = pipeline
    lines = (out / "datasets" / "validation.csv").read_text().splitlines(keepends=True)
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "__row_id,__target,__sensitive,__split\n"
    assert len(body) == 401
    for line in body[1:]:
        row_id, target, sensitive, tag = line.split(",", 3)
        assert int(row_id) >= 0 and target in ("0", "1") and sensitive in ("0", "1") and tag == "validation\n"
    cfg = load_config(config)
    train, _, _ = split(generate_synthetic(cfg.synthetic), cfg.split_fractions, cfg.split_seed)
    expected = apply_standardizer(fit_standardizer(train), train).features
    features = read_dataset(out / "datasets" / "train.csv").features
    np.testing.assert_array_equal(features.view(np.int64), expected.view(np.int64))


NOT_UTF8 = b"#config_sha256=\xff\xfe\n" + np.random.default_rng(0).bytes(256)


def _csv_dataset_config(tmp_path, csv_bytes, schema_bytes):
    (tmp_path / "raw.csv").write_bytes(csv_bytes)
    (tmp_path / "schema.json").write_bytes(schema_bytes)
    csv = {"path": str(tmp_path / "raw.csv"), "schema_path": str(tmp_path / "schema.json")}
    config, _ = load_synthetic_config(tmp_path, dataset={"kind": "csv", "csv": csv})
    return config


RAW_CSV = b"".join(b"%d,%s,%s\n" % (i, b"MF"[i % 2 : i % 2 + 1], b">50K" if i % 3 else b"<=50K") for i in range(40))
SCHEMA_JSON = json.dumps(
    {
        "feature_columns": [["age", "numeric"], ["sex", "categorical"]],
        "target_column": ["income", ">50K"],
        "sensitive_column": ["sex", "M"],
        "categorical_vocab": {"sex": ["F", "M"]},
    }
).encode()


def _non_utf8_config(tmp_path, pipeline):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"seed": 1, "output_dir": "\xe9"}')
    return config, "prepare", 2


def _non_utf8_schema(tmp_path, pipeline):
    return _csv_dataset_config(tmp_path, b"age,sex,income\n" + RAW_CSV, NOT_UTF8), "prepare", 2


def _non_utf8_raw_csv(tmp_path, pipeline):
    return _csv_dataset_config(tmp_path, b"age,sex,income\n" + RAW_CSV + NOT_UTF8, SCHEMA_JSON), "prepare", 3


def _non_utf8_output(rel, command):
    def setup(tmp_path, pipeline):
        config, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / rel).write_bytes(NOT_UTF8)
        config_copy = tmp_path / "config.json"
        config_copy.write_text(config.read_text().replace(str(out), str(copy)))
        return config_copy, command, 3

    return setup


@pytest.mark.parametrize(
    "setup",
    [
        _non_utf8_config,
        _non_utf8_schema,
        _non_utf8_raw_csv,
        _non_utf8_output("datasets/validation.csv", "label"),
        _non_utf8_output("labelled_validation.csv", "tune"),
    ],
    ids=["config", "schema-path", "raw-csv", "dataset-csv", "labelled-validation"],
)
def test_non_utf8_input_is_a_one_line_error(pipeline, tmp_path, capsys, setup):
    config, command, code = setup(tmp_path, pipeline)
    assert main([command, "--config", str(config)]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "data error: ")
    assert "not a UTF-8 text file" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "key, token",
    [("target_column", ["income", ">50K."]), ("sensitive_column", ["sex", "Male"])],
    ids=["target", "sensitive"],
)
def test_prepare_with_a_token_that_occurs_in_no_row_is_a_data_error(tmp_path, capsys, key, token):
    schema = json.loads(SCHEMA_JSON)
    schema[key] = token
    config = _csv_dataset_config(tmp_path, b"age,sex,income\n" + RAW_CSV, json.dumps(schema).encode())
    assert main(["prepare", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err == f"data error: {tmp_path / 'raw.csv'}: column {token[0]!r}: token {token[1]!r} occurs in no data row\n"


def _with_value(section, key, value):
    """A config edit that sets `key` of a section of the synthetic config to `value`."""

    def edit(raw):
        target = raw
        for name in section:
            target = target[name]
        target[key] = value

    return edit


def _with_seed(section, key="seed"):
    """A config edit that sets `key` of a section of the synthetic config to -3."""
    return _with_value(section, key, -3)


def _csv_section(**csv):
    """A config edit that makes the dataset a CSV one with these csv keys."""
    return _with_value((), "dataset", {"kind": "csv", "csv": {"path": "raw.csv", **csv}})


def _schema_with(key, value):
    """A config edit that declares SCHEMA_JSON's schema inline, with `key` set to `value`."""
    return _csv_section(schema={**json.loads(SCHEMA_JSON), key: value})


@pytest.mark.parametrize(
    "edit, args, field",
    [
        (_with_seed(()), (), "seed"),
        (None, ("--seed", "-5"), "seed"),
        (_with_seed(("split",)), (), "split.seed"),
        (_with_seed(("mc_noise",)), (), "mc_noise.seed"),
        (_with_seed(("dataset", "synthetic")), (), "dataset.synthetic.seed"),
        (_with_seed(("labeller_grid", 0)), (), "labeller_grid[0].seed"),
    ],
    ids=["master", "master-flag", "split", "mc-noise", "synthetic", "labeller-grid"],
)
def test_negative_seed_is_a_one_line_config_error(tmp_path, capsys, edit, args, field):
    raw = json.loads((CONFIGS / "synthetic.json").read_text())
    raw["output_dir"] = str(tmp_path / "out")
    if edit is not None:
        edit(raw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["prepare", "--config", str(config), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and ">= 0" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


BIN_CELL = "expected [lo, hi], two numbers"
OVERSIZED = f"must be <= {MAX_SIZE}, got {2**62}"
NAME_TOKEN = "expected [name, token], a list of two items"
BLOCK = ("dataset", "synthetic", "blocks", "y1_a1")


@pytest.mark.parametrize(
    "edit, message",
    [
        (_with_value(("mc_noise",), "grid", [["a", 0.1]]), "mc_noise.grid[0]: expected [alpha, beta], two numbers"),
        (_with_value(("mc_noise",), "grid", [[None, 0.1]]), "mc_noise.grid[0]: expected [alpha, beta], two numbers"),
        (_with_value(("mc_noise",), "grid", [[True, 0.1]]), "mc_noise.grid[0]: expected [alpha, beta], two numbers"),
        (_with_value(("mc_noise",), "n_samples", -5), "mc_noise.n_samples: must be >= 1, got -5"),
        (_with_value(("mc_noise",), "n_samples", 0), "mc_noise.n_samples: must be >= 1, got 0"),
        (_with_value(("labeller_grid", 0), "epochs", True), "labeller_grid[0].epochs: expected int, got bool"),
        (_with_value(("labeller_grid", 0), "learning_rate", True), "labeller_grid[0].learning_rate: expected float, got bool"),
        (_with_value(("jtt",), "t_grid", [1.7]), "jtt.t_grid[0]: expected int, got float"),
        (_with_value(("jtt",), "lambda_grid", [5, False]), "jtt.lambda_grid[1]: expected int, got bool"),
        (_with_value(("labeller_grid", 0), "learning_rate", float("nan")), "labeller_grid[0].learning_rate: must be finite, got nan"),
        (_with_value(("labeller_grid", 1), "learning_rate", float("inf")), "labeller_grid[1].learning_rate: must be finite, got inf"),
        (_with_value(("labeller_grid", 1), "weight_decay", float("inf")), "labeller_grid[1].weight_decay: must be finite, got inf"),
        (_with_value(("jtt",), "accuracy_bins", [[False, True]]), f"jtt.accuracy_bins[0]: {BIN_CELL}"),
        (_with_value(("jtt",), "accuracy_bins", [[0.8, 0.85, 0.9]]), f"jtt.accuracy_bins[0]: {BIN_CELL}"),
        (_with_value(("jtt",), "accuracy_bins", [[0.8, "x"]]), f"jtt.accuracy_bins[0]: {BIN_CELL}"),
        (_with_value(("jtt",), "accuracy_bins", [0.8]), f"jtt.accuracy_bins[0]: {BIN_CELL}"),
        (_with_value(("jtt",), "accuracy_bins", [[0.8, 0.85], [0.8]]), f"jtt.accuracy_bins[1]: {BIN_CELL}"),
        (_with_value(BLOCK, "count", 900.7), "dataset.synthetic.blocks.y1_a1.count: expected int, got float"),
        (_with_value(BLOCK, "count", True), "dataset.synthetic.blocks.y1_a1.count: expected int, got bool"),
        (_with_value(BLOCK, "var", ["1.0", 1.0]), "dataset.synthetic.blocks.y1_a1.var[0]: expected float, got str"),
        (_with_value(BLOCK, "mean", [True, 0.0]), "dataset.synthetic.blocks.y1_a1.mean[0]: expected float, got bool"),
        (_with_value(BLOCK, "mean", [float("nan"), 0.0]), "dataset.synthetic.blocks.y1_a1.mean[0]: must be finite, got nan"),
        (_with_value(("dataset", "synthetic"), "seed", "7"), "dataset.synthetic.seed: expected int, got str"),
        (_with_value((), "seed", 1.5), "seed: expected int, got float"),
        (_with_value(("labeller_grid", 0), "epoch", 5), "labeller_grid[0].epoch: unknown key"),
        (_with_value((), "sed", 7), "sed: unknown key"),
        (_with_value(("dataset",), "knd", "csv"), "dataset.knd: unknown key"),
        (_with_value(("dataset", "synthetic"), "sed", 7), "dataset.synthetic.sed: unknown key"),
        (_with_value((), "dataset", {"kind": "csv", "csv": {"path": "raw.csv", "schema_pth": "schema.json"}}), "dataset.csv.schema_pth: unknown key"),
        (_with_value((), "dataset", {"kind": "csv", "csv": {"path": "raw.csv", "schema": {"sensitive_colum": ["sex", "M"]}}}), "dataset.csv.schema.sensitive_colum: unknown key"),
        (_with_value(("split",), "sed", 7), "split.sed: unknown key"),
        (_with_value(("labelling",), "polcy", "final_epoch"), "labelling.polcy: unknown key"),
        (_with_value(("jtt",), "sensitive_sorce", "ground_truth"), "jtt.sensitive_sorce: unknown key"),
        (_with_value(("mc_noise",), "n_sample", 50), "mc_noise.n_sample: unknown key"),
        (_with_value(("split",), "fractions", [0.6, 0.2, 0.1]), "split.fractions: must sum to 1, got 0.9"),
        (_with_value(("mc_noise",), "grid", [[0.2, 1.5]]), "mc_noise.grid[0].beta: must lie in [0, 1], got 1.5"),
        # Past MAX_SIZE numpy's size arithmetic could overflow np.intp, and its
        # ValueError would end the command in a traceback.
        (_with_value(("labeller_grid", 0), "hidden_units", 2**62), f"labeller_grid[0].hidden_units: {OVERSIZED}"),
        (_with_value(("labeller_grid", 0), "hidden_units", MAX_SIZE + 1), f"labeller_grid[0].hidden_units: must be <= {MAX_SIZE}, got {MAX_SIZE + 1}"),
        (_with_value(BLOCK, "count", 2**62), f"dataset.synthetic.blocks.y1_a1.count: {OVERSIZED}"),
        (_with_value(("mc_noise",), "n_samples", 2**62), f"mc_noise.n_samples: {OVERSIZED}"),
        (_with_value(("jtt",), "lambda_grid", [5, 2**62]), f"jtt.lambda_grid[1]: {OVERSIZED}"),
        (_with_value((), "split", []), "split: expected dict, got list"),
        (_with_value((), "labeller_grid", []), "labeller_grid: expected a nonempty list of hyper-parameter objects"),
        (_with_value((), "labeller_grid", [0.1]), "labeller_grid[0]: expected an object"),
        (_with_value(("dataset",), "kind", "parquet"), "dataset.kind: expected 'synthetic' or 'csv', got 'parquet'"),
        (_with_value(("labelling",), "policy", "best"), "labelling.policy: expected one of ('every_epoch', 'final_epoch'), got 'best'"),
        (_csv_section(schema={}, schema_path="schema.json"), "dataset.csv: exactly one of 'schema' and 'schema_path' is required"),
        (_csv_section(), "dataset.csv: exactly one of 'schema' and 'schema_path' is required"),
        (_csv_section(schema=[]), "dataset.csv.schema: expected dict, got list"),
        (_csv_section(schema={"target_column": ["income", ">50K"]}), "dataset.csv.schema.feature_columns: missing required key"),
        # Each schema entry below once parsed, sliced: "income" as the column
        # 'i' with the token 'n', "FM" as the categories 'F' and 'M'.
        (_schema_with("target_column", "income"), f"dataset.csv.schema.target_column: {NAME_TOKEN}"),
        (_schema_with("sensitive_column", "sex"), f"dataset.csv.schema.sensitive_column: {NAME_TOKEN}"),
        (
            _schema_with("feature_columns", [["age", "numeric", "categorical"]]),
            "dataset.csv.schema.feature_columns[0]: expected [name, kind], a list of two items",
        ),
        (_schema_with("target_column", ["income", ">50K", "<=50K"]), f"dataset.csv.schema.target_column: {NAME_TOKEN}"),
        (_schema_with("categorical_vocab", {"sex": "FM"}), "dataset.csv.schema.categorical_vocab: expected an object of category lists"),
        (_schema_with("feature_columns", 5), "dataset.csv.schema.feature_columns: expected a nonempty list of [name, kind] pairs"),
    ],
    ids=[
        "grid-text",
        "grid-null",
        "grid-bool",
        "n-samples-negative",
        "n-samples-zero",
        "epochs-bool",
        "learning-rate-bool",
        "t-grid-float",
        "lambda-grid-bool",
        "learning-rate-nan",
        "learning-rate-inf",
        "weight-decay-inf",
        "bins-bool",
        "bins-three-numbers",
        "bins-text",
        "bins-cell-not-a-list",
        "bins-one-number",
        "block-count-non-integral",
        "block-count-bool",
        "block-var-text",
        "block-mean-bool",
        "block-mean-nan",
        "synthetic-seed-text",
        "master-seed-non-integral",
        "grid-point-unknown-key",
        "root-unknown-key",
        "dataset-unknown-key",
        "synthetic-unknown-key",
        "csv-unknown-key",
        "csv-schema-unknown-key",
        "split-unknown-key",
        "labelling-unknown-key",
        "jtt-unknown-key",
        "mc-noise-unknown-key",
        "split-fractions-sum",
        "grid-rate-above-one",
        "hidden-units-2**62",
        "hidden-units-above-max",
        "block-count-2**62",
        "n-samples-2**62",
        "lambda-grid-2**62",
        "section-list",
        "empty-grid",
        "grid-point-number",
        "unknown-kind",
        "unknown-policy",
        "schema-and-path",
        "neither-schema",
        "schema-list",
        "schema-missing-key",
        "schema-target-text",
        "schema-sensitive-text",
        "schema-column-three-items",
        "schema-target-three-items",
        "schema-vocabulary-text",
        "schema-columns-number",
    ],
)
def test_malformed_config_number_is_a_one_line_config_error(tmp_path, capsys, edit, message):
    raw = json.loads((CONFIGS / "synthetic.json").read_text())
    raw["output_dir"] = str(tmp_path / "out")
    edit(raw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    assert main(["prepare", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_largest_config_sizes_are_accepted(tmp_path):
    raw = json.loads((CONFIGS / "synthetic.json").read_text())
    raw["labeller_grid"][0]["hidden_units"] = raw["mc_noise"]["n_samples"] = MAX_SIZE
    raw["dataset"]["synthetic"]["blocks"]["y1_a1"]["count"] = MAX_SIZE
    raw["jtt"]["lambda_grid"] = [MAX_SIZE]
    config = parse_config(raw)
    assert config.labeller_grid[0].hidden_units == config.mc_noise.n_samples == MAX_SIZE
    assert config.synthetic.blocks[(1, 1)].count == config.jtt.lambda_grid[0] == MAX_SIZE


def test_config_path_naming_a_directory_is_a_config_error(capsys):
    assert main(["prepare", "--config", str(CONFIGS)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {CONFIGS}: cannot read") and len(err.splitlines()) == 1


def test_report_of_a_directory_is_a_data_error(capsys):
    assert main(["report", str(CONFIGS)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1


def test_out_naming_a_file_is_a_data_error(tmp_path, capsys):
    config, _ = load_synthetic_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    assert main(["prepare", "--config", str(config), "--out", str(taken)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("token", [b"nan", b"inf", b"-inf"])
def test_non_finite_csv_cell_is_a_one_line_data_error(tmp_path, capsys, token):
    rows = RAW_CSV.splitlines(keepends=True)
    rows[7] = token + rows[7][rows[7].index(b",") :]
    config = _csv_dataset_config(tmp_path, b"age,sex,income\n" + b"".join(rows), SCHEMA_JSON)
    assert main(["prepare", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and len(err.splitlines()) == 1
    assert f"data row 7, column 'age': non-finite numeric value {token.decode()!r}" in err


def test_oversized_csv_field_is_a_one_line_data_error(tmp_path, capsys):
    rows = RAW_CSV.splitlines(keepends=True)
    rows[3] = b"1" * 131_073 + rows[3][rows[3].index(b",") :]
    config = _csv_dataset_config(tmp_path, b"age,sex,income\n" + b"".join(rows), SCHEMA_JSON)
    assert main(["prepare", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"data error: \S*raw\.csv:5: field larger than field limit \(131072\)\n", err)


def test_mc_sweep_on_coincident_group_means_is_a_one_line_data_error(tmp_path, capsys):
    # The only feature is constant, so it standardizes to 0 in both groups
    # and the clean group means coincide.
    rows = b"".join(b"5,%s,%s\n" % (b"MF"[i % 2 : i % 2 + 1], b">50K" if i % 3 else b"<=50K") for i in range(40))
    schema = json.dumps({"feature_columns": [["age", "numeric"]], "target_column": ["income", ">50K"], "sensitive_column": ["sex", "M"]})
    config = _csv_dataset_config(tmp_path, b"age,sex,income\n" + rows, schema.encode())
    assert main(["prepare", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["mc-sweep", "--config", str(config)]) == 3
    err = capsys.readouterr().err
    assert err == "data error: clean group means coincide; the EDM ratio is undefined\n"


def _edited_config(tmp_path, edit):
    """The synthetic config, edited by edit(raw), written to tmp_path."""
    raw = json.loads((CONFIGS / "synthetic.json").read_text())
    raw["output_dir"] = str(tmp_path / "out")
    edit(raw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    return config


def test_config_files_that_cannot_hold_a_config_are_one_line_config_errors(tmp_path, capsys):
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    missing_schema = _edited_config(tmp_path, _csv_section(schema_path="absent.json"))
    for config, message in (
        (listed, "configuration root must be an object"),
        (tmp_path / "absent.json", f"config file not found: {tmp_path / 'absent.json'}"),
        (missing_schema, f"dataset.csv.schema_path: no such file: {tmp_path / 'absent.json'}"),
    ):
        assert main(["prepare", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "command, section", [("mc-sweep", "mc_noise"), ("tune", "jtt")], ids=["mc-sweep", "tune"]
)
def test_command_without_its_section_is_a_one_line_config_error(tmp_path, capsys, command, section):
    config = _edited_config(tmp_path, lambda raw: raw.pop(section))
    assert main([command, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"config error: {section}: section required for {command}\n"


def test_report_of_a_missing_file_is_a_data_error(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.json")]) == 3
    assert capsys.readouterr().err == f"data error: no such result file: {tmp_path / 'absent.json'}\n"


@pytest.mark.parametrize(
    "source, commands, message",
    [
        ("ground_truth", ("prepare",), "validation set has no ground-truth sensitive attributes"),
        ("pseudo", ("prepare", "train-grid", "label"), "test set has no ground-truth sensitive attributes"),
    ],
    ids=["ground-truth", "pseudo"],
)
def test_tune_on_data_without_sensitive_groups_is_a_data_error(tmp_path, capsys, source, commands, message):
    # Income follows age with noise, so the labellers err on both classes.
    rng = np.random.default_rng(0)
    ages = rng.integers(17, 91, 400)
    rich = ages + rng.normal(0, 15, 400) > 50
    rows = (b"%d,%s,%s\n" % (a, b"MF"[i % 2 : i % 2 + 1], b">50K" if r else b"<=50K") for i, (a, r) in enumerate(zip(ages, rich)))
    (tmp_path / "raw.csv").write_bytes(b"age,sex,income\n" + b"".join(rows))
    schema = json.loads(SCHEMA_JSON)
    del schema["sensitive_column"]
    (tmp_path / "schema.json").write_text(json.dumps(schema))

    def edit(raw):
        raw["dataset"] = {"kind": "csv", "csv": {"path": "raw.csv", "schema_path": "schema.json"}}
        raw["jtt"]["sensitive_source"] = source

    config = _edited_config(tmp_path, edit)
    for command in commands:
        assert main([command, "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["tune", "--config", str(config)]) == 3
    assert capsys.readouterr().err == f"data error: {message}\n"


def _cli_process(*args):
    """`python -W error -m fairtune.cli ARGS`: a numpy warning would end it
    in a traceback."""
    src = str(Path(fairtune.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    command = [sys.executable, "-W", "error", "-m", "fairtune.cli", *args]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)


def test_a_diverging_stage2_point_is_a_one_line_data_error(tmp_path):
    config = _edited_config(tmp_path, _with_value(("jtt", "stage2_grid", 0), "learning_rate", 1e300))
    for command in ("prepare", "train-grid", "label"):
        assert main([command, "--config", str(config)]) == 0
    proc = _cli_process("tune", "--config", str(config))
    assert proc.returncode == 3
    assert re.fullmatch(r"data error: training diverged: non-finite parameters at epoch 0, batch \d+\n", proc.stderr)


@pytest.mark.parametrize("hidden", [0, 8])
def test_a_huge_finite_labeller_scores_without_warnings(tmp_path, hidden):
    # One step of 1.79e308 times a finite gradient stays finite, and scoring
    # those parameters overflows.
    point = {"learning_rate": 1.79e308, "epochs": 1, "batch_size": 4096, "hidden_units": hidden}
    config = _edited_config(tmp_path, lambda raw: raw["labeller_grid"].insert(0, point))
    assert main(["prepare", "--config", str(config)]) == 0
    proc = _cli_process("train-grid", "--config", str(config))
    assert (proc.returncode, proc.stderr) == (0, "")
