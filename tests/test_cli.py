import ast
import copy
import gc
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fairtune.cli
from fairtune.cli import main, render_table
from fairtune.config import parse_config
from fairtune.data import MAX_SIZE
from fairtune.metrics import report_from_counts
from fairtune.training import HyperParams
from fairtune.tuning import ERM_BASELINE_BIN, CandidateRef, TunerResult, _evaluate_task

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


# The files each command writes, besides its manifest, in sorted order.
OUTPUTS = {
    "prepare": [f"datasets/{name}.{ext}" for name in ("test", "train", "validation") for ext in ("csv", "features.npy")],
    "train-grid": ["checkpoints/predictions.npy"],
    "label": ["labelled_validation.csv", "labelling.json"],
    "mc-sweep": ["mc_sweep.csv"],
    "tune": ["tuner_result.json"],
}


def test_pipeline_artifacts_exist(pipeline):
    # Each manifest lists exactly its command's files, and every file under
    # the output directory is a manifest or listed by exactly one.
    _, out = pipeline
    for command, files in OUTPUTS.items():
        assert sorted(json.loads((out / "manifests" / f"{command}.json").read_text())["files"]) == files, command
    manifests = [f"manifests/{command}.json" for command in OUTPUTS]
    assert _files(out) == sorted([*manifests, *(rel for files in OUTPUTS.values() for rel in files)])


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
    # One manifest per command holds the config hash, the tool version and
    # the sha256 of each file the command wrote; no output holds either.
    from fairtune.config import load_config

    config, out = pipeline
    for command in OUTPUTS:
        text = (out / "manifests" / f"{command}.json").read_text()
        manifest = json.loads(text)
        assert text == json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        assert manifest["config_sha256"] == load_config(config).canonical_hash()
        assert manifest["tool_version"] == fairtune.__version__
        for rel, digest in manifest["files"].items():
            content = (out / rel).read_bytes()
            assert hashlib.sha256(content).hexdigest() == digest, rel
            assert b"config_sha256" not in content and b"tool_version" not in content, rel


def _vouch_for(out, producer):
    """Record the current bytes of `producer`'s files in its manifest, as if
    `producer` had written them, so that only the reader's own checks can
    refuse an edited file."""
    path = out / "manifests" / f"{producer}.json"
    manifest = json.loads(path.read_text())
    manifest["files"] = {rel: hashlib.sha256((out / rel).read_bytes()).hexdigest() for rel in manifest["files"]}
    path.write_text(json.dumps(manifest))


def _digest_error(out, rel, producer):
    """The line of a file whose bytes differ from what its producer's manifest records."""
    manifest = out / "manifests" / f"{producer}.json"
    return (
        f"data error: {out / rel}: differs from the sha256 {manifest} records "
        f"(edited, cut or from another run?); re-run '{producer}'\n"
    )


def test_rerun_is_byte_identical(pipeline, tmp_path):
    config, out = pipeline
    before = (out / "labelled_validation.csv").read_bytes()
    assert main(["label", "--config", str(config)]) == 0
    assert (out / "labelled_validation.csv").read_bytes() == before
    before_tune = (out / "tuner_result.json").read_bytes()
    assert main(["tune", "--config", str(config)]) == 0
    assert (out / "tuner_result.json").read_bytes() == before_tune


def test_report_table(pipeline, capsys):
    _, out = pipeline
    result_file = out / "tuner_result.json"
    assert main(["report", str(result_file)]) == 0
    table = capsys.readouterr().out
    assert "objective: dp_gap" in table
    assert "[82.5,85.0)" in table
    assert "unconstrained" in table



def report_exit_and_stderr(path, capsys):
    code = main(["report", str(path)])
    return code, capsys.readouterr().err


def _tuned_copy(pipeline, tmp_path):
    """The path of a copy of tuner_result.json, next to a copy of the
    manifest `tune` wrote with it."""
    _, out = pipeline
    copy = tmp_path / "out"
    (copy / "manifests").mkdir(parents=True)
    for rel in ("tuner_result.json", "manifests/tune.json"):
        shutil.copyfile(out / rel, copy / rel)
    return copy / "tuner_result.json"


def _damaged_copy(pipeline, tmp_path, damage):
    """_tuned_copy's result file, rewritten after damage(its "result")."""
    path = _tuned_copy(pipeline, tmp_path)
    payload = json.loads(path.read_text())
    damage(payload["result"])
    path.write_text(json.dumps(payload))
    return path


def test_report_truncated_result_is_a_data_error(pipeline, tmp_path, capsys):
    path = _tuned_copy(pipeline, tmp_path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    assert report_exit_and_stderr(path, capsys) == (3, _digest_error(path.parent, path.name, "tune"))


@pytest.mark.parametrize("field", ["epoch", "t", "lambda"])
def test_report_fractional_winner_integer_is_a_data_error(pipeline, tmp_path, capsys, field):
    path = _damaged_copy(pipeline, tmp_path, _fractional(field))
    assert report_exit_and_stderr(path, capsys) == (3, _digest_error(path.parent, path.name, "tune"))


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
    _won(result)["validation"] = report_from_counts(counts, require=()).to_dict()
    _move_won_bin(result, [0.8, 0.825])


def _fractional(field):
    def damage(result):
        winner = next(b["winner"] for b in result["bins"] if b["winner"] and b["winner"]["t"] is not None)
        winner[field] = winner[field] + 0.7

    return damage


# Results no tuner writes: `report` refuses each by the manifest's digest, and
# those in PARSE_FAULTS are also what TunerResult.from_dict cannot parse.
RESULT_DAMAGES = {
    "unknown_objective": lambda r: r.update(objective="foo"),
    "unknown_source": lambda r: r.update(sensitive_source="foo"),
    "empty_bins": lambda r: r.update(bins=[]),
    "mismatched_erm_bin": lambda r: r["erm_bins"][0].update(bin=[0.0, 0.5]),
    "unknown_subgroup": lambda r: _won(r)["validation"]["subgroup_accuracy"].update(y9_a9=0.5),
    "accuracy_above_one": lambda r: _won(r)["test"].update(avg_accuracy=7.5),
    "accuracy_as_text": lambda r: _won(r)["test"].update(avg_accuracy="0.5"),
    "gap_above_one": lambda r: _won(r)["validation"].update(dp_gap=2.0),
    "negative_count": lambda r: _won(r)["test"]["subgroup_counts"].update(y0_a0=-3),
    "validation_report_source": lambda r: _won(r)["validation"].update(sensitive_source="pseudo"),
    "unknown_kind": lambda r: _won(r)["winner"].update(kind="bogus"),
    "jtt_without_t": lambda r: _won(r)["winner"].update(t=None),
    "erm_with_t": lambda r: r["erm_baseline"]["winner"].update(t=1),
    "text_plain_fallback": lambda r: _won(r)["winner"].update(plain_fallback="no"),
    "epoch_beyond_stage2": lambda r: _won(r)["winner"].update(epoch=99),
    "text_grid_point": lambda r: _won(r)["winner"].update(stage2="abc"),
    "inverted_bin": lambda r: [b.update(bin=[0.9, 0.1]) for b in (r["bins"][0], r["erm_bins"][0])],
    "winner_without_reports": lambda r: _won(r).update(validation=None, test=None),
    "erm_winner_in_jtt_bin": _erm_winner_in_its_jtt_bin,
    "report_without_counts": lambda r: _won(r)["test"].pop("subgroup_counts"),
    "winner_without_plain_fallback": lambda r: _won(r)["winner"].pop("plain_fallback"),
    "extra_top_level_key": lambda r: r.update(extra=1),
    "test_report_source": lambda r: _won(r)["test"].update(sensitive_source="ground_truth"),
    "reports_without_winner": lambda r: _won(r).update(winner=None),
    "winner_outside_its_bin": lambda r: _move_won_bin(r, [0.1, 0.2]),
    "validation_objective_null": lambda r: _won(r)["validation"].update(dp_gap=None),
    "test_gap_changed": lambda r: _won(r)["test"].update(dp_gap=0.01234),
    "winner_without_objective": _won_on_one_group,
    "moved_baseline_bin": lambda r: r["erm_baseline"].update(bin=[0.0, 0.9]),
    "erm_plain_fallback": lambda r: r["erm_baseline"]["winner"].update(plain_fallback=True),
    "overlapping_bins": lambda r: [b.update(bin=[0.8, 0.86]) for b in (r["bins"][0], r["erm_bins"][0])],
    "baseline_without_winner": lambda r: r["erm_baseline"].update(winner=None, validation=None, test=None),
    "null_baseline": lambda r: r.update(erm_baseline=None),
    "extra_winner_key": lambda r: _won(r)["winner"].update(extra=1),
}


@pytest.mark.parametrize("damage", RESULT_DAMAGES.values(), ids=RESULT_DAMAGES.keys())
def test_report_inconsistent_result_is_a_data_error(pipeline, tmp_path, capsys, damage):
    path = _damaged_copy(pipeline, tmp_path, damage)
    assert report_exit_and_stderr(path, capsys) == (3, _digest_error(path.parent, path.name, "tune"))


PARSE_FAULTS = {
    "unknown_objective": "objective: must be one of",
    "unknown_source": "sensitive_source: must be",
    "unknown_subgroup": "subgroup_accuracy.y9_a9: unknown key",
    "accuracy_as_text": "avg_accuracy: expected float, got str",
    "negative_count": "subgroup_counts.y0_a0: must be >= 1, got -3",
    "validation_report_source": "sensitive_source: unknown key",
    "unknown_kind": "kind: must be 'jtt' or 'erm', got 'bogus'",
    "jtt_without_t": "a 'jtt' candidate sets all three",
    "erm_with_t": "an 'erm' one none",
    "text_plain_fallback": "plain_fallback: expected bool, got str",
    "epoch_beyond_stage2": "epoch: stage 2 trains",
    "text_grid_point": "grid point: expected an object, got str",
    "report_without_counts": "subgroup_counts: missing required key",
    "winner_without_plain_fallback": "plain_fallback: missing required key",
    "extra_winner_key": "extra: unknown key",
    "extra_top_level_key": "extra: unknown key",
    "test_report_source": "sensitive_source: unknown key",
    "erm_plain_fallback": "an 'erm' candidate has no stage 1",
    "null_baseline": "'NoneType' object is not iterable",
}


# Faults inside an outcome, which the message names by their place in the result.
PLACED_FAULTS = {
    "text_accuracy_in_bin_0": (
        lambda r: r["bins"][0].update(test={**r["erm_baseline"]["test"], "avg_accuracy": "0.5"}),
        "bins[0].test.avg_accuracy: expected float, got str",
    ),
    "short_erm_bin_2": (lambda r: r["erm_bins"][2].update(bin=[0.1]), "erm_bins[2].bin: expected [lo, hi], two numbers"),
    "unknown_baseline_kind": (
        lambda r: r["erm_baseline"]["winner"].update(kind="bogus"),
        "erm_baseline.winner.kind: must be 'jtt' or 'erm', got 'bogus'",
    ),
}


@pytest.mark.parametrize(
    "damage, message",
    [(RESULT_DAMAGES[name], message) for name, message in PARSE_FAULTS.items()]
    + [(_fractional(field), f"{field}: expected int, got float") for field in ("epoch", "t", "lambda")]
    + list(PLACED_FAULTS.values()),
    ids=[*PARSE_FAULTS, "fractional_epoch", "fractional_t", "fractional_lambda", *PLACED_FAULTS],
)
def test_result_from_dict_names_what_it_cannot_parse(pipeline, damage, message):
    _, out = pipeline
    stored = json.loads((out / "tuner_result.json").read_text())["result"]
    damage(stored)
    with pytest.raises((ValueError, KeyError, TypeError)) as exc:
        TunerResult.from_dict(stored)
    assert message in str(exc.value)


def test_report_wrong_schema_result_is_a_data_error(pipeline, tmp_path, capsys):
    # A result the manifest vouches for, which still does not parse.
    path = _tuned_copy(pipeline, tmp_path)
    path.write_text(json.dumps({"result": {}}))
    _vouch_for(path.parent, "tune")
    code, err = report_exit_and_stderr(path, capsys)
    assert (code, err) == (3, f"data error: malformed result file {path}: ValueError: objective: missing required key\n")


def test_render_table_one_row_per_bin():
    # The validation counts give the (85.0, 5.0) cell: 40 rows, 34 correct,
    # and 10 of 20 against 9 of 20 positive predictions by group.
    validation = report_from_counts(np.array([[[8, 2], [9, 0]], [[3, 7], [1, 10]]]), require=())
    test = report_from_counts(np.array([[[9, 1], [9, 1]], [[2, 8], [0, 10]]]), require=())
    winner = CandidateRef(
        kind="jtt", stage2=HyperParams(learning_rate=0.1, epochs=3), epoch=3,
        stage1=HyperParams(learning_rate=0.1), t=1, lam=2,
    )
    # The plain baseline scores 36 of 40 validation rows: the (90.0, 10.0) cell.
    baseline = {
        "bin": list(ERM_BASELINE_BIN),
        "winner": CandidateRef(kind="erm", stage2=HyperParams(learning_rate=0.1, epochs=3), epoch=2).to_dict(),
        "validation": report_from_counts(np.array([[[9, 1], [9, 1]], [[2, 8], [0, 10]]]), require=()).to_dict(),
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
    # Every leaf of a stored result in turn (every key, for a deletion), in a
    # file the manifest vouches for: `report` accepts the file or rejects it
    # in one line, never raising.
    path = _tuned_copy(pipeline, tmp_path)
    text = path.read_text()
    stored = json.loads(text)["result"]
    paths = list(_key_paths(stored) if replacement is _DELETE else _leaf_paths(stored))
    assert len(paths) > 100
    for leaf in paths:
        payload = json.loads(text)
        node = payload["result"]
        for key in leaf[:-1]:
            node = node[key]
        if replacement is _DELETE:
            del node[leaf[-1]]
        else:
            node[leaf[-1]] = replacement
        path.write_text(json.dumps(payload))
        _vouch_for(path.parent, "tune")
        code = main(["report", str(path)])
        captured = capsys.readouterr()
        assert (code, len(captured.err.splitlines())) in ((0, 0), (3, 1)), (leaf, captured.err)


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
    # fully separated blobs and a strong labeller: every candidate, from the
    # first epoch on, classifies the validation split perfectly, so no class
    # has an incorrect set
    for block in raw["dataset"]["synthetic"]["blocks"].values():
        block["var"] = [0.01, 0.01]
    raw["dataset"]["synthetic"]["blocks"]["y1_a0"]["mean"] = [8.0, 0.0]
    raw["dataset"]["synthetic"]["blocks"]["y1_a1"]["mean"] = [8.0, 0.5]
    raw["dataset"]["synthetic"]["blocks"]["y0_a0"]["mean"] = [-8.0, 0.0]
    raw["dataset"]["synthetic"]["blocks"]["y0_a1"]["mean"] = [-8.0, 0.5]
    raw["labeller_grid"] = [{"learning_rate": 0.5, "epochs": 10, "batch_size": 64}]
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
    # Every output and every manifest.
    config, _ = load_synthetic_config(tmp_path)
    outs = {}
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}"
        for command in ("prepare", "train-grid", "label", "mc-sweep", "tune"):
            assert main([command, "--config", str(config), "--out", str(out), "--jobs", jobs]) == 0
        outs[jobs] = {rel: (out / rel).read_bytes() for rel in _files(out)}
    assert len([rel for rel in outs["1"] if rel.startswith("manifests/")]) == 5
    assert outs["1"] == outs["2"] == outs["3"]


def test_train_grid_parallel_matches_sequential(tmp_path):
    config, _ = load_synthetic_config(tmp_path)
    outs = [tmp_path / "seq", tmp_path / "par"]
    for out, jobs in zip(outs, ("1", "2")):
        assert main(["prepare", "--config", str(config), "--out", str(out)]) == 0
        assert main(["train-grid", "--config", str(config), "--out", str(out), "--jobs", jobs]) == 0
    assert [p.name for p in (outs[0] / "checkpoints").iterdir()] == ["predictions.npy"]
    assert (outs[0] / "checkpoints" / "predictions.npy").read_bytes() == (outs[1] / "checkpoints" / "predictions.npy").read_bytes()


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

    def failing_write_dataset(data, path):
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

    def write_two_then_fail(data, path):
        names.append(path.name)
        if len(names) == 3:
            raise DataError("disk full")
        real(data, path)

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
    assert sorted(before) == [*OUTPUTS["prepare"], "manifests/prepare.json"]
    real = cli.write_dataset
    names = []

    def fail_on_the_second_split(data, path):
        names.append(path.name)
        if len(names) == 2:
            raise DataError("disk full")
        real(data, path)

    monkeypatch.setattr(cli, "write_dataset", fail_on_the_second_split)
    # Another seed, so a file the failed run replaced could not match by chance.
    assert main(["prepare", "--config", str(config), "--seed", "2"]) == 3
    assert names == ["train.csv", "validation.csv"]
    assert {rel: (out / rel).read_bytes() for rel in _files(out)} == before


def test_a_failure_while_the_manifest_is_written_keeps_the_previous_run(tmp_path, monkeypatch, capsys):
    import fairtune.cli as cli

    config, out = load_synthetic_config(tmp_path)
    assert main(["prepare", "--config", str(config)]) == 0
    before = {rel: (out / rel).read_bytes() for rel in _files(out)}
    capsys.readouterr()

    def unreadable(path):
        raise OSError(5, "Input/output error", str(path))

    monkeypatch.setattr(cli, "file_digest", unreadable)
    assert main(["prepare", "--config", str(config), "--seed", "2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: [Errno 5] Input/output error: ") and len(err.splitlines()) == 1
    assert {rel: (out / rel).read_bytes() for rel in _files(out)} == before


_TEST_PROCESS = os.getpid()
# The commands that must have run before a training command.
COMMANDS_BEFORE = {"train-grid": ("prepare",), "tune": ("prepare", "train-grid", "label")}


def _die_on_some_tasks(ctx, task):
    # The second labeller point's run and the lambda-20 runs of `tune`, in a
    # worker process only: the test process must survive to check the exit.
    if (task.stage2.learning_rate == 0.01 or task.lam == 20) and os.getpid() != _TEST_PROCESS:
        os._exit(9)
    return _evaluate_task(ctx, task)


@pytest.mark.parametrize("command", ["train-grid", "tune"])
def test_a_dead_worker_is_a_one_line_data_error(tmp_path, capsys, monkeypatch, command):
    import fairtune.tuning as tuning

    config, out = load_synthetic_config(tmp_path)
    for before in COMMANDS_BEFORE[command]:
        assert main([before, "--config", str(config)]) == 0
    kept = _files(out)
    capsys.readouterr()
    # Forked workers inherit the patch.
    monkeypatch.setattr(tuning, "_evaluate_task", _die_on_some_tasks)
    assert main([command, "--config", str(config), "--jobs", "2"]) == 3
    assert capsys.readouterr().err == "data error: a worker process ended abruptly (killed, or out of memory?)\n"
    assert _files(out) == kept


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


class _Stream(io.StringIO):
    """A standard stream whose flushes are logged, and fail if asked to."""

    def __init__(self, calls, name, fails=False):
        super().__init__()
        self.calls, self.name, self.fails = calls, name, fails

    def flush(self):
        self.calls.append(f"flush {self.name}")
        if self.fails:
            raise OSError(28, "No space left on device")


def _run_in_process(monkeypatch, code, observed=False, stdout_fails=False):
    """fairtune.cli.run() around a main() that returns `code`: the calls it
    made, in order, what it wrote to stderr and what it returned."""
    calls = []
    monkeypatch.setattr(fairtune.cli.gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(fairtune.cli.gc, "enable", lambda: calls.append("enable"))
    monkeypatch.setattr(fairtune.cli, "main", lambda: calls.append("main") or code)
    monkeypatch.setattr(fairtune.cli, "_observed", lambda: observed)
    monkeypatch.setattr(fairtune.cli.os, "_exit", lambda status: calls.append(f"exit {status}"))
    stderr = _Stream(calls, "stderr")
    monkeypatch.setattr(sys, "stdout", _Stream(calls, "stdout", stdout_fails))
    monkeypatch.setattr(sys, "stderr", stderr)
    returned = fairtune.cli.run()
    return calls, stderr.getvalue(), returned


def test_run_freezes_the_import_heap_before_main(monkeypatch):
    calls, err, returned = _run_in_process(monkeypatch, 7)
    assert calls == ["freeze", "enable", "main", "flush stdout", "flush stderr", "exit 7"]
    assert (err, returned) == ("", None)


@pytest.mark.parametrize(
    "code, status, message",
    [(0, 3, "data error: cannot write standard output: [Errno 28] No space left on device\n"), (4, 4, "")],
    ids=["command_succeeded", "command_failed"],
)
def test_run_reports_standard_output_that_cannot_be_written(monkeypatch, code, status, message):
    # A failed command has printed its own line already.
    calls, err, _ = _run_in_process(monkeypatch, code, stdout_fails=True)
    assert calls == ["freeze", "enable", "main", "flush stdout", "flush stderr", f"exit {status}"]
    assert err == message


def test_run_under_a_profiler_or_tracer_returns_the_exit_code(monkeypatch):
    calls, _, returned = _run_in_process(monkeypatch, 7, observed=True)
    assert (calls, returned) == (["freeze", "enable", "main"], 7)


def test_a_profile_function_is_observed():
    before = sys.getprofile()
    sys.setprofile(lambda frame, event, arg: None)
    try:
        assert fairtune.cli._observed()
    finally:
        sys.setprofile(before)


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
    # The collector goes off before the first import after gc's own.
    body = [ast.unparse(node) for node in ast.parse(cli_source).body[1:4]]
    assert body == ["from __future__ import annotations", "import gc", "if __name__ == '__main__':\n    gc.disable()"]
    assert cli_source.endswith('\nif __name__ == "__main__":\n    raise SystemExit(run())\n')
    scripts = (root / "pyproject.toml").read_text(encoding="utf-8").split("[project.scripts]\n", 1)[1]
    assert scripts.split("\n", 1)[0] == 'fairtune = "fairtune:run"'


def _process(*args, env=None, stdout=subprocess.PIPE, preexec_fn=None):
    """`python ARGS` with src/ first on the import path."""
    src = str(Path(fairtune.cli.__file__).resolve().parents[1])
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=300, preexec_fn=preexec_fn
    )


def _main_exit(args):
    try:
        return main(args)
    except SystemExit as exc:  # --version, --help and usage errors
        return exc.code


@pytest.mark.parametrize(
    "args, status",
    [
        (["report", "{out}/tuner_result.json"], 0),
        (["--version"], 0),
        (["prepare", "--config", "{out}/no-such-config.json"], 2),
        (["prepare"], 2),
        (["report", "{out}/no-such-result.json"], 3),
        (["report", "{out}/tuner_result.json", "--format", "json"], 2),
    ],
    ids=["report_table", "version", "missing_config", "usage_error", "missing_result", "report_format_flag"],
)
def test_a_command_process_exits_as_main_returns(pipeline, capsys, args, status):
    args = [arg.format(out=pipeline[1]) for arg in args]
    assert _main_exit(args) == status
    expected = capsys.readouterr()
    proc = _process("-m", "fairtune.cli", *args)
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, expected.out, expected.err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_standard_output_that_cannot_be_written_is_a_data_error(pipeline):
    # Buffered standard output: the table fails when run() flushes it.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        proc = _process("-m", "fairtune.cli", "report", str(pipeline[1] / "tuner_result.json"), env=env, stdout=full)
    assert proc.returncode == 3
    assert re.fullmatch(r"data error: .*No space left on device\n", proc.stderr)


class _FullStream(io.StringIO):
    """A standard stream whose every write fails, as on a full device."""

    def write(self, text):
        raise OSError(28, "No space left on device")


def test_report_whose_write_fails_is_a_data_error(pipeline, monkeypatch, capsys):
    # A table longer than standard output's buffer fails while report writes
    # it, inside main(), not when run() flushes it.
    monkeypatch.setattr(sys, "stdout", _FullStream())
    assert main(["report", str(pipeline[1] / "tuner_result.json")]) == 3
    assert capsys.readouterr().err == "data error: [Errno 28] No space left on device\n"


def test_report_with_standard_output_closed_is_a_data_error(pipeline):
    # Descriptor 1 closed before the interpreter starts (`>&-` in a shell):
    # Python then sets sys.stdout to None.
    result = str(pipeline[1] / "tuner_result.json")
    proc = _process("-m", "fairtune.cli", "report", result, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "data error: cannot write standard output: descriptor 1 is closed\n"


def test_a_profiled_command_exits_normally(pipeline, capsys):
    result = str(pipeline[1] / "tuner_result.json")
    assert main(["report", result]) == 0
    table = capsys.readouterr().out
    proc = _process("-m", "cProfile", "-m", "fairtune.cli", "report", result)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(table) and "function calls" in proc.stdout[len(table):]


# Starts a command the way `python -m fairtune.cli` (`module`) or the
# `fairtune` console script (`script`) does, and prints, when run() freezes
# the heap, how often the entry turned the collector off, whether it is
# still off, and how many collections ran since: none may run while numpy
# and fairtune load. (Compiling cli.py, where no bytecode is cached, comes
# before the first line of `python -m fairtune.cli` runs.)
_COUNT_COLLECTIONS_UNTIL_RUN = """
import gc, json, runpy, sys
def collections():
    return sum(stats["collections"] for stats in gc.get_stats())
disable, freeze, start = gc.disable, gc.freeze, []
def count_and_disable():
    start.append(collections())
    disable()
def report_and_freeze():
    print(json.dumps([len(start), gc.isenabled(), collections() - start[0]]), file=sys.stderr)
    freeze()
gc.disable, gc.freeze = count_and_disable, report_and_freeze
if sys.argv.pop(1) == "module":
    runpy.run_module("fairtune.cli", run_name="__main__", alter_sys=True)
else:
    from fairtune import run
    sys.exit(run())
"""


@pytest.mark.parametrize("entry", ["module", "script"])
def test_no_collection_runs_before_run_starts(pipeline, entry):
    proc = _process("-c", _COUNT_COLLECTIONS_UNTIL_RUN, entry, "report", str(pipeline[1] / "tuner_result.json"))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr) == [1, False, 0]
    assert proc.stdout.startswith("objective: ")


# (file, its producer, the command that reads it): one of each producer.
READS = [
    ("datasets/train.csv", "prepare", "train-grid"),
    ("checkpoints/predictions.npy", "train-grid", "label"),
    ("labelled_validation.csv", "label", "tune"),
]


def _reader_args(command, config, copy):
    if command == "report":
        return ["report", str(copy / "tuner_result.json")]
    return [command, "--config", str(config), "--out", str(copy)]


@pytest.mark.parametrize("rel, producer, command", READS, ids=["prepare", "train-grid", "label"])
def test_a_manifest_of_another_config_is_refused(pipeline, tmp_path, capsys, rel, producer, command):
    config, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    manifest = copy / "manifests" / f"{producer}.json"
    manifest.write_text(manifest.read_text().replace(json.loads(manifest.read_text())["config_sha256"], "0" * 64))
    before = {p: (copy / p).read_bytes() for p in _files(copy)}
    assert main([command, "--config", str(config), "--out", str(copy)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(rf"data error: {re.escape(str(copy / rel))} was produced by a different configuration \(hash 000000000000\.\. != \w{{12}}\.\.\); re-run the pipeline\n", err), err
    assert {p: (copy / p).read_bytes() for p in _files(copy)} == before


@pytest.mark.parametrize(
    "producer, command", [("prepare", "train-grid"), ("train-grid", "label"), ("label", "tune"), ("tune", "report")],
    ids=["prepare", "train-grid", "label", "tune"],
)
def test_a_deleted_manifest_is_refused(pipeline, tmp_path, capsys, producer, command):
    config, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    manifest = copy / "manifests" / f"{producer}.json"
    manifest.unlink()
    assert main(_reader_args(command, config, copy)) == 3
    assert capsys.readouterr().err == f"data error: missing upstream artifact {manifest} (run '{producer}' first)\n"


@pytest.mark.parametrize(
    "rel, producer, command",
    [
        READS[0],
        ("datasets/train.features.npy", "prepare", "train-grid"),
        ("datasets/validation.csv", "prepare", "label"),
        ("datasets/validation.features.npy", "prepare", "label"),
        ("datasets/test.csv", "prepare", "tune"),
        *READS[1:],
        ("tuner_result.json", "tune", "report"),
    ],
    ids=[
        "train-csv", "features-matrix", "validation-csv", "validation-features-matrix", "test-csv", "predictions",
        "labelled-validation", "tuner-result",
    ],
)
def test_an_output_edited_after_its_manifest_is_refused(pipeline, tmp_path, capsys, rel, producer, command):
    # One byte changed at the end of the file, where no parse would notice it.
    config, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    content = bytearray((copy / rel).read_bytes())
    content[-1] ^= 1
    (copy / rel).write_bytes(bytes(content))
    assert main(_reader_args(command, config, copy)) == 3
    assert capsys.readouterr().err == _digest_error(copy, rel, producer)


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    config, _ = load_synthetic_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train-grid", "--config", str(config), "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "--jobs" in err


@pytest.mark.parametrize("y1_a1_count, n_validation", [(900, 400), (915, 403)], ids=["whole-bytes", "padded-last-byte"])
def test_label_matches_library_selection(tmp_path, y1_a1_count, n_validation):
    from fairtune.config import load_config
    from fairtune.data import read_dataset
    from fairtune.labelling import labeller_predictions, select_labeller

    dataset = json.loads((CONFIGS / "synthetic.json").read_text())["dataset"]
    dataset["synthetic"]["blocks"]["y1_a1"]["count"] = y1_a1_count
    config, out = load_synthetic_config(tmp_path, dataset=dataset)
    for command in ("prepare", "train-grid", "label"):
        assert main([command, "--config", str(config)]) == 0
    train = read_dataset(out / "datasets" / "train.csv")
    validation = read_dataset(out / "datasets" / "validation.csv")
    assert validation.n_rows == n_validation
    predictions, candidates = labeller_predictions(train, validation, load_config(config).labeller_grid)
    # One bit per prediction, each candidate's row packed into whole bytes.
    packed = np.load(out / "checkpoints" / "predictions.npy")
    assert packed.dtype == np.uint8 and packed.shape == (len(candidates), (n_validation + 7) // 8)
    np.testing.assert_array_equal(np.unpackbits(packed, axis=1, count=n_validation), predictions)
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


def _damage_matrix(edit):
    def damage(ckpt):
        path = ckpt / "predictions.npy"
        path.write_bytes(edit(path.read_bytes(), np.load(path)))

    return damage


@pytest.mark.parametrize(
    "damage",
    [
        _damage_matrix(lambda raw, m: raw[: len(raw) // 2]),
        _damage_matrix(lambda raw, m: b""),
        _damage_matrix(lambda raw, m: b'{"x": 1}\n'),
        _damage_matrix(lambda raw, m: _npy_bytes(m.astype(np.float64))),
        _damage_matrix(lambda raw, m: _npy_bytes(m[:, :-1])),
        _damage_matrix(lambda raw, m: _npy_bytes(m[:-1])),
        _damage_matrix(lambda raw, m: _npy_bytes(m[0])),
        _damage_matrix(lambda raw, m: _npz_bytes(m)),
        _damage_matrix(lambda raw, m: _npy_bytes(np.bitwise_xor(m, np.eye(*m.shape, dtype=np.uint8)))),
        _damage_matrix(lambda raw, m: _npy_bytes(np.unpackbits(m, axis=1).astype(np.int8))),
    ],
    ids=[
        "matrix-truncated", "matrix-empty", "matrix-not-npy", "matrix-float64",
        "matrix-short-rows", "matrix-missing-row", "matrix-1d", "npz-archive", "matrix-bits-flipped",
        "matrix-unpacked",
    ],
)
def test_label_damaged_grid_artifacts_are_data_errors(labeller_grid_run, tmp_path, capsys, damage):
    config, out = labeller_grid_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    damage(copy / "checkpoints")
    assert main(["label", "--config", str(config), "--out", str(copy)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(copy / "checkpoints") in err and len(err.splitlines()) == 1
    assert not (copy / "labelled_validation.csv").exists()


def test_label_names_the_dtype_a_prediction_matrix_holds(labeller_grid_run, tmp_path, capsys):
    config, out = labeller_grid_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    matrix = copy / "checkpoints" / "predictions.npy"
    shape = np.load(matrix).shape
    np.save(matrix, np.load(matrix).astype(np.float64))
    _vouch_for(copy, "train-grid")
    assert main(["label", "--config", str(config), "--out", str(copy)]) == 3
    assert capsys.readouterr().err == f"data error: {matrix}: holds float64 {shape}, expected uint8 {shape}\n"


@pytest.mark.parametrize(
    "edit",
    [
        lambda m: np.vstack([m, m[:1]]),
        lambda m: m[:-1],
        lambda m: np.hstack([m, m[:, :1]]),
        lambda m: m[:, :-1],
        lambda m: m[None],
    ],
    ids=["extra-row", "missing-row", "long-rows", "short-rows", "3d"],
)
def test_label_requires_one_packed_row_per_grid_candidate(labeller_grid_run, tmp_path, capsys, edit):
    # The config's labeller grid, not a stored index, fixes the matrix's rows:
    # a matrix its manifest vouches for is still refused at any other shape.
    config, out = labeller_grid_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    matrix = copy / "checkpoints" / "predictions.npy"
    expected = np.load(matrix).shape
    edited = edit(np.load(matrix))
    np.save(matrix, edited)
    _vouch_for(copy, "train-grid")
    assert main(["label", "--config", str(config), "--out", str(copy)]) == 3
    assert capsys.readouterr().err == f"data error: {matrix}: holds uint8 {edited.shape}, expected uint8 {expected}\n"
    assert not (copy / "labelled_validation.csv").exists()


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


def _flip_first_pseudo_labels(text):
    return re.sub(r"^(\d+,[01]),([01]),", lambda m: f"{m[1]},{1 - int(m[2])},", text, count=5, flags=re.M)


@pytest.mark.parametrize(
    "damage",
    [
        _damage_row(lambda ln: "\n"),
        _damage_row(lambda ln: ln[:-1] + ",\n"),
        _damage_row(lambda ln: "x" + ln),
        _damage_row(lambda ln: ln.replace(",validation\n", ",test\n")),
        _damage_row(lambda ln: ln.replace(",validation\n", ",,validation\n")),
        lambda text: text + text.splitlines(keepends=True)[-1],
        lambda text: text + "999999,0,1,validation\n",
        _swap_rows,
        _flip_first_pseudo_labels,
        lambda text: re.sub(r"^(\d+,[01]),[01],", r"\1,,", text, count=1, flags=re.M),
        lambda text: "".join(line for line in text.splitlines(keepends=True) if line.startswith("#")),
    ],
    ids=[
        "blank-line", "trailing-comma", "bad-row-id", "mixed-split", "shifted-cells", "duplicate-row", "extra-row",
        "reordered-rows", "flipped-pseudo", "partly-blank-pseudo", "only-comment-lines",
    ],
)
def test_tune_damaged_labelled_validation_is_a_data_error(pipeline, tmp_path, capsys, damage):
    config, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "labelled_validation.csv"
    text = path.read_text()
    damaged = damage(text)
    assert damaged != text
    path.write_text(damaged)
    assert main(["tune", "--config", str(config), "--out", str(copy)]) == 3
    assert capsys.readouterr().err == _digest_error(copy, "labelled_validation.csv", "label")


@pytest.mark.parametrize(
    "relabel, message",
    [
        (lambda labelled: replace(labelled, sensitive=None), " carries no pseudo labels"),
        # The row-id check in `tune` is all that keeps pseudo labels aligned
        # with the validation rows they were computed for.
        (lambda labelled: labelled.take(np.arange(labelled.n_rows)[::-1]), " does not label the rows of the validation split"),
        (lambda labelled: labelled.take(np.arange(labelled.n_rows - 1)), " does not label the rows of the validation split"),
    ],
    ids=["no-pseudo", "reordered-rows", "missing-row"],
)
def test_tune_refuses_intact_labels_of_other_rows(pipeline, tmp_path, capsys, relabel, message):
    # Written by write_dataset and recorded in the manifest of `label`, so the
    # file reads back and only `tune`'s own checks can refuse it.
    from fairtune.data import read_dataset, write_dataset

    config, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "labelled_validation.csv"
    write_dataset(relabel(read_dataset(path)), path)
    _vouch_for(copy, "label")
    assert main(["tune", "--config", str(config), "--out", str(copy)]) == 3
    assert capsys.readouterr().err == f"data error: {path}{message}\n"


@pytest.mark.parametrize(
    "command, rel, tag, other",
    [
        ("train-grid", "datasets/train.csv", "train", "validation"),
        ("label", "datasets/validation.csv", "validation", "test"),
        ("tune", "datasets/test.csv", "test", "train"),
        ("tune", "labelled_validation.csv", "validation", "train"),
    ],
    ids=["train", "validation", "test", "labelled-validation"],
)
def test_a_dataset_file_tagged_with_another_split_is_a_data_error(pipeline, tmp_path, capsys, command, rel, tag, other):
    # A file its producer's manifest records, tagged with another split: only
    # the reader's own check can tell a file of one split from another's.
    config, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / rel
    path.write_text(path.read_text().replace(f",{tag}\n", f",{other}\n"))
    _vouch_for(copy, "label" if rel == "labelled_validation.csv" else "prepare")
    assert main([command, "--config", str(config), "--out", str(copy)]) == 3
    assert capsys.readouterr().err == f"data error: {path}: split tag {other!r}, expected {tag!r}\n"


def _swap_first_targets(text):
    """Swap the first data lines of target 0 and of target 1."""
    lines = text.splitlines(keepends=True)
    first = {}
    for i, line in enumerate(lines):
        if not line.startswith(("#", "__")):
            first.setdefault(line.split(",")[1], i)
    lines[first["0"]], lines[first["1"]] = lines[first["1"]], lines[first["0"]]
    return "".join(lines)


def _flip_first_target(text):
    return re.sub(r"^(\d+),([01]),", lambda m: f"{m[1]},{1 - int(m[2])},", text, count=1, flags=re.M)


@pytest.mark.parametrize("damage", [_swap_first_targets, _flip_first_target], ids=["rows-swapped", "target-flipped"])
def test_train_grid_on_reordered_or_relabelled_rows_is_a_data_error(pipeline, tmp_path, capsys, damage):
    config, out = pipeline
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    path = copy / "datasets" / "train.csv"
    text = path.read_text()
    damaged = damage(text)
    assert damaged != text and len(damaged) == len(text)
    path.write_text(damaged)
    assert main(["train-grid", "--config", str(config), "--out", str(copy)]) == 3
    assert capsys.readouterr().err == _digest_error(copy, "datasets/train.csv", "prepare")


def test_dataset_files_keep_the_layout_perfbench_reads(pipeline):
    # perfbench/run.py reads the sensitive column with line.split(",", 3) and
    # its micro-measures read the train split with fairtune.data.read_dataset.
    from fairtune.config import load_config
    from fairtune.data import generate_synthetic, read_dataset, split, standardize

    config, out = pipeline
    lines = (out / "datasets" / "validation.csv").read_text().splitlines(keepends=True)
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "__row_id,__target,__sensitive,__split\n"
    assert len(body) == 401
    for line in body[1:]:
        row_id, target, sensitive, tag = line.split(",", 3)
        assert int(row_id) >= 0 and target in ("0", "1") and sensitive in ("0", "1") and tag == "validation\n"
    cfg = load_config(config)
    train, _, _ = standardize(*split(generate_synthetic(cfg.synthetic), cfg.split_fractions, cfg.split_seed))
    expected = train.features
    features = read_dataset(out / "datasets" / "train.csv").features
    np.testing.assert_array_equal(features.view(np.int64), expected.view(np.int64))


NOT_UTF8 = b"#note=\xff\xfe\n" + np.random.default_rng(0).bytes(256)


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


def _non_utf8_output(rel, command, producer):
    def setup(tmp_path, pipeline):
        config, out = pipeline
        copy = tmp_path / "out"
        shutil.copytree(out, copy)
        (copy / rel).write_bytes(NOT_UTF8)
        _vouch_for(copy, producer)
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
        _non_utf8_output("datasets/validation.csv", "label", "prepare"),
        _non_utf8_output("labelled_validation.csv", "tune", "label"),
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


def _csv_section(schema_file=None, **csv):
    """A config edit that makes the dataset a CSV one with these csv keys;
    with a `schema_file`, also the file schema.json next to the config,
    holding it, which `schema_path` names."""

    def edit(raw):
        raw["dataset"] = {"kind": "csv", "csv": {"path": "raw.csv", **csv}}
        if schema_file is not None:
            raw["dataset"]["csv"]["schema_path"] = "schema.json"
            return {"schema.json": schema_file}

    return edit


def _schema_with(key, value):
    """A config edit that declares SCHEMA_JSON's schema, with `key` set to `value`."""
    return _csv_section(schema_file={**json.loads(SCHEMA_JSON), key: value})


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
# Stands for the path of the schema file that `schema_path` names.
SCHEMA_FILE = "<schema file>"
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
        (_with_value(BLOCK, "mean", 5), "dataset.synthetic.blocks.y1_a1.mean: expected a list of numbers, got int"),
        (_with_value(BLOCK[:-1], "y1_a1", 900), "dataset.synthetic.blocks.y1_a1: expected an object of count, mean, var, got int"),
        (_with_value(BLOCK[:-2], "blocks", []), "dataset.synthetic.blocks: expected an object of y1_a1, y1_a0, y0_a1, y0_a0, got list"),
        (_with_value(("dataset", "synthetic"), "seed", "7"), "dataset.synthetic.seed: expected int, got str"),
        (_with_value((), "seed", 1.5), "seed: expected int, got float"),
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
        (_with_value(("labelling",), "policy", "best"), "labelling.policy: expected 'every_epoch', got 'best'"),
        (_with_value(("labelling",), "policy", "final_epoch"), "labelling.policy: expected 'every_epoch', got 'final_epoch'"),
        (_csv_section(schema_file=json.loads(SCHEMA_JSON), schema={}), "dataset.csv.schema: unknown key"),
        (_csv_section(), "dataset.csv.schema_path: missing required key"),
        (_csv_section(schema_path=5), "dataset.csv.schema_path: expected str, got int"),
        (_csv_section(schema_file=[]), f"{SCHEMA_FILE}: expected dict, got list"),
        (_csv_section(schema_file={"target_column": ["income", ">50K"]}), f"{SCHEMA_FILE}: feature_columns: missing required key"),
        # Each schema entry below once parsed, sliced: "income" as the column
        # 'i' with the token 'n', "FM" as the categories 'F' and 'M'.
        (_schema_with("target_column", "income"), f"{SCHEMA_FILE}: target_column: {NAME_TOKEN}"),
        (_schema_with("sensitive_column", "sex"), f"{SCHEMA_FILE}: sensitive_column: {NAME_TOKEN}"),
        (
            _schema_with("feature_columns", [["age", "numeric", "categorical"]]),
            f"{SCHEMA_FILE}: feature_columns[0]: expected [name, kind], a list of two items",
        ),
        (_schema_with("target_column", ["income", ">50K", "<=50K"]), f"{SCHEMA_FILE}: target_column: {NAME_TOKEN}"),
        (_schema_with("categorical_vocab", {"sex": "FM"}), f"{SCHEMA_FILE}: categorical_vocab: expected an object of category lists"),
        (
            _schema_with("categorical_vocab", {"sex": ["F", "M"], "sx": ["F", "M"]}),
            f"{SCHEMA_FILE}: categorical_vocab.sx: names no categorical feature column",
        ),
        (
            _schema_with("categorical_vocab", {"sex": ["F", "M"], "age": ["1"]}),
            f"{SCHEMA_FILE}: categorical_vocab.age: names no categorical feature column",
        ),
        (_schema_with("feature_columns", 5), f"{SCHEMA_FILE}: feature_columns: expected a nonempty list of [name, kind] pairs"),
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
        "block-mean-number",
        "block-number",
        "blocks-list",
        "synthetic-seed-text",
        "master-seed-non-integral",
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
        "final-epoch-policy",
        "inline-schema",
        "no-schema-path",
        "schema-path-number",
        "schema-list",
        "schema-missing-key",
        "schema-target-text",
        "schema-sensitive-text",
        "schema-column-three-items",
        "schema-target-three-items",
        "schema-vocabulary-text",
        "schema-vocabulary-of-no-column",
        "schema-vocabulary-of-numeric-column",
        "schema-columns-number",
    ],
)
def test_malformed_config_number_is_a_one_line_config_error(tmp_path, capsys, edit, message):
    assert main(["prepare", "--config", str(_edited_config(tmp_path, edit))]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message.replace(SCHEMA_FILE, str(tmp_path / 'schema.json'))}\n"
    assert not (tmp_path / "out").exists()


def _objects(node, steps=()):
    """The steps to every JSON object inside `node`, `node` itself first."""
    if isinstance(node, dict):
        yield steps
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _objects(child, steps + (key,))


def _json_path(steps):
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in steps).lstrip(".")


def _without(section, key):
    """A config edit that removes `key` from a section of the synthetic config."""

    def edit(raw):
        target = raw
        for name in section:
            target = target[name]
        del target[key]

    return edit


KEY_CASES = [
    # Every object of configs/synthetic.json, from the root to each block and
    # grid point, then the objects of a CSV dataset and its schema file.
    *(
        (_with_value(steps, "typo", 9), _json_path(steps + ("typo",)) + ": unknown key", _json_path(steps) or "root")
        for steps in _objects(json.loads((CONFIGS / "synthetic.json").read_text()))
    ),
    (_csv_section(schema_file=json.loads(SCHEMA_JSON), typo=9), "dataset.csv.typo: unknown key", "dataset.csv"),
    (_schema_with("typo", 9), f"{SCHEMA_FILE}: typo: unknown key", "dataset.csv.schema"),
    (_with_value(("mc_noise",), "split", "validation"), "mc_noise.split: unknown key", "mc-noise-split"),
    (_with_value(BLOCK, "vars", [9, 9]), "dataset.synthetic.blocks.y1_a1.vars: unknown key", "block-vars"),
    (
        _with_value(BLOCK[:-1], "y2_a1", {"count": 9, "mean": [0.0, 0.0], "var": [1.0, 1.0]}),
        "dataset.synthetic.blocks.y2_a1: unknown key",
        "fifth-cell",
    ),
    (_without(BLOCK[:-1], "y0_a0"), "dataset.synthetic.blocks.y0_a0: missing required key", "missing-cell"),
    (_without(BLOCK, "var"), "dataset.synthetic.blocks.y1_a1.var: missing required key", "missing-var"),
    (_without(BLOCK[:-2], "blocks"), "dataset.synthetic.blocks: missing required key", "missing-blocks"),
    (_without((), "split"), "split: missing required key", "missing-split"),
    (_without(("jtt",), "objective"), "jtt.objective: missing required key", "missing-objective"),
    (_without(("labeller_grid", 0), "learning_rate"), "labeller_grid[0].learning_rate: missing required key", "missing-rate"),
]


@pytest.mark.parametrize("edit, message", [case[:2] for case in KEY_CASES], ids=[case[2] for case in KEY_CASES])
def test_every_config_object_takes_only_its_own_keys(tmp_path, capsys, edit, message):
    assert main(["prepare", "--config", str(_edited_config(tmp_path, edit))]) == 2
    assert capsys.readouterr().err == f"config error: {message.replace(SCHEMA_FILE, str(tmp_path / 'schema.json'))}\n"
    assert not (tmp_path / "out").exists()


def test_mc_sweep_split_is_still_hashed_as_validation():
    # mc-sweep always reads the validation split, and the resolved config
    # records it under mc_noise as it did when the split was a config key,
    # so configs/synthetic.json keeps the hash its earlier outputs carry.
    config = parse_config(json.loads((CONFIGS / "synthetic.json").read_text()))
    assert config.resolved_dict()["mc_noise"]["split"] == "validation"
    assert config.canonical_hash() == "506648675f704a8e8f93a240d4b9d0dd6d599aa9dc7d51ec9bf51f5215a761c7"


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
    """The synthetic config, edited by edit(raw), written to tmp_path, with
    each JSON file {name: content} the edit returns next to it."""
    raw = json.loads((CONFIGS / "synthetic.json").read_text())
    raw["output_dir"] = str(tmp_path / "out")
    for name, content in (edit(raw) or {}).items():
        (tmp_path / name).write_text(json.dumps(content))
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
    assert capsys.readouterr().err == f"data error: missing upstream artifact {tmp_path / 'absent.json'} (run 'tune' first)\n"


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
    return _process("-W", "error", "-m", "fairtune.cli", *args)


@pytest.mark.parametrize(
    "point, command, jobs",
    [
        (("jtt", "stage2_grid", 0), "tune", "1"),
        (("labeller_grid", 1), "train-grid", "1"),
        (("labeller_grid", 1), "train-grid", "2"),
    ],
    ids=["stage2", "labeller", "labeller-jobs2"],
)
def test_a_diverging_stage2_point_is_a_one_line_data_error(tmp_path, point, command, jobs):
    # A labeller point too, as step 1 trains through step 3's sweep engine.
    # With a hidden layer the second step's product of two 1e300-scale
    # layers overflows; a linear model's step stays finite.
    def edit(raw):
        _with_value(point, "learning_rate", 1e300)(raw)
        _with_value(point, "hidden_units", 8)(raw)

    config = _edited_config(tmp_path, edit)
    for before in COMMANDS_BEFORE[command]:
        assert main([before, "--config", str(config)]) == 0
    proc = _cli_process(command, "--config", str(config), "--jobs", jobs)
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
