"""Batch command-line front-end.

One experiment is described by one JSON config; each subcommand consumes the
artifacts of the previous one:

    prepare     build, split and standardize the dataset
    train-grid  train the labeller grid, storing every epoch checkpoint's
                validation predictions
    label       select the pseudo labeller and label the validation split
    mc-sweep    run the contamination-noise sweep on the clean groups
    tune        run the accuracy-constrained two-stage search
    report      render a stored tuner result as a table or JSON

Commands are idempotent: given identical inputs and seeds they rewrite
byte-identical outputs. Every output embeds the resolved config hash and the
tool version. Exit codes: 0 ok, 2 config error, 3 data error, 4 selection
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config
from .data import (
    DataError,
    TabularDataset,
    apply_standardizer,
    dataset_file_meta,
    fit_standardizer,
    generate_synthetic,
    load_csv,
    read_dataset,
    split,
    write_dataset,
)
from .labelling import PseudoLabelledValidation, SelectionError, select_from_predictions
from .metrics import EmptyGroupError
from .noise import (
    NoiseSpec,
    difference_of_means_probe,
    verify_edm_lemma,
    verify_proportionality,
    write_sweep_csv,
)
from .training import HyperParams, TrainingError, _train_loop, pool_map, predict
from .tuning import TunerResult, grid_search

# Unused here, but perfbench/spans.py traces these names on this module.
from .labelling import select_labeller  # noqa: F401
from .training import load_model, save_model  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3
EXIT_SELECTION_FAILURE = 4


class _Outputs:
    """Atomic output writing; leaving the `with` block on an exception
    removes everything written in it."""

    def __init__(self) -> None:
        self.written: list[Path] = []

    def __enter__(self) -> "_Outputs":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            for path in self.written:
                try:
                    path.unlink()
                except OSError:
                    pass

    def text(self, path: Path, content: str) -> None:
        self.via(path, lambda p: p.write_text(content, encoding="utf-8"))

    def via(self, path: Path, writer) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        writer(tmp)
        os.replace(tmp, path)
        self.written.append(path)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _meta(config: ExperimentConfig) -> dict[str, str]:
    return {"config_sha256": config.canonical_hash(), "tool_version": __version__}


def _out_dir(config: ExperimentConfig) -> Path:
    return Path(config.output_dir)


def _require_artifact(path: Path, producer: str) -> Path:
    if not path.exists():
        raise DataError(f"missing upstream artifact {path} (run '{producer}' first)")
    return path


def _check_provenance(path: Path, config: ExperimentConfig, stored: str | None) -> None:
    if stored is not None and stored != config.canonical_hash():
        raise DataError(
            f"{path} was produced by a different configuration "
            f"(hash {stored[:12]}.. != {config.canonical_hash()[:12]}..); re-run the pipeline"
        )


def _read_split(out: Path, name: str, config: ExperimentConfig) -> TabularDataset:
    path = _require_artifact(out / "datasets" / f"{name}.csv", "prepare")
    _check_provenance(path, config, dataset_file_meta(path).get("config_sha256"))
    return read_dataset(path)


def _build_dataset(config: ExperimentConfig) -> TabularDataset:
    if config.dataset_kind == "synthetic":
        return generate_synthetic(config.synthetic)
    return load_csv(config.csv_path, config.schema)


def cmd_prepare(config: ExperimentConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    with _Outputs() as outputs:
        data = _build_dataset(config)
        train, validation, test = split(data, config.split_fractions, config.split_seed)
        std = fit_standardizer(train)
        meta = _meta(config)
        for name, ds in (("train", train), ("validation", validation), ("test", test)):
            ds = apply_standardizer(std, ds)
            outputs.via(out / "datasets" / f"{name}.csv", lambda p, d=ds: write_dataset(d, p, meta=meta))
        outputs.text(
            out / "standardizer.json",
            _json_text(
                {
                    "mean": [float(v) for v in std.mean],
                    "scale": [float(v) for v in std.scale],
                    "apply_mask": [bool(v) for v in std.apply_mask],
                    **meta,
                }
            ),
        )
    print(f"prepared {data.n_rows} rows -> {out / 'datasets'}")
    return EXIT_OK


def _grid_predictions(ctx: dict, hp: HyperParams) -> np.ndarray:
    """Validation predictions of one grid point, one row per epoch checkpoint."""
    return np.stack([predict(m, ctx["val_X"]) for m in _train_loop(ctx["X"], ctx["y"], hp)])


def _write_npy(path: Path, array: np.ndarray) -> None:
    # np.save appends ".npy" to a path that lacks it, but not to an open file.
    with open(path, "wb") as fh:
        np.save(fh, array, allow_pickle=False)


def cmd_train_grid(config: ExperimentConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    train = _read_split(out, "train", config)
    validation = _read_split(out, "validation", config)
    ctx = {"X": train.features, "y": train.targets.astype(np.float64), "val_X": validation.features}
    predictions = np.concatenate(pool_map(_grid_predictions, ctx, config.labeller_grid, args.jobs))
    index = [
        {"grid_index": gi, "hyperparams": hp.to_dict(), "epoch": epoch}
        for gi, hp in enumerate(config.labeller_grid)
        for epoch in range(1, hp.epochs + 1)
    ]
    with _Outputs() as outputs:
        outputs.via(out / "checkpoints" / "predictions.npy", lambda p: _write_npy(p, predictions))
        outputs.text(out / "checkpoints" / "index.json", _json_text({"candidates": index, **_meta(config)}))
    print(f"stored validation predictions of {len(index)} candidates -> {out / 'checkpoints'}")
    return EXIT_OK


def _parse_artifact(path: Path, what: str, parse):
    """parse(payload) of a JSON artifact; a syntax or schema fault is a DataError."""
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise DataError(f"malformed {what} {path}: {type(exc).__name__}: {exc}") from None


def _candidate_index(index: dict) -> tuple[str | None, list[tuple[HyperParams, int]]]:
    candidates = [(HyperParams.from_dict(e["hyperparams"]), int(e["epoch"])) for e in index["candidates"]]
    return index.get("config_sha256"), candidates


def _load_predictions(
    out: Path, config: ExperimentConfig, n_rows: int
) -> tuple[np.ndarray, list[tuple[HyperParams, int]]]:
    """The stored candidate predictions and each row's (hyper-params, epoch),
    restricted to the candidates the labelling policy admits."""
    index_path = _require_artifact(out / "checkpoints" / "index.json", "train-grid")
    matrix_path = _require_artifact(out / "checkpoints" / "predictions.npy", "train-grid")
    stored_hash, candidates = _parse_artifact(index_path, "candidate index", _candidate_index)
    _check_provenance(index_path, config, stored_hash)
    try:
        predictions = np.load(matrix_path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise DataError(f"malformed prediction matrix {matrix_path}: {type(exc).__name__}: {exc}") from None
    if predictions.dtype != np.int8 or predictions.shape != (len(candidates), n_rows):
        raise DataError(
            f"{matrix_path} holds {predictions.dtype} {predictions.shape}, expected int8 "
            f"({len(candidates)}, {n_rows}) for {len(candidates)} candidates and {n_rows} validation rows"
        )
    if config.labelling_policy == "final_epoch":
        keep = [i for i, (hp, epoch) in enumerate(candidates) if epoch == hp.epochs]
        predictions, candidates = predictions[keep], [candidates[i] for i in keep]
    return predictions, candidates


def cmd_label(config: ExperimentConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    validation = _read_split(out, "validation", config)
    predictions, candidates = _load_predictions(out, config, validation.n_rows)
    labelled = select_from_predictions(predictions, candidates, validation)
    meta = _meta(config)
    with _Outputs() as outputs:
        outputs.via(
            out / "labelled_validation.csv",
            lambda p: write_dataset(validation.with_sensitive(labelled.pseudo), p, meta=meta),
        )
        outputs.text(
            out / "labelling.json",
            _json_text(
                {
                    "by_class": {str(y): sel.to_dict() for y, sel in labelled.by_class.items()},
                    "n_candidates": len(candidates),
                    "policy": config.labelling_policy,
                    **meta,
                }
            ),
        )
    for y in (0, 1):
        sel = labelled.by_class[y]
        print(f"class {y}: picked candidate {sel.candidate_index} (epoch {sel.epoch}, edm {sel.edm_score:.4f})")
    return EXIT_OK


def cmd_mc_sweep(config: ExperimentConfig, args: argparse.Namespace) -> int:
    if config.mc_noise is None:
        raise ConfigError("mc_noise: section required for mc-sweep")
    out = _out_dir(config)
    data = _read_split(out, config.mc_noise.split, config)
    if data.sensitive is None:
        raise DataError(f"{config.mc_noise.split} split carries no ground-truth sensitive attributes")
    maj = data.features[data.sensitive == 1]
    mino = data.features[data.sensitive == 0]
    y_maj = data.targets[data.sensitive == 1]
    y_min = data.targets[data.sensitive == 0]
    if maj.shape[0] == 0 or mino.shape[0] == 0:
        raise DataError("both sensitive groups must be nonempty for the sweep")
    mc = config.mc_noise
    edm_records = verify_edm_lemma(maj, mino, mc.grid, mc.n_samples, seed=mc.seed)
    probe = difference_of_means_probe(maj, mino)
    dp_records = [
        verify_proportionality(
            probe, (maj, y_maj), (mino, y_min), NoiseSpec(alpha=a, beta=b, seed=mc.seed + 1 + i), mc.n_samples
        )
        for i, (a, b) in enumerate(mc.grid)
    ]
    with _Outputs() as outputs:
        outputs.via(
            out / "mc_sweep.csv",
            lambda p: write_sweep_csv(p, edm_records, dp_records, meta=_meta(config)),
        )
    print(f"swept {len(mc.grid)} noise cells -> {out / 'mc_sweep.csv'}")
    return EXIT_OK


def cmd_tune(config: ExperimentConfig, args: argparse.Namespace) -> int:
    if config.jtt is None:
        raise ConfigError("jtt: section required for tune")
    out = _out_dir(config)
    train = _read_split(out, "train", config)
    validation = _read_split(out, "validation", config)
    test = _read_split(out, "test", config)
    pseudo = None
    if config.jtt.sensitive_source == "pseudo":
        path = _require_artifact(out / "labelled_validation.csv", "label")
        _check_provenance(path, config, dataset_file_meta(path).get("config_sha256"))
        labelled = read_dataset(path)
        if labelled.sensitive is None:
            raise DataError(f"{path} carries no pseudo labels")
        if not np.array_equal(labelled.row_ids, validation.row_ids):
            raise DataError(f"{path} does not label the rows of the validation split")
        pseudo = PseudoLabelledValidation(
            row_ids=labelled.row_ids.copy(), pseudo=labelled.sensitive.copy(), by_class={}
        )
    result = grid_search(train, validation, test, config.jtt, pseudo=pseudo, jobs=args.jobs)
    with _Outputs() as outputs:
        outputs.text(out / "tuner_result.json", _json_text({"result": result.to_dict(), **_meta(config)}))
    filled = sum(1 for b in result.bins if not b.empty)
    print(f"tuned: {filled}/{len(result.bins)} bins populated -> {out / 'tuner_result.json'}")
    return EXIT_OK


def _fmt_pair(report, objective: str) -> str:
    if report is None:
        return "-"
    value = report.metric(objective)
    obj = "-" if value is None else f"{100 * value:.1f}"
    return f"({100 * report.avg_accuracy:.1f}, {obj})"


def render_table(result: TunerResult) -> str:
    rows = [["bin", "method", "validation", "test"]]
    for outcome, erm_outcome in zip(result.bins, result.erm_bins):
        lo, hi = outcome.bin
        tag = f"[{100 * lo:.1f},{100 * hi:.1f})"
        if outcome.empty:
            rows.append([tag, "jtt", "(empty)", "(empty)"])
        else:
            rows.append(
                [tag, "jtt", _fmt_pair(outcome.validation, result.objective), _fmt_pair(outcome.test, result.objective)]
            )
        if erm_outcome is not None:
            if erm_outcome.empty:
                rows.append(["", "erm", "(empty)", "(empty)"])
            else:
                rows.append(
                    ["", "erm", _fmt_pair(erm_outcome.validation, result.objective), _fmt_pair(erm_outcome.test, result.objective)]
                )
    if result.erm_baseline is not None and not result.erm_baseline.empty:
        rows.append(
            [
                "unconstrained",
                "erm",
                _fmt_pair(result.erm_baseline.validation, result.objective),
                _fmt_pair(result.erm_baseline.test, result.objective),
            ]
        )
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    lines = [
        f"objective: {result.objective}   validation labels: {result.sensitive_source}",
        f"cells are (avg accuracy %, {result.objective} %)",
    ]
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.result)
    if not path.exists():
        raise DataError(f"no such result file: {path}")
    payload, result = _parse_artifact(path, "result file", lambda p: (p, TunerResult.from_dict(p["result"])))
    if args.format == "json":
        sys.stdout.write(_json_text(payload))
    else:
        sys.stdout.write(render_table(result))
    return EXIT_OK


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel worker cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fairtune", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("prepare", cmd_prepare),
        ("train-grid", cmd_train_grid),
        ("label", cmd_label),
        ("mc-sweep", cmd_mc_sweep),
        ("tune", cmd_tune),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
    rep = sub.add_parser("report")
    rep.add_argument("result", help="tuner result JSON file")
    rep.add_argument("--format", choices=("table", "json"), default="table")
    rep.set_defaults(fn=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args)
        config = load_config(args.config, seed_override=args.seed, out_override=args.out)
        return args.fn(config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except SelectionError as exc:
        print(f"selection failure: {exc}", file=sys.stderr)
        return EXIT_SELECTION_FAILURE
    except (DataError, TrainingError, EmptyGroupError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
