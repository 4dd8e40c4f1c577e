"""Batch command-line front-end.

One experiment is described by one JSON config; each subcommand consumes the
artifacts of the previous one:

    prepare     build, split and standardize the dataset
    train-grid  train the labeller grid, storing every epoch checkpoint
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
from concurrent.futures import ProcessPoolExecutor
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
from .labelling import (
    LabellerCandidate,
    PseudoLabelledValidation,
    SelectionError,
    select_labeller,
)
from .metrics import EmptyGroupError
from .noise import (
    NoiseSpec,
    difference_of_means_probe,
    verify_edm_lemma,
    verify_proportionality,
    write_sweep_csv,
)
from .training import TrainingError, _train_loop, load_model, save_model
from .tuning import TunerResult, grid_search

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3
EXIT_SELECTION_FAILURE = 4


class _Outputs:
    """Atomic output writing with cleanup of everything written on failure."""

    def __init__(self) -> None:
        self.written: list[Path] = []

    def text(self, path: Path, content: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(content, encoding="utf-8")
        os.replace(tmp, path)
        self.written.append(path)

    def via(self, path: Path, writer) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        writer(tmp)
        os.replace(tmp, path)
        self.written.append(path)

    def cleanup(self) -> None:
        for path in self.written:
            try:
                path.unlink()
            except OSError:
                pass


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
    outputs = _Outputs()
    try:
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
    except BaseException:
        outputs.cleanup()
        raise
    print(f"prepared {data.n_rows} rows -> {out / 'datasets'}")
    return EXIT_OK


_GRID_CTX: dict | None = None


def _grid_worker_init(ctx: dict) -> None:
    global _GRID_CTX
    _GRID_CTX = ctx


def _grid_worker_run(hp) -> list:
    return _train_loop(_GRID_CTX["X"], _GRID_CTX["y"], hp)


def cmd_train_grid(config: ExperimentConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    train = _read_split(out, "train", config)
    meta = _meta(config)
    outputs = _Outputs()
    jobs = max(1, args.jobs)
    try:
        X, y = train.features, train.targets.astype(np.float64)
        if jobs == 1 or len(config.labeller_grid) == 1:
            runs = [_train_loop(X, y, hp) for hp in config.labeller_grid]
        else:
            ctx = {"X": X, "y": y}
            with ProcessPoolExecutor(
                max_workers=jobs, initializer=_grid_worker_init, initargs=(ctx,)
            ) as pool:
                runs = list(pool.map(_grid_worker_run, config.labeller_grid, chunksize=1))
        index = []
        for gi, (hp, ckpts) in enumerate(zip(config.labeller_grid, runs)):
            for ckpt in ckpts:
                fname = f"g{gi:03d}_e{ckpt.trained_epochs:03d}.json"
                outputs.via(
                    out / "checkpoints" / fname,
                    lambda p, m=ckpt: save_model(m, p, meta=meta),
                )
                index.append(
                    {
                        "grid_index": gi,
                        "hyperparams": hp.to_dict(),
                        "epoch": ckpt.trained_epochs,
                        "file": fname,
                    }
                )
        outputs.text(out / "checkpoints" / "index.json", _json_text({"checkpoints": index, **meta}))
    except BaseException:
        outputs.cleanup()
        raise
    print(f"stored {len(outputs.written) - 1} checkpoints -> {out / 'checkpoints'}")
    return EXIT_OK


def _load_candidates(out: Path, config: ExperimentConfig) -> list[LabellerCandidate]:
    index_path = _require_artifact(out / "checkpoints" / "index.json", "train-grid")
    index = json.loads(index_path.read_text(encoding="utf-8"))
    _check_provenance(index_path, config, index.get("config_sha256"))
    entries = index["checkpoints"]
    if config.labelling_policy == "final_epoch":
        last_epoch: dict[int, int] = {}
        for e in entries:
            last_epoch[e["grid_index"]] = max(last_epoch.get(e["grid_index"], 0), e["epoch"])
        entries = [e for e in entries if e["epoch"] == last_epoch[e["grid_index"]]]
    candidates = []
    for e in entries:
        model = load_model(out / "checkpoints" / e["file"])
        candidates.append(LabellerCandidate(hp=model.hp, epoch=e["epoch"], model=model))
    return candidates


def cmd_label(config: ExperimentConfig, args: argparse.Namespace) -> int:
    out = _out_dir(config)
    validation = _read_split(out, "validation", config)
    candidates = _load_candidates(out, config)
    labelled = select_labeller(candidates, validation)
    meta = _meta(config)
    outputs = _Outputs()
    try:
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
    except BaseException:
        outputs.cleanup()
        raise
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
    outputs = _Outputs()
    try:
        outputs.via(
            out / "mc_sweep.csv",
            lambda p: write_sweep_csv(p, edm_records, dp_records, meta=_meta(config)),
        )
    except BaseException:
        outputs.cleanup()
        raise
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
        pseudo = PseudoLabelledValidation(
            row_ids=labelled.row_ids.copy(), pseudo=labelled.sensitive.copy(), by_class={}
        )
    result = grid_search(train, validation, test, config.jtt, pseudo=pseudo, jobs=max(1, args.jobs))
    outputs = _Outputs()
    try:
        outputs.text(out / "tuner_result.json", _json_text({"result": result.to_dict(), **_meta(config)}))
    except BaseException:
        outputs.cleanup()
        raise
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
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        result = TunerResult.from_dict(payload["result"])
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise DataError(f"malformed result file {path}: {type(exc).__name__}: {exc}") from None
    if args.format == "json":
        sys.stdout.write(_json_text(payload))
    else:
        sys.stdout.write(render_table(result))
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--seed", type=int, default=None, help="override the master seed")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker cap")


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
