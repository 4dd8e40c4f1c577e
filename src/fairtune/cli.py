"""Batch command-line front-end.

One experiment is described by one JSON config; each subcommand consumes the
artifacts of the previous one:

    prepare     build, split and standardize the dataset
    train-grid  train the labeller grid, storing every epoch checkpoint's
                validation predictions as bits
    label       select the pseudo labeller and label the validation split
    mc-sweep    run the contamination-noise sweep on the clean groups
    tune        run the accuracy-constrained two-stage search
    report      render a stored tuner result as a table

Commands are idempotent: given identical inputs and seeds they rewrite
byte-identical outputs. A command's outputs land in the output directory
together, or, if it fails, none of them do; the last file to land is its
manifest, `manifests/<command>.json`, which records the resolved config's
hash, the tool version and the sha256 of every file the command wrote. A
command reads an upstream file only if its producer's manifest records this
config's hash and that file's digest; `report PATH` checks PATH against
`manifests/tune.json` next to it. Exit codes: 0 ok, 2 config error, 3 data
error, 4 selection failure.

`train-grid` stores one bit per candidate and validation row, its 0/1
prediction, in `checkpoints/predictions.npy`: a uint8 matrix with one row
per candidate in `labeller_candidates` order, each row packed by
`np.packbits` in numpy's default big bit order into ceil(n_val/8) bytes.
`label` takes the candidates from the config, whose hash pins the labeller
grid, and reads the rows back with `np.unpackbits(..., axis=1, count=n_val)`.

Unless numpy was loaded first, importing this module loads numpy with
OpenBLAS on one thread, whatever the thread variables say, so no idle BLAS
thread spins on another core and no output depends on a thread count.

A command's process (`python -m fairtune.cli`, or the `fairtune` console
script through `fairtune.run()`) imports numpy and fairtune with the cyclic
garbage collector off and enters through `run()`, which freezes the heap
those imports built, turns the collector back on, calls `main()`, flushes
standard output and ends the process without the interpreter's teardown:
no collection walks that heap during the imports, the run, a forked worker
or the exit, and nothing frees it object by object. Standard output that
cannot be written is then a data error. An exception escaping `main()`, and
a process that a profiler or tracer watches, exit the normal way. `main()`
and importing this module leave the garbage collector as they find it, so
a test or a library caller keeps its own settings.
"""

from __future__ import annotations

import gc

# Before any other import, in this module's own process only: the imports
# below (numpy's above all) would run ~37 collections over objects that
# `run()` freezes anyway. An import of `fairtune.cli` leaves the collector
# as the caller set it.
if __name__ == "__main__":
    gc.disable()

import argparse
import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from . import __version__

# OpenBLAS reads its thread count once, when numpy loads it, and starts that
# many threads, which spin for ~0.1 s of CPU during the rest of the import:
# setting the count afterwards saves none of it. More threads would not speed
# up fairtune's small products, and they round long ones differently. The
# variable reads 1 for the import only, and then what the user left in it.
if "numpy" not in sys.modules:
    _user_threads = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        if _user_threads is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = _user_threads

import numpy as np

from .config import LABELLING_POLICY, MC_SPLIT, ConfigError, ExperimentConfig, load_config
from .data import (
    DataError,
    TabularDataset,
    file_digest,
    features_path,
    generate_synthetic,
    load_csv,
    read_dataset,
    read_matrix,
    split,
    standardize,
    write_dataset,
)
from .labelling import SelectionError, labeller_candidates, labeller_predictions, select_labeller
from .metrics import EmptyGroupError
from .noise import (
    NoiseSpec,
    difference_of_means_probe,
    verify_edm_lemma,
    verify_proportionality,
    write_sweep_csv,
)
from .training import HyperParams, TrainingError
from .tuning import TunerResult, grid_search

# Unused here, but perfbench/spans.py traces these names on this module.
from .training import load_model, save_model  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3
EXIT_SELECTION_FAILURE = 4


class _Outputs:
    """A command's outputs as one unit. Each is written at its path relative
    to `out` inside one staging directory there (`.stage-*.tmp`); leaving
    the `with` block normally writes the command's manifest, moves the
    outputs into place in sorted order and the manifest last, and leaving it
    on an exception removes the stage, so `out` keeps what it held."""

    def __init__(self, out: Path, command: str, config: ExperimentConfig) -> None:
        self.out, self.command, self.config = out, command, config

    def __enter__(self) -> "_Outputs":
        self.out.mkdir(parents=True, exist_ok=True)
        self.stage = Path(tempfile.mkdtemp(prefix=".stage-", suffix=".tmp", dir=self.out))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                staged = sorted(p for p in self.stage.rglob("*") if p.is_file())
                files = {p.relative_to(self.stage).as_posix(): file_digest(p) for p in staged}
                manifest = {"config_sha256": self.config.canonical_hash(), "files": files, "tool_version": __version__}
                self.text(_manifest(self.command), _json_text(manifest))
                for path in [*staged, self.stage / _manifest(self.command)]:
                    target = self.out / path.relative_to(self.stage)
                    target.parent.mkdir(parents=True, exist_ok=True)
                    os.replace(path, target)
        finally:
            shutil.rmtree(self.stage, ignore_errors=True)

    def path(self, relative: str) -> Path:
        """Where to write the output at `relative`; anything written next to
        it (a dataset CSV's features matrix) moves along with it."""
        staged = self.stage / relative
        staged.parent.mkdir(parents=True, exist_ok=True)
        return staged

    def text(self, relative: str, content: str) -> None:
        self.path(relative).write_text(content, encoding="utf-8")


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _manifest(command: str) -> str:
    return f"manifests/{command}.json"


def _require_artifact(out: Path, relpath: str, producer: str, config: ExperimentConfig | None) -> Path:
    """out/relpath, once the manifest `producer` wrote in `out` records this
    config's hash (any, for None) and the sha256 of the file's bytes: the
    one rule for reading an upstream file."""
    path, manifest = out / relpath, out / _manifest(producer)
    for required in (path, manifest):
        if not required.exists():
            raise DataError(f"missing upstream artifact {required} (run '{producer}' first)")
    stored, digest = _parse_artifact(manifest, "manifest", lambda m: (m["config_sha256"], m["files"].get(relpath)))
    if config is not None and stored != config.canonical_hash():
        raise DataError(
            f"{path} was produced by a different configuration "
            f"(hash {str(stored)[:12]}.. != {config.canonical_hash()[:12]}..); re-run the pipeline"
        )
    if file_digest(path) != digest:
        raise DataError(
            f"{path}: differs from the sha256 {manifest} records (edited, cut or from another run?); re-run '{producer}'"
        )
    return path


def _read_upstream(out: Path, relpath: str, producer: str, config: ExperimentConfig, tag: str) -> TabularDataset:
    """The dataset file of the `tag` split that `producer` wrote for this
    configuration, with its features matrix."""
    path = _require_artifact(out, relpath, producer, config)
    matrix = features_path(Path(relpath)).as_posix()
    if (out / matrix).exists():
        _require_artifact(out, matrix, producer, config)
    data = read_dataset(path)
    if data.split != tag:
        raise DataError(f"{path}: split tag {data.split!r}, expected {tag!r}")
    return data


def _read_split(out: Path, name: str, config: ExperimentConfig) -> TabularDataset:
    return _read_upstream(out, f"datasets/{name}.csv", "prepare", config, name)


def _parse_artifact(path: Path, what: str, parse):
    """parse(payload) of a JSON artifact; a syntax or schema fault is a DataError."""
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise DataError(f"malformed {what} {path}: {type(exc).__name__}: {exc}") from None


def cmd_prepare(config: ExperimentConfig, args: argparse.Namespace) -> int:
    out = Path(config.output_dir)
    if config.dataset_kind == "synthetic":
        data = generate_synthetic(config.synthetic)
    else:
        data = load_csv(config.csv_path, config.schema)
    splits = standardize(*split(data, config.split_fractions, config.split_seed))
    with _Outputs(out, "prepare", config) as outputs:
        for ds in splits:
            write_dataset(ds, outputs.path(f"datasets/{ds.split}.csv"))
    print(f"prepared {len(data.row_ids)} rows -> {out / 'datasets'}")
    return EXIT_OK


def cmd_train_grid(config: ExperimentConfig, args: argparse.Namespace) -> int:
    out = Path(config.output_dir)
    train = _read_split(out, "train", config)
    validation = _read_split(out, "validation", config)
    predictions, _ = labeller_predictions(train, validation, config.labeller_grid, args.jobs)
    packed = np.packbits(predictions, axis=1)
    with _Outputs(out, "train-grid", config) as outputs:
        np.save(outputs.path("checkpoints/predictions.npy"), packed, allow_pickle=False)
    print(f"stored validation predictions of {len(packed)} candidates -> {out / 'checkpoints'}")
    return EXIT_OK


def _load_predictions(out: Path, config: ExperimentConfig, n_validation: int) -> tuple[np.ndarray, list[tuple[HyperParams, int]]]:
    """The stored candidate predictions, unpacked to the int8 0/1 matrix
    `labeller_predictions` returns, and each row's (hyper-params, epoch),
    which the config's labeller grid fixes."""
    matrix = _require_artifact(out, "checkpoints/predictions.npy", "train-grid", config)
    candidates = labeller_candidates(config.labeller_grid)
    packed = read_matrix(matrix, np.uint8, (len(candidates), (n_validation + 7) // 8))
    return np.unpackbits(packed, axis=1, count=n_validation).view(np.int8), candidates


def cmd_label(config: ExperimentConfig, args: argparse.Namespace) -> int:
    out = Path(config.output_dir)
    validation = _read_split(out, "validation", config)
    predictions, candidates = _load_predictions(out, config, len(validation.row_ids))
    labelled = select_labeller(predictions, candidates, validation)
    # The readers of labelled_validation.csv take the reserved columns only.
    labels = replace(validation, features=validation.features[:, :0], feature_names=None, sensitive=labelled.pseudo)
    with _Outputs(out, "label", config) as outputs:
        write_dataset(labels, outputs.path("labelled_validation.csv"))
        outputs.text(
            "labelling.json",
            _json_text(
                {
                    "by_class": {str(y): sel.to_dict() for y, sel in labelled.by_class.items()},
                    "n_candidates": len(candidates),
                    "policy": LABELLING_POLICY,
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
    out = Path(config.output_dir)
    data = _read_split(out, MC_SPLIT, config)
    if data.sensitive is None:
        raise DataError(f"{MC_SPLIT} split carries no ground-truth sensitive attributes")
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
    with _Outputs(out, "mc-sweep", config) as outputs:
        write_sweep_csv(outputs.path("mc_sweep.csv"), edm_records, dp_records)
    print(f"swept {len(mc.grid)} noise cells -> {out / 'mc_sweep.csv'}")
    return EXIT_OK


def cmd_tune(config: ExperimentConfig, args: argparse.Namespace) -> int:
    if config.jtt is None:
        raise ConfigError("jtt: section required for tune")
    out = Path(config.output_dir)
    train = _read_split(out, "train", config)
    validation = _read_split(out, "validation", config)
    test = _read_split(out, "test", config)
    pseudo = None
    if config.jtt.sensitive_source == "pseudo":
        path = out / "labelled_validation.csv"
        labelled = _read_upstream(out, path.name, "label", config, "validation")
        if labelled.sensitive is None:
            raise DataError(f"{path} carries no pseudo labels")
        if not np.array_equal(labelled.row_ids, validation.row_ids):
            raise DataError(f"{path} does not label the rows of the validation split")
        pseudo = labelled.sensitive
    result = grid_search(train, validation, test, config.jtt, pseudo=pseudo, jobs=args.jobs)
    with _Outputs(out, "tune", config) as outputs:
        outputs.text("tuner_result.json", _json_text({"result": result.to_dict()}))
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
    entries = []
    for outcome, erm_outcome in zip(result.bins, result.erm_bins):
        lo, hi = outcome.bin
        entries += [(f"[{100 * lo:.1f},{100 * hi:.1f})", "jtt", outcome), ("", "erm", erm_outcome)]
    entries.append(("unconstrained", "erm", result.erm_baseline))
    rows = [["bin", "method", "validation", "test"]]
    for tag, method, outcome in entries:
        cells = [_fmt_pair(report, result.objective) for report in (outcome.validation, outcome.test)]
        rows.append([tag, method, *(["(empty)"] * 2 if outcome.empty else cells)])
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
    _require_artifact(path.parent, path.name, "tune", None)
    result = _parse_artifact(path, "result file", lambda payload: TunerResult.from_dict(payload["result"]))
    if sys.stdout is None:  # what Python sets when it starts with descriptor 1 closed
        raise DataError("cannot write standard output: descriptor 1 is closed")
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
    except (DataError, TrainingError, EmptyGroupError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"data error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


def _observed() -> bool:
    """Whether a profiler or tracer watches this process (cProfile, a
    debugger, coverage): it reports when the interpreter exits normally."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+; cProfile hooks in there
    hooked = monitoring is not None and any(monitoring.get_tool(i) for i in range(6))
    return hooked or sys.getprofile() is not None or sys.gettrace() is not None


def run() -> int:
    """main() in a process of its own: `fairtune ...` or `python -m fairtune.cli ...`.
    It ends in os._exit, as the module docstring says: main() has closed
    every file and joined every worker by then."""
    gc.freeze()
    gc.enable()
    code = main()
    if _observed():
        return code
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        if code == EXIT_OK:  # a failed command has said why already
            print(f"data error: cannot write standard output: {exc}", file=sys.stderr)
            code = EXIT_DATA_ERROR
    try:
        if sys.stderr is not None:
            sys.stderr.flush()
    except OSError:
        pass  # nowhere left to report it
    os._exit(code)


if __name__ == "__main__":
    raise SystemExit(run())
