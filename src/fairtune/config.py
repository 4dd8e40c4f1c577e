"""Declarative experiment configuration.

Experiments are described by one JSON file; command-line flags override
single keys. Every random draw in the pipeline flows from seeds recorded
here. A master `seed` fills any section seed left unset, with fixed offsets
so sections stay decorrelated:

    synthetic data   seed
    split            seed + 1
    model training   seed + 2   (any grid hyper-params without a seed)
    noise sweeps     seed + 3

The canonical hash of the fully resolved configuration is embedded in every
output file, so artifacts can be traced back to the exact settings that
produced them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .data import DatasetSchema, SchemaError, SyntheticSpec
from .training import HyperParams
from .tuning import JttConfig

LABELLING_POLICIES = ("every_epoch", "final_epoch")


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def _fail(path: str, msg: str) -> None:
    raise ConfigError(f"{path}: {msg}")


def _get(d: Mapping, path: str, key: str, kind, required: bool = True, default=None):
    here = f"{path}.{key}" if path else key
    if key not in d:
        if required:
            _fail(here, "missing required key")
        return default
    value = d[key]
    if isinstance(value, bool) and kind in (int, float):
        _fail(here, f"expected {kind.__name__}, got bool")
    if kind is float and isinstance(value, int):
        value = float(value)
    if kind is not None and not isinstance(value, kind):
        _fail(here, f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number_pair(cell, path: str, names: str) -> tuple[float, float]:
    if not isinstance(cell, list) or len(cell) != 2 or not all(_is_number(v) for v in cell):
        _fail(path, f"expected [{names}], two numbers")
    return float(cell[0]), float(cell[1])


def _int_list(d: Mapping, path: str, key: str) -> tuple[int, ...]:
    values = _get(d, path, key, list)
    for i, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool):
            _fail(f"{path}.{key}[{i}]", f"expected int, got {type(v).__name__}")
    return tuple(values)


def _seed(value: int, path: str) -> int:
    if value < 0:
        _fail(path, f"must be >= 0, got {value}")
    return value


def _hyperparams(d: Mapping, path: str, default_seed: int) -> HyperParams:
    if not isinstance(d, dict):
        _fail(path, "expected an object")
    try:
        return HyperParams(
            learning_rate=_get(d, path, "learning_rate", float),
            weight_decay=_get(d, path, "weight_decay", float, required=False, default=0.0),
            epochs=_get(d, path, "epochs", int, required=False, default=1),
            batch_size=_get(d, path, "batch_size", int, required=False, default=64),
            seed=_get(d, path, "seed", int, required=False, default=default_seed),
            hidden_units=_get(d, path, "hidden_units", int, required=False, default=0),
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        _fail(path, str(exc))


def _grid(raw, path: str, default_seed: int) -> tuple[HyperParams, ...]:
    if not isinstance(raw, list) or not raw:
        _fail(path, "expected a nonempty list of hyper-parameter objects")
    return tuple(_hyperparams(h, f"{path}[{i}]", default_seed) for i, h in enumerate(raw))


@dataclass(frozen=True)
class McNoiseSection:
    grid: tuple[tuple[float, float], ...]
    n_samples: int
    seed: int
    split: str = "validation"


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    output_dir: str
    dataset_kind: str  # "synthetic" or "csv"
    synthetic: SyntheticSpec | None
    csv_path: str | None
    schema: DatasetSchema | None
    split_fractions: tuple[float, float, float]
    split_seed: int
    labeller_grid: tuple[HyperParams, ...]
    labelling_policy: str
    jtt: JttConfig | None
    mc_noise: McNoiseSection | None

    def resolved_dict(self) -> dict:
        """Fully resolved configuration (all defaults applied), for hashing
        and for the audit trail."""
        d: dict[str, Any] = {
            "seed": self.seed,
            "output_dir": self.output_dir,
            "dataset": {"kind": self.dataset_kind},
            "split": {"fractions": list(self.split_fractions), "seed": self.split_seed},
            "labeller_grid": [hp.to_dict() for hp in self.labeller_grid],
            "labelling": {"policy": self.labelling_policy},
        }
        if self.synthetic is not None:
            d["dataset"]["synthetic"] = self.synthetic.to_dict()
        if self.csv_path is not None:
            d["dataset"]["csv"] = {"path": self.csv_path, "schema": self.schema.to_dict()}
        if self.jtt is not None:
            d["jtt"] = self.jtt.to_dict()
        if self.mc_noise is not None:
            d["mc_noise"] = {
                "grid": [list(c) for c in self.mc_noise.grid],
                "n_samples": self.mc_noise.n_samples,
                "seed": self.mc_noise.seed,
                "split": self.mc_noise.split,
            }
        return d

    def canonical_hash(self) -> str:
        """Hash of the experiment semantics; where outputs land is excluded."""
        d = self.resolved_dict()
        d.pop("output_dir", None)
        blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def parse_config(
    raw: Mapping,
    base_dir: Path | None = None,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> ExperimentConfig:
    if not isinstance(raw, Mapping):
        raise ConfigError("configuration root must be an object")
    master = seed_override if seed_override is not None else _get(raw, "", "seed", int, required=False, default=0)
    _seed(master, "seed")
    output_dir = out_override if out_override is not None else _get(raw, "", "output_dir", str)

    dataset = _get(raw, "", "dataset", dict)
    kind = _get(dataset, "dataset", "kind", str)
    synthetic = None
    csv_path = None
    schema = None
    if kind == "synthetic":
        spec_raw = dict(_get(dataset, "dataset", "synthetic", dict))
        spec_raw.setdefault("seed", master)
        try:
            synthetic = SyntheticSpec.from_dict(spec_raw)
        except ValueError as exc:
            _fail("dataset.synthetic", str(exc))
        _seed(synthetic.seed, "dataset.synthetic.seed")
    elif kind == "csv":
        csv_section = _get(dataset, "dataset", "csv", dict)
        csv_path = _get(csv_section, "dataset.csv", "path", str)
        if base_dir is not None and not Path(csv_path).is_absolute():
            csv_path = str(base_dir / csv_path)
        schema_raw = csv_section.get("schema")
        schema_path = csv_section.get("schema_path")
        if (schema_raw is None) == (schema_path is None):
            _fail("dataset.csv", "exactly one of 'schema' and 'schema_path' is required")
        if schema_path is not None:
            p = Path(schema_path)
            if base_dir is not None and not p.is_absolute():
                p = base_dir / p
            if not p.exists():
                _fail("dataset.csv.schema_path", f"no such file: {p}")
            schema_raw = _read_json(p)
        try:
            schema = DatasetSchema.from_dict(schema_raw)
        except SchemaError as exc:
            _fail("dataset.csv.schema", str(exc))
    else:
        _fail("dataset.kind", f"expected 'synthetic' or 'csv', got {kind!r}")

    split_section = _get(raw, "", "split", dict)
    fractions_raw = _get(split_section, "split", "fractions", list)
    if len(fractions_raw) != 3 or not all(_is_number(f) for f in fractions_raw):
        _fail("split.fractions", "expected three numbers")
    fractions = tuple(float(f) for f in fractions_raw)
    split_seed = _seed(_get(split_section, "split", "seed", int, required=False, default=master + 1), "split.seed")

    model_seed = master + 2
    labeller_grid = _grid(_get(raw, "", "labeller_grid", list), "labeller_grid", model_seed)

    labelling = _get(raw, "", "labelling", dict, required=False, default={"policy": "every_epoch"})
    policy = _get(labelling, "labelling", "policy", str, required=False, default="every_epoch")
    if policy not in LABELLING_POLICIES:
        _fail("labelling.policy", f"expected one of {LABELLING_POLICIES}, got {policy!r}")

    jtt = None
    if "jtt" in raw:
        j = _get(raw, "", "jtt", dict)
        bins = tuple(
            _number_pair(cell, f"jtt.accuracy_bins[{i}]", "lo, hi")
            for i, cell in enumerate(_get(j, "jtt", "accuracy_bins", list))
        )
        try:
            jtt = JttConfig(
                stage1_grid=_grid(_get(j, "jtt", "stage1_grid", list), "jtt.stage1_grid", model_seed),
                t_grid=_int_list(j, "jtt", "t_grid"),
                lambda_grid=_int_list(j, "jtt", "lambda_grid"),
                stage2_grid=_grid(_get(j, "jtt", "stage2_grid", list), "jtt.stage2_grid", model_seed),
                objective=_get(j, "jtt", "objective", str),
                accuracy_bins=bins,
                sensitive_source=_get(j, "jtt", "sensitive_source", str, required=False, default="pseudo"),
            )
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            _fail("jtt", str(exc))

    mc = None
    if "mc_noise" in raw:
        m = _get(raw, "", "mc_noise", dict)
        grid_raw = _get(m, "mc_noise", "grid", list)
        cells = []
        for i, cell in enumerate(grid_raw):
            a, b = _number_pair(cell, f"mc_noise.grid[{i}]", "alpha, beta")
            if not (0 <= a <= 1 and 0 <= b <= 1):
                _fail(f"mc_noise.grid[{i}]", "rates must lie in [0, 1]")
            cells.append((a, b))
        mc_split = _get(m, "mc_noise", "split", str, required=False, default="validation")
        if mc_split not in ("train", "validation", "test"):
            _fail("mc_noise.split", f"unknown split {mc_split!r}")
        n_samples = _get(m, "mc_noise", "n_samples", int, required=False, default=100_000)
        if n_samples < 1:
            _fail("mc_noise.n_samples", f"must be >= 1, got {n_samples}")
        mc = McNoiseSection(
            grid=tuple(cells),
            n_samples=n_samples,
            seed=_seed(_get(m, "mc_noise", "seed", int, required=False, default=master + 3), "mc_noise.seed"),
            split=mc_split,
        )

    return ExperimentConfig(
        seed=master,
        output_dir=output_dir,
        dataset_kind=kind,
        synthetic=synthetic,
        csv_path=csv_path,
        schema=schema,
        split_fractions=fractions,
        split_seed=split_seed,
        labeller_grid=labeller_grid,
        labelling_policy=policy,
        jtt=jtt,
        mc_noise=mc,
    )


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from None


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | None = None,
) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(
        _read_json(path), base_dir=path.parent, seed_override=seed_override, out_override=out_override
    )
