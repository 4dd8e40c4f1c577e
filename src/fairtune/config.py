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
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from .data import MAX_SIZE, DatasetSchema, SyntheticSpec, check_fractions, check_int, check_pair
from .noise import NoiseSpec
from .training import HyperParams
from .tuning import JttConfig

LABELLING_POLICIES = ("every_epoch", "final_epoch")
MC_SPLITS = ("train", "validation", "test")


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def _fail(path: str, msg: str) -> None:
    raise ConfigError(f"{path}: {msg}")


def _section(d: Mapping, path: str) -> Mapping:
    """d, the config object at `path`, once each of its keys is known."""
    for key in d:
        if key not in _KEYS[path]:
            _fail(f"{path}.{key}" if path else key, "unknown key")
    return d


def _get(d: Mapping, path: str, key: str, kind: type, required: bool = True, default=None):
    """d[key], which must be a `kind` (dict, list or str); numbers are left
    to the constructor that holds them."""
    here = f"{path}.{key}" if path else key
    if key not in d:
        if required:
            _fail(here, "missing required key")
        return default
    value = d[key]
    if not isinstance(value, kind):
        _fail(here, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def _at(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), with `path` prefixed to the "<field>: <problem>"
    ValueError of the constructor or checker it runs."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}" if path else str(exc)) from None


def _grid(raw, path: str, default_seed: int) -> tuple[HyperParams, ...]:
    if not isinstance(raw, list) or not raw:
        _fail(path, "expected a nonempty list of hyper-parameter objects")
    for i, h in enumerate(raw):
        if not isinstance(h, dict):
            _fail(f"{path}[{i}]", "expected an object")
    return tuple(_at(f"{path}[{i}]", HyperParams.from_dict, {"seed": default_seed, **h}) for i, h in enumerate(raw))


@dataclass(frozen=True)
class McNoiseSection:
    grid: tuple[tuple[float, float], ...]
    n_samples: int
    seed: int
    split: str = "validation"

    def __post_init__(self) -> None:
        cells = tuple(check_pair(cell, f"grid[{i}]", "alpha, beta") for i, cell in enumerate(self.grid))
        for i, (alpha, beta) in enumerate(cells):
            _at(f"grid[{i}]", NoiseSpec, alpha, beta)
        object.__setattr__(self, "grid", cells)
        object.__setattr__(self, "n_samples", check_int(self.n_samples, "n_samples", 1, MAX_SIZE))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0))
        if self.split not in MC_SPLITS:
            raise ValueError(f"split: expected one of {MC_SPLITS}, got {self.split!r}")


# The keys each config object may hold, by path: a key outside its list is
# an error, so a typo cannot fall back to a default. A section that one
# type holds whole takes that type's fields; HyperParams.from_dict checks
# the keys of grid points the same way.
_KEYS = {
    "": ("seed", "output_dir", "dataset", "split", "labeller_grid", "labelling", "jtt", "mc_noise"),
    "dataset": ("kind", "synthetic", "csv"),
    "dataset.synthetic": tuple(f.name for f in fields(SyntheticSpec)),
    "dataset.csv": ("path", "schema", "schema_path"),
    "split": ("fractions", "seed"),
    "labelling": ("policy",),
    "jtt": tuple(f.name for f in fields(JttConfig)),
    "mc_noise": tuple(f.name for f in fields(McNoiseSection)),
}


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
            d["mc_noise"] = asdict(self.mc_noise)
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
    _section(raw, "")
    master = _at("", check_int, raw.get("seed", 0) if seed_override is None else seed_override, "seed", 0)
    output_dir = out_override if out_override is not None else _get(raw, "", "output_dir", str)

    dataset = _section(_get(raw, "", "dataset", dict), "dataset")
    kind = _get(dataset, "dataset", "kind", str)
    synthetic = None
    csv_path = None
    schema = None
    if kind == "synthetic":
        spec_raw = {"seed": master, **_section(_get(dataset, "dataset", "synthetic", dict), "dataset.synthetic")}
        synthetic = _at("dataset.synthetic", SyntheticSpec.from_dict, spec_raw)
    elif kind == "csv":
        csv_section = _section(_get(dataset, "dataset", "csv", dict), "dataset.csv")
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
        if not isinstance(schema_raw, dict):
            _fail("dataset.csv.schema", f"expected dict, got {type(schema_raw).__name__}")
        schema = _at("dataset.csv.schema", DatasetSchema.from_dict, schema_raw)
    else:
        _fail("dataset.kind", f"expected 'synthetic' or 'csv', got {kind!r}")

    split_section = _section(_get(raw, "", "split", dict), "split")
    fractions = _at("split", check_fractions, _get(split_section, "split", "fractions", list))
    split_seed = _at("split", check_int, split_section.get("seed", master + 1), "seed", 0)

    model_seed = master + 2
    labeller_grid = _grid(_get(raw, "", "labeller_grid", list), "labeller_grid", model_seed)

    labelling = _get(raw, "", "labelling", dict, required=False, default={"policy": "every_epoch"})
    _section(labelling, "labelling")
    policy = _get(labelling, "labelling", "policy", str, required=False, default="every_epoch")
    if policy not in LABELLING_POLICIES:
        _fail("labelling.policy", f"expected one of {LABELLING_POLICIES}, got {policy!r}")

    jtt = None
    if "jtt" in raw:
        j = _section(_get(raw, "", "jtt", dict), "jtt")
        jtt = _at(
            "jtt",
            JttConfig,
            stage1_grid=_grid(_get(j, "jtt", "stage1_grid", list), "jtt.stage1_grid", model_seed),
            t_grid=_get(j, "jtt", "t_grid", list),
            lambda_grid=_get(j, "jtt", "lambda_grid", list),
            stage2_grid=_grid(_get(j, "jtt", "stage2_grid", list), "jtt.stage2_grid", model_seed),
            objective=_get(j, "jtt", "objective", str),
            accuracy_bins=_get(j, "jtt", "accuracy_bins", list),
            sensitive_source=_get(j, "jtt", "sensitive_source", str, required=False, default="pseudo"),
        )

    mc = None
    if "mc_noise" in raw:
        m = _section(_get(raw, "", "mc_noise", dict), "mc_noise")
        mc = _at(
            "mc_noise",
            McNoiseSection,
            grid=_get(m, "mc_noise", "grid", list),
            n_samples=m.get("n_samples", 100_000),
            seed=m.get("seed", master + 3),
            split=_get(m, "mc_noise", "split", str, required=False, default="validation"),
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
