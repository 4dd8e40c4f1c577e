"""Declarative experiment configuration.

Experiments are described by one JSON file; command-line flags override
single keys. Every random draw in the pipeline flows from seeds recorded
here. A master `seed` fills any section seed left unset, with fixed offsets
so sections stay decorrelated:

    synthetic data   seed
    split            seed + 1
    model training   seed + 2   (any grid hyper-params without a seed)
    noise sweeps     seed + 3

The canonical hash of the fully resolved configuration is recorded in every
command's manifest, so artifacts can be traced back to the exact settings
that produced them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from functools import partial
from pathlib import Path
from typing import Any, Mapping

from .data import MAX_SIZE, DatasetSchema, SyntheticSpec, check_fractions, check_int, check_keys, check_pair, placed
from .noise import NoiseSpec
from .training import HyperParams
from .tuning import JttConfig

# The one labelling policy, which the config hash records: every epoch of every grid point is a candidate.
LABELLING_POLICY = "every_epoch"
# The one split `mc-sweep` reads, which the config hash records.
MC_SPLIT = "validation"


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def _fail(path: str, msg: str) -> None:
    raise ConfigError(f"{path}: {msg}")


def _section(d: Mapping, path: str, required=()) -> Mapping:
    """d, the config object at `path`, once `check_keys` passes it: each key
    is one of _KEYS[path], and each of `required` is there."""
    return _at(path, check_keys, d, _KEYS[path], required)


def _get(d: Mapping, path: str, key: str, kind: type, default=None):
    """d[key], which must be a `kind` (dict, list or str), or `default` if d
    has no `key`: a key without a default is required. Numbers are left to
    the constructor that holds them."""
    if default is None:
        _section(d, path, (key,))
    value = d.get(key, default)
    if not isinstance(value, kind):
        _fail(f"{path}.{key}" if path else key, f"expected {kind.__name__}, got {type(value).__name__}")
    return value


_at = partial(placed, error=ConfigError)  # build(*args, **kwargs), its ValueError placed at a config path


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

    def __post_init__(self) -> None:
        cells = tuple(check_pair(cell, f"grid[{i}]", "alpha, beta") for i, cell in enumerate(self.grid))
        for i, (alpha, beta) in enumerate(cells):
            _at(f"grid[{i}]", NoiseSpec, alpha, beta)
        object.__setattr__(self, "grid", cells)
        object.__setattr__(self, "n_samples", check_int(self.n_samples, "n_samples", 1, MAX_SIZE))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0))


# The keys each config section may hold, by path; a section that one type holds
# whole takes its fields. The objects a type reads itself (`from_dict` of
# SyntheticSpec, DatasetSchema and HyperParams) check theirs the same way.
_KEYS = {
    "": ("seed", "output_dir", "dataset", "split", "labeller_grid", "labelling", "jtt", "mc_noise"),
    "dataset": ("kind", "synthetic", "csv"),
    "dataset.csv": ("path", "schema_path"),
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
            "labelling": {"policy": LABELLING_POLICY},
        }
        if self.synthetic is not None:
            d["dataset"]["synthetic"] = self.synthetic.to_dict()
        if self.csv_path is not None:
            d["dataset"]["csv"] = {"path": self.csv_path, "schema": self.schema.to_dict()}
        if self.jtt is not None:
            d["jtt"] = self.jtt.to_dict()
        if self.mc_noise is not None:
            d["mc_noise"] = {**asdict(self.mc_noise), "split": MC_SPLIT}
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
        spec_raw = {"seed": master, **_get(dataset, "dataset", "synthetic", dict)}
        synthetic = _at("dataset.synthetic", SyntheticSpec.from_dict, spec_raw)
    elif kind == "csv":
        csv_section = _section(_get(dataset, "dataset", "csv", dict), "dataset.csv")
        csv_path = _get(csv_section, "dataset.csv", "path", str)
        if base_dir is not None and not Path(csv_path).is_absolute():
            csv_path = str(base_dir / csv_path)
        p = Path(_get(csv_section, "dataset.csv", "schema_path", str))
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        if not p.exists():
            _fail("dataset.csv.schema_path", f"no such file: {p}")
        # A fault inside the schema file names the file, not a config key.
        schema_raw = _read_json(p)
        if not isinstance(schema_raw, dict):
            _fail(str(p), f"expected dict, got {type(schema_raw).__name__}")
        try:
            schema = DatasetSchema.from_dict(schema_raw)
        except ValueError as exc:
            _fail(str(p), str(exc))
    else:
        _fail("dataset.kind", f"expected 'synthetic' or 'csv', got {kind!r}")

    split_section = _section(_get(raw, "", "split", dict), "split")
    fractions = _at("split", check_fractions, _get(split_section, "split", "fractions", list))
    split_seed = _at("split", check_int, split_section.get("seed", master + 1), "seed", 0)

    model_seed = master + 2
    labeller_grid = _grid(_get(raw, "", "labeller_grid", list), "labeller_grid", model_seed)

    labelling = _section(_get(raw, "", "labelling", dict, default={}), "labelling")
    policy = _get(labelling, "labelling", "policy", str, default=LABELLING_POLICY)
    if policy != LABELLING_POLICY:
        _fail("labelling.policy", f"expected {LABELLING_POLICY!r}, got {policy!r}")

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
            sensitive_source=_get(j, "jtt", "sensitive_source", str, default="pseudo"),
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
