"""The README's library snippet runs as written on planted data, and its
config reference lists every key a config may hold."""

import re
from dataclasses import fields
from pathlib import Path

from fairtune import HyperParams, JttConfig, PseudoLabelledValidation, TunerResult
from fairtune.config import _KEYS
from fairtune.data import DatasetSchema, SyntheticSpec

from conftest import planted_splits

README = Path(__file__).resolve().parent.parent / "README.md"


def library_snippet() -> str:
    text = README.read_text(encoding="utf-8").split("Library use in a few lines:", 1)[1]
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def test_readme_library_use_runs():
    train, validation, test = planted_splits(n_per_class=300, seed=3)
    grid = (HyperParams(learning_rate=0.1, epochs=3, batch_size=64, seed=1),)
    config = JttConfig(
        stage1_grid=grid,
        t_grid=(1,),
        lambda_grid=(1, 5),
        stage2_grid=grid,
        objective="dp_gap",
        accuracy_bins=((0.0, 0.5), (0.5, 1.0)),
    )
    scope = {"train": train, "validation": validation, "test": test, "grid": grid, "config": config}
    exec(library_snippet(), scope)
    assert scope["predictions"].shape == (3, validation.n_rows)
    assert [epoch for _, epoch in scope["candidates"]] == [1, 2, 3]
    assert isinstance(scope["labelled"], PseudoLabelledValidation)
    assert isinstance(scope["result"], TunerResult)
    assert scope["result"].sensitive_source == "pseudo"


def test_config_reference_lists_every_config_key():
    table = README.read_text(encoding="utf-8").split("| key | type | default | read by |\n", 1)[1].split("\n\n", 1)[0]
    listed = [re.match(r"\| (grid point )?`([^`]+)` \|", row) for row in table.splitlines()[1:]]
    assert all(listed), table
    keys = [("grid point " if m.group(1) else "") + m.group(2) for m in listed]
    expected = {f"{path}.{key}" if path else key for path, names in _KEYS.items() for key in names}
    expected |= {f"dataset.synthetic.{f.name}" for f in fields(SyntheticSpec)}
    expected |= {f"dataset.csv.schema.{f.name}" for f in fields(DatasetSchema)}
    expected |= {f"grid point {f.name}" for f in fields(HyperParams)}
    assert len(keys) == len(set(keys))
    assert set(keys) == expected
