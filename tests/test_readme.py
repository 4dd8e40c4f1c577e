"""The README's library snippet runs as written on planted data."""

import re
from pathlib import Path

from fairtune import HyperParams, JttConfig, PseudoLabelledValidation, TunerResult

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
