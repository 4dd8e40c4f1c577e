"""Tuning the two-stage trainer with pseudo labels vs ground truth.

Runs the accuracy-constrained search three ways on the same planted data:
scored with pseudo group labels (the no-access setting), scored with ground
truth (the oracle upper bound), and the plain single-stage baseline. The
pseudo-labelled run should land close to the oracle and far ahead of the
baseline on the demographic-parity gap.
"""

import sys
from pathlib import Path

from fairtune import HyperParams, JttConfig, grid_search
from fairtune.cli import render_table
from fairtune.labelling import labeller_predictions, select_labeller

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import planted_splits  # noqa: E402

train, validation, test = planted_splits(n_per_class=1000, minority_fraction=0.1, seed=13)

labeller_grid = [HyperParams(learning_rate=0.1, epochs=20, batch_size=64, seed=15)]
predictions, candidates = labeller_predictions(train, validation, labeller_grid)
pseudo = select_labeller(predictions, candidates, validation)

search = dict(
    stage1_grid=(HyperParams(learning_rate=0.1, epochs=20, batch_size=64, seed=15),),
    t_grid=(1, 5),
    lambda_grid=(1, 5, 20),
    stage2_grid=(HyperParams(learning_rate=0.1, epochs=30, batch_size=64, seed=15, hidden_units=8),),
    objective="dp_gap",
    accuracy_bins=((0.80, 0.825), (0.825, 0.85), (0.85, 0.875)),
)

for source, kwargs in (
    ("pseudo labels", dict(sensitive_source="pseudo")),
    ("ground truth", dict(sensitive_source="ground_truth")),
):
    config = JttConfig(**search, **kwargs)
    result = grid_search(
        train, validation, test, config,
        pseudo=pseudo.pseudo if kwargs["sensitive_source"] == "pseudo" else None,
    )
    print(f"=== scored with {source} ===")
    print(render_table(result))
