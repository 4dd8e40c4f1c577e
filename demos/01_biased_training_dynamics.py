"""Why tuning needs group labels: plain training is accurate but unfair.

Generates a two-class dataset whose minority subgroups sit on the wrong side
of the majority decision boundary, trains a plain classifier, and prints the
fairness picture per epoch. Average accuracy looks fine while the minority
subgroups are classified at or near zero accuracy.
"""

import numpy as np

from fairtune import (
    BlockSpec,
    HyperParams,
    SyntheticSpec,
    generate_synthetic,
    predict,
    split,
    standardize,
    train_erm,
)
from fairtune.metrics import report_from_predictions

spec = SyntheticSpec(
    blocks={
        (1, 1): BlockSpec(900, (2.0, 0.0), (1.0, 1.0)),
        (1, 0): BlockSpec(100, (-2.0, 0.0), (1.0, 1.0)),
        (0, 1): BlockSpec(900, (0.0, 2.0), (1.0, 1.0)),
        (0, 0): BlockSpec(100, (0.0, -2.0), (1.0, 1.0)),
    },
    seed=13,
)
data = generate_synthetic(spec)
train, validation, test = standardize(*split(data, (0.6, 0.2, 0.2), seed=14))

print(f"{data.n_rows} rows, minority share {np.mean(data.sensitive == 0):.0%}")
print()
print("epoch   val acc   dp gap   eo gap    wga   per-subgroup accuracy (y,a)")
checkpoints = train_erm(train, HyperParams(learning_rate=0.1, epochs=20, batch_size=64, seed=15))
for model in checkpoints:
    if model.trained_epochs in (1, 2, 5, 10, 20):
        rep = report_from_predictions(predict(model, validation), validation.targets, validation.sensitive)
        cells = "  ".join(
            f"{key}={rep.subgroup_accuracy[key]:.2f}" for key in sorted(rep.subgroup_accuracy)
        )
        print(
            f"{model.trained_epochs:5d}   {rep.avg_accuracy:.3f}   {rep.dp_gap:.3f}"
            f"    {rep.eo_gap:.3f}   {rep.wga:.3f}  {cells}"
        )

final = report_from_predictions(predict(checkpoints[-1], test), test.targets, test.sensitive)
print()
print(
    f"final test report: accuracy {final.avg_accuracy:.3f} but worst subgroup {final.wga:.3f} "
    "- the model has quietly sacrificed the minorities"
)
