"""Picking the best mistake-based labeller without ever seeing group labels.

Every training checkpoint splits the validation set into rows it classifies
correctly (pseudo majority) and incorrectly (pseudo minority). The mean
distance between those two row sets is computable without group labels, and
it tracks the (hidden) label quality: this script prints both side by side,
then shows which epoch the selection rule picks per target class.
"""

import sys
from pathlib import Path

import numpy as np

from fairtune import HyperParams, pseudo_label_quality
from fairtune.labelling import labeller_predictions, score_labels_by_class, select_labeller

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import planted_splits  # noqa: E402  (shared planted-data builder)

train, validation, _ = planted_splits(n_per_class=1000, minority_fraction=0.1, seed=13)
grid = [HyperParams(learning_rate=0.1, epochs=20, batch_size=64, seed=15, hidden_units=8)]
predictions, candidates = labeller_predictions(train, validation, grid)
label_sets = (predictions == validation.targets).astype(np.int8)
scores = score_labels_by_class(label_sets, validation.features, validation.targets)

print("per-epoch labeller quality on the positive class (hidden columns are")
print("computable only with ground truth; the selector sees just the EDM):")
print()
print("epoch    EDM   | 1-alpha-beta   pseudo-label acc")
for i, (_, epoch) in enumerate(candidates):
    quality = pseudo_label_quality(label_sets[i], validation.sensitive, validation.targets)
    edm_score = scores[1][i]
    # A skipped candidate has an empty pseudo group, so 1-alpha-beta is undefined.
    shown = "  skip" if np.isnan(edm_score) else f"{edm_score:6.3f}"
    purity = "     -" if np.isnan(edm_score) else f"{quality.by_class[1].one_minus_sum:6.3f}"
    print(f"{epoch:5d}  {shown} |     {purity}          {quality.accuracy_by_class[1]:.3f}")

selected = select_labeller(predictions, candidates, validation)
print()
for y in (0, 1):
    sel = selected.by_class[y]
    print(f"class {y}: selected epoch {sel.epoch} (EDM {sel.edm_score:.3f})")
overall = pseudo_label_quality(selected.pseudo, validation.sensitive, validation.targets)
print(f"merged pseudo-label accuracy: {overall.accuracy_overall:.3f}")
