"""Fair-classifier tuning without sensitive attribute access.

The pipeline: train a family of deliberately biased classifiers, turn each
one's validation mistakes into pseudo sensitive-attribute labels, keep the
labeller whose correct/incorrect sets are farthest apart in mean (per target
class), then use the pseudo-labelled validation set to tune a two-stage
error-upweighting trainer under average-accuracy constraints. A companion
noise laboratory checks the contamination-mixture identities that justify
the selection rule.
"""

from .data import (
    BlockSpec,
    DataError,
    DatasetSchema,
    EmptySplitError,
    SchemaError,
    Standardizer,
    SyntheticSpec,
    TabularDataset,
    apply_standardizer,
    fit_standardizer,
    generate_synthetic,
    load_csv,
    read_dataset,
    split,
    write_dataset,
)
from .labelling import (
    PseudoLabelledValidation,
    SelectionError,
    edm,
    labeller_predictions,
    select_labeller,
)
from .metrics import (
    ClassContamination,
    EmptyGroupError,
    FairnessReport,
    PseudoLabelQuality,
    accuracy,
    dp_gap,
    eo_gap,
    full_report,
    pseudo_label_quality,
    subgroup_accuracies,
    wga,
)
from .noise import (
    MixedGroups,
    NoiseSpec,
    mix_groups,
    verify_edm_lemma,
    verify_proportionality,
)
from .training import (
    HyperParams,
    ModelParams,
    TrainingError,
    load_model,
    predict,
    predict_proba,
    save_model,
    train_erm,
    train_upsampled,
)
from .tuning import CandidateRef, JttConfig, TunerResult, grid_search

__version__ = "0.1.0"
