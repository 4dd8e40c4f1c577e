"""Fair-classifier tuning without sensitive attribute access.

The pipeline: train a family of deliberately biased classifiers, turn each
one's validation mistakes into pseudo sensitive-attribute labels, keep the
labeller whose correct/incorrect sets are farthest apart in mean (per target
class), then use the pseudo-labelled validation set to tune a two-stage
error-upweighting trainer under average-accuracy constraints. A companion
noise laboratory checks the contamination-mixture identities that justify
the selection rule.

The names below are loaded from their submodules on first use, so importing
the package loads no numpy: `fairtune.cli` can then start OpenBLAS on one
thread before numpy loads it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Environment variables by which a user sets the BLAS thread count; when any
# is set, neither the CLI nor pool_map changes the count.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_EXPORTS = {
    "data": (
        "BlockSpec",
        "DataError",
        "DatasetSchema",
        "EmptySplitError",
        "SchemaError",
        "Standardizer",
        "SyntheticSpec",
        "TabularDataset",
        "apply_standardizer",
        "fit_standardizer",
        "generate_synthetic",
        "load_csv",
        "read_dataset",
        "split",
        "write_dataset",
    ),
    "labelling": (
        "PseudoLabelledValidation",
        "SelectionError",
        "edm",
        "labeller_predictions",
        "select_labeller",
    ),
    "metrics": (
        "ClassContamination",
        "EmptyGroupError",
        "FairnessReport",
        "PseudoLabelQuality",
        "accuracy",
        "dp_gap",
        "eo_gap",
        "full_report",
        "pseudo_label_quality",
        "subgroup_accuracies",
        "wga",
    ),
    "noise": (
        "MixedGroups",
        "NoiseSpec",
        "mix_groups",
        "verify_edm_lemma",
        "verify_proportionality",
    ),
    "training": (
        "HyperParams",
        "ModelParams",
        "TrainingError",
        "load_model",
        "predict",
        "predict_proba",
        "save_model",
        "train_erm",
        "train_upsampled",
    ),
    "tuning": ("CandidateRef", "JttConfig", "TunerResult", "grid_search"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
