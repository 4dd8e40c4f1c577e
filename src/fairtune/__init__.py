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

_EXPORTS = {
    "data": (
        "BlockSpec",
        "DataError",
        "DatasetSchema",
        "SyntheticSpec",
        "TabularDataset",
        "generate_synthetic",
        "load_csv",
        "read_dataset",
        "split",
        "standardize",
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
        "dp_gap",
        "eo_gap",
        "pseudo_label_quality",
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


def run() -> int:
    """The `fairtune` console script: `fairtune.cli.run()`, with the cyclic
    garbage collector off while numpy and fairtune load."""
    import gc

    gc.disable()
    from .cli import run as run_command

    return run_command()
