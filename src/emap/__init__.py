"""emap: diagnostics for cross-modal interaction use in two-input classifiers.

The core object is the score grid -- a model's outputs over every
text x visual cross-pairing of an evaluation set -- and its closed-form
least-squares projection onto the additive family ``f_T(t) + f_V(v)``.
Comparing a model's paired predictions with the projected ones isolates how
much of its performance depends on genuine cross-modal interaction.

The names of ``__all__`` are imported from their modules on first access,
so ``import emap`` (and the CLI's argument parser) loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# numpy-free constants the CLI parser needs; their modules import them from here
SPLIT_NAMES = ("train", "val", "test")
METRIC_NAMES = ("accuracy", "auc", "weighted_f1")
MAX_TABLE_N = 10  # a 1024 x 1024 table: about a million cells

# public name -> the module that defines it
_EXPORTS = {
    "PairedDataset": "data",
    "ScoreGrid": "grid",
    "AdditiveDecomposition": "grid",
    "build_grid": "grid",
    "emap_decompose": "grid",
    "emap_predictions": "grid",
    "projection_loss": "grid",
    "StationarityReport": "oracle",
    "solve_exact": "oracle",
    "check_stationarity": "oracle",
    "check_hessian": "oracle",
    "verify_projection": "oracle",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
