"""Interpretable binary diagnosis with self-organizing logic networks.

The pipeline: encode each feature as one bit against a fitted
threshold, grow a layered network of two-input logic units under an
external selection criterion, read the final layer as an M-of-N
syndrome complex, and tabulate it as a diagnostic lookup table whose
signed entries carry both the decision and its vote count.
"""

import importlib

__version__ = "0.1.0"

# The public names of each module.  A name is imported on first access
# (PEP 562), so `import mofn` and the rule-applying commands do not load
# numpy, which only data loading, training and tables need.
_MODULES = {
    "data": ("Dataset", "FeatureSpec", "load_csv", "to_csv"),
    "encoding": ("Encoder", "encode_dataset", "fit_feature"),
    "logic": ("LogicFunction", "catalog", "complement_id", "eval_fn", "function_ids",
              "truth_row"),
    "network": ("Network", "classify", "train"),
    "config": ("TrainConfig",),
    "rules": ("SignedDecision", "SyndromeComplex", "decision_levels", "describe_decision",
              "evaluate", "extract", "parse_formula_table", "to_formula_table",
              "vote_decision"),
    "tables": ("DiagnosticTable", "detect_contradictions", "make_table", "render"),
    "errors": ("MofnError", "CatalogError", "DataError", "EncodingError", "EvaluationError",
               "ModelFormatError", "TableError", "TrainingError"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Import the module of a public name on first access, then keep it."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
