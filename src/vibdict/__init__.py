"""Shift-invariant dictionary learning for vibration condition monitoring.

The toolkit learns a small dictionary of unit-norm waveforms (atoms) from
healthy vibration segments by alternating convolutional greedy sparse
coding with online gradient updates, then tracks machine health through
dictionary-based indicators: reconstruction fidelity, distance to the
baseline dictionary, and fleet-relative MAD scores, with ROC evaluation
against labeled fault windows.

The names below are imported on first use (PEP 562), so ``import
vibdict`` loads no submodule and each command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the public names it defines.
_EXPORTS = {
    "coding": ("AtomInstance", "CodingConfig", "SparseCode", "encode", "instance_budget",
               "mp_encode", "omp_encode", "reconstruct"),
    "defaults": ("ALGORITHMS",),
    "detect": ("LabeledWindow", "RocCurve", "RocPoint", "min_diff_series", "roc_curve",
               "series_samples", "slope_indicator"),
    "dictionary": ("Atom", "Dictionary", "init_pseudorandom", "load_dictionary", "maybe_grow",
                   "save_dictionary", "unit_normalize"),
    "errors": ("ConfigError", "DataError", "NumericError", "VibdictError"),
    "ingest": ("SegmentGate", "SignalSegment", "gate_by_rms", "load_segments", "preprocess",
               "rms", "sample_blocks"),
    "learning": ("LearnConfig", "MonitorState", "TrainResult", "gradient_update",
                 "monitor_segments", "monitor_step", "train_baseline"),
    "metrics": ("HistoryRecord", "IndicatorSeries", "atom_coherence", "atom_similarity_beta",
                "dictionary_distance", "fidelity_db", "lowpass", "mad_scores", "mad_series"),
    "synth": ("FaultSpec", "SynthSpec", "default_fleet_specs", "default_planted_atoms",
              "gabor_atom", "generate_fleet", "generate_segment", "write_fleet"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
