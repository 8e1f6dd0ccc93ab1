"""Shift-invariant dictionary learning for vibration condition monitoring.

The toolkit learns a small dictionary of unit-norm waveforms (atoms) from
healthy vibration segments by alternating convolutional greedy sparse
coding with online gradient updates, then tracks machine health through
dictionary-based indicators: reconstruction fidelity, distance to the
baseline dictionary, adaptation rate, and fleet-relative MAD scores, with
ROC evaluation against labeled fault windows.
"""

from .coding import (
    ALGORITHMS,
    AtomInstance,
    CodingConfig,
    SparseCode,
    encode,
    instance_budget,
    mp_encode,
    omp_encode,
    reconstruct,
)
from .detect import (
    LabeledWindow,
    RocCurve,
    RocPoint,
    min_diff_series,
    roc_curve,
    series_samples,
    slope_indicator,
)
from .dictionary import (
    Atom,
    Dictionary,
    init_pseudorandom,
    load_dictionary,
    maybe_grow,
    save_dictionary,
    unit_normalize,
)
from .errors import ConfigError, DataError, NumericError, VibdictError
from .ingest import (
    SegmentGate,
    SignalSegment,
    gate_by_rms,
    load_segments,
    preprocess,
    rms,
    sample_blocks,
)
from .learning import (
    HistoryRecord,
    LearnConfig,
    MonitorState,
    TrainResult,
    gradient_update,
    monitor_segments,
    monitor_step,
    train_baseline,
)
from .metrics import (
    IndicatorSeries,
    adaptation_rate,
    atom_coherence,
    atom_similarity_beta,
    dictionary_distance,
    dictionary_spread,
    fidelity_db,
    lowpass,
    mad_scores,
    mad_series,
)
from .synth import (
    FaultSpec,
    SynthSpec,
    default_fleet_specs,
    default_planted_atoms,
    gabor_atom,
    generate_fleet,
    generate_segment,
    write_fleet,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "Atom",
    "AtomInstance",
    "CodingConfig",
    "ConfigError",
    "DataError",
    "Dictionary",
    "FaultSpec",
    "HistoryRecord",
    "IndicatorSeries",
    "LabeledWindow",
    "LearnConfig",
    "MonitorState",
    "NumericError",
    "RocCurve",
    "RocPoint",
    "SegmentGate",
    "SignalSegment",
    "SparseCode",
    "SynthSpec",
    "TrainResult",
    "VibdictError",
    "adaptation_rate",
    "atom_coherence",
    "atom_similarity_beta",
    "default_fleet_specs",
    "default_planted_atoms",
    "dictionary_distance",
    "dictionary_spread",
    "encode",
    "fidelity_db",
    "gabor_atom",
    "gate_by_rms",
    "generate_fleet",
    "generate_segment",
    "gradient_update",
    "init_pseudorandom",
    "instance_budget",
    "load_dictionary",
    "load_segments",
    "lowpass",
    "mad_scores",
    "mad_series",
    "maybe_grow",
    "min_diff_series",
    "monitor_segments",
    "monitor_step",
    "mp_encode",
    "omp_encode",
    "preprocess",
    "reconstruct",
    "rms",
    "roc_curve",
    "sample_blocks",
    "save_dictionary",
    "series_samples",
    "slope_indicator",
    "train_baseline",
    "unit_normalize",
    "write_fleet",
]
