"""Health indicators derived from sparse codes and dictionary geometry.

Covers reconstruction fidelity in dB, a shift-invariant dictionary
distance in degrees, first-order lowpass smoothing, and robust MAD
outlier scores for fleet comparison, plus the CSV files of indicators
and monitoring histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dictionary import Atom, Dictionary
from .errors import ContentError
from .ingest import read_table

# Fidelity is clamped to +/- FIDELITY_CAP_DB when one side of the ratio
# underflows, so downstream smoothing always sees finite values.
FIDELITY_CAP_DB = 200.0
_EPS_RATIO = 1e-12

# Floor applied to the MAD denominator; scores computed against the floor
# are flagged as saturated.
MAD_FLOOR = 1e-6


@dataclass(frozen=True, eq=False)
class IndicatorSeries:
    """A named time series of indicator values for one machine."""

    name: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=np.int64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("timestamps and values must be 1-D and the same length")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.timestamps.size


def atom_coherence(a: Atom, b: Atom) -> float:
    """Maximum normalized absolute inner product over all shifts.

    Every relative alignment with at least one overlapping sample is
    scanned; the result lies in [0, 1], reaching 1 only when one atom is
    a scaled shift of the other over their overlap. Atoms are normalized
    by their full norms, so partial-overlap alignments are penalized.
    """
    wa, wb = a.waveform, b.waveform
    denom = float(np.linalg.norm(wa) * np.linalg.norm(wb))
    if denom == 0.0:
        raise ValueError("coherence undefined for zero-norm atom")
    inner = np.correlate(wa, wb, mode="full")
    ratio = float(np.max(np.abs(inner))) / denom
    # round-off in norm * norm vs the aligned inner product can leave an
    # identical pair a few ulps under 1; snap so matching atoms are exact
    if ratio >= 1.0 - 4.0 * np.finfo(np.float64).eps:
        return 1.0
    return ratio


def atom_similarity_beta(a: Atom, b: Atom) -> float:
    """Angle in degrees between two atoms under the best shift alignment."""
    return math.degrees(math.acos(atom_coherence(a, b)))


def dictionary_distance(phi: Dictionary, other: Dictionary) -> float:
    """Symmetric shift-invariant distance between dictionaries, in degrees.

    Averages, over both directions, each atom's angle to its best match
    in the other dictionary:

        beta(Phi, Phi') = (1 / 2M) * (sum_j beta(Phi', phi_j)
                                      + sum_j beta(Phi, phi'_j))

    Zero iff every atom has an exact (up to shift and sign) counterpart.
    Dictionaries of different sizes are averaged over their own counts.
    Coherence is symmetric, so one matrix of pairwise angles serves both
    directions: forward minima over its rows, backward over its columns.
    """
    beta = [[atom_similarity_beta(a, b) for b in other.atoms] for a in phi.atoms]
    forward = sum(min(row) for row in beta) / len(phi.atoms)
    backward = sum(min(col) for col in zip(*beta)) / len(other.atoms)
    return 0.5 * (forward + backward)


def fidelity_db(segment_samples: np.ndarray, residual: np.ndarray) -> float:
    """Reconstruction fidelity 20*log10(||s_hat|| / ||eps||) in dB.

    s_hat is the reconstruction segment - residual. When the residual
    norm underflows relative to the reconstruction the value saturates at
    +200 dB; the mirror case saturates at -200 dB, keeping the indicator
    finite for smoothing and thresholding.
    """
    segment_samples = np.asarray(segment_samples, dtype=np.float64)
    residual = np.asarray(residual, dtype=np.float64)
    if segment_samples.shape != residual.shape:
        raise ValueError("segment and residual must have the same shape")
    recon_norm = float(np.linalg.norm(segment_samples - residual))
    resid_norm = float(np.linalg.norm(residual))
    if resid_norm < _EPS_RATIO * recon_norm:
        return FIDELITY_CAP_DB
    if recon_norm < _EPS_RATIO * resid_norm:
        return -FIDELITY_CAP_DB
    return 20.0 * math.log10(recon_norm / resid_norm)


def check_time_constant(time_constant: float) -> None:
    """Raise ValueError unless a lowpass time constant is positive and finite."""
    if not (math.isfinite(time_constant) and time_constant > 0):
        raise ValueError(f"time_constant must be positive and finite, got {time_constant}")


def lowpass(values: np.ndarray, time_constant: float) -> np.ndarray:
    """First-order exponential lowpass, initialized at the first sample.

    y[t] = alpha * y[t-1] + (1 - alpha) * x[t] with
    alpha = exp(-1 / time_constant), time measured in samples.
    """
    check_time_constant(time_constant)
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("values must be a nonempty 1-D array")
    alpha = math.exp(-1.0 / time_constant)
    y = np.empty_like(x)
    y[0] = x[0]
    for t in range(1, x.size):
        y[t] = alpha * y[t - 1] + (1.0 - alpha) * x[t]
    return y


def mad_scores(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """Robust outlier scores |v - median| / MAD across a fleet snapshot.

    MAD is the median absolute deviation from the median. The denominator
    is floored at MAD_FLOOR; the returned flag is True when the floor
    engaged (more than half the fleet identical), meaning score
    magnitudes are saturated and comparable only by rank.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-D array")
    med = float(np.median(v))
    dev = np.abs(v - med)
    mad = float(np.median(dev))
    saturated = mad < MAD_FLOOR
    return dev / max(mad, MAD_FLOOR), saturated


def mad_series(series_by_machine: dict[str, IndicatorSeries]) -> dict[str, IndicatorSeries]:
    """Per-timestamp MAD scores for a fleet of aligned indicator series.

    All series must share identical timestamps; the score of machine m at
    time t compares its value against the fleet distribution at t.
    """
    if not series_by_machine:
        raise ValueError("need at least one series")
    machines = sorted(series_by_machine)
    base = series_by_machine[machines[0]]
    for m in machines[1:]:
        if not np.array_equal(series_by_machine[m].timestamps, base.timestamps):
            raise ValueError(f"series for {m!r} is not aligned with {machines[0]!r}")
    matrix = np.stack([series_by_machine[m].values for m in machines])
    scores = np.empty_like(matrix)
    for t in range(matrix.shape[1]):
        scores[:, t], _ = mad_scores(matrix[:, t])
    return {
        m: IndicatorSeries(f"mad[{base.name}]", base.timestamps, scores[i])
        for i, m in enumerate(machines)
    }


def save_indicator_csv(series: IndicatorSeries, path: str, machine: str = "",
                       comments: dict | None = None) -> None:
    """Write an indicator series as ``timestamp,value`` rows.

    Header comments record the machine, the indicator kind, and any
    filter settings passed in ``comments`` so the file is self-describing.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if machine:
            fh.write(f"# machine={machine}\n")
        fh.write(f"# kind={series.name}\n")
        for key, value in (comments or {}).items():
            fh.write(f"# {key}={value}\n")
        fh.write("timestamp,value\n")
        for t, v in zip(series.timestamps, series.values):
            fh.write(f"{int(t)},{float(v)!r}\n")


def load_indicator_csv(path: str) -> tuple[IndicatorSeries, dict]:
    """Read a ``timestamp,value`` indicator CSV and its header comments."""
    rows, meta = read_table(path, "timestamp,value", lambda t, v: (int(t), float(v)))
    try:
        series = IndicatorSeries(
            meta.get("kind", "indicator"),
            np.asarray([t for t, _ in rows]),
            np.asarray([v for _, v in rows]),
        )
    except ValueError as exc:
        raise ContentError(f"{path}: {exc}") from None
    return series, meta


@dataclass(frozen=True)
class HistoryRecord:
    """One monitoring step: when, how well coded, how far from baseline."""

    timestamp: int
    fidelity_db: float
    distance_deg: float
    n_instances: int


def save_history_csv(records, path: str) -> None:
    """Write monitoring history as ``timestamp,fidelity_db,distance_deg,n_instances``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,fidelity_db,distance_deg,n_instances\n")
        for r in records:
            fh.write(f"{r.timestamp},{r.fidelity_db!r},{r.distance_deg!r},{r.n_instances}\n")


def load_history_csv(path: str) -> tuple[HistoryRecord, ...]:
    """Read a monitoring history CSV written by :func:`save_history_csv`."""
    records, _ = read_table(path, "timestamp,fidelity_db,distance_deg,n_instances",
                            lambda t, f, d, n: HistoryRecord(int(t), float(f), float(d), int(n)))
    return tuple(records)


def check_sample_rate(sample_rate: float) -> None:
    """Raise ValueError unless a sample rate is positive and finite."""
    if not (math.isfinite(sample_rate) and sample_rate > 0):
        raise ValueError(f"sample_rate must be positive and finite, got {sample_rate}")


def center_frequency(atom: Atom, sample_rate: float) -> float:
    """Spectral centroid of an atom in Hz (power-weighted mean frequency)."""
    check_sample_rate(sample_rate)
    spectrum = np.abs(np.fft.rfft(atom.waveform)) ** 2
    freqs = np.fft.rfftfreq(len(atom), d=1.0 / sample_rate)
    total = float(np.sum(spectrum))
    if total == 0.0:
        raise ValueError("center frequency undefined for zero atom")
    return float(np.sum(freqs * spectrum) / total)


def peak_frequency(atom: Atom, sample_rate: float) -> float:
    """Frequency of the magnitude-spectrum peak of an atom, in Hz."""
    check_sample_rate(sample_rate)
    magnitude = np.abs(np.fft.rfft(atom.waveform))
    freqs = np.fft.rfftfreq(len(atom), d=1.0 / sample_rate)
    return float(freqs[int(np.argmax(magnitude))])
