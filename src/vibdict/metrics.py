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
from .ingest import read_table, write_table

# Fidelity is clamped to +/- FIDELITY_CAP_DB when one side of the ratio
# underflows, so downstream smoothing always sees finite values.
FIDELITY_CAP_DB = 200.0
_EPS_RATIO = 1e-12

# Floor applied to the MAD denominator; scores computed against the floor
# are flagged as saturated.
MAD_FLOOR = 1e-6

INDICATOR_HEADER = "timestamp,value"
HISTORY_HEADER = "timestamp,fidelity_db,distance_deg,n_instances"


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
        repeated = np.flatnonzero(np.diff(t) <= 0)
        if repeated.size:
            raise ValueError(f"timestamps must be strictly increasing, got "
                             f"{t[repeated[0]]} then {t[repeated[0] + 1]}")
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


def mad_scores(values: np.ndarray) -> tuple[np.ndarray, bool | np.ndarray]:
    """Robust outlier scores |v - median| / MAD across a fleet, along axis 0.

    ``values`` is one snapshot of the fleet (1-D) or a machines x
    timestamps matrix, whose columns are scored independently. MAD is
    the median absolute deviation from the median. The denominator is
    floored at MAD_FLOOR; the returned flag, one per column of a matrix,
    is True when the floor engaged (more than half the fleet identical),
    meaning score magnitudes are saturated and comparable only by rank.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim not in (1, 2) or len(v) == 0:
        raise ValueError("values must be a nonempty 1-D array or a 2-D matrix")
    med = np.median(v, axis=0)
    dev = np.abs(v - med)
    mad = np.median(dev, axis=0)
    return dev / np.maximum(mad, MAD_FLOOR), mad < MAD_FLOOR


def fleet_matrix(series_by_machine: dict[str, IndicatorSeries]) -> tuple[np.ndarray, np.ndarray]:
    """Shared timestamps and machines x timestamps values, rows in the dict's order.

    A series whose timestamps differ from the first's raises ValueError naming both.
    """
    series = list(series_by_machine.values())
    base = series[0]
    for s in series[1:]:
        if not np.array_equal(s.timestamps, base.timestamps):
            raise ValueError(f"series {s.name!r} is not aligned with {base.name!r}")
    return base.timestamps, np.stack([s.values for s in series])


def mad_series(series_by_machine: dict[str, IndicatorSeries]) -> dict[str, IndicatorSeries]:
    """Per-timestamp MAD scores for a fleet of aligned indicator series.

    All series must share identical timestamps; the score of machine m at
    time t compares its value against the fleet distribution at t.
    """
    if not series_by_machine:
        raise ValueError("need at least one series")
    timestamps, matrix = fleet_matrix(series_by_machine)
    scores, _ = mad_scores(matrix)
    return {
        m: IndicatorSeries(f"mad[{s.name}]", timestamps, row)
        for (m, s), row in zip(series_by_machine.items(), scores)
    }


def _finite(name: str, value) -> float:
    """``float(value)``; a NaN or an infinity raises ValueError naming ``name``."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number}")
    return number


def save_indicator_csv(series: IndicatorSeries, path: str, machine: str = "",
                       comments: dict | None = None) -> None:
    """Write an indicator series as :data:`INDICATOR_HEADER` rows.

    Header comments record the machine, the indicator kind, and any
    filter settings passed in ``comments`` so the file is self-describing.
    """
    meta = [("machine", machine)] if machine else []
    meta += [("kind", series.name), *(comments or {}).items()]
    rows = zip(series.timestamps.tolist(), series.values.tolist())
    write_table(path, INDICATOR_HEADER, rows, comments=meta)


def load_indicator_csv(path: str) -> tuple[IndicatorSeries, dict]:
    """Read an indicator CSV written by :func:`save_indicator_csv` and its header comments.

    A value that is not a finite number raises DataError naming the file and line.
    """
    rows, meta = read_table(path, INDICATOR_HEADER, lambda t, v: (int(t), _finite("value", v)))
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
    """One monitoring step: when, how well coded, how far from baseline.

    A non-finite ``fidelity_db`` or ``distance_deg`` raises ValueError.
    """

    timestamp: int
    fidelity_db: float
    distance_deg: float
    n_instances: int

    def __post_init__(self):
        _finite("fidelity_db", self.fidelity_db)
        _finite("distance_deg", self.distance_deg)


def save_history_csv(records, path: str) -> None:
    """Write monitoring history as :data:`HISTORY_HEADER` rows, one per record."""
    rows = ((r.timestamp, r.fidelity_db, r.distance_deg, r.n_instances) for r in records)
    write_table(path, HISTORY_HEADER, rows)


def history_series(records, column: str) -> IndicatorSeries:
    """One column of monitoring records, such as ``distance_deg``, as a series of that name."""
    return IndicatorSeries(column, np.array([r.timestamp for r in records]),
                           np.array([getattr(r, column) for r in records]))


def load_history_csv(path: str) -> tuple[HistoryRecord, ...]:
    """Read a monitoring history CSV written by :func:`save_history_csv`."""
    records, _ = read_table(path, HISTORY_HEADER,
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
