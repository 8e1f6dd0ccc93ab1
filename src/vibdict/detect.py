"""Fault classification from indicator series and ROC evaluation.

Turns indicator series into scalar detector outputs (trailing-window
slope, minimum fleet difference), labels samples against ground-truth
time windows, and sweeps decision thresholds into an ROC curve with a
trapezoid AUC. Each (machine, timestamp) indicator value is one
classification instance; a sample is predicted faulty when its value is
at or above the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .defaults import DEFAULT_SLOPE_WINDOW
from .errors import ContentError, DataError
from .ingest import read_table, write_table
from .metrics import IndicatorSeries

HEALTHY = "healthy"
FAULTY = "faulty"
LABELS = (HEALTHY, FAULTY)

LABELS_HEADER = "machine_id,start,end,label"
ROC_HEADER = "threshold,fpr,tpr"

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class LabeledWindow:
    """Ground-truth health label over the half-open time span [start, end)."""

    machine_id: str
    start: int
    end: int
    label: str

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"window start {self.start} must precede end {self.end}")
        if self.label not in LABELS:
            raise ValueError(f"label must be one of {LABELS}, got {self.label!r}")

    def contains(self, timestamp: int) -> bool:
        return self.start <= timestamp < self.end


@dataclass(frozen=True)
class RocPoint:
    """One operating point of the threshold sweep."""

    threshold: float
    fpr: float
    tpr: float

    def __post_init__(self):
        if not 0.0 <= self.fpr <= 1.0 or not 0.0 <= self.tpr <= 1.0:
            raise ValueError("tpr and fpr must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Operating points sorted by descending threshold, plus the AUC."""

    points: tuple[RocPoint, ...]
    auc: float


def validate_windows(windows) -> None:
    """Check the per-machine non-overlap invariant of a window set."""
    by_machine: dict[str, list[LabeledWindow]] = {}
    for w in windows:
        by_machine.setdefault(w.machine_id, []).append(w)
    for machine, group in by_machine.items():
        group.sort(key=lambda w: w.start)
        for prev, cur in zip(group, group[1:]):
            if cur.start < prev.end:
                raise ValueError(
                    f"overlapping windows for machine {machine!r}: "
                    f"[{prev.start}, {prev.end}) and [{cur.start}, {cur.end})"
                )


def label_of(machine_id: str, timestamp: int, windows) -> str:
    """Label of one sample; the sample must fall in exactly one window."""
    hits = [w for w in windows if w.machine_id == machine_id and w.contains(timestamp)]
    if len(hits) != 1:
        raise DataError(
            f"sample ({machine_id!r}, t={timestamp}) falls in {len(hits)} labeled windows"
        )
    return hits[0].label


def check_slope_window(window: int) -> None:
    """Raise ValueError unless a slope window spans at least two points."""
    if window < 2:
        raise ValueError("window must be >= 2")


def slope_indicator(series: IndicatorSeries, window: int = DEFAULT_SLOPE_WINDOW) -> IndicatorSeries:
    """Trailing least-squares slope of an indicator, in units per day.

    Point k of the output is the ordinary least-squares slope fitted to
    the ``window`` most recent points ending at k; emission starts at
    index window - 1. Timestamps are converted from seconds to days for
    the fit, so a dictionary-distance input yields degrees/day.
    """
    check_slope_window(window)
    if len(series) < window:
        raise ValueError(f"series of length {len(series)} shorter than window {window}")
    days = series.timestamps.astype(np.float64) / SECONDS_PER_DAY
    t = sliding_window_view(days, window)
    v = sliding_window_view(series.values, window)
    t = t - t.mean(axis=1, keepdims=True)
    v = v - v.mean(axis=1, keepdims=True)
    denom = np.sum(t**2, axis=1)
    if not denom.all():
        raise ValueError("slope undefined: identical timestamps in window")
    out = np.sum(t * v, axis=1) / denom
    return IndicatorSeries(
        f"slope[{series.name}]", series.timestamps[window - 1 :], out
    )


def min_diff_series(population) -> dict[str, IndicatorSeries]:
    """Minimum gap between each machine and every other machine, per timestamp.

    Point t of machine m's output is min over other machines o of
    value_m[t] - value_o[t]: positive exactly when m's indicator exceeds
    all others at t, which is the fleet-consensus fault signature. Series
    are keyed by their ``name`` field, and all series must be aligned on
    identical timestamps.
    """
    series = list(population)
    if len(series) < 2:
        raise ValueError("need at least two machines")
    base = series[0]
    for s in series[1:]:
        if not np.array_equal(s.timestamps, base.timestamps):
            raise ValueError(f"series {s.name!r} is not aligned with {base.name!r}")
    matrix = np.stack([s.values for s in series])
    out = {}
    for i, s in enumerate(series):
        others = np.delete(matrix, i, axis=0)
        values = np.min(matrix[i][None, :] - others, axis=0)
        out[s.name] = IndicatorSeries(s.name, base.timestamps, values)
    return out


def roc_curve(samples, windows) -> RocCurve:
    """Threshold sweep over labeled (machine, timestamp, value) samples.

    Thresholds are +inf, every distinct observed value in descending
    order, then -inf, so the curve always starts at (0, 0) and ends at
    (1, 1) and tied values collapse onto a single operating point. The
    AUC is the trapezoid integral of TPR over FPR. Counts come from binary
    searches in each class's sorted values, so the sweep is O(N log N).
    """
    samples = list(samples)
    if not samples:
        raise DataError("no indicator samples to evaluate")
    validate_windows(windows)
    values = np.array([v for _, _, v in samples], dtype=np.float64)
    truth = np.array(
        [label_of(m, t, windows) == FAULTY for m, t, _ in samples], dtype=bool
    )
    n_pos = int(truth.sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError(
            f"ROC undefined: {n_pos} faulty and {n_neg} healthy samples"
        )
    thresholds = np.concatenate(
        ([np.inf], np.unique(values)[::-1], [-np.inf])
    )
    # NaN is never >= theta, and a NaN theta sorts past every number, so
    # leaving NaN out of the search gives both their counts.
    ordered = ~np.isnan(values)
    pos = np.sort(values[truth & ordered])
    neg = np.sort(values[~truth & ordered])
    tp = pos.size - np.searchsorted(pos, thresholds, side="left")
    fp = neg.size - np.searchsorted(neg, thresholds, side="left")
    points = [
        RocPoint(float(theta), f / n_neg, t / n_pos)
        for theta, f, t in zip(thresholds, fp.tolist(), tp.tolist())
    ]
    fpr = np.array([p.fpr for p in points])
    tpr = np.array([p.tpr for p in points])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(tuple(points), auc)


def series_samples(series_by_machine: dict[str, IndicatorSeries]):
    """Flatten per-machine series into (machine, timestamp, value) samples."""
    out = []
    for machine in sorted(series_by_machine):
        s = series_by_machine[machine]
        out.extend((machine, int(t), float(v)) for t, v in zip(s.timestamps, s.values))
    return out


def save_labels_csv(windows, path: str) -> None:
    """Write ground-truth windows as :data:`LABELS_HEADER` rows."""
    write_table(path, LABELS_HEADER, ((w.machine_id, w.start, w.end, w.label) for w in windows))


def load_labels_csv(path: str) -> tuple[LabeledWindow, ...]:
    """Read a labels CSV written by :func:`save_labels_csv`; overlaps raise ContentError."""
    windows, _ = read_table(path, LABELS_HEADER,
                            lambda m, start, end, lab: LabeledWindow(m, int(start), int(end), lab))
    try:
        validate_windows(windows)
    except ValueError as exc:
        raise ContentError(f"{path}: {exc}") from None
    return tuple(windows)


def save_roc_csv(curve: RocCurve, path: str) -> None:
    """Write an ROC curve as :data:`ROC_HEADER` rows with an AUC footer."""
    rows = ((p.threshold, p.fpr, p.tpr) for p in curve.points)
    write_table(path, ROC_HEADER, rows, footer=[("auc", curve.auc)])


def load_roc_csv(path: str) -> RocCurve:
    """Read an ROC CSV written by :func:`save_roc_csv`."""
    points, meta = read_table(path, ROC_HEADER,
                              lambda *fields: RocPoint(*map(float, fields)))
    try:
        auc = float(meta["auc"])
    except (KeyError, ValueError):
        raise DataError(f"{path}: missing or malformed '# auc=' footer") from None
    return RocCurve(tuple(points), auc)
