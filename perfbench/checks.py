"""Output checks run on every workload's results.

* Every ``roc`` AUC is recomputed from the indicator CSVs and
  ``labels.csv`` as a Mann-Whitney statistic, with half credit for ties,
  and compared with the ``# auc=`` footer.
* Histories hold one row per monitored segment, at its timestamp, with
  finite values and ``n_instances == ceil(0.1 * len)``.
* Every ``.vdct`` loads and every atom has unit norm to 1e-9.

Each check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import csv
import glob
import math
import os

import numpy as np

AUC_TOLERANCE = 1e-9
NORM_TOLERANCE = 1e-9
SECONDS_PER_DAY = 86400.0


def mann_whitney_auc(scores, positive) -> float:
    """P(score of a positive > score of a negative), ties counting one half.

    Computed from average ranks: (R_pos - n_pos (n_pos + 1) / 2) / (n_pos n_neg).
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative sample")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # 1-based average rank of each distinct value: first rank + (count - 1) / 2
    first = np.concatenate(([0], np.cumsum(counts)[:-1])) + 1
    average = first + (counts - 1) / 2.0
    rank_sum = float(np.sum(average[inverse][positive]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def read_indicator(path: str) -> tuple[str, np.ndarray, np.ndarray]:
    """(machine, timestamps, values) of a ``timestamp,value`` indicator CSV."""
    machine = os.path.splitext(os.path.basename(path))[0]
    times, values = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# machine="):
                machine = line.partition("=")[2].strip()
            elif line and not line.startswith("#") and line != "timestamp,value":
                t, v = line.split(",")
                times.append(int(t))
                values.append(float(v))
    return machine, np.array(times, dtype=np.int64), np.array(values)


def read_labels(path: str) -> dict[str, list[tuple[int, int, str]]]:
    """machine -> list of (start, end, label) windows."""
    windows: dict[str, list[tuple[int, int, str]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            windows.setdefault(row["machine_id"], []).append(
                (int(row["start"]), int(row["end"]), row["label"]))
    return windows


def trailing_slope(times: np.ndarray, values: np.ndarray, window: int) -> np.ndarray:
    """Least-squares slope per day over each trailing ``window`` of points."""
    days = times.astype(np.float64) / SECONDS_PER_DAY
    out = np.empty(times.size - window + 1)
    for k in range(window - 1, times.size):
        t = days[k - window + 1 : k + 1]
        v = values[k - window + 1 : k + 1]
        t_mean = t.mean()
        v_mean = v.mean()
        out[k - window + 1] = float(np.sum((t - t_mean) * (v - v_mean)) / float(np.sum((t - t_mean) ** 2)))
    return out


def detector_samples(indicators, kind: str, slope_window: int):
    """machine -> (timestamps, detector values) as the roc subcommand forms them."""
    series = {}
    for path in indicators:
        machine, times, values = read_indicator(path)
        series[machine] = (times, values)
    if kind == "slope":
        return {m: (t[slope_window - 1 :], trailing_slope(t, v, slope_window))
                for m, (t, v) in series.items()}
    if kind == "min-diff":
        matrix = np.stack([v for _, v in series.values()])
        return {m: (t, np.min(matrix[i][None, :] - np.delete(matrix, i, axis=0), axis=0))
                for i, (m, (t, _)) in enumerate(series.items())}
    return series


def read_auc_footer(path: str) -> float:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# auc="):
                return float(line.strip()[len("# auc="):])
    raise ValueError(f"{path}: no '# auc=' footer")


def check_roc(root: str, roc) -> tuple[str, bool, str, float]:
    """Recompute one ROC's AUC; returns (name, ok, detail, recomputed auc)."""
    name = f"auc:{os.path.basename(roc.roc_csv)}"
    try:
        samples = detector_samples([os.path.join(root, p) for p in roc.indicators],
                                   roc.indicator, roc.slope_window)
        windows = read_labels(os.path.join(root, roc.labels))
        scores, positive = [], []
        for machine in sorted(samples):
            times, values = samples[machine]
            faulty = [(s, e) for s, e, label in windows[machine] if label == "faulty"]
            for t, v in zip(times, values):
                scores.append(v)
                positive.append(any(s <= t < e for s, e in faulty))
        auc = mann_whitney_auc(scores, positive)
        footer = read_auc_footer(os.path.join(root, roc.roc_csv))
    except (OSError, ValueError, KeyError) as exc:
        return name, False, f"{type(exc).__name__}: {exc}", math.nan
    ok = abs(auc - footer) <= AUC_TOLERANCE
    return name, ok, f"recomputed {auc:.12f} vs footer {footer:.12f}", auc


def check_histories(root: str, history_dir: str, expected: dict, segment_len: int,
                    budget: int) -> list[tuple[str, bool, str]]:
    """One row per monitored segment, finite values, full instance budget."""
    results = []
    for machine, timestamps in sorted(expected.items()):
        path = os.path.join(root, history_dir, f"{machine}_history.csv")
        name = f"history:{machine}"
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            times = [int(r["timestamp"]) for r in rows]
            values = np.array([[float(r["fidelity_db"]), float(r["distance_deg"])] for r in rows])
            counts = {int(r["n_instances"]) for r in rows}
        except (OSError, ValueError, KeyError) as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
            continue
        problems = []
        if times != list(timestamps):
            problems.append(f"{len(times)} rows for {len(timestamps)} segments or timestamps differ")
        if values.size and not np.all(np.isfinite(values)):
            problems.append("non-finite values")
        if counts and counts != {budget}:
            problems.append(f"n_instances {sorted(counts)} != {budget} for length {segment_len}")
        results.append((name, not problems, "; ".join(problems) or f"{len(rows)} rows"))
    return results


def check_dictionaries(root: str, directory: str) -> list[tuple[str, bool, str]]:
    """Every ``.vdct`` under ``directory`` loads, with unit-norm atoms."""
    from vibdict.dictionary import load_dictionary
    from vibdict.errors import DataError

    paths = sorted(glob.glob(os.path.join(root, directory, "**", "*.vdct"), recursive=True))
    if not paths:
        return [(f"vdct:{directory}", False, "no .vdct files written")]
    results = []
    for path in paths:
        name = f"vdct:{os.path.relpath(path, os.path.join(root, directory))}"
        try:
            d = load_dictionary(path)
        except (OSError, DataError, ValueError) as exc:
            results.append((name, False, f"does not load: {exc}"))
            continue
        worst = max(abs(float(np.linalg.norm(a.waveform)) - 1.0) for a in d.atoms)
        results.append((name, worst <= NORM_TOLERANCE, f"max |norm - 1| = {worst:.2e}"))
    return results


def fidelity_rows(root: str, paths) -> list[float]:
    """Every ``fidelity_db`` value in train logs and histories."""
    values = []
    for path in paths:
        with open(os.path.join(root, path), "r", encoding="utf-8", newline="") as fh:
            values.extend(float(r["fidelity_db"]) for r in csv.DictReader(fh))
    return values
