"""Independent reference implementations used to cross-check the library.

Everything here is written as plainly as possible: explicit loops,
np.dot, and dense matrices, with no calls into the package's own
optimized paths. Slow on purpose; correctness is the only goal.
"""

import math
from fractions import Fraction

import numpy as np


def naive_rms(x):
    return math.sqrt(sum(float(v) ** 2 for v in x) / len(x))


def fraction_budget(segment_len, sparsity):
    """Instance budget ceil((1 - sparsity) * segment_len), at least 1, in
    the exact decimal value of the sparsity's text."""
    return max(1, math.ceil((1 - Fraction(str(sparsity))) * segment_len))


def naive_best(residual, waveforms_by_id):
    """Exhaustive argmax of |inner product| with (id, offset) tie-break.

    Strict inequality keeps the first-seen maximum; scanning ids and
    offsets in ascending order makes that the tie-break rule.
    """
    best = None
    for atom_id in sorted(waveforms_by_id):
        w = waveforms_by_id[atom_id]
        for tau in range(len(residual) - len(w) + 1):
            value = float(np.dot(residual[tau : tau + len(w)], w))
            if best is None or abs(value) > best[3]:
                best = (atom_id, tau, value, abs(value))
    if best is None or best[3] == 0.0:
        return None
    return best[:3]


def naive_mp(signal, waveforms_by_id, count):
    """Exhaustive greedy matching pursuit; returns (instances, residual)."""
    residual = np.array(signal, dtype=np.float64)
    instances = []
    for _ in range(count):
        hit = naive_best(residual, waveforms_by_id)
        if hit is None:
            break
        atom_id, tau, value = hit
        w = waveforms_by_id[atom_id]
        residual = residual.copy()
        residual[tau : tau + len(w)] -= value * w
        instances.append((atom_id, tau, value))
    return instances, residual


def placement_matrix(n, placements, waveforms_by_id):
    """Dense n x k matrix whose columns are the shifted atoms."""
    cols = []
    for atom_id, tau in placements:
        w = waveforms_by_id[atom_id]
        col = np.zeros(n)
        col[tau : tau + len(w)] = w
        cols.append(col)
    return np.column_stack(cols)


def lstsq_amplitudes(signal, placements, waveforms_by_id):
    """Dense least-squares amplitudes for fixed (atom, offset) placements."""
    a = placement_matrix(len(signal), placements, waveforms_by_id)
    coef, *_ = np.linalg.lstsq(a, np.asarray(signal, dtype=np.float64), rcond=None)
    return coef


def naive_omp(signal, waveforms_by_id, count):
    """Exhaustive orthogonal matching pursuit; returns (instances, residual).

    Each pick scans every not-yet-selected (id, offset) placement in
    ascending order for the largest |inner product| with the residual,
    then refits all selected amplitudes by dense least squares.
    """
    signal = np.asarray(signal, dtype=np.float64)
    residual = signal.copy()
    placements, amplitudes = [], []
    for _ in range(count):
        best = None
        for atom_id in sorted(waveforms_by_id):
            w = waveforms_by_id[atom_id]
            for tau in range(len(signal) - len(w) + 1):
                if (atom_id, tau) in placements:
                    continue
                value = abs(float(np.dot(residual[tau : tau + len(w)], w)))
                if best is None or value > best[2]:
                    best = (atom_id, tau, value)
        if best is None or best[2] == 0.0:
            break
        placements.append(best[:2])
        amplitudes = lstsq_amplitudes(signal, placements, waveforms_by_id)
        residual = signal - placement_matrix(len(signal), placements, waveforms_by_id) @ amplitudes
    return [(i, t, float(a)) for (i, t), a in zip(placements, amplitudes)], residual


def naive_coherence(wa, wb):
    """Max normalized |inner product| over every overlapping alignment."""
    best = 0.0
    la, lb = len(wa), len(wb)
    for shift in range(-(lb - 1), la):
        start_a = max(0, shift)
        end_a = min(la, shift + lb)
        if end_a <= start_a:
            continue
        seg_a = wa[start_a:end_a]
        seg_b = wb[start_a - shift : end_a - shift]
        best = max(best, abs(float(np.dot(seg_a, seg_b))))
    return min(best / (float(np.linalg.norm(wa)) * float(np.linalg.norm(wb))), 1.0)


def naive_beta(wa, wb):
    return math.degrees(math.acos(naive_coherence(wa, wb)))


def naive_distance(atoms_a, atoms_b):
    """Symmetric mean best-match angle between two waveform lists."""
    forward = sum(min(naive_beta(a, b) for b in atoms_b) for a in atoms_a) / len(atoms_a)
    backward = sum(min(naive_beta(b, a) for a in atoms_a) for b in atoms_b) / len(atoms_b)
    return 0.5 * (forward + backward)


def ols_slope(times, values):
    """Closed-form simple linear regression slope."""
    t = np.asarray(times, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    n = len(t)
    st, sv = t.sum(), v.sum()
    return (n * float(np.dot(t, v)) - st * sv) / (n * float(np.dot(t, t)) - st * st)


def loop_slope(timestamps, values, window):
    """Trailing least-squares slopes in units per day, one window at a time.

    The same formula, in the same order of operations, as
    ``detect.slope_indicator``; raises ValueError on a window of
    identical timestamps.
    """
    days = np.asarray(timestamps).astype(np.float64) / 86400.0
    out = np.empty(len(days) - window + 1)
    for k in range(window - 1, len(days)):
        t = days[k - window + 1 : k + 1]
        v = values[k - window + 1 : k + 1]
        t_mean = t.mean()
        v_mean = v.mean()
        denom = float(np.sum((t - t_mean) ** 2))
        if denom == 0.0:
            raise ValueError("slope undefined: identical timestamps in window")
        out[k - window + 1] = float(np.sum((t - t_mean) * (v - v_mean)) / denom)
    return out


def closed_form_lowpass(values, alpha):
    """Non-recursive evaluation y[t] = a^t x0 + (1-a) sum_k a^(t-k) x[k]."""
    x = np.asarray(values, dtype=np.float64)
    y = np.empty_like(x)
    for t in range(len(x)):
        acc = alpha**t * x[0]
        for k in range(1, t + 1):
            acc += (1 - alpha) * alpha ** (t - k) * x[k]
        y[t] = acc
    return y


def naive_mad_scores(values):
    v = sorted(float(x) for x in values)
    n = len(v)
    med = (v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2]))
    dev = sorted(abs(x - med) for x in values)
    mad = (dev[n // 2] if n % 2 else 0.5 * (dev[n // 2 - 1] + dev[n // 2]))
    return [abs(float(x) - med) / max(mad, 1e-6) for x in values]


def confusion_at(values, truth, theta):
    """(tp, fp, tn, fn) by direct tally with the >= threshold rule."""
    tp = fp = tn = fn = 0
    for v, is_pos in zip(values, truth):
        pred = v >= theta
        if pred and is_pos:
            tp += 1
        elif pred and not is_pos:
            fp += 1
        elif not pred and is_pos:
            fn += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def naive_roc(values, truth):
    """ROC points (threshold, fpr, tpr) from a full confusion tally per threshold.

    Thresholds are +inf, then NaN if any value is NaN (it sorts past every
    number, so it leads a descending sweep), then every other distinct
    value in descending order, then -inf. A NaN threshold predicts nothing.
    """
    thresholds = [math.inf]
    if any(math.isnan(v) for v in values):
        thresholds.append(math.nan)
    thresholds += sorted({float(v) for v in values if not math.isnan(v)}, reverse=True)
    thresholds.append(-math.inf)
    n_pos = sum(1 for is_pos in truth if is_pos)
    n_neg = len(truth) - n_pos
    points = []
    for theta in thresholds:
        tp, fp, _, _ = confusion_at(values, truth, theta)
        points.append((theta, fp / n_neg, tp / n_pos))
    return points


def trapezoid_auc(fpr, tpr):
    """Trapezoid area under the polyline, by explicit loop."""
    return sum((fpr[i + 1] - fpr[i]) * (tpr[i] + tpr[i + 1]) / 2 for i in range(len(fpr) - 1))


def midpoint_auc(fpr, tpr, substeps=20000):
    """Polyline area by midpoint-rule integration of each linear piece.

    Deliberately not the trapezoid formula; converges to the same polyline
    integral as the step count grows, so it serves as an independent
    numeric oracle for the AUC.
    """
    fpr = np.asarray(fpr, dtype=np.float64)
    tpr = np.asarray(tpr, dtype=np.float64)
    total = 0.0
    for i in range(len(fpr) - 1):
        dx = fpr[i + 1] - fpr[i]
        if dx == 0.0:
            continue
        u = (np.arange(substeps) + 0.5) / substeps
        heights = tpr[i] + (tpr[i + 1] - tpr[i]) * u
        total += dx * float(np.mean(heights))
    return total
