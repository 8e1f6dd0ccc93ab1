"""Compare the slope and min-diff detectors on a fleet with one bad baseline.

Level-based detection assumes every machine's baseline is current. Here
machine m03 is perfectly healthy but its recorded baseline predates a
re-tune, so its dictionary distance sits at a high flat level forever.
The min-diff rule (flag the machine whose indicator exceeds the rest of
the fleet) keeps pointing at m03, while the trailing-slope rule ignores
the constant offset and catches the machine whose distance actually
trends upward. The ROC sweep quantifies the gap.
"""

import numpy as np

from vibdict import (
    FaultSpec,
    LabeledWindow,
    SynthSpec,
    default_planted_atoms,
    gabor_atom,
    generate_fleet,
    history_series,
    min_diff_series,
    preprocess,
    roc_curve,
    series_samples,
    slope_indicator,
)
from vibdict.cli import build_parser
from vibdict.fleet import monitor_machine, train_machine

SEGMENTS = 150
ONSET = 60
CADENCE = 3600
FAULT_MACHINE = "m02"
STALE_MACHINE = "m03"
# `vibdict` flags; --sparsity 1 - 8/n codes 8 placements per n samples.
TRAIN = build_parser().parse_args(
    "train --atoms 3 --sparsity 0.99609375 --eta 3e-4 --seed 5".split())
MONITOR = build_parser().parse_args(
    "monitor --atoms 3 --sparsity 0.9921875 --eta 1e-4 --rms-gate 0".split())
PLANTED = default_planted_atoms(count=3, length=50)
DETUNED = tuple(gabor_atom(50, cycles=3.0 + 4.0 * k + 0.05) for k in range(3))
NOISE = {"m00": 0.8, "m01": 1.0, "m02": 1.2, "m03": 1.0}
NOISE_REF = float(np.sqrt(5 * (3.0 ** 2 + 0.5 ** 2) / 2048 / 10.0))


def fit_dictionary(machine, seed, planted):
    spec = SynthSpec(machine, planted_atoms=planted, instance_rate=2.5,
                     amplitude_dist=(3.0, 0.5),
                     noise_std=NOISE[machine] * NOISE_REF, seed=seed)
    fleet, _ = generate_fleet([spec], segments=400, segment_len=2048, cadence=CADENCE)
    return train_machine([preprocess(s) for s in fleet[machine]], TRAIN).dictionary


def nearest_point(curve, fpr):
    return min(curve.points, key=lambda p: abs(p.fpr - fpr))


def main():
    machines = sorted(NOISE)
    starts = {m: fit_dictionary(m, 600 + k, PLANTED) for k, m in enumerate(machines)}
    baselines = dict(starts)
    # m03's stored baseline was learned before the machine was re-tuned:
    # same atom family, slightly different carrier cycles.
    baselines[STALE_MACHINE] = fit_dictionary(STALE_MACHINE, 705, DETUNED)
    print(f"trained {len(machines)} start dictionaries plus one stale baseline")

    fault = FaultSpec(onset=ONSET * CADENCE, impulse_period=149,
                      impulse_amp=1.5, impulse_decay=0.8)
    specs = [SynthSpec(m, planted_atoms=PLANTED, instance_rate=5.0,
                       amplitude_dist=(3.0, 0.5),
                       noise_std=NOISE[m] * NOISE_REF,
                       fault=fault if m == FAULT_MACHINE else None,
                       seed=100 + k)
             for k, m in enumerate(machines)]
    fleet, _ = generate_fleet(specs, segments=SEGMENTS,
                              segment_len=1024, cadence=CADENCE)

    series = {}
    for machine in machines:
        records = [record for _, record, _ in monitor_machine(
            fleet[machine], MONITOR, baselines[machine], starts[machine])]
        series[machine] = history_series(records, "distance_deg")

    for machine in machines:
        v = series[machine].values
        tag = {FAULT_MACHINE: "  <- fault at onset", STALE_MACHINE: "  <- stale baseline"}
        print(f"{machine}: distance {v[0]:5.2f} -> {v[-1]:5.2f} deg"
              f"{tag.get(machine, '')}")

    slope = {m: slope_indicator(series[m]) for m in machines}
    diff = min_diff_series(series)

    onset_t = ONSET * CADENCE
    t0 = int(series[machines[0]].timestamps[0])
    t_end = int(series[machines[0]].timestamps[-1]) + 1
    windows = []
    for m in machines:
        if m == FAULT_MACHINE:
            windows.append(LabeledWindow(m, t0, onset_t, "healthy"))
            windows.append(LabeledWindow(m, onset_t, t_end, "faulty"))
        else:
            windows.append(LabeledWindow(m, t0, t_end, "healthy"))

    slope_roc = roc_curve(series_samples(slope), windows)
    diff_roc = roc_curve(series_samples(diff), windows)
    print(f"\nslope detector AUC:    {slope_roc.auc:.4f}")
    print(f"min-diff detector AUC: {diff_roc.auc:.4f}")

    print("\noperating points (threshold, tpr) at matched fpr:")
    for fpr in (0.05, 0.10, 0.20):
        ps = nearest_point(slope_roc, fpr)
        pd = nearest_point(diff_roc, fpr)
        print(f"  fpr~{fpr:.2f}  slope: {ps.threshold:8.3f} deg/day tpr={ps.tpr:.3f}"
              f"   min-diff: {pd.threshold:7.3f} deg tpr={pd.tpr:.3f}")


if __name__ == "__main__":
    main()
