"""Monitor a small fleet and watch a seeded fault push one machine away.

Each machine gets its own baseline dictionary trained on healthy data.
Monitoring re-encodes every new segment, nudges the dictionary by one
gradient step, and records the dictionary distance back to the baseline.
Machine m02 develops periodic impulse bursts halfway through the run;
its distance climbs while the healthy machines stay flat, and the fleet
MAD score flags it within a few segments.
"""

from dataclasses import replace

import numpy as np

from vibdict import (
    FaultSpec,
    SynthSpec,
    default_planted_atoms,
    generate_fleet,
    history_series,
    mad_series,
    preprocess,
)
from vibdict.cli import build_parser
from vibdict.fleet import monitor_machine, train_machine

SEGMENTS = 120
ONSET = 60
CADENCE = 3600
# `vibdict` flags; --sparsity 1 - 8/n codes 8 placements per n samples.
TRAIN = build_parser().parse_args(
    "train --atoms 3 --sparsity 0.99609375 --eta 3e-4 --seed 5".split())
MONITOR = build_parser().parse_args(
    "monitor --atoms 3 --sparsity 0.9921875 --eta 1e-4 --rms-gate 0".split())
PLANTED = default_planted_atoms(count=3, length=50)
NOISE = {"m00": 0.8, "m01": 1.1, "m02": 1.0, "m03": 0.9, "m04": 1.2, "m05": 1.0}
NOISE_REF = float(np.sqrt(5 * (3.0 ** 2 + 0.5 ** 2) / 2048 / 10.0))


def healthy_spec(machine, seed):
    return SynthSpec(machine, planted_atoms=PLANTED, instance_rate=2.5,
                     amplitude_dist=(3.0, 0.5),
                     noise_std=NOISE[machine] * NOISE_REF, seed=seed)


def main():
    machines = sorted(NOISE)
    baselines = {}
    for k, machine in enumerate(machines):
        fleet, _ = generate_fleet([healthy_spec(machine, 600 + k)],
                                  segments=500, segment_len=2048, cadence=CADENCE)
        blocks = [preprocess(s) for s in fleet[machine]]
        baselines[machine] = train_machine(blocks, TRAIN).dictionary
    print(f"trained {len(baselines)} baselines")

    fault = FaultSpec(onset=ONSET * CADENCE, impulse_period=149,
                      impulse_amp=1.5, impulse_decay=0.8)
    specs = [replace(healthy_spec(m, 100 + k), instance_rate=5.0,
                     fault=fault if m == "m02" else None)
             for k, m in enumerate(machines)]
    fleet, _ = generate_fleet(specs, segments=SEGMENTS, segment_len=1024, cadence=CADENCE)

    series = {}
    for machine in machines:
        records = [record for _, record, _ in monitor_machine(
            fleet[machine], MONITOR, baselines[machine])]
        series[machine] = history_series(records, "distance_deg")

    checkpoints = [0, 30, ONSET - 1, ONSET + 15, ONSET + 30, SEGMENTS - 1]
    print(f"\ndistance to baseline (degrees), fault onset at segment {ONSET}:")
    print("segment " + "".join(f"{i:>8d}" for i in checkpoints))
    for machine in machines:
        row = "".join(f"{series[machine].values[i]:8.2f}" for i in checkpoints)
        tag = "  <- faulty" if machine == "m02" else ""
        print(f"{machine:7s} {row}{tag}")

    scores = mad_series(series)
    m02 = scores["m02"].values
    flagged = next((i for i in range(ONSET, SEGMENTS) if m02[i] > 3.0), None)
    print(f"\nm02 fleet MAD score: pre-onset max {m02[:ONSET].max():.2f}, "
          f"crosses 3.0 at segment {flagged} "
          f"({flagged - ONSET} segments after onset)")


if __name__ == "__main__":
    main()
