"""Learn a dictionary from healthy synthetic vibration and check recovery.

Generates a stream whose segments superpose three Gabor waveforms at
random shifts and amplitudes over noise, trains a dictionary starting
from pseudorandom atoms, and reports how close each learned atom gets to
the planted ground truth.
"""

import numpy as np

from vibdict import (
    Atom,
    SynthSpec,
    atom_coherence,
    default_planted_atoms,
    generate_fleet,
    preprocess,
)
from vibdict.cli import build_parser
from vibdict.fleet import train_machine

# `vibdict train` flags; --sparsity 1 - 10/2048 codes 10 placements per block.
TRAIN = build_parser().parse_args(
    "train --atoms 3 --sparsity 0.9951171875 --eta 3e-4 --seed 5".split())


def sparkline(values, width=48):
    """Coarse ascii trend of a series, oldest to newest."""
    ticks = " .:-=+*#"
    chunks = np.array_split(np.asarray(values, dtype=float), width)
    means = np.array([c.mean() for c in chunks])
    lo, hi = means.min(), means.max()
    scaled = np.zeros(width, dtype=int) if hi == lo else (
        ((means - lo) / (hi - lo)) * (len(ticks) - 1)).astype(int)
    return "".join(ticks[i] for i in scaled)


def main():
    planted = default_planted_atoms(count=3, length=50)
    noise_std = float(np.sqrt(5 * (3.0 ** 2 + 0.5 ** 2) / 2048 / 10.0))  # ~10 dB
    spec = SynthSpec("demo", planted_atoms=planted, instance_rate=2.5,
                     amplitude_dist=(3.0, 0.5), noise_std=noise_std, seed=77)
    fleet, _ = generate_fleet([spec], segments=500, segment_len=2048, cadence=3600)
    blocks = [preprocess(s) for s in fleet["demo"]]

    result = train_machine(blocks, TRAIN)

    print(f"trained on {len(blocks)} blocks, "
          f"{result.growth_events} atom growth events")
    print(f"fidelity trend (dB): {sparkline(result.fidelity_db)}")
    print(f"  first 10 blocks {np.mean(result.fidelity_db[:10]):6.2f} dB, "
          f"last 10 blocks {np.mean(result.fidelity_db[-10:]):6.2f} dB")

    print("\nrecovery against planted atoms:")
    for i, waveform in enumerate(planted):
        target = Atom(waveform, i)
        best = max(atom_coherence(target, a) for a in result.dictionary.atoms)
        print(f"  planted atom {i}: best coherence {best:.4f}")
    print("\nlearned atom lengths:", [len(a) for a in result.dictionary.atoms])


if __name__ == "__main__":
    main()
