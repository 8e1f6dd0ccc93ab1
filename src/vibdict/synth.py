"""Synthetic vibration fleets with planted atoms and injectable faults.

Each machine's segments are built from a known generating dictionary:
scaled copies of planted waveforms at uniform random offsets plus white
Gaussian noise. A machine with a fault spec additionally superposes a
periodic train of exponentially decaying impulses from the fault onset
onward, a standard surrogate for a localized bearing defect. Ground-truth
labels are emitted alongside, so detection claims can be checked end to
end at desk scale.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_IMPULSE_PERIOD, DEFAULT_SAMPLE_RATE
from .detect import FAULTY, HEALTHY, LabeledWindow, save_labels_csv
from .ingest import SignalSegment, save_segment_csv, save_segment_raw

# Impulse contributions below this fraction of the initial amplitude are
# truncated when expanding a decay train.
_DECAY_FLOOR = 1e-3


@dataclass(frozen=True)
class FaultSpec:
    """Periodic decaying-impulse fault active from ``onset`` onward."""

    onset: int
    impulse_period: int = DEFAULT_IMPULSE_PERIOD
    impulse_amp: float = 10.0
    impulse_decay: float = 0.8

    def __post_init__(self):
        if self.impulse_period < 1:
            raise ValueError("impulse_period must be >= 1")
        if not 0.0 < self.impulse_decay < 1.0:
            raise ValueError("impulse_decay must be in (0, 1)")
        if not math.isfinite(self.impulse_amp):
            raise ValueError(f"impulse_amp must be finite, got {self.impulse_amp}")


@dataclass(frozen=True, eq=False)
class SynthSpec:
    """Generation recipe for one machine.

    ``instance_rate`` is planted instances per 1000 samples; the count per
    segment is round(rate * segment_len / 1000). Amplitudes are drawn from
    a normal distribution with the given (mean, std).
    """

    machine_id: str
    planted_atoms: tuple[np.ndarray, ...]
    instance_rate: float = 5.0
    amplitude_dist: tuple[float, float] = (8.0, 1.0)
    noise_std: float = 0.3
    fault: FaultSpec | None = None
    seed: int = 0

    def __post_init__(self):
        atoms = tuple(np.asarray(w, dtype=np.float64) for w in self.planted_atoms)
        if not atoms:
            raise ValueError("need at least one planted atom")
        for w in atoms:
            if w.ndim != 1 or w.size == 0:
                raise ValueError("planted atoms must be nonempty 1-D waveforms")
        object.__setattr__(self, "planted_atoms", atoms)
        if self.instance_rate <= 0:
            raise ValueError("instance_rate must be positive")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


def gabor_atom(length: int, cycles: float, phase: float = 0.0) -> np.ndarray:
    """Hann-windowed sinusoid with ``cycles`` periods over ``length`` samples.

    Returned with unit L2 norm; distinct cycle counts give nearly
    orthogonal waveforms, which makes recovery claims easy to score.
    """
    if length < 2:
        raise ValueError("length must be >= 2")
    t = np.arange(length, dtype=np.float64)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * t / (length - 1))
    wave = window * np.sin(2.0 * np.pi * cycles * t / length + phase)
    norm = float(np.linalg.norm(wave))
    if norm == 0.0:
        raise ValueError("degenerate gabor parameters produce a zero waveform")
    return wave / norm


def default_planted_atoms(count: int = 3, length: int = 50) -> tuple[np.ndarray, ...]:
    """Gabor atoms at well-separated center frequencies."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(gabor_atom(length, cycles=3.0 + 4.0 * k) for k in range(count))


def _impulse_train(length: int, period: int, amp: float, decay: float, phase: int) -> np.ndarray:
    """Periodic exponentially decaying impulses starting at ``phase``."""
    out = np.zeros(length)
    span = max(1, math.ceil(math.log(_DECAY_FLOOR) / math.log(decay)))
    kernel = amp * decay ** np.arange(span, dtype=np.float64)
    for start in range(phase, length, period):
        stop = min(start + span, length)
        out[start:stop] += kernel[: stop - start]
    return out


def generate_segment(spec: SynthSpec, segment_len: int, rng: np.random.Generator,
                     timestamp: int, sample_rate: float = DEFAULT_SAMPLE_RATE) -> SignalSegment:
    """One raw (un-preprocessed) segment drawn from a machine's recipe."""
    for w in spec.planted_atoms:
        if w.size > segment_len:
            raise ValueError(
                f"planted atom of length {w.size} longer than segment of length {segment_len}"
            )
    x = np.zeros(segment_len)
    count = int(round(spec.instance_rate * segment_len / 1000.0))
    mean, std = spec.amplitude_dist
    for _ in range(count):
        which = int(rng.integers(len(spec.planted_atoms)))
        w = spec.planted_atoms[which]
        offset = int(rng.integers(segment_len - w.size + 1))
        amplitude = float(rng.normal(mean, std))
        x[offset : offset + w.size] += amplitude * w
    if spec.noise_std > 0:
        x += rng.normal(0.0, spec.noise_std, size=segment_len)
    if spec.fault is not None and timestamp >= spec.fault.onset:
        f = spec.fault
        phase = int(rng.integers(f.impulse_period))
        x += _impulse_train(segment_len, f.impulse_period, f.impulse_amp, f.impulse_decay, phase)
    return SignalSegment(x, sample_rate, timestamp, spec.machine_id)


def generate_fleet(
    specs,
    segments: int,
    segment_len: int,
    cadence: int,
    start_time: int = 0,
    sample_rate: float = DEFAULT_SAMPLE_RATE,
) -> tuple[dict[str, list[SignalSegment]], tuple[LabeledWindow, ...]]:
    """Generate a time-aligned fleet plus its ground-truth label windows.

    Every machine uses an independent generator seeded from its own spec,
    so fleets are reproducible and machines can be generated in parallel.
    Fault labels switch exactly at the spec's onset timestamp; a fault
    onset outside the run span yields a single healthy window.
    """
    specs = list(specs)
    if segments < 1 or segment_len < 1 or cadence < 1:
        raise ValueError("segments, segment_len and cadence must be positive")
    if len({s.machine_id for s in specs}) != len(specs):
        raise ValueError("machine ids must be unique")
    run_end = start_time + segments * cadence
    fleet: dict[str, list[SignalSegment]] = {}
    windows: list[LabeledWindow] = []
    for spec in specs:
        rng = np.random.default_rng(spec.seed)
        fleet[spec.machine_id] = [
            generate_segment(spec, segment_len, rng, start_time + k * cadence, sample_rate)
            for k in range(segments)
        ]
        if spec.fault is not None and start_time < spec.fault.onset < run_end:
            windows.append(
                LabeledWindow(spec.machine_id, start_time, spec.fault.onset, HEALTHY)
            )
            windows.append(LabeledWindow(spec.machine_id, spec.fault.onset, run_end, FAULTY))
        elif spec.fault is not None and spec.fault.onset <= start_time:
            windows.append(LabeledWindow(spec.machine_id, start_time, run_end, FAULTY))
        else:
            windows.append(LabeledWindow(spec.machine_id, start_time, run_end, HEALTHY))
    return fleet, tuple(windows)


def default_fleet_specs(
    machines: int = 6,
    fault_machine: int = 0,
    fault_onset: int = 0,
    seed: int = 0,
    planted_atoms=None,
) -> list[SynthSpec]:
    """Uniform healthy recipes with one optional faulted machine.

    The shared amplitude and noise levels are chosen so raw segments pass
    the default 0.5 G RMS gate. ``fault_machine`` of -1 disables the
    fault; otherwise that index receives a FaultSpec starting at
    ``fault_onset``.
    """
    if machines < 1:
        raise ValueError("machines must be >= 1")
    if seed < 0:  # numpy seeds only from non-negative integers
        raise ValueError(f"seed must be >= 0, got {seed}")
    atoms = tuple(planted_atoms) if planted_atoms is not None else default_planted_atoms()
    specs = []
    for k in range(machines):
        fault = FaultSpec(onset=fault_onset) if k == fault_machine else None
        specs.append(
            SynthSpec(
                machine_id=f"m{k:02d}",
                planted_atoms=atoms,
                fault=fault,
                seed=seed * 1000 + k,
            )
        )
    return specs


def write_fleet(fleet: dict[str, list[SignalSegment]], windows, outdir: str,
                format: str = "csv") -> None:
    """Persist a generated fleet in the standard ingest layout.

    Creates one subdirectory per machine containing numbered segment
    files, plus a top-level ``labels.csv``, so a synthetic fleet is
    indistinguishable from field data to the rest of the pipeline.
    """
    for machine, segs in sorted(fleet.items()):
        mdir = os.path.join(outdir, machine)
        for k, seg in enumerate(segs):
            if format == "csv":
                save_segment_csv(seg, os.path.join(mdir, f"seg_{k:05d}.csv"))
            else:
                save_segment_raw(seg, os.path.join(mdir, f"seg_{k:05d}.bin"), format)
    save_labels_csv(windows, os.path.join(outdir, "labels.csv"))
