"""Online gradient adaptation of the dictionary and monitoring state.

After coding a block, each atom that was used moves along the gradient of
the Gaussian log-likelihood of the residual with respect to its waveform:

    phi_m <- phi_m + (eta / sigma^2) * sum_{i: m(i)=m} a_i * eps[tau_i : tau_i + L_m]

followed by the tail-growth check and re-normalization to unit energy.
Atoms that were not used in the block are left untouched, and a zero
learning rate leaves the whole dictionary object untouched, which is what
distinguishes frozen monitoring from adaptive monitoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coding import CodingConfig, SparseCode, encode
from .dictionary import Atom, Dictionary, maybe_grow, unit_normalize
from .ingest import SignalSegment, read_table
from .metrics import dictionary_distance, fidelity_db


@dataclass(frozen=True)
class LearnConfig:
    """Gradient step size and atom-growth policy.

    ``eta`` is the learning rate and ``noise_var`` the assumed residual
    noise variance sigma^2; only their ratio matters. ``eta = 0`` disables
    adaptation entirely. Growth appends ``tail_len`` zeros beyond a tail
    whose RMS exceeds ``tail_ratio`` times the whole atom's RMS.
    """

    eta: float = 1e-6
    noise_var: float = 1.0
    tail_len: int = 10
    tail_ratio: float = 0.1
    grow: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")
        if not (math.isfinite(self.noise_var) and self.noise_var > 0):
            raise ValueError(f"noise_var must be positive and finite, got {self.noise_var}")
        if self.tail_len < 1:
            raise ValueError("tail_len must be >= 1")
        if not 0 < self.tail_ratio < 1:
            raise ValueError("tail_ratio must be in (0, 1)")


def gradient_directions(code: SparseCode, dictionary: Dictionary) -> dict[int, np.ndarray]:
    """Per-atom gradient of the residual log-likelihood, before scaling.

    Returns a map from atom id to sum_i a_i * residual[tau_i : tau_i + L]
    over that atom's instances. Atoms with no instances are absent.
    """
    grads: dict[int, np.ndarray] = {}
    lengths = {atom.id: len(atom) for atom in dictionary.atoms}
    residual = code.residual
    for inst in code.instances:
        if inst.atom_id not in lengths:
            raise ValueError(f"instance references unknown atom_id {inst.atom_id}")
        length = lengths[inst.atom_id]
        window = residual[inst.offset : inst.offset + length]
        if inst.atom_id in grads:
            grads[inst.atom_id] += inst.amplitude * window
        else:
            grads[inst.atom_id] = inst.amplitude * window
    return grads


def gradient_update(dictionary: Dictionary, code: SparseCode, cfg: LearnConfig) -> Dictionary:
    """One online gradient step on every atom used by ``code``.

    Unused atoms keep their exact waveform arrays; ``eta = 0`` returns the
    input dictionary object itself. The generation counter increments by
    one per applied step.
    """
    if cfg.eta == 0.0:
        return dictionary
    grads = gradient_directions(code, dictionary)
    scale = cfg.eta / cfg.noise_var
    atoms = []
    for atom in dictionary.atoms:
        g = grads.get(atom.id)
        if g is None or not np.any(g):
            atoms.append(atom)
            continue
        updated = Atom(unit_normalize(atom.waveform + scale * g), atom.id)
        if cfg.grow and len(updated) >= 2 * cfg.tail_len:
            updated = maybe_grow(updated, cfg.tail_len, cfg.tail_ratio)
        atoms.append(updated)
    return Dictionary(tuple(atoms), dictionary.generation + 1)


@dataclass(frozen=True, eq=False)
class TrainResult:
    """Outcome of baseline training: final dictionary plus diagnostics."""

    dictionary: Dictionary
    fidelity_db: np.ndarray
    growth_events: int


def train_baseline(
    blocks: list[SignalSegment],
    dictionary: Dictionary,
    coding_cfg: CodingConfig,
    learn_cfg: LearnConfig,
    progress=None,
) -> TrainResult:
    """Alternate sparse coding and gradient steps over training blocks.

    Blocks are visited in order; each is coded against the current
    dictionary, the per-block fidelity is recorded, and the dictionary is
    updated from the code. ``progress``, when given, is called as
    ``progress(block_index, total, fidelity_db)`` after each block.
    """
    if not blocks:
        raise ValueError("need at least one training block")
    fidelities = np.empty(len(blocks))
    growth_events = 0
    for i, block in enumerate(blocks):
        code = encode(block, dictionary, coding_cfg)
        fidelities[i] = fidelity_db(block.samples, code.residual)
        before = {atom.id: len(atom) for atom in dictionary.atoms}
        dictionary = gradient_update(dictionary, code, learn_cfg)
        growth_events += sum(
            1 for atom in dictionary.atoms if len(atom) != before[atom.id]
        )
        if progress is not None:
            progress(i, len(blocks), float(fidelities[i]))
    return TrainResult(dictionary, fidelities, growth_events)


@dataclass(frozen=True)
class HistoryRecord:
    """One monitoring step: when, how well coded, how far from baseline."""

    timestamp: int
    fidelity_db: float
    distance_deg: float
    n_instances: int


@dataclass(frozen=True, eq=False)
class MonitorState:
    """Evolving per-machine monitoring state.

    ``dictionary`` is the live (possibly adapting) dictionary,
    ``baseline`` the fixed reference that distances are measured against,
    and ``records`` the history, one record per processed segment.
    """

    dictionary: Dictionary
    baseline: Dictionary
    records: tuple[HistoryRecord, ...] = ()


def monitor_step(
    state: MonitorState,
    segment: SignalSegment,
    coding_cfg: CodingConfig,
    learn_cfg: LearnConfig,
) -> tuple[MonitorState, SparseCode]:
    """Process one monitoring segment and return the advanced state.

    Codes the segment with the live dictionary, records fidelity and the
    distance of the *updated* dictionary from the baseline, then appends
    the record. With ``eta = 0`` the live dictionary never changes and the
    distance stays constant within float reproducibility.
    """
    code = encode(segment, state.dictionary, coding_cfg)
    fid = fidelity_db(segment.samples, code.residual)
    updated = gradient_update(state.dictionary, code, learn_cfg)
    record = HistoryRecord(
        timestamp=segment.timestamp,
        fidelity_db=fid,
        distance_deg=dictionary_distance(updated, state.baseline),
        n_instances=len(code.instances),
    )
    new_state = replace(state, dictionary=updated, records=state.records + (record,))
    return new_state, code


def monitor_segments(
    segments: list[SignalSegment],
    dictionary: Dictionary,
    coding_cfg: CodingConfig,
    learn_cfg: LearnConfig,
    baseline: Dictionary | None = None,
    progress=None,
) -> MonitorState:
    """Run :func:`monitor_step` over a segment stream in order.

    ``baseline`` defaults to the starting dictionary, which is the usual
    own-baseline setup; pass a different dictionary to measure against a
    foreign reference.
    """
    state = MonitorState(dictionary, baseline if baseline is not None else dictionary)
    for i, segment in enumerate(segments):
        state, _ = monitor_step(state, segment, coding_cfg, learn_cfg)
        if progress is not None:
            progress(i, len(segments), state.records[-1])
    return state


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
