"""Online gradient adaptation of the dictionary and monitoring state.

After coding a block, each atom that was used moves along the gradient of
the Gaussian log-likelihood of the residual with respect to its waveform:

    phi_m <- phi_m + (eta / sigma^2) * sum_{i: m(i)=m} a_i * eps[tau_i : tau_i + L_m]

with sigma^2 taken as 1, so the step size is ``eta`` alone, followed by
re-normalization to unit energy and the fixed tail-growth rule. Atoms
that were not used in the block are left untouched, and a zero learning
rate leaves the whole dictionary object untouched, which is what
distinguishes frozen monitoring from adaptive monitoring.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .coding import CodingConfig, SparseCode, encode
from .dictionary import Atom, Dictionary, maybe_grow, unit_normalize
from .errors import AtomFitError, NumericError
from .ingest import SignalSegment
from .metrics import HistoryRecord, dictionary_distance, fidelity_db


@dataclass(frozen=True)
class LearnConfig:
    """Gradient step size.

    ``eta`` is the learning rate, with the residual noise variance sigma^2
    taken as 1, so ``eta`` is the whole step size. ``eta = 0`` disables
    adaptation entirely. Atom growth is the fixed rule of
    :func:`vibdict.dictionary.maybe_grow`.
    """

    eta: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.eta) and self.eta >= 0):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")


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
    atoms = []
    for atom in dictionary.atoms:
        g = grads.get(atom.id)
        if g is None or not np.any(g):
            atoms.append(atom)
            continue
        atoms.append(maybe_grow(Atom(unit_normalize(atom.waveform + cfg.eta * g), atom.id)))
    return Dictionary(tuple(atoms), dictionary.generation + 1)


def _raise_if_outgrown(live: Dictionary, start: Dictionary, segment: SignalSegment,
                       eta: float) -> None:
    """Raise NumericError if the atom that does not fit ``segment`` grew since ``start``.

    The atom is the first in ``live`` longer than the segment, the one
    :func:`encode` rejects with an AtomFitError. If it was already that
    long in ``start``, the data is at fault, and this returns.
    """
    atom = next(atom for atom in live.atoms if len(atom) > len(segment))
    if len(atom) > next(len(old) for old in start.atoms if old.id == atom.id):
        raise NumericError(
            f"atom {atom.id} grew to length {len(atom)} and does not fit in segment of "
            f"length {len(segment)} (source {segment.source_id}, t={segment.timestamp}); "
            f"the learning rate --eta {eta} is too large for this segment length"
        )


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
) -> TrainResult:
    """Alternate sparse coding and gradient steps over training blocks.

    Blocks are visited in order; each is coded against the current
    dictionary, the per-block fidelity is recorded, and the dictionary is
    updated from the code. An atom that grows past a block raises
    NumericError.
    """
    if not blocks:
        raise ValueError("need at least one training block")
    fidelities = np.empty(len(blocks))
    growth_events, start = 0, dictionary
    for i, block in enumerate(blocks):
        try:
            code = encode(block, dictionary, coding_cfg)
        except AtomFitError:
            _raise_if_outgrown(dictionary, start, block, learn_cfg.eta)
            raise
        fidelities[i] = fidelity_db(block.samples, code.residual)
        before = {atom.id: len(atom) for atom in dictionary.atoms}
        dictionary = gradient_update(dictionary, code, learn_cfg)
        growth_events += sum(
            1 for atom in dictionary.atoms if len(atom) != before[atom.id]
        )
    return TrainResult(dictionary, fidelities, growth_events)


@dataclass(frozen=True, eq=False)
class MonitorState:
    """Evolving per-machine monitoring state.

    ``dictionary`` is the live (possibly adapting) dictionary and
    ``baseline`` the fixed reference that distances are measured against.
    The state keeps no history, so its size does not grow with the stream:
    each step hands its record to the caller.
    """

    dictionary: Dictionary
    baseline: Dictionary


def monitor_step(
    state: MonitorState,
    segment: SignalSegment,
    coding_cfg: CodingConfig,
    learn_cfg: LearnConfig,
) -> tuple[MonitorState, HistoryRecord, SparseCode]:
    """Process one monitoring segment; return (advanced state, record, code).

    Codes the segment with the live dictionary, then records fidelity and
    the distance of the *updated* dictionary from the baseline. With
    ``eta = 0`` the live dictionary never changes and the distance stays
    constant within float reproducibility.
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
    return MonitorState(updated, state.baseline), record, code


def monitor_segments(
    segments: Iterable[SignalSegment],
    dictionary: Dictionary,
    coding_cfg: CodingConfig,
    learn_cfg: LearnConfig,
    baseline: Dictionary | None = None,
) -> Iterator[tuple[MonitorState, HistoryRecord, SparseCode]]:
    """Run :func:`monitor_step` over a segment stream, lazily and in order.

    Yields ``(state, record, code)`` as each segment is processed, pulling
    the next segment only when asked, so any iterable of segments works.
    ``baseline`` defaults to the starting dictionary, which is the usual
    own-baseline setup; pass a different dictionary to measure against a
    foreign reference. An atom that grows past a segment raises NumericError.
    """
    state = MonitorState(dictionary, baseline if baseline is not None else dictionary)
    for segment in segments:
        try:
            state, record, code = monitor_step(state, segment, coding_cfg, learn_cfg)
        except AtomFitError:
            _raise_if_outgrown(state.dictionary, dictionary, segment, learn_cfg.eta)
            raise
        yield state, record, code
