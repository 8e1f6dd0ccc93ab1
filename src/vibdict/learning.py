"""Online gradient adaptation of the dictionary, for training and monitoring.

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


def _adapt(segments: Iterable[SignalSegment], dictionary: Dictionary, coding_cfg: CodingConfig,
           learn_cfg: LearnConfig) -> Iterator[tuple[SignalSegment, SparseCode, Dictionary]]:
    """Code each segment with the live dictionary, then take one gradient step.

    Yields ``(segment, code, stepped dictionary)``, pulling the next segment
    only when asked. An atom that grows past a segment raises NumericError.
    """
    start = dictionary
    for segment in segments:
        try:
            code = encode(segment, dictionary, coding_cfg)
        except AtomFitError:
            _raise_if_outgrown(dictionary, start, segment, learn_cfg.eta)
            raise
        dictionary = gradient_update(dictionary, code, learn_cfg)
        yield segment, code, dictionary


@dataclass(frozen=True, eq=False)
class TrainResult:
    """Outcome of baseline training: final dictionary plus diagnostics."""

    dictionary: Dictionary
    fidelity_db: np.ndarray
    growth_events: int


def train_baseline(
    blocks: Iterable[SignalSegment],
    dictionary: Dictionary,
    coding_cfg: CodingConfig,
    learn_cfg: LearnConfig,
) -> TrainResult:
    """Alternate sparse coding and gradient steps over training blocks.

    Blocks are pulled from any iterable, one at a time and in order; each
    is coded against the current dictionary, its fidelity recorded, and the
    dictionary updated from the code. A growth event is one atom whose
    length a step changed. An atom that grows past a block raises NumericError.
    """
    fidelities, growth_events = [], 0
    for block, code, stepped in _adapt(blocks, dictionary, coding_cfg, learn_cfg):
        fidelities.append(fidelity_db(block.samples, code.residual))
        growth_events += sum(len(a) != len(b) for a, b in zip(stepped.atoms, dictionary.atoms))
        dictionary = stepped
    if not fidelities:
        raise ValueError("need at least one training block")
    return TrainResult(dictionary, np.array(fidelities), growth_events)


def monitor_segments(segments: Iterable[SignalSegment], dictionary: Dictionary,
                     coding_cfg: CodingConfig, learn_cfg: LearnConfig,
                     baseline: Dictionary | None = None,
                     ) -> Iterator[tuple[Dictionary, HistoryRecord, SparseCode]]:
    """Code and step over any iterable of segments, lazily and in order.

    Yields ``(dictionary, record, code)`` per segment: the dictionary stepped
    from that code, and a record whose distance runs from it to ``baseline``
    (by default the starting dictionary; pass another for a foreign
    reference). A step that returns the same dictionary object, as every
    step at ``eta = 0`` does, reuses the previous distance. An atom that
    grows past a segment raises NumericError.
    """
    baseline = dictionary if baseline is None else baseline
    measured = distance = None
    for segment, code, stepped in _adapt(segments, dictionary, coding_cfg, learn_cfg):
        if stepped is not measured:
            measured, distance = stepped, dictionary_distance(stepped, baseline)
        record = HistoryRecord(segment.timestamp, fidelity_db(segment.samples, code.residual),
                               distance, len(code.instances))
        yield stepped, record, code
