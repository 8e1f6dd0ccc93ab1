"""Atoms and dictionaries: initialization, normalization, growth, persistence.

An atom is a unit-norm waveform that describes a recurring signal feature.
A dictionary is an ordered set of M atoms with stable integer ids and an
update-generation counter. Dictionaries are values: updates build new
instances, so a dictionary never changes once it has been handed out.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError

MAGIC = b"VDCT"
FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class Atom:
    """Unit-norm waveform with a stable integer id; its samples are finite."""

    waveform: np.ndarray
    id: int

    def __post_init__(self):
        w = np.asarray(self.waveform, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("waveform must be a nonempty 1-D vector")
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise ValueError(f"atom {self.id}: non-finite sample {w[bad[0]]} at index {bad[0]}")
        object.__setattr__(self, "waveform", w)

    def __len__(self):
        return self.waveform.size


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Ordered, fixed-size collection of atoms plus an update counter."""

    atoms: tuple[Atom, ...]
    generation: int = 0

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("dictionary must contain at least one atom")
        ids = [a.id for a in atoms]
        if len(set(ids)) != len(ids):
            raise ValueError(f"atom ids must be unique, got {ids}")
        object.__setattr__(self, "atoms", atoms)

    def __len__(self):
        return len(self.atoms)


def unit_normalize(waveform: np.ndarray) -> np.ndarray:
    """Rescale a waveform to unit L2 norm.

    An all-zero waveform raises ValueError. A norm that is not finite,
    such as one that overflows after too large a gradient step, raises
    NumericError instead of dividing every sample down to zero.
    """
    w = np.asarray(waveform, dtype=np.float64)
    norm = np.linalg.norm(w)
    if norm == 0.0:
        raise ValueError("cannot normalize an all-zero waveform")
    if not math.isfinite(norm):
        raise NumericError(f"cannot normalize a waveform of norm {norm}")
    return w / norm


def init_pseudorandom(
    num_atoms: int = 8, core_len: int = 50, pad: int = 10, seed: int = 0
) -> Dictionary:
    """Build the seed dictionary used at the start of training.

    Each atom is ``core_len`` standard Gaussian draws zero-padded with
    ``pad`` samples at each tail, then unit-normalized. The same seed
    reproduces the same dictionary bit for bit (PCG64 draws), which lets a
    fleet of machines start training from one shared seed dictionary.
    """
    if num_atoms < 1:
        raise ValueError("num_atoms must be >= 1")
    if core_len < 1:
        raise ValueError("core_len must be >= 1")
    if pad < 0:
        raise ValueError("pad must be >= 0")
    rng = np.random.default_rng(seed)
    tail = np.zeros(pad)
    atoms = []
    for m in range(num_atoms):
        core = rng.standard_normal(core_len)
        waveform = unit_normalize(np.concatenate([tail, core, tail]))
        atoms.append(Atom(waveform, m))
    return Dictionary(tuple(atoms), generation=0)


GROWTH_TAIL_LEN = 10
GROWTH_TAIL_RATIO = 0.1


def maybe_grow(atom: Atom) -> Atom:
    """Extend an atom with zeros on any tail that carries too much energy.

    Each tail of ``GROWTH_TAIL_LEN`` samples is checked independently
    against the whole-atom RMS; a tail whose RMS exceeds
    ``GROWTH_TAIL_RATIO`` times the atom RMS gets ``GROWTH_TAIL_LEN`` zeros
    appended on that side. Interior samples are never altered; the result
    is re-normalized only when it actually grew, so a no-growth call
    returns the input atom unchanged. An atom shorter than two tails never
    grows.
    """
    w, n = atom.waveform, GROWTH_TAIL_LEN
    if len(w) < 2 * n:
        return atom
    atom_rms = np.sqrt(np.mean(w * w))
    lead_rms = np.sqrt(np.mean(w[:n] * w[:n]))
    trail_rms = np.sqrt(np.mean(w[-n:] * w[-n:]))
    grow_lead = lead_rms > GROWTH_TAIL_RATIO * atom_rms
    grow_trail = trail_rms > GROWTH_TAIL_RATIO * atom_rms
    if not grow_lead and not grow_trail:
        return atom
    parts = []
    if grow_lead:
        parts.append(np.zeros(n))
    parts.append(w)
    if grow_trail:
        parts.append(np.zeros(n))
    return Atom(unit_normalize(np.concatenate(parts)), atom.id)


def _packed(fmt: str, value: int, what: str) -> bytes:
    try:
        return struct.pack(fmt, value)
    except struct.error:
        raise ValueError(f"{what} {value!r} does not fit the u{8 * struct.calcsize(fmt)} "
                         f"field of the dictionary format") from None


def save_dictionary(dictionary: Dictionary, path: str) -> None:
    """Serialize a dictionary to the binary container format.

    Layout: magic ``VDCT``, u32 version, u32 atom count, then per atom a
    u32 id, u32 length and that many little-endian float64 samples, and a
    trailing u64 generation counter. Round-trips are bitwise exact. The
    whole file is packed before it is opened, so a value that its field
    cannot hold raises ValueError naming it and leaves no file.
    """
    blob = [MAGIC, struct.pack("<I", FORMAT_VERSION),
            _packed("<I", len(dictionary.atoms), "atom count")]
    for atom in dictionary.atoms:
        blob += [_packed("<I", atom.id, "atom id"),
                 _packed("<I", len(atom), f"length of atom {atom.id}"),
                 atom.waveform.astype("<f8").tobytes()]
    blob.append(_packed("<Q", dictionary.generation, "generation"))
    with open(path, "wb") as fh:
        fh.write(b"".join(blob))


def load_dictionary(path: str) -> Dictionary:
    """Read a dictionary written by :func:`save_dictionary`.

    Any fault of the file, including content that :class:`Atom` or
    :class:`Dictionary` rejects (no atoms, repeated ids, an empty waveform,
    a non-finite sample) and a waveform of zero norm, which no atom
    comparison can use, raises DataError naming it.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def take(offset, size, what):
        if offset + size > len(blob):
            raise DataError(f"{path}: truncated dictionary file, {what} at byte offset {offset}")
        return blob[offset : offset + size], offset + size

    chunk, pos = take(0, 4, "magic")
    if chunk != MAGIC:
        raise DataError(f"{path}: bad magic {chunk!r}, not a dictionary file")
    chunk, pos = take(pos, 8, "header")
    version, natoms = struct.unpack("<II", chunk)
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported dictionary format version {version}")
    waveforms = []
    for _ in range(natoms):
        chunk, pos = take(pos, 8, "atom header")
        atom_id, length = struct.unpack("<II", chunk)
        chunk, pos = take(pos, 8 * length, f"waveform of atom {atom_id}")
        waveforms.append((atom_id, np.frombuffer(chunk, dtype="<f8").copy()))
    chunk, pos = take(pos, 8, "generation counter")
    (generation,) = struct.unpack("<Q", chunk)
    if pos != len(blob):
        raise DataError(f"{path}: {len(blob) - pos} trailing byte(s) after generation counter")
    try:
        for atom_id, waveform in waveforms:
            if waveform.size and np.linalg.norm(waveform) == 0.0:
                raise ValueError(f"atom {atom_id}: waveform of zero norm")
        return Dictionary(tuple(Atom(w, atom_id) for atom_id, w in waveforms), generation)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
