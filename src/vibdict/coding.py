"""Convolutional sparse coding by Matching Pursuit and Orthogonal MP.

A segment s is approximated as a linear superposition of scaled, shifted
atoms plus a residual:

    s[t] = sum_i a_i * phi_{m(i)}[t - tau_i] + eps[t]

The triple (m(i), tau_i, a_i) is one atom instance. Both coders greedily
select the (atom, shift) pair with maximum absolute cross-correlation
against the current residual and stop after a fixed instance budget
derived from the configured sparsity level.

Both pick from one stacked correlation array of shape (M, n - L_min + 1):
rows in ascending atom id, each holding an atom's correlation with the
residual at every interior shift, then zeros. One row-major argmax of
the magnitudes is the pick, with ties going to the lowest atom id, then
the lowest offset; a top that is not positive means nothing is left.
The coders differ only in how they fit amplitudes and refresh the array.
MP subtracts each selected instance from the residual directly and
recomputes only the window of correlations around it. OMP re-fits all
selected amplitudes by least squares after every selection, which
leaves the residual orthogonal to the selected shifted atoms.

OMP solves that least-squares fit exactly but incrementally: it extends
an inverse Cholesky factor of the Gram matrix by one row per pick, which
costs O(k^2) at the k-th pick. When a pick makes the selection linearly
dependent, the new pivot collapses to round-off; if it is not positive,
the rest of the segment falls back to a ridge-damped solve of the full
Gram system. OMP still costs more per pick than MP: every amplitude can
change, so it rebuilds the residual and refreshes every row of the
array, where MP only touches the window around the pick. OMP gets those
rows from one FFT of the residual and one batched inverse FFT, and
re-scores near-ties exactly, so it picks what a plain scan would.

Only fully interior shifts are valid: an atom's support must lie entirely
inside the segment, with no partial overlap at the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dictionary import Atom, Dictionary
from .errors import AtomFitError, NumericError
from .ingest import SignalSegment

MP = "mp"
OMP = "omp"
ALGORITHMS = (MP, OMP)

# Diagonal damping applied to the OMP Gram system when it is not
# numerically positive definite: lambda = RIDGE_SCALE * trace(G) / k.
RIDGE_SCALE = 1e-12

# OMP screens candidates with FFT correlations, which differ from the
# np.correlate values by round-off of order eps * log2(n) * ||r|| * ||w||.
# The screen treats them as exact to within FFT_SLACK * ||r|| * max ||w||,
# more than 100 times that bound.
FFT_SLACK = 1e-11


@dataclass(frozen=True)
class AtomInstance:
    """One placement of a scaled atom: id, 0-based offset, signed amplitude."""

    atom_id: int
    offset: int
    amplitude: float


@dataclass(frozen=True, eq=False)
class SparseCode:
    """Result of coding one segment: instances plus the final residual.

    ``exhausted`` is set when the coder stopped before reaching the
    instance budget because every remaining correlation was exactly zero
    (or, for OMP, every valid placement was already selected). Downstream
    consumers treat the missing instances as amplitude zero.
    """

    instances: tuple[AtomInstance, ...]
    residual: np.ndarray
    dictionary_generation: int
    exhausted: bool = False


@dataclass(frozen=True)
class CodingConfig:
    """Sparse coding algorithm selection and stopping rule.

    The instance budget is ceil((1 - sparsity) * segment_len), evaluated
    in exact decimal arithmetic. ``n_instances`` overrides the derived
    budget with an explicit count, e.g. to reproduce a published protocol
    that fixed the count directly.
    """

    algorithm: str = MP
    sparsity: float = 0.9
    n_instances: int | None = None

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError(f"sparsity must be in [0, 1), got {self.sparsity}")
        if self.n_instances is not None and self.n_instances < 1:
            raise ValueError("n_instances must be >= 1 when given")


def instance_budget(segment_len: int, cfg: CodingConfig) -> int:
    """Number of atom instances the coder will emit for a segment."""
    if segment_len < 1:
        raise ValueError("segment_len must be >= 1")
    if cfg.n_instances is not None:
        return cfg.n_instances
    exact = (1 - Fraction(str(cfg.sparsity))) * segment_len
    return max(1, math.ceil(exact))


def cross_correlate(signal: np.ndarray, atom: Atom) -> np.ndarray:
    """Inner products of an atom against a signal at every interior shift.

    out[tau] = sum_t signal[tau + t] * atom.waveform[t], for tau in
    [0, len(signal) - len(atom)].
    """
    signal = np.asarray(signal, dtype=np.float64)
    if len(atom) > signal.size:
        raise ValueError(f"atom of length {len(atom)} longer than signal of length {signal.size}")
    return np.correlate(signal, atom.waveform, mode="valid")


def _stacked_correlations(segment: SignalSegment, dictionary: Dictionary):
    """Atoms in ascending-id order and their correlations with a segment.

    Returns (ids, waveforms, corr) with corr of shape (M, n - L_min + 1):
    row r holds ``np.correlate(x, w_r, "valid")`` for the r-th atom in id
    order, followed by zeros past its last interior shift. A row-major
    argmax over this layout breaks ties toward the lowest atom id, then
    the lowest offset. Raises AtomFitError when an atom is longer than
    the segment.
    """
    x = segment.samples
    n = x.size
    for atom in dictionary.atoms:
        if len(atom) > n:
            raise AtomFitError(
                f"atom {atom.id} of length {len(atom)} does not fit in segment of length {n} "
                f"(source {segment.source_id}, t={segment.timestamp})"
            )
    atoms = sorted(dictionary.atoms, key=lambda atom: atom.id)
    ids = [atom.id for atom in atoms]
    waveforms = [atom.waveform for atom in atoms]
    corr = np.zeros((len(atoms), n - min(w.size for w in waveforms) + 1))
    for row, w in enumerate(waveforms):
        corr[row, : n - w.size + 1] = np.correlate(x, w, mode="valid")
    return ids, waveforms, corr


def _row_major_argmax(magnitudes: np.ndarray):
    """(row, offset, value) of the first maximum in row-major order."""
    row, tau = divmod(int(np.argmax(magnitudes)), magnitudes.shape[1])
    return row, tau, magnitudes[row, tau]


def mp_encode(segment: SignalSegment, dictionary: Dictionary, cfg: CodingConfig) -> SparseCode:
    """Matching Pursuit: subtract the best-correlated instance each step.

    Picks from the stacked correlation array of
    :func:`_stacked_correlations`. After selecting (m, tau, a) the
    residual is updated in place over the atom's support,
    R <- R - a * phi_m(. - tau), and only the correlation entries whose
    support overlaps the changed window are recomputed. Those never reach
    the zero tails, so no mask is needed.
    """
    if cfg.algorithm != MP:
        raise ValueError(f"mp_encode called with algorithm {cfg.algorithm!r}")
    ids, waveforms, corr = _stacked_correlations(segment, dictionary)
    residual = segment.samples.copy()
    n = residual.size
    budget = instance_budget(n, cfg)
    magnitudes = np.empty_like(corr)

    instances = []
    exhausted = False
    for _ in range(budget):
        np.abs(corr, out=magnitudes)
        row, tau, top = _row_major_argmax(magnitudes)
        if not top > 0.0:
            exhausted = True
            break
        w = waveforms[row]
        amplitude = float(corr[row, tau])
        instances.append(AtomInstance(ids[row], tau, amplitude))
        residual[tau : tau + w.size] -= amplitude * w

        for other, ow in enumerate(waveforms):
            lo = max(0, tau - ow.size + 1)
            hi = min(n - ow.size, tau + w.size - 1)
            if lo <= hi:
                corr[other, lo : hi + 1] = np.correlate(
                    residual[lo : hi + ow.size], ow, mode="valid"
                )
    return SparseCode(tuple(instances), residual, dictionary.generation, exhausted)


def _cross_table(waveforms) -> np.ndarray:
    """Cross-correlations of every atom pair at every lag, zero-padded.

    table[p, q, d + L_max - 1] is the inner product of atom p placed at
    offset tau with atom q placed at offset tau + d, for |d| < L_max. The
    last column stays zero and stands for every lag at which the two
    supports do not overlap.
    """
    lmax = max(w.size for w in waveforms)
    table = np.zeros((len(waveforms), len(waveforms), 2 * lmax))
    for p, w_p in enumerate(waveforms):
        for q, w_q in enumerate(waveforms):
            start = lmax - w_q.size
            table[p, q, start : start + w_p.size + w_q.size - 1] = np.correlate(
                w_p, w_q, mode="full"
            )
    return table


def _gram_lookup(table: np.ndarray, pos_a, tau_a, pos_b, tau_b) -> np.ndarray:
    """Gram entries <phi_a(. - tau_a), phi_b(. - tau_b)>, broadcast over inputs."""
    lmax = table.shape[2] // 2
    lag = tau_b - tau_a
    index = np.where(np.abs(lag) < lmax, lag + lmax - 1, 2 * lmax - 1)
    return table[pos_a, pos_b, index]


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the symmetric positive semi-definite normal equations.

    Uses a Cholesky factorization as the conditioning probe; when it
    fails, retries with ridge damping RIDGE_SCALE * trace / k on the
    diagonal rather than crashing on a rank-deficient selection.
    """
    k = gram.shape[0]
    try:
        np.linalg.cholesky(gram)
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        pass
    ridge = RIDGE_SCALE * np.trace(gram) / k
    damped = gram + ridge * np.eye(k)
    try:
        np.linalg.cholesky(damped)
        return np.linalg.solve(damped, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Gram system of size {k} not solvable even with ridge damping") from exc


def _screened_argmax(magnitudes, dead, residual, waveforms, slack):
    """Row-major argmax of exact |correlation| from FFT-screened magnitudes.

    ``magnitudes`` holds |FFT correlations|, each within ``slack`` of the
    value ``np.correlate`` gives, with dead entries at -inf. The FFT
    winner stands when no other live candidate, and not zero, lies within
    2 * slack of it. Otherwise every row holding a candidate that close is
    re-scored with ``np.correlate``, so near-ties and exhaustion are
    decided on the same values as MP's scan. Returns (row, offset,
    magnitude); a magnitude that is not positive means nothing is left.
    """
    row, tau, top = _row_major_argmax(magnitudes)
    if dead[row, tau]:
        return row, tau, top
    near = magnitudes >= top - 2.0 * slack
    if top > 2.0 * slack and np.count_nonzero(near) == 1:
        return row, tau, top
    rows = np.flatnonzero(near.any(axis=1))
    exact = np.full((rows.size, magnitudes.shape[1]), -np.inf)
    for i, r in enumerate(rows):
        corr = np.correlate(residual, waveforms[r], mode="valid")
        np.abs(corr, out=exact[i, : corr.size])
    np.copyto(exact, -np.inf, where=dead[rows])
    i, tau, top = _row_major_argmax(exact)
    return int(rows[i]), tau, top


def omp_encode(segment: SignalSegment, dictionary: Dictionary, cfg: CodingConfig) -> SparseCode:
    """Orthogonal Matching Pursuit over the selected shifted-atom set.

    Selection works exactly as in MP, but after each pick all amplitudes
    are re-fit by least squares over the selected shifted atoms, and the
    residual becomes the projection remainder. A selected (atom, offset)
    pair is excluded from later scans since re-picking it adds no new
    basis vector.

    Picks come from the same stacked correlation array as MP's (see
    :func:`_stacked_correlations`); a boolean mask kills the zero tails
    past each atom's last interior shift and the placements already
    selected. The first pick scans the exact ``np.correlate`` values.
    After that, the residual's correlation with every atom comes from one
    rfft of the residual, the precomputed conjugate atom spectra and one
    batched irfft (interior shifts never wrap, so the circular length n
    suffices); see :func:`_screened_argmax` for how near-ties are
    re-scored exactly, which keeps the picks those of a plain
    ``np.correlate`` scan.

    The least-squares fit keeps the inverse Cholesky factor Linv of the
    Gram matrix G = L L^T and z = Linv @ rhs, and grows both by one row
    per pick, so each pick costs O(k^2) instead of a fresh O(k^3)
    factorization. With v = Linv @ g for the new Gram row g and pivot
    lambda^2 = G[k, k] - v.v, the new row of Linv is
    [-(v @ Linv) / lambda, 1 / lambda], z[k] = (rhs[k] - v.z) / lambda,
    and the amplitudes are z @ Linv. Gram rows are read from a table of
    atom-pair cross-correlations, and the reconstruction is one weighted
    bincount over the selected supports.

    A pivot that is not positive and finite is taken to mean that the
    selection has become linearly dependent, so G is singular from that
    pick on; the rest of the segment is then solved from the full Gram
    matrix with the ridge-damped :func:`_solve_gram`.
    """
    if cfg.algorithm != OMP:
        raise ValueError(f"omp_encode called with algorithm {cfg.algorithm!r}")
    ids, waveforms, signal_corr = _stacked_correlations(segment, dictionary)
    x = segment.samples
    n = x.size
    table = _cross_table(waveforms)
    lmax = table.shape[2] // 2
    lanes = np.arange(lmax)
    atoms = np.zeros((len(waveforms), lmax))
    for row, w in enumerate(waveforms):
        atoms[row, : w.size] = w
    wmax = max(float(np.linalg.norm(w)) for w in waveforms)

    width = signal_corr.shape[1]
    dead = np.zeros(signal_corr.shape, dtype=bool)
    for row, w in enumerate(waveforms):
        dead[row, n - w.size + 1 :] = True
    budget = instance_budget(n, cfg)
    # Each valid placement is picked at most once, so that count bounds
    # the working arrays even when the budget is larger.
    capacity = min(budget, dead.size - np.count_nonzero(dead))

    sel_row = np.zeros(capacity, dtype=np.intp)
    sel_tau = np.zeros(capacity, dtype=np.intp)
    # Sample index and zero-padded waveform of every selected placement;
    # padding lanes point at the last sample and carry zero weight.
    support = np.zeros((capacity, lmax), dtype=np.intp)
    shapes = np.zeros((capacity, lmax))
    rhs = np.zeros(capacity)
    linv = np.zeros((capacity, capacity))
    z = np.zeros(capacity)
    factored = True
    amplitudes = np.empty(0)
    residual = x.copy()
    exhausted = False
    magnitudes = np.abs(signal_corr)
    spectra = None

    for k in range(budget):
        np.copyto(magnitudes, -np.inf, where=dead)
        if k == 0:
            row, tau, top = _row_major_argmax(magnitudes)
        else:
            slack = FFT_SLACK * float(np.linalg.norm(residual)) * wmax
            row, tau, top = _screened_argmax(magnitudes, dead, residual, waveforms, slack)
        if not top > 0.0:
            exhausted = True
            break
        dead[row, tau] = True
        sel_row[k], sel_tau[k] = row, tau
        support[k] = np.minimum(tau + lanes, n - 1)
        shapes[k] = atoms[row]
        rhs[k] = signal_corr[row, tau]

        if factored:
            g = _gram_lookup(table, row, tau, sel_row[:k], sel_tau[:k])
            v = linv[:k, :k] @ g
            pivot = table[row, row, lmax - 1] - float(v @ v)
            factored = pivot > 0.0 and math.isfinite(pivot)
        if factored:
            lam = math.sqrt(pivot)
            linv[k, :k] = -(v @ linv[:k, :k]) / lam
            linv[k, k] = 1.0 / lam
            z[k] = (rhs[k] - float(v @ z[:k])) / lam
            amplitudes = z[: k + 1] @ linv[: k + 1, : k + 1]
        else:
            chosen_row, chosen_tau = sel_row[: k + 1], sel_tau[: k + 1]
            gram = _gram_lookup(
                table, chosen_row[:, None], chosen_tau[:, None], chosen_row, chosen_tau
            )
            amplitudes = _solve_gram(gram, rhs[: k + 1])

        weights = amplitudes[:, None] * shapes[: k + 1]
        residual = x - np.bincount(support[: k + 1].ravel(), weights.ravel(), minlength=n)
        if k + 1 < budget:
            if spectra is None:
                spectra = np.conj(np.fft.rfft(atoms, n=n, axis=1))
            corr = np.fft.irfft(np.fft.rfft(residual) * spectra, n=n, axis=1)
            np.abs(corr[:, :width], out=magnitudes)

    instances = tuple(
        AtomInstance(ids[row], int(tau), float(a))
        for row, tau, a in zip(sel_row, sel_tau, amplitudes)
    )
    return SparseCode(instances, residual, dictionary.generation, exhausted)


def encode(segment: SignalSegment, dictionary: Dictionary, cfg: CodingConfig) -> SparseCode:
    """Dispatch to the configured sparse coding algorithm."""
    if cfg.algorithm == MP:
        return mp_encode(segment, dictionary, cfg)
    return omp_encode(segment, dictionary, cfg)


def reconstruct(instances, dictionary: Dictionary, length: int) -> np.ndarray:
    """Superpose atom instances into a dense signal of the given length."""
    atoms_by_id = {atom.id: atom for atom in dictionary.atoms}
    out = np.zeros(length)
    for inst in instances:
        if inst.atom_id not in atoms_by_id:
            raise ValueError(f"unknown atom_id {inst.atom_id}")
        w = atoms_by_id[inst.atom_id].waveform
        if inst.offset < 0 or inst.offset + w.size > length:
            raise ValueError(
                f"instance at offset {inst.offset} (atom length {w.size}) "
                f"does not fit in length {length}"
            )
        out[inst.offset : inst.offset + w.size] += inst.amplitude * w
    return out


def save_code_csv(code: SparseCode, path: str) -> None:
    """Export a sparse code as ``atom_id,offset,amplitude`` CSV rows.

    The residual norm is appended as a footer comment so the export is
    self-checking against the reconstruction identity.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("atom_id,offset,amplitude\n")
        for inst in code.instances:
            fh.write(f"{inst.atom_id},{inst.offset},{inst.amplitude!r}\n")
        fh.write(f"# residual_l2={float(np.linalg.norm(code.residual))!r}\n")
        if code.exhausted:
            fh.write("# exhausted=true\n")
