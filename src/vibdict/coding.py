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

After a pick, both coders refresh the array the same way: they take the
span of residual samples that the pick changed and recompute, for every
atom, only the shifts whose support overlaps that span. ``np.correlate``
at shift t reads only residual[t : t + L] and the atom, so every entry
outside that window already holds, bit for bit, what a full recompute
would give. The array is therefore always exact, and each pick is the
one a plain scan of every shift would make.

The coders differ only in how they fit amplitudes, and so in the span a
pick changes. MP subtracts each selected instance from the residual
directly, so the span is the pick's support. OMP re-fits all selected
amplitudes by least squares after every selection, which leaves the
residual orthogonal to the selected shifted atoms. In exact arithmetic a
refit moves the residual only under the selected placements that the
new one overlaps, directly or through a chain of overlaps. OMP does not
rely on that: it compares the new residual with the previous one and
takes the first and last samples that differ.

OMP solves that least-squares fit exactly but incrementally: it extends
an inverse Cholesky factor of the Gram matrix by one row per pick, which
costs O(k^2) at the k-th pick. When a pick makes the selection linearly
dependent, the new pivot collapses to round-off; if it is not positive,
the rest of the segment falls back to a ridge-damped solve of the full
Gram system.

The numpy loop of :func:`_omp_encode` is the definition of OMP's output.
The compiled kernel of :mod:`vibdict.omp_kernel` reaches the same picks
and the same bytes another way: it updates the correlations from the
Gram band of each placement whose amplitude moved, and recomputes
exactly only the entries that could win or tie a pick (see
``omp_kernel.c``).

Only fully interior shifts are valid: an atom's support must lie entirely
inside the segment, with no partial overlap at the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import ALGORITHMS, MP, OMP
from .dictionary import Dictionary
from .errors import AtomFitError, NumericError
from .ingest import SignalSegment, write_table

# Diagonal damping applied to the OMP Gram system when it is not
# numerically positive definite: lambda = RIDGE_SCALE * trace(G) / k.
RIDGE_SCALE = 1e-12


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
    # Read the sparsity as digits / 10**scale from its decimal text, such
    # as "0.9" or "1e-05", so that the ceiling is taken in integers.
    mantissa, _, exponent = str(cfg.sparsity).partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits, scale = int(whole + fraction), len(fraction) - int(exponent or 0)
    denominator = 10**scale
    return max(1, -((digits - denominator) * segment_len // denominator))


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
    """(row, offset, value) of the first maximum in row-major order, as Python numbers."""
    flat = int(magnitudes.argmax())
    row, tau = divmod(flat, magnitudes.shape[1])
    return row, tau, magnitudes.item(flat)


def _refresh_window(corr, residual, waveforms, first, last):
    """Recompute every correlation that reads residual[first : last + 1].

    For the atom of length L in each row, the shifts lo..hi with
    lo = max(0, first - L + 1) and hi = min(n - L, last) are recomputed
    with ``np.correlate`` over residual[lo : hi + L]. No other entry reads
    those samples, so it already equals a full recompute, bit for bit.
    """
    n = residual.size
    for row, w in enumerate(waveforms):
        lo = max(0, first - w.size + 1)
        hi = min(n - w.size, last)
        if lo <= hi:
            corr[row, lo : hi + 1] = np.correlate(residual[lo : hi + w.size], w, mode="valid")


def mp_encode(segment: SignalSegment, dictionary: Dictionary, cfg: CodingConfig) -> SparseCode:
    """Matching Pursuit: subtract the best-correlated instance each step.

    Picks from the stacked correlation array of
    :func:`_stacked_correlations`. After selecting (m, tau, a) the
    residual is updated in place over the atom's support,
    R <- R - a * phi_m(. - tau), and :func:`_refresh_window` recomputes
    the correlations that read that support. Those never reach the zero
    tails, so no mask is needed.
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
        amplitude = corr.item(row, tau)
        instances.append(AtomInstance(ids[row], tau, amplitude))
        residual[tau : tau + w.size] -= amplitude * w
        _refresh_window(corr, residual, waveforms, tau, tau + w.size - 1)
    return SparseCode(tuple(instances), residual, exhausted)


def _cross_table(waveforms) -> np.ndarray:
    """Cross-correlations of every atom pair at every lag, zero-padded.

    table[p, q, d + L_max] is the inner product of atom p placed at
    offset tau with atom q placed at offset tau + d, for |d| < L_max. The
    first and the last column stay zero: every lag at or beyond -L_max or
    L_max, where the two supports cannot overlap, is clamped onto one of
    them.
    """
    lmax = max(w.size for w in waveforms)
    table = np.zeros((len(waveforms), len(waveforms), 2 * lmax + 1))
    for p, w_p in enumerate(waveforms):
        for q, w_q in enumerate(waveforms):
            start = lmax - w_q.size + 1
            table[p, q, start : start + w_p.size + w_q.size - 1] = np.correlate(
                w_p, w_q, mode="full"
            )
    return table


def _gram_lookup(table: np.ndarray, pos_a, tau_a, pos_b, tau_b) -> np.ndarray:
    """Gram entries <phi_a(. - tau_a), phi_b(. - tau_b)>, broadcast over inputs."""
    lmax = table.shape[2] // 2
    index = np.asarray(tau_b - (tau_a - lmax))
    np.maximum(index, 0, out=index)
    np.minimum(index, 2 * lmax, out=index)
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


def omp_encode(segment: SignalSegment, dictionary: Dictionary, cfg: CodingConfig) -> SparseCode:
    """Orthogonal Matching Pursuit over the selected shifted-atom set.

    Selection works exactly as in MP, but after each pick all amplitudes
    are re-fit by least squares over the selected shifted atoms, and the
    residual becomes the projection remainder. A selected (atom, offset)
    pair is excluded from later scans since re-picking it adds no new
    basis vector.

    Picks come from the same stacked correlation array as MP's (see
    :func:`_stacked_correlations`); its magnitudes are -inf at the zero
    tails past each atom's last interior shift and at the placements
    already selected. In exact arithmetic the refit changes the residual
    only under the run of selected placements that overlap the new one,
    directly or in a chain. After each pick the new residual is compared
    with the previous one, and :func:`_refresh_window` recomputes the
    correlations that read the samples between the first and the last
    that differ; the dead placements in those columns are masked again.
    Every other entry is already what ``np.correlate`` over the whole
    residual gives, so the picks are those of a plain scan.

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

    The numpy loop below is the definition; the compiled kernel of
    :mod:`vibdict.omp_kernel`, when it has loaded, runs the factored
    picks first and must leave every array as that loop would. It makes
    the factor's operations and BLAS calls in the same order, but it
    updates the correlations from the Gram band of each placement whose
    amplitude moved instead of recomputing them from the residual. It
    recomputes with ``np.correlate``'s arithmetic every entry that
    could, within a proven rounding bound, win or tie a pick, so each
    pick is still np.argmax's, and it makes every entry exact before it
    hands back. The numpy loop carries on from the pick where the kernel
    stopped, which leaves it nothing to do unless a pivot failed and the
    ridge fallback takes over.
    """
    from . import omp_kernel  # only OMP runs load it

    return _omp_encode(segment, dictionary, cfg, omp_kernel.fast_forward())


def _omp_encode(segment, dictionary, cfg, kernel, final=None) -> SparseCode:
    """:func:`omp_encode` with the given kernel; ``None`` runs every pick in numpy.

    A dict passed as ``final`` receives the loop's working arrays as they
    are at the end, for bit-for-bit comparisons of the two loops.
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

    dead = np.zeros(signal_corr.shape, dtype=bool)
    for row, w in enumerate(waveforms):
        dead[row, n - w.size + 1 :] = True
    budget = instance_budget(n, cfg)
    # Each valid placement is picked at most once, so that count bounds
    # the working arrays even when the budget is larger.
    capacity = min(budget, dead.size - np.count_nonzero(dead))

    sel_row = np.zeros(capacity, dtype=np.int64)
    sel_tau = np.zeros(capacity, dtype=np.int64)
    rhs = np.zeros(capacity)
    linv = np.zeros((capacity, capacity))
    z = np.zeros(capacity)
    amplitudes = np.zeros(capacity)
    residual = x.copy()
    exhausted = False
    corr = signal_corr.copy()
    magnitudes = np.abs(corr)
    np.copyto(magnitudes, -np.inf, where=dead)

    start = 0
    if kernel is not None:
        lengths = np.array([w.size for w in waveforms], dtype=np.int64)
        start = kernel(budget, np.ascontiguousarray(x), atoms, lengths, table, signal_corr, corr,
                       magnitudes, dead, sel_row, sel_tau, linv, z, amplitudes, residual)
        rhs[:start] = signal_corr[sel_row[:start], sel_tau[:start]]
    amplitudes = amplitudes[:start]
    factored = True
    for k in range(start, budget):
        row, tau, top = _row_major_argmax(magnitudes)
        if not top > 0.0:
            exhausted = True
            break
        dead[row, tau] = True
        magnitudes[row, tau] = -np.inf
        sel_row[k], sel_tau[k] = row, tau
        rhs[k] = signal_corr[row, tau]

        if factored:
            g = _gram_lookup(table, row, tau, sel_row[:k], sel_tau[:k])
            v = linv[:k, :k] @ g
            pivot = table[row, row, lmax] - float(v @ v)
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

        # Sample index and waveform of every selected placement, padded to
        # L_max lanes; padding lanes point at the last sample and carry
        # zero weight.
        support = np.minimum(sel_tau[: k + 1, None] + lanes, n - 1)
        weights = amplitudes[:, None] * atoms[sel_row[: k + 1]]
        previous = residual
        residual = x - np.bincount(support.ravel(), weights.ravel(), minlength=n)
        changed = np.flatnonzero(residual != previous)
        if k + 1 < budget and changed.size:
            first, last = changed[0], changed[-1]
            _refresh_window(corr, residual, waveforms, first, last)
            columns = slice(max(0, first - lmax + 1), last + 1)
            np.abs(corr[:, columns], out=magnitudes[:, columns])
            np.copyto(magnitudes[:, columns], -np.inf, where=dead[:, columns])

    if final is not None:
        final.update(corr=corr, magnitudes=magnitudes, dead=dead, linv=linv, z=z)
    instances = tuple(
        AtomInstance(ids[row], int(tau), float(a))
        for row, tau, a in zip(sel_row, sel_tau, amplitudes)
    )
    return SparseCode(instances, residual, exhausted)


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
    """Export a sparse code as one CSV row of atom id, offset and amplitude per instance.

    The residual norm is appended as a footer comment so the export is
    self-checking against the reconstruction identity.
    """
    rows = ((inst.atom_id, inst.offset, inst.amplitude) for inst in code.instances)
    footer = [("residual_l2", float(np.linalg.norm(code.residual)))]
    footer += [("exhausted", "true")] if code.exhausted else []
    write_table(path, "atom_id,offset,amplitude", rows, footer=footer)
