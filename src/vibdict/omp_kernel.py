"""Load the compiled OMP pick loop of ``omp_kernel.c``, or nothing.

The kernel runs :func:`vibdict.coding.omp_encode`'s factored pick loop in
C and calls the dot and matrix-vector products of the OpenBLAS that numpy
itself loaded, through the same entry points with the same arguments. It
updates the correlations from the Gram band instead of the residual and
recomputes exactly every entry that a rounding bound, widened by
``SCREEN_SAFETY``, cannot rule out of a pick, so its codes and working
arrays are the same bytes as those of the numpy loop.

gcc builds the library on first use. It is cached under the package's
``__pycache__/`` (or, when that is not writable, the user cache
directory), named by the SHA-256 of the C source and the compiler
command, and moved into place with ``os.replace`` so that processes
building at once all end with one complete library. Every process that
loads it first codes a small probe segment with the kernel and with the
numpy loop and keeps the kernel only when the two agree bit for bit.
Whatever fails on the way (no compiler, no writable cache, a numpy
without these BLAS symbols, a probe that differs) leaves the numpy loop
in charge, with the same outputs and nothing printed.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "omp_kernel.c")
COMPILER = "gcc"
# No -ffast-math and no -march=native: the loop must round as numpy does.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# Element types of the pointer arguments of omp_fast_forward, in order.
ARRAY_DTYPES = tuple(map(np.dtype, (np.int64,) + (np.float64,) * 6 + (np.bool_,)
                         + (np.int64,) * 2 + (np.float64,) * 5 + (np.uint8,)))
# The factor by which the kernel widens the rounding bound derived in
# omp_kernel.c when it screens the correlations it updated from the Gram
# band. At least 1e3 covers the terms the derivation drops; at 0 a near
# tie can go the wrong way.
SCREEN_SAFETY = 1e4
# Entries per block of the kernel's block maxima (BLOCK in omp_kernel.c).
BLOCK = 64

_UNSET = object()
_kernel = _UNSET


def fast_forward():
    """The loaded and checked kernel, or None; loaded once per process.

    The CLI calls this before it forks its workers, so they inherit it.
    """
    global _kernel
    if _kernel is _UNSET:
        _kernel = _load()
    return _kernel


def _load(cache_dirs=None, compiler=COMPILER, blas=None):
    """Build or find the library, bind it and self-check it; None on any failure.

    ``blas`` is a (ddot, dgemv) pair of function addresses and defaults to
    numpy's own.
    """
    # Any failure leaves the numpy loop in charge, which writes the same
    # bytes, so it is not reported.
    try:
        ddot, dgemv = blas or _numpy_blas()
        for directory in cache_dirs or _cache_dirs():
            try:
                path = _library(directory, compiler)
                break
            except Exception:
                continue
        else:
            return None
        kernel = _bind(ctypes.CDLL(path).omp_fast_forward, ddot, dgemv)
        return kernel if _self_check(kernel) else None
    except Exception:
        return None


def _numpy_blas():
    """Addresses of cblas ddot and dgemv in the OpenBLAS that numpy's wheels bundle."""
    from numpy._core import _multiarray_umath

    core = ctypes.CDLL(_multiarray_umath.__file__)
    return tuple(ctypes.cast(getattr(core, f"scipy_cblas_{name}64_"), ctypes.c_void_p).value
                 for name in ("ddot", "dgemv"))


def _cache_dirs():
    user = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return (os.path.join(os.path.dirname(SOURCE), "__pycache__"), os.path.join(user, "vibdict"))


def _sha256_hex(data: bytes) -> str:
    # hashlib loads OpenSSL, about 4 MB of resident memory; CPython's own
    # module gives the same digest.
    try:
        from _sha2 import sha256  # CPython >= 3.12
    except ImportError:
        from _sha256 import sha256
    return sha256(data).hexdigest()


def _library(directory: str, compiler: str) -> str:
    """Path of the cached library in ``directory``, built there first if missing."""
    with open(SOURCE, "rb") as fh:
        source = fh.read()
    command = [compiler, *FLAGS]
    key = _sha256_hex(source + "\0".join(command).encode())[:16]
    path = os.path.join(directory, f"omp_kernel.{key}.so")
    if os.path.exists(path):
        return path
    import shutil
    import subprocess
    import tempfile

    if shutil.which(compiler) is None:
        raise FileNotFoundError(f"no compiler {compiler!r}")
    os.makedirs(directory, exist_ok=True)
    fd, partial = tempfile.mkstemp(prefix="omp_kernel.", suffix=".partial", dir=directory)
    os.close(fd)
    try:
        subprocess.run([*command, "-o", partial, SOURCE, "-lm"], stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
                       timeout=120)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return path


def _bind(function, ddot: int, dgemv: int):
    """A Python callable over the C entry point, with the BLAS pointers fixed."""
    function.restype = ctypes.c_int64
    function.argtypes = ([ctypes.c_void_p] * 2 + [ctypes.c_int64] * 6 + [ctypes.c_double]
                         + [ctypes.c_void_p] * 16)

    def run(budget, x, atoms, lengths, table, signal_corr, corr, magnitudes, dead,
            sel_row, sel_tau, linv, z, amplitudes, residual) -> int:
        """Run picks from the first; return the pick the numpy loop resumes at."""
        capacity = linv.shape[0]
        blocks = -(-corr.size // BLOCK)
        work = np.empty(x.size + 3 * capacity + blocks)
        flags = np.empty(corr.size + x.size + blocks, dtype=np.uint8)
        arrays = (lengths, atoms, table, x, signal_corr, corr, magnitudes, dead,
                  sel_row, sel_tau, linv, z, amplitudes, residual, work, flags)
        for array, dtype in zip(arrays, ARRAY_DTYPES):
            if array.dtype != dtype or not array.flags.c_contiguous:
                raise TypeError(f"kernel array of {array.dtype} is not contiguous {dtype}")
        return function(ddot, dgemv, corr.shape[0], x.size, corr.shape[1], atoms.shape[1],
                        budget, capacity, SCREEN_SAFETY, *(a.ctypes.data for a in arrays))

    return run


def _self_check(kernel) -> bool:
    """Code one probe segment with the kernel and with the numpy loop; True if equal."""
    from .coding import CodingConfig, _omp_encode
    from .dictionary import Atom, Dictionary
    from .ingest import SignalSegment

    # Residues divided by 17 and 7 round in every sum. Atoms of 11 and 12
    # samples sit on either side of numpy's unrolled short correlate. The
    # values come from plain Python arithmetic, so that the check maps in
    # no numpy code that the coders do not run anyway.
    x = [(t * 31 % 97 - 48) / 17.0 for t in range(96)]
    atoms = tuple(Atom([(t * step % 13 - 6) / 7.0 for t in range(length)], atom_id)
                  for step, length, atom_id in ((5, 12, 4), (3, 11, 1), (8, 23, 2)))
    segment, dictionary = SignalSegment(x, 1.0, 0, "probe"), Dictionary(atoms)
    cfg = CodingConfig("omp", n_instances=20)
    fast_arrays, slow_arrays = {}, {}
    fast = _omp_encode(segment, dictionary, cfg, kernel, fast_arrays)
    slow = _omp_encode(segment, dictionary, cfg, None, slow_arrays)
    return (len(fast.instances) == 20 and fast.exhausted == slow.exhausted
            and [repr(i) for i in fast.instances] == [repr(i) for i in slow.instances]
            and fast.residual.tobytes() == slow.residual.tobytes()
            and all(fast_arrays[name].tobytes() == slow_arrays[name].tobytes()
                    for name in slow_arrays))
