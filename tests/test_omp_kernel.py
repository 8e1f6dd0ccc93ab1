"""The compiled OMP pick loop against the numpy loop, bit for bit.

Every comparison codes a segment twice through ``coding._omp_encode``:
once with the kernel, which fast-forwards the picks and hands over to the
numpy loop for a ridge fallback, and once with every pick in numpy. The
instances, the residual bytes, ``exhausted`` and the loop's final
working arrays must all be equal.
"""

import ctypes
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vibdict.cli as cli
import vibdict.coding as coding
from vibdict import omp_kernel, synth
from vibdict.coding import CodingConfig, omp_encode
from vibdict.dictionary import Atom, Dictionary, init_pseudorandom, unit_normalize
from vibdict.ingest import SignalSegment, preprocess

SRC = os.path.dirname(os.path.dirname(os.path.abspath(coding.__file__)))

pytestmark = pytest.mark.skipif(shutil.which(omp_kernel.COMPILER) is None,
                                reason="no gcc to build the OMP kernel")


@pytest.fixture(scope="module")
def kernel():
    loaded = omp_kernel.fast_forward()
    assert loaded is not None, "gcc is installed, but the OMP kernel did not load"
    return loaded


def assert_same(segment, dictionary, cfg, kernel):
    """Code with and without the kernel; assert equal bytes and return the code."""
    fast_arrays, slow_arrays = {}, {}
    fast = coding._omp_encode(segment, dictionary, cfg, kernel, fast_arrays)
    slow = coding._omp_encode(segment, dictionary, cfg, None, slow_arrays)
    assert [repr(i) for i in fast.instances] == [repr(i) for i in slow.instances]
    assert fast.residual.tobytes() == slow.residual.tobytes()
    assert fast.exhausted == slow.exhausted
    for name, array in slow_arrays.items():
        assert fast_arrays[name].tobytes() == array.tobytes(), name
    return fast


def random_case(rng, n, lengths, ids, kind):
    """A segment and dictionary of one of the shapes the coders must handle."""
    if kind == "quantised":
        waveforms = [0.5 * rng.choice([-1.0, 1.0], size=length) for length in lengths]
        x = rng.integers(-3, 4, size=n).astype(float)
    else:
        waveforms = [unit_normalize(rng.standard_normal(length)) for length in lengths]
        x = rng.standard_normal(n)
    if kind == "periodic":
        x = np.resize(x[: int(rng.integers(2, 12))], n)
    if kind == "duplicated" and len(waveforms) > 1:
        waveforms[-1] = waveforms[0].copy()
    dictionary = Dictionary(tuple(Atom(w, atom_id) for w, atom_id in zip(waveforms, ids)))
    return SignalSegment(x, 1000.0, 0, "m"), dictionary


@pytest.fixture()
def handoffs(kernel, monkeypatch):
    """Records (kernel stop, budget) per call and the sizes of ridge solves."""
    stops, solves = [], []
    real_solve = coding._solve_gram

    def spy_kernel(budget, *arrays):
        stop = kernel(budget, *arrays)
        stops.append((stop, budget))
        return stop

    def spy_solve(gram, rhs):
        solves.append(gram.shape[0])
        return real_solve(gram, rhs)

    monkeypatch.setattr(coding, "_solve_gram", spy_solve)
    return spy_kernel, stops, solves


KINDS = ("gaussian", "quantised", "periodic", "duplicated")
SPARSITIES = (0.9, 0.7, 0.5, 0.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n=st.integers(1, 200),
    shape=st.integers(1, 4).flatmap(lambda m: st.tuples(
        st.lists(st.integers(1, 40), min_size=m, max_size=m),
        st.lists(st.integers(0, 30), min_size=m, max_size=m, unique=True),
    )),
    kind=st.sampled_from(KINDS),
    sparsity=st.sampled_from(SPARSITIES),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_numpy_loop(kernel, n, shape, kind, sparsity, seed):
    lengths, ids = shape
    n = max(n, *lengths)
    segment, dictionary = random_case(np.random.default_rng(seed), n, lengths, ids, kind)
    assert_same(segment, dictionary, CodingConfig("omp", sparsity=sparsity), kernel)


def test_600_cases_hand_over_to_the_ridge_fallback(handoffs):
    # Unequal lengths under shuffled ids, quantised and periodic signals,
    # and duplicated atoms, whose dependent picks end the factored loop
    # mid-segment: the numpy loop then carries on from the kernel's state.
    spy_kernel, stops, solves = handoffs
    handed_over = 0
    for case in range(600):
        rng = np.random.default_rng(case)
        m = int(rng.integers(1, 5))
        lengths = [int(rng.integers(2, 40)) for _ in range(m)]
        ids = [int(i) for i in rng.choice(50, size=m, replace=False)]
        kind = KINDS[case % 4]
        segment, dictionary = random_case(rng, int(rng.integers(max(lengths), 160)), lengths,
                                          ids, kind)
        sparsity = 0.0 if kind == "duplicated" else SPARSITIES[case // 4 % 4]
        stops.clear()
        solves.clear()
        assert_same(segment, dictionary, CodingConfig("omp", sparsity=sparsity), spy_kernel)
        (stop, budget), = stops
        if solves:
            assert 0 < stop < budget and solves[0] == stop + 1
            handed_over += 1
    assert handed_over >= 30


@pytest.mark.parametrize("segment_len, atoms, seed", [
    (2048, 3, 5),   # omp_code: 3 atoms of 70 samples, 205 picks
    (1024, 3, 9),   # fleet_monitor's segments, coded with OMP
    (4096, 8, 0),   # a block under the default 8-atom seed dictionary
])
def test_benchmark_shapes(kernel, segment_len, atoms, seed):
    spec = synth.default_fleet_specs(2, fault_machine=1, seed=seed)[1]
    raw = synth.generate_segment(spec, segment_len, np.random.default_rng(seed), 0)
    dictionary = init_pseudorandom(atoms, 50, 10, seed)
    code = assert_same(preprocess(raw), dictionary, CodingConfig("omp"), kernel)
    assert len(code.instances) == segment_len // 10 + (segment_len % 10 > 0)


def test_budget_beyond_valid_placements(kernel):
    rng = np.random.default_rng(3)
    segment, dictionary = random_case(rng, 40, [30, 27], [7, 2], "gaussian")
    code = assert_same(segment, dictionary, CodingConfig("omp", n_instances=50), kernel)
    assert code.exhausted and len(code.instances) == 11 + 14


@pytest.mark.parametrize("length, n", [(1, 50), (11, 50), (12, 50), (33, 90), (64, 64)])
def test_one_atom_dictionaries(kernel, length, n):
    # Lengths 11 and 12 sit on either side of numpy's unrolled correlate;
    # an atom as long as the segment has one placement.
    rng = np.random.default_rng(length)
    segment, dictionary = random_case(rng, n, [length], [4], "gaussian")
    code = assert_same(segment, dictionary, CodingConfig("omp", n_instances=8), kernel)
    assert len(code.instances) == min(8, n - length + 1)


def test_all_zero_segment_is_exhausted_at_once(kernel):
    segment = SignalSegment(np.zeros(64), 1000.0, 0, "m")
    code = assert_same(segment, init_pseudorandom(2, 12, 3, 1), CodingConfig("omp"), kernel)
    assert code.exhausted and code.instances == ()


def test_omp_encode_runs_the_kernel(kernel, monkeypatch):
    calls = []

    def spy(budget, *arrays):
        calls.append(budget)
        return kernel(budget, *arrays)

    monkeypatch.setattr(omp_kernel, "_kernel", spy)
    rng = np.random.default_rng(8)
    segment, dictionary = random_case(rng, 128, [16, 20], [0, 1], "gaussian")
    omp_encode(segment, dictionary, CodingConfig("omp"))
    assert calls == [13]


def probe_case():
    rng = np.random.default_rng(21)
    segment, dictionary = random_case(rng, 256, [24, 13, 31], [2, 0, 5], "gaussian")
    return segment, dictionary, CodingConfig("omp", sparsity=0.8)


def test_missing_compiler_falls_back_silently(kernel, tmp_path, monkeypatch, capfd):
    segment, dictionary, cfg = probe_case()
    with_kernel = omp_encode(segment, dictionary, cfg)
    capfd.readouterr()
    assert omp_kernel._load(cache_dirs=[str(tmp_path)],
                            compiler=str(tmp_path / "no-such-gcc")) is None
    assert os.listdir(tmp_path) == []
    monkeypatch.setattr(omp_kernel, "_kernel", None)
    without = omp_encode(segment, dictionary, cfg)
    assert [repr(i) for i in without.instances] == [repr(i) for i in with_kernel.instances]
    assert without.residual.tobytes() == with_kernel.residual.tobytes()
    assert capfd.readouterr() == ("", "")


def test_unwritable_cache_falls_back(tmp_path, capfd):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert omp_kernel._load(cache_dirs=[str(blocker / "cache")]) is None
    assert capfd.readouterr() == ("", "")


DDOT = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_int64, ctypes.POINTER(ctypes.c_double),
                        ctypes.c_int64, ctypes.POINTER(ctypes.c_double), ctypes.c_int64)


@DDOT
def sequential_ddot(n, x, incx, y, incy):
    total = 0.0
    for i in range(n):
        total += x[i * incx] * y[i * incy]
    return total


def test_self_check_rejects_a_ddot_that_sums_in_another_order(tmp_path):
    ddot, dgemv = omp_kernel._numpy_blas()
    assert omp_kernel._load(cache_dirs=[str(tmp_path)], blas=(ddot, dgemv)) is not None
    swapped = ctypes.cast(sequential_ddot, ctypes.c_void_p).value
    assert omp_kernel._load(cache_dirs=[str(tmp_path)], blas=(swapped, dgemv)) is None


def test_concurrent_builds_leave_one_loadable_library(tmp_path):
    code = ("import sys; from vibdict import omp_kernel; "
            "sys.exit(omp_kernel._load(cache_dirs=[sys.argv[1]]) is None)")
    env = dict(os.environ, PYTHONPATH=SRC)
    builds = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env)
              for _ in range(2)]
    assert [build.wait(timeout=120) for build in builds] == [0, 0]
    (library,) = os.listdir(tmp_path)
    assert library.startswith("omp_kernel.") and library.endswith(".so")
    assert omp_kernel._load(cache_dirs=[str(tmp_path)]) is not None


def test_cli_without_gcc_writes_the_same_bytes(kernel, tmp_path):
    # A copy of the package with an empty bytecode cache, run with no
    # compiler on PATH and a fresh user cache, cannot build the kernel.
    fleet = tmp_path / "fleet"
    assert cli.main(["synth", "--output", str(fleet), "--machines", "2", "--segments", "3",
                     "--segment-len", "512", "--seed", "4"]) == 0
    bare = tmp_path / "package"
    shutil.copytree(os.path.join(SRC, "vibdict"), bare / "vibdict",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bin").mkdir()
    results = {}
    for name, src, extra in (("gcc", SRC, {}),
                             ("bare", str(bare), {"PATH": str(tmp_path / "bin"),
                                                  "XDG_CACHE_HOME": str(tmp_path / "cache")})):
        out = tmp_path / name
        env = dict(os.environ, PYTHONPATH=src, **extra)
        steps = (["train", "--input", fleet, "--output", out / "base", "--train-blocks", 3,
                  "--block-len", 256, "--algo", "omp", "--atoms", 2, "--core-len", 20,
                  "--pad", 4],
                 ["monitor", "--input", fleet, "--baseline", out / "base", "--output",
                  out / "hist", "--dump-codes", "--algo", "omp", "--atoms", 2])
        for step in steps:
            done = subprocess.run([sys.executable, "-m", "vibdict.cli", *map(str, step)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            results.setdefault(name, []).append(
                (done.stdout.replace(str(out), "OUT"), done.stderr))
    assert results["gcc"] == results["bare"]
    assert tree(tmp_path / "gcc") == tree(tmp_path / "bare")
    assert not list(bare.rglob("*.so"))
    assert not (tmp_path / "cache").exists()


def tree(root):
    """Bytes of every output file under ``root`` but the effective config, by path."""
    found = {}
    for folder, _, files in os.walk(root):
        for name in files:
            if name != "effective_config.txt":
                with open(os.path.join(folder, name), "rb") as fh:
                    found[os.path.relpath(os.path.join(folder, name), root)] = fh.read()
    return found
