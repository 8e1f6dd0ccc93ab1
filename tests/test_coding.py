import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vibdict.coding as coding
from vibdict import omp_kernel
from vibdict.coding import (
    AtomInstance,
    CodingConfig,
    encode,
    instance_budget,
    mp_encode,
    omp_encode,
    reconstruct,
    save_code_csv,
)
from vibdict.dictionary import Atom, Dictionary, init_pseudorandom, unit_normalize
from vibdict.errors import DataError
from vibdict.ingest import SignalSegment, preprocess

from oracles import fraction_budget, lstsq_amplitudes, naive_mp, naive_omp


def random_dictionary(rng, num_atoms=3, min_len=8, max_len=32):
    atoms = tuple(
        Atom(unit_normalize(rng.standard_normal(int(rng.integers(min_len, max_len + 1)))), i)
        for i in range(num_atoms)
    )
    return Dictionary(atoms)


def random_segment(rng, n=128, t=0):
    return preprocess(SignalSegment(rng.standard_normal(n), 1000.0, t, "m"))


class TestBudget:
    def test_examples(self):
        cfg = CodingConfig("mp", sparsity=0.9)
        assert instance_budget(12800, cfg) == 1280
        assert instance_budget(100, cfg) == 10
        assert instance_budget(101, cfg) == 11  # ceil, not round

    def test_exact_decimal_arithmetic(self):
        # 0.9 is not exactly representable in binary; the budget must not
        # pick up a spurious +1 from 0.1 * n landing just above an integer
        cfg = CodingConfig("mp", sparsity=0.9)
        for n in (10, 20, 12800, 16000):
            assert instance_budget(n, cfg) == n // 10

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(
        sparsity=st.one_of(
            st.floats(0.0, 1.0, exclude_max=True),
            st.sampled_from([0.0, 1e-05, 2.5e-07, 5e-324, 0.1, 0.3, 0.9, 0.99999999999]),
        ),
        segment_len=st.integers(1, 10**6),
    )
    def test_matches_exact_fraction_of_decimal_text(self, sparsity, segment_len):
        assert (instance_budget(segment_len, CodingConfig("mp", sparsity=sparsity))
                == fraction_budget(segment_len, sparsity))

    @settings(derandomize=True, deadline=None)
    @given(st.integers(0, 16).flatmap(
        lambda j: st.tuples(st.just(2**j), st.integers(1, 2**j))))
    def test_one_minus_k_over_n_gives_k_on_powers_of_two(self, case):
        """``--sparsity`` 1 - k/n gives exactly k placements when n = 2**j, j <= 16.

        So a fixed count needs no flag of its own at these lengths. It is
        exact no further: at n = 2**17, 1 - 3/n is 0.9999771118164062,
        which gives 4.
        """
        n, k = case
        assert instance_budget(n, CodingConfig("mp", sparsity=1 - k / n)) == k

    def test_override_takes_precedence(self):
        cfg = CodingConfig("mp", sparsity=0.9, n_instances=1600)
        assert instance_budget(16384, cfg) == 1600

    def test_minimum_one_instance(self):
        assert instance_budget(5, CodingConfig("mp", sparsity=0.9)) == 1

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            CodingConfig("nope")
        with pytest.raises(ValueError):
            CodingConfig("mp", sparsity=1.0)
        with pytest.raises(ValueError):
            CodingConfig("mp", n_instances=0)


class TestSelectBest:
    """Selecting the single best pick: MP with a budget of one instance."""

    def test_finds_planted_atom(self):
        rng = np.random.default_rng(1)
        d = random_dictionary(rng)
        sig = np.zeros(100)
        atom = d.atoms[1]
        sig[17 : 17 + len(atom)] += -2.5 * atom.waveform
        code = mp_encode(SignalSegment(sig, 1000.0, 0, "m"), d, CodingConfig("mp", n_instances=1))
        (best,) = code.instances
        assert (best.atom_id, best.offset) == (1, 17)
        assert best.amplitude == pytest.approx(-2.5, abs=1e-12)
        assert not code.exhausted

    def test_zero_residual_returns_none(self):
        rng = np.random.default_rng(2)
        seg = SignalSegment(np.zeros(50), 1000.0, 0, "m")
        code = mp_encode(seg, random_dictionary(rng), CodingConfig("mp", n_instances=1))
        assert code.instances == ()
        assert code.exhausted

    def test_tie_breaks_to_lowest_id_then_offset(self):
        # Atoms listed in descending id order: the pick must still go to
        # the lowest id, then the lowest offset.
        w = unit_normalize(np.ones(4))
        d = Dictionary((Atom(w, 1), Atom(w.copy(), 0)))
        seg = SignalSegment(np.ones(12), 1000.0, 0, "m")
        (best,) = mp_encode(seg, d, CodingConfig("mp", n_instances=1)).instances
        assert (best.atom_id, best.offset) == (0, 0)


class TestMpEncode:
    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = random_dictionary(rng, num_atoms=int(rng.integers(1, 4)))
            seg = random_segment(rng, n=int(rng.integers(48, 128)))
            cfg = CodingConfig("mp", n_instances=6)
            code = mp_encode(seg, d, cfg)
            waveforms = {a.id: a.waveform for a in d.atoms}
            expected, expected_residual = naive_mp(seg.samples, waveforms, 6)
            got = [(i.atom_id, i.offset, i.amplitude) for i in code.instances]
            assert [(m, t) for m, t, _ in got] == [(m, t) for m, t, _ in expected]
            np.testing.assert_allclose(
                [a for *_, a in got], [a for *_, a in expected], atol=1e-10
            )
            np.testing.assert_allclose(code.residual, expected_residual, atol=1e-10)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([97, 251]),
                    st.integers(24, 300).filter(lambda v: v & (v - 1))),
        shape=st.integers(1, 4).flatmap(lambda m: st.tuples(
            st.lists(st.integers(2, 24), min_size=m, max_size=m, unique=True),
            st.lists(st.integers(0, 30), min_size=m, max_size=m, unique=True),
        )),
        count=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle_property(self, n, shape, count, seed):
        lengths, ids = shape
        rng = np.random.default_rng(seed)
        d = Dictionary(tuple(
            Atom(unit_normalize(rng.standard_normal(length)), atom_id)
            for length, atom_id in zip(lengths, ids)
        ))
        seg = SignalSegment(rng.standard_normal(n), 1000.0, 0, "m")
        code = mp_encode(seg, d, CodingConfig("mp", n_instances=count))
        expected, residual = naive_mp(seg.samples, {a.id: a.waveform for a in d.atoms}, count)
        assert [(i.atom_id, i.offset) for i in code.instances] == [e[:2] for e in expected]
        np.testing.assert_allclose(
            [i.amplitude for i in code.instances], [e[2] for e in expected], rtol=0, atol=1e-10
        )
        np.testing.assert_allclose(code.residual, residual, rtol=0, atol=1e-10)

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(4)
        d = random_dictionary(rng)
        seg = random_segment(rng, n=200)
        code = mp_encode(seg, d, CodingConfig("mp", sparsity=0.9))
        recon = reconstruct(code.instances, d, len(seg))
        np.testing.assert_allclose(
            recon + code.residual, seg.samples,
            atol=1e-6 * np.linalg.norm(seg.samples),
        )

    def test_pythagoras_energy_identity(self):
        rng = np.random.default_rng(5)
        d = random_dictionary(rng)
        seg = random_segment(rng, n=160)
        code = mp_encode(seg, d, CodingConfig("mp", sparsity=0.9))
        start = float(np.dot(seg.samples, seg.samples))
        final = start - sum(i.amplitude**2 for i in code.instances)
        assert final == pytest.approx(float(np.dot(code.residual, code.residual)),
                                      rel=1e-9)

    def test_residual_energy_monotone(self):
        rng = np.random.default_rng(6)
        d = random_dictionary(rng)
        seg = random_segment(rng, n=100)
        energies = []
        for n in range(1, 8):
            code = mp_encode(seg, d, CodingConfig("mp", n_instances=n))
            energies.append(float(np.dot(code.residual, code.residual)))
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_exhaustion_flag_on_exactly_representable_signal(self):
        w = unit_normalize(np.sin(np.arange(8)) + 2.0)
        d = Dictionary((Atom(w, 0),))
        sig = np.zeros(32)
        sig[4:12] = 3.0 * w
        seg = SignalSegment(sig, 100.0, 0, "m")
        code = mp_encode(seg, d, CodingConfig("mp", n_instances=5))
        assert code.exhausted
        assert len(code.instances) == 1
        np.testing.assert_allclose(code.residual, 0.0, atol=1e-12)

    def test_budget_reached_without_exhaustion(self):
        rng = np.random.default_rng(7)
        d = random_dictionary(rng)
        seg = random_segment(rng, n=100)
        code = mp_encode(seg, d, CodingConfig("mp", sparsity=0.9))
        assert not code.exhausted
        assert len(code.instances) == instance_budget(100, CodingConfig("mp", sparsity=0.9))


class TestOmpEncode:
    def test_amplitudes_match_dense_least_squares(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = random_dictionary(rng, num_atoms=int(rng.integers(1, 4)))
            seg = random_segment(rng, n=int(rng.integers(48, 128)))
            code = omp_encode(seg, d, CodingConfig("omp", n_instances=6))
            waveforms = {a.id: a.waveform for a in d.atoms}
            placements = [(i.atom_id, i.offset) for i in code.instances]
            expected = lstsq_amplitudes(seg.samples, placements, waveforms)
            np.testing.assert_allclose(
                [i.amplitude for i in code.instances], expected, atol=1e-8
            )

    def test_matches_exhaustive_oracle_with_unequal_atom_lengths(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            m = int(rng.integers(1, 5))
            lengths = rng.choice(np.arange(6, 31), size=m, replace=False)
            ids = rng.choice(20, size=m, replace=False)
            d = Dictionary(tuple(
                Atom(unit_normalize(rng.standard_normal(int(length))), int(atom_id))
                for length, atom_id in zip(lengths, ids)
            ))
            seg = random_segment(rng, n=int(rng.integers(32, 96)))
            count = int(rng.integers(1, 13))
            code = omp_encode(seg, d, CodingConfig("omp", n_instances=count))
            expected, residual = naive_omp(seg.samples, {a.id: a.waveform for a in d.atoms}, count)
            assert [(i.atom_id, i.offset) for i in code.instances] == [e[:2] for e in expected]
            np.testing.assert_allclose(
                [i.amplitude for i in code.instances], [e[2] for e in expected], rtol=0, atol=1e-8
            )
            np.testing.assert_allclose(code.residual, residual, rtol=0, atol=1e-8)

    def test_periodic_signal_ties_break_like_oracle(self):
        # Every period holds an equally good placement, and a duplicated
        # atom ties every placement across ids: the picks must take the
        # lowest id, then the lowest offset, like the exhaustive scan.
        rng = np.random.default_rng(1)
        pattern = rng.standard_normal(50)
        w = unit_normalize(rng.standard_normal(20))
        x = np.tile(pattern, 20)
        d = Dictionary((Atom(w, 4), Atom(w.copy(), 2)))
        code = omp_encode(SignalSegment(x, 1000.0, 0, "m"), d, CodingConfig("omp", n_instances=15))
        expected, _ = naive_omp(x, {a.id: a.waveform for a in d.atoms}, 15)
        picks = [(i.atom_id, i.offset) for i in code.instances]
        assert picks == [e[:2] for e in expected]
        assert picks[:4] == [(2, 19), (2, 69), (2, 119), (2, 169)]

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([97, 251]),
                    st.integers(24, 300).filter(lambda v: v & (v - 1))),
        shape=st.integers(1, 4).flatmap(lambda m: st.tuples(
            st.lists(st.integers(2, 24), min_size=m, max_size=m, unique=True),
            st.lists(st.integers(0, 30), min_size=m, max_size=m, unique=True),
        )),
        count=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle_property(self, n, shape, count, seed):
        lengths, ids = shape
        rng = np.random.default_rng(seed)
        d = Dictionary(tuple(
            Atom(unit_normalize(rng.standard_normal(length)), atom_id)
            for length, atom_id in zip(lengths, ids)
        ))
        seg = SignalSegment(rng.standard_normal(n), 1000.0, 0, "m")
        code = omp_encode(seg, d, CodingConfig("omp", n_instances=count))
        expected, residual = naive_omp(seg.samples, {a.id: a.waveform for a in d.atoms}, count)
        assert [(i.atom_id, i.offset) for i in code.instances] == [e[:2] for e in expected]
        np.testing.assert_allclose(
            [i.amplitude for i in code.instances], [e[2] for e in expected], rtol=0, atol=1e-8
        )
        np.testing.assert_allclose(code.residual, residual, rtol=0, atol=1e-8)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        n=st.integers(24, 300),
        lengths=st.lists(st.integers(2, 24), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_segment_exhausts_without_instances(self, n, lengths, seed):
        rng = np.random.default_rng(seed)
        d = Dictionary(tuple(
            Atom(unit_normalize(rng.standard_normal(length)), atom_id)
            for atom_id, length in enumerate(lengths)
        ))
        code = omp_encode(SignalSegment(np.zeros(n), 1000.0, 0, "m"), d,
                          CodingConfig("omp", n_instances=5))
        assert code.instances == ()
        assert code.exhausted
        np.testing.assert_array_equal(code.residual, np.zeros(n))

    def test_dependent_selection_takes_ridge_fallback(self, monkeypatch):
        # Two copies of one waveform in a segment 3 samples longer: after the
        # 4 distinct placements every further pick duplicates one, so the
        # budget of all 8 placements forces a singular Gram matrix.
        sizes = []
        real_solve = coding._solve_gram

        def spy(gram, rhs):
            sizes.append(gram.shape[0])
            return real_solve(gram, rhs)

        monkeypatch.setattr(coding, "_solve_gram", spy)
        fallback_segments = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            w = 0.25 * rng.choice([-1.0, 1.0], size=16)
            d = Dictionary((Atom(w, 4), Atom(w.copy(), 2)))
            seg = SignalSegment(rng.standard_normal(19), 1000.0, 0, "m")
            sizes.clear()
            code = omp_encode(seg, d, CodingConfig("omp", n_instances=8))
            amplitudes = np.array([i.amplitude for i in code.instances])
            assert np.all(np.isfinite(amplitudes))
            np.testing.assert_allclose(
                reconstruct(code.instances, d, len(seg)) + code.residual, seg.samples,
                atol=1e-9,
            )
            if sizes:
                fallback_segments += 1
                # once singular, every later pick is solved by the fallback
                assert sizes == list(range(sizes[0], len(code.instances) + 1))
        assert fallback_segments > 0

    def test_budget_beyond_placements_exhausts_each_once(self):
        rng = np.random.default_rng(17)
        d = Dictionary((
            Atom(unit_normalize(rng.standard_normal(11)), 1),
            Atom(unit_normalize(rng.standard_normal(8)), 0),
        ))
        seg = random_segment(rng, n=14)
        code = omp_encode(seg, d, CodingConfig("omp", n_instances=20))
        placements = [(i.atom_id, i.offset) for i in code.instances]
        valid = {(a.id, tau) for a in d.atoms for tau in range(len(seg) - len(a) + 1)}
        assert code.exhausted
        assert len(placements) == len(valid) == 11
        assert set(placements) == valid

    def test_residual_orthogonal_to_selection(self):
        rng = np.random.default_rng(9)
        d = random_dictionary(rng)
        seg = random_segment(rng, n=150)
        code = omp_encode(seg, d, CodingConfig("omp", sparsity=0.9))
        atoms = {atom.id: atom for atom in d.atoms}
        for inst in code.instances:
            atom = atoms[inst.atom_id]
            window = code.residual[inst.offset : inst.offset + len(atom)]
            assert abs(float(np.dot(window, atom.waveform))) < 1e-6

    def test_no_duplicate_placements(self):
        rng = np.random.default_rng(10)
        d = random_dictionary(rng)
        seg = random_segment(rng, n=80)
        code = omp_encode(seg, d, CodingConfig("omp", sparsity=0.85))
        placements = [(i.atom_id, i.offset) for i in code.instances]
        assert len(placements) == len(set(placements))

    def test_beats_or_matches_mp_residual(self):
        rng = np.random.default_rng(11)
        d = random_dictionary(rng)
        seg = random_segment(rng, n=120)
        mp = mp_encode(seg, d, CodingConfig("mp", n_instances=12))
        omp = omp_encode(seg, d, CodingConfig("omp", n_instances=12))
        assert np.linalg.norm(omp.residual) <= np.linalg.norm(mp.residual) + 1e-9

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(12)
        d = random_dictionary(rng)
        seg = random_segment(rng, n=90)
        code = omp_encode(seg, d, CodingConfig("omp", n_instances=9))
        recon = reconstruct(code.instances, d, len(seg))
        np.testing.assert_allclose(
            recon + code.residual, seg.samples,
            atol=1e-6 * np.linalg.norm(seg.samples),
        )

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        layout=st.integers(24, 72).flatmap(lambda n: st.tuples(
            st.just(n), st.lists(st.integers(1, n // 6), min_size=1, max_size=3),
        )),
        fraction=st.sampled_from([0.5, 0.75, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_budget_matches_oracle_property(self, layout, fraction, seed):
        # Atoms longer than half the segment overlap at every placement, so
        # each refit can move the residual under all earlier picks. The
        # budget takes half to all of the valid placements, at most n / 2.
        n, placements = layout
        rng = np.random.default_rng(seed)
        ids = rng.choice(30, size=len(placements), replace=False)
        d = Dictionary(tuple(
            Atom(unit_normalize(rng.standard_normal(n - p + 1)), int(atom_id))
            for p, atom_id in zip(placements, ids)
        ))
        seg = SignalSegment(rng.standard_normal(n), 1000.0, 0, "m")
        count = int(np.ceil(fraction * sum(placements)))
        code = omp_encode(seg, d, CodingConfig("omp", n_instances=count))
        expected, residual = naive_omp(seg.samples, {a.id: a.waveform for a in d.atoms}, count)
        picks = [(i.atom_id, i.offset) for i in code.instances]
        assert picks == [e[:2] for e in expected]
        np.testing.assert_allclose(
            [i.amplitude for i in code.instances], [e[2] for e in expected], rtol=0, atol=1e-8
        )
        np.testing.assert_allclose(code.residual, residual, rtol=0, atol=1e-8)
        if count == sum(placements):
            for atom in d.atoms:
                assert {(atom.id, 0), (atom.id, n - len(atom))} <= set(picks)

    def test_duplicated_atom_matches_oracle_through_ridge_fallback(self):
        # Two copies of one waveform, with every placement of both in the
        # budget: past the distinct placements each pick is dependent, so
        # the Gram matrix turns singular and the ridge solve takes over.
        # Picks among those are round-off ties, so only the distinct ones
        # and the residual, the projection onto one span, are compared.
        sizes, fallbacks = [], []
        real_solve = coding._solve_gram

        def spy(gram, rhs):
            sizes.append(gram.shape[0])
            return real_solve(gram, rhs)

        @settings(derandomize=True, max_examples=30, deadline=None)
        @given(length=st.integers(4, 24), placements=st.integers(2, 8),
               seed=st.integers(0, 2**32 - 1))
        def check(length, placements, seed):
            rng = np.random.default_rng(seed)
            w = unit_normalize(rng.standard_normal(length))
            low, high = sorted(int(i) for i in rng.choice(30, size=2, replace=False))
            d = Dictionary((Atom(w, high), Atom(w.copy(), low)))
            n = length + placements - 1
            seg = SignalSegment(rng.standard_normal(n), 1000.0, 0, "m")
            sizes.clear()
            code = omp_encode(seg, d, CodingConfig("omp", n_instances=2 * placements))
            fallbacks.append(bool(sizes))
            expected, residual = naive_omp(seg.samples, {a.id: a.waveform for a in d.atoms},
                                           2 * placements)
            picks = [(i.atom_id, i.offset) for i in code.instances]
            assert picks[:placements] == [e[:2] for e in expected[:placements]]
            assert {(low, 0), (low, n - length)} <= set(picks[:placements])
            assert len(set(picks)) == len(picks)
            np.testing.assert_allclose(code.residual, residual, rtol=0, atol=1e-8)
            np.testing.assert_allclose(
                reconstruct(code.instances, d, n) + code.residual, seg.samples, atol=1e-9
            )

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coding, "_solve_gram", spy)
            check()
        assert sum(fallbacks) > len(fallbacks) // 2


class TestWindowRefresh:
    """The changed-span refresh leaves the array a full recompute would give."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.integers(16, 160),
        shape=st.integers(1, 4).flatmap(lambda m: st.tuples(
            st.lists(st.integers(2, 16), min_size=m, max_size=m),
            st.lists(st.integers(0, 30), min_size=m, max_size=m, unique=True),
        )),
        kind=st.sampled_from(["gaussian", "quantised", "periodic", "duplicated"]),
        sparsity=st.sampled_from([0.9, 0.7, 0.5, 0.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_refresh_of_every_shift(self, n, shape, kind, sparsity, seed):
        lengths, ids = shape
        rng = np.random.default_rng(seed)
        if kind == "quantised":
            waveforms = [0.5 * rng.choice([-1.0, 1.0], size=length) for length in lengths]
            x = rng.integers(-3, 4, size=n).astype(float)
        else:
            waveforms = [unit_normalize(rng.standard_normal(length)) for length in lengths]
            x = rng.standard_normal(n)
        if kind == "periodic":
            x = np.resize(x[: int(rng.integers(2, 12))], n)
        if kind == "duplicated":
            waveforms[-1] = waveforms[0].copy()
        d = Dictionary(tuple(Atom(w, atom_id) for w, atom_id in zip(waveforms, ids)))
        seg = SignalSegment(x, 1000.0, 0, "m")
        real_refresh = coding._refresh_window

        def refresh_every_shift(corr, residual, waveforms, first, last):
            # A full refresh may change nothing outside the window.
            before = corr.copy()
            real_refresh(corr, residual, waveforms, 0, residual.size - 1)
            outside = np.ones(corr.shape, dtype=bool)
            for row, w in enumerate(waveforms):
                outside[row, max(0, first - w.size + 1) : last + 1] = False
            assert corr[outside].tobytes() == before[outside].tobytes()

        for algorithm in ("mp", "omp"):
            cfg = CodingConfig(algorithm, sparsity=sparsity)
            with pytest.MonkeyPatch.context() as patch:
                # The compiled OMP loop has its own refresh; this checks numpy's.
                patch.setattr(omp_kernel, "_kernel", None)
                windowed = encode(seg, d, cfg)
                patch.setattr(coding, "_refresh_window", refresh_every_shift)
                full = encode(seg, d, cfg)
            assert [repr(i) for i in windowed.instances] == [repr(i) for i in full.instances]
            assert windowed.residual.tobytes() == full.residual.tobytes()
            assert windowed.exhausted == full.exhausted



class TestGramLookup:
    """Gram entries read from the clamped cross table equal shifted inner products."""

    @staticmethod
    def brute_force(waveforms, p, tau_p, q, tau_q, size):
        a = np.zeros(size)
        b = np.zeros(size)
        a[tau_p : tau_p + waveforms[p].size] = waveforms[p]
        b[tau_q : tau_q + waveforms[q].size] = waveforms[q]
        return float(a @ b)

    def test_every_lag_through_and_past_the_longest_atom(self):
        rng = np.random.default_rng(29)
        waveforms = [rng.standard_normal(length) for length in (3, 7, 5)]
        table = coding._cross_table(waveforms)
        lmax = 7
        base = lmax + 2
        lags = np.arange(-lmax - 1, lmax + 2)
        size = base + 2 * lmax + 2
        for p in range(3):
            for q in range(3):
                expected = [self.brute_force(waveforms, p, base, q, base + d, size) for d in lags]
                scalar = [float(coding._gram_lookup(table, p, base, q, base + int(d)))
                          for d in lags]
                np.testing.assert_allclose(scalar, expected, rtol=1e-12, atol=1e-12)
                rows = np.full(lags.size, q)
                array = coding._gram_lookup(table, p, base, rows, base + lags)
                np.testing.assert_allclose(array, expected, rtol=1e-12, atol=1e-12)
        # The fallback's broadcast form: every selected pair at once.
        sel_row = np.array([0, 1, 2, 1, 0])
        sel_tau = np.array([base, base + lmax, base - lmax, base + 3, base - 1])
        gram = coding._gram_lookup(table, sel_row[:, None], sel_tau[:, None], sel_row, sel_tau)
        expected = [[self.brute_force(waveforms, p, tau_p, q, tau_q, size)
                     for q, tau_q in zip(sel_row, sel_tau)]
                    for p, tau_p in zip(sel_row, sel_tau)]
        np.testing.assert_allclose(gram, expected, rtol=1e-12, atol=1e-12)

MP_RUN = """
import sys
import numpy as np
from vibdict.coding import CodingConfig, encode
from vibdict.dictionary import init_pseudorandom
from vibdict.ingest import SignalSegment
seg = SignalSegment(np.random.default_rng(0).standard_normal(512), 1000.0, 0, "m")
encode(seg, init_pseudorandom(3, core_len=12, pad=3), CodingConfig("mp"))
print("numpy.fft" in sys.modules)
"""


def test_mp_never_loads_numpy_fft():
    # numpy.fft loads lazily, and MP's correlation refresh never asks for it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(coding.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", MP_RUN], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_omp_never_loads_numpy_fft():
    # Both coders refresh their correlations with np.correlate only.
    src = os.path.dirname(os.path.dirname(os.path.abspath(coding.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", MP_RUN.replace('"mp"', '"omp"')], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestEncodeDispatch:
    def test_dispatches_by_algorithm(self):
        rng = np.random.default_rng(13)
        d = random_dictionary(rng)
        seg = random_segment(rng, n=64)
        mp = encode(seg, d, CodingConfig("mp", n_instances=4))
        omp = encode(seg, d, CodingConfig("omp", n_instances=4))
        assert len(mp.instances) == len(omp.instances) == 4

    def test_wrong_algorithm_rejected(self):
        rng = np.random.default_rng(14)
        d = random_dictionary(rng)
        seg = random_segment(rng, n=64)
        with pytest.raises(ValueError):
            mp_encode(seg, d, CodingConfig("omp"))
        with pytest.raises(ValueError):
            omp_encode(seg, d, CodingConfig("mp"))

    def test_atom_longer_than_segment_rejected(self):
        d = Dictionary((Atom(unit_normalize(np.ones(20)), 0),))
        seg = SignalSegment(np.ones(10), 100.0, 0, "m")
        with pytest.raises(ValueError, match="fit"):
            encode(seg, d, CodingConfig("mp"))

    @pytest.mark.parametrize("algorithm", ["mp", "omp"])
    def test_atom_longer_than_segment_is_data_error(self, algorithm):
        d = Dictionary((Atom(unit_normalize(np.ones(20)), 0),))
        seg = SignalSegment(np.ones(10), 100.0, 86400, "m00")
        with pytest.raises(DataError, match=r"does not fit.*\(source m00, t=86400\)"):
            encode(seg, d, CodingConfig(algorithm))

    def test_deterministic_replay(self):
        rng = np.random.default_rng(15)
        d = random_dictionary(rng)
        seg = random_segment(rng, n=100)
        a = encode(seg, d, CodingConfig("mp", sparsity=0.9))
        b = encode(seg, d, CodingConfig("mp", sparsity=0.9))
        assert a.instances == b.instances
        np.testing.assert_array_equal(a.residual, b.residual)


class TestCodeExport:
    def test_csv_round_trip_fields(self, tmp_path):
        rng = np.random.default_rng(16)
        d = random_dictionary(rng)
        seg = random_segment(rng, n=64)
        code = mp_encode(seg, d, CodingConfig("mp", n_instances=5))
        path = tmp_path / "code.csv"
        save_code_csv(code, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "atom_id,offset,amplitude"
        body = [line for line in lines[1:] if not line.startswith("#")]
        assert len(body) == 5
        for line, inst in zip(body, code.instances):
            m, tau, a = line.split(",")
            assert (int(m), int(tau)) == (inst.atom_id, inst.offset)
            assert float(a) == inst.amplitude
        footer = [line for line in lines if line.startswith("# residual_l2=")]
        assert float(footer[0].split("=")[1]) == pytest.approx(
            float(np.linalg.norm(code.residual))
        )


class TestReconstruct:
    def test_superposition(self):
        w0 = unit_normalize(np.ones(4))
        w1 = unit_normalize(np.arange(1.0, 6.0))
        d = Dictionary((Atom(w0, 0), Atom(w1, 1)))
        instances = (AtomInstance(0, 2, 2.0), AtomInstance(1, 4, -1.0))
        out = reconstruct(instances, d, 12)
        expected = np.zeros(12)
        expected[2:6] += 2.0 * w0
        expected[4:9] -= w1
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_out_of_range_offset_rejected(self):
        d = Dictionary((Atom(unit_normalize(np.ones(4)), 0),))
        with pytest.raises(ValueError):
            reconstruct((AtomInstance(0, 9, 1.0),), d, 12)
        with pytest.raises(ValueError):
            reconstruct((AtomInstance(0, -1, 1.0),), d, 12)

    def test_unknown_atom_rejected(self):
        d = Dictionary((Atom(unit_normalize(np.ones(4)), 0),))
        with pytest.raises(ValueError, match="unknown"):
            reconstruct((AtomInstance(5, 0, 1.0),), d, 12)
