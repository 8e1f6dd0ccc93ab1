import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vibdict.dictionary import Atom, Dictionary, init_pseudorandom, unit_normalize
from vibdict.metrics import (
    FIDELITY_CAP_DB,
    IndicatorSeries,
    atom_coherence,
    atom_similarity_beta,
    center_frequency,
    dictionary_distance,
    fidelity_db,
    load_indicator_csv,
    lowpass,
    mad_scores,
    mad_series,
    peak_frequency,
    save_indicator_csv,
)

from oracles import closed_form_lowpass, naive_coherence, naive_distance, naive_mad_scores


def random_atoms(rng, count=3, min_len=8, max_len=16):
    return tuple(
        Atom(unit_normalize(rng.standard_normal(int(rng.integers(min_len, max_len + 1)))), i)
        for i in range(count)
    )


class TestCoherence:
    def test_identical_atoms(self):
        rng = np.random.default_rng(0)
        a = Atom(unit_normalize(rng.standard_normal(12)), 0)
        assert atom_coherence(a, a) == 1.0
        assert atom_similarity_beta(a, a) == 0.0

    def test_identical_content_is_exact(self):
        # norm(w) * norm(w) can land a few ulps away from dot(w, w); a
        # bit-identical pair must still report coherence exactly 1
        rng = np.random.default_rng(11)
        for _ in range(200):
            w = unit_normalize(rng.standard_normal(int(rng.integers(8, 64))))
            assert atom_coherence(Atom(w, 0), Atom(w.copy(), 1)) == 1.0

    def test_shifted_copy_is_coherent(self):
        rng = np.random.default_rng(1)
        w = unit_normalize(rng.standard_normal(10))
        shifted = np.concatenate([np.zeros(4), w, np.zeros(2)])
        a = Atom(w, 0)
        b = Atom(unit_normalize(shifted), 1)
        assert atom_coherence(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_sign_flip_invariant(self):
        rng = np.random.default_rng(2)
        w = unit_normalize(rng.standard_normal(14))
        a, b = Atom(w, 0), Atom(-w, 1)
        assert atom_coherence(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports_still_scanned(self):
        # orthogonal at zero shift but correlated at the best alignment
        a = Atom(unit_normalize(np.array([1.0, 0.0, 0.0, 0.0])), 0)
        b = Atom(unit_normalize(np.array([0.0, 0.0, 0.0, 1.0])), 1)
        assert atom_coherence(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b = random_atoms(rng, count=2)
            assert atom_coherence(a, b) == pytest.approx(
                naive_coherence(a.waveform, b.waveform), abs=1e-12
            )

    def test_zero_atom_rejected(self):
        a = Atom(np.zeros(4), 0)
        b = Atom(np.ones(4), 1)
        with pytest.raises(ValueError):
            atom_coherence(a, b)


class TestDictionaryDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(12)
        for seed in range(20):
            d = init_pseudorandom(num_atoms=3, core_len=10, pad=2, seed=seed)
            assert dictionary_distance(d, d) == 0.0
            b = Dictionary(random_atoms(rng))
            assert dictionary_distance(b, b) == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = Dictionary(random_atoms(rng))
            b = Dictionary(random_atoms(rng))
            ab = dictionary_distance(a, b)
            ba = dictionary_distance(b, a)
            assert abs(ab - ba) < 1e-9
            assert 0.0 <= ab <= 90.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = Dictionary(random_atoms(rng))
            b = Dictionary(random_atoms(rng))
            expected = naive_distance(
                [x.waveform for x in a.atoms], [x.waveform for x in b.atoms]
            )
            assert dictionary_distance(a, b) == pytest.approx(expected, abs=1e-9)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        lengths_a=st.lists(st.integers(1, 24), min_size=1, max_size=5),
        lengths_b=st.lists(st.integers(1, 24), min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_oracle_property(self, lengths_a, lengths_b, seed):
        rng = np.random.default_rng(seed)
        a = [unit_normalize(rng.standard_normal(length)) for length in lengths_a]
        b = [unit_normalize(rng.standard_normal(length)) for length in lengths_b]
        da = Dictionary(tuple(Atom(w, i) for i, w in enumerate(a)))
        db = Dictionary(tuple(Atom(w, i) for i, w in enumerate(b)))
        ab = dictionary_distance(da, db)
        assert ab == pytest.approx(dictionary_distance(db, da), abs=1e-12)
        assert 0.0 <= ab <= 90.0
        assert ab == pytest.approx(naive_distance(a, b), abs=1e-9)

    def test_relabeling_invariant(self):
        rng = np.random.default_rng(6)
        atoms = random_atoms(rng)
        a = Dictionary(atoms)
        rolled = tuple(Atom(x.waveform, (x.id + 1) % 3) for x in atoms)
        b = Dictionary(tuple(sorted(rolled, key=lambda x: x.id)))
        assert dictionary_distance(a, b) == pytest.approx(0.0, abs=1e-9)


class TestFidelity:
    def test_known_ratio(self):
        recon = np.zeros(10)
        recon[0] = 10.0
        residual = np.zeros(10)
        residual[1] = 1.0
        assert fidelity_db(recon + residual, residual) == pytest.approx(20.0, abs=1e-12)

    def test_zero_residual_caps_positive(self):
        s = np.ones(8)
        assert fidelity_db(s, np.zeros(8)) == FIDELITY_CAP_DB

    def test_zero_reconstruction_caps_negative(self):
        s = np.ones(8)
        assert fidelity_db(s, s.copy()) == -FIDELITY_CAP_DB

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fidelity_db(np.ones(4), np.ones(5))


class TestLowpass:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(50)
        tc = 30.0
        alpha = math.exp(-1.0 / tc)
        np.testing.assert_allclose(lowpass(x, tc), closed_form_lowpass(x, alpha), atol=1e-12)

    def test_constant_is_fixed_point(self):
        x = np.full(20, 3.5)
        np.testing.assert_allclose(lowpass(x, 15.0), x, atol=1e-12)

    def test_initialization_at_first_sample(self):
        x = np.array([7.0, 0.0, 0.0])
        assert lowpass(x, 10.0)[0] == 7.0

    @pytest.mark.parametrize("tc", [0.0, -1.0, math.nan, math.inf])
    def test_time_constant_must_be_positive_and_finite(self, tc):
        with pytest.raises(ValueError, match="time_constant"):
            lowpass(np.ones(3), tc)

    def test_step_response_converges(self):
        x = np.concatenate([np.zeros(1), np.ones(400)])
        y = lowpass(x, 10.0)
        assert y[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(y) >= -1e-12)

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            lowpass(np.ones(4), 0.0)
        with pytest.raises(ValueError):
            lowpass(np.empty(0), 5.0)


class TestMad:
    def test_hand_worked_example(self):
        scores, saturated = mad_scores(np.array([2.0, 4.0, 4.0, 4.0, 5.0, 9.0]))
        np.testing.assert_allclose(scores, [4.0, 0.0, 0.0, 0.0, 2.0, 10.0], atol=1e-12)
        assert not saturated

    def test_matches_naive(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.standard_normal(int(rng.integers(3, 12)))
            scores, _ = mad_scores(v)
            np.testing.assert_allclose(scores, naive_mad_scores(v), atol=1e-12)

    def test_identical_values_saturate(self):
        scores, saturated = mad_scores(np.full(5, 2.0))
        assert saturated
        np.testing.assert_allclose(scores, 0.0)

    def test_majority_identical_saturates_with_finite_scores(self):
        scores, saturated = mad_scores(np.array([1.0, 1.0, 1.0, 1.0, 2.0]))
        assert saturated
        assert np.isfinite(scores).all()
        assert scores[-1] == pytest.approx(1.0 / 1e-6)

    def test_series_alignment_required(self):
        a = IndicatorSeries("a", np.array([0, 1]), np.array([0.0, 1.0]))
        b = IndicatorSeries("b", np.array([0, 2]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="aligned"):
            mad_series({"a": a, "b": b})

    def test_series_scores_per_timestamp(self):
        t = np.array([0, 1])
        series = {
            "a": IndicatorSeries("a", t, np.array([2.0, 1.0])),
            "b": IndicatorSeries("b", t, np.array([4.0, 1.0])),
            "c": IndicatorSeries("c", t, np.array([9.0, 1.0])),
        }
        scored = mad_series(series)
        expected0, _ = mad_scores(np.array([2.0, 4.0, 9.0]))
        np.testing.assert_allclose(
            [scored["a"].values[0], scored["b"].values[0], scored["c"].values[0]],
            expected0, atol=1e-12,
        )
        np.testing.assert_allclose([scored[m].values[1] for m in "abc"], 0.0)


class TestIndicatorSeries:
    def test_timestamps_strictly_increasing(self):
        with pytest.raises(ValueError):
            IndicatorSeries("x", np.array([0, 0]), np.array([1.0, 2.0]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IndicatorSeries("x", np.array([0, 1]), np.array([1.0]))

    def test_csv_round_trip(self, tmp_path):
        series = IndicatorSeries("distance_deg", np.array([0, 10, 20]),
                                 np.array([0.5, 1.25, 2.0]))
        path = tmp_path / "ind.csv"
        save_indicator_csv(series, str(path), machine="m03",
                           comments={"time_constant": 30})
        loaded, meta = load_indicator_csv(str(path))
        assert meta["machine"] == "m03"
        assert meta["kind"] == "distance_deg"
        assert meta["time_constant"] == "30"
        np.testing.assert_array_equal(loaded.timestamps, series.timestamps)
        np.testing.assert_array_equal(loaded.values, series.values)


class TestFrequencies:
    def test_pure_tone_centroid_and_peak(self):
        fs = 1000.0
        n = 200
        t = np.arange(n) / fs
        atom = Atom(unit_normalize(np.sin(2 * np.pi * 125.0 * t)), 0)
        assert peak_frequency(atom, fs) == pytest.approx(125.0, abs=fs / n)
        assert center_frequency(atom, fs) == pytest.approx(125.0, rel=0.05)

    @pytest.mark.parametrize("fs", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("frequency", [peak_frequency, center_frequency])
    def test_sample_rate_must_be_positive_and_finite(self, frequency, fs):
        atom = Atom(unit_normalize(np.hanning(16)), 0)
        with pytest.raises(ValueError, match=f"sample_rate must be positive and finite, got {fs}"):
            frequency(atom, fs)
