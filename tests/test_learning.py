import weakref

import numpy as np
import pytest

from vibdict.coding import AtomInstance, CodingConfig, SparseCode, encode, reconstruct
from vibdict.dictionary import Atom, Dictionary, init_pseudorandom, unit_normalize
from vibdict.errors import AtomFitError, NumericError
from vibdict.ingest import SignalSegment, preprocess
from vibdict.learning import (
    LearnConfig,
    gradient_directions,
    gradient_update,
    monitor_segments,
    train_baseline,
)
from vibdict.metrics import (
    HistoryRecord,
    dictionary_distance,
    fidelity_db,
    load_history_csv,
    save_history_csv,
)


def log_likelihood_term(segment, instances, dictionary, noise_var):
    recon = reconstruct(instances, dictionary, len(segment))
    residual = segment - recon
    return -float(np.dot(residual, residual)) / (2.0 * noise_var)


def random_case(rng, n=96, num_atoms=3, n_instances=6):
    d = init_pseudorandom(num_atoms=num_atoms, core_len=10, pad=3, seed=int(rng.integers(1 << 30)))
    seg = preprocess(SignalSegment(rng.standard_normal(n), 1000.0, 0, "m"))
    code = encode(seg, d, CodingConfig("mp", n_instances=n_instances))
    return d, seg, code


class TestGradientDirections:
    def test_manual_two_instance_case(self):
        w = unit_normalize(np.ones(4))
        d = Dictionary((Atom(w, 0),))
        residual = np.arange(10.0)
        code = SparseCode((AtomInstance(0, 2, 2.0), AtomInstance(0, 5, -1.0)), residual)
        grads = gradient_directions(code, d)
        expected = 2.0 * residual[2:6] - 1.0 * residual[5:9]
        np.testing.assert_allclose(grads[0], expected, atol=1e-12)

    def test_unused_atoms_absent(self):
        w = unit_normalize(np.ones(4))
        d = Dictionary((Atom(w, 0), Atom(w.copy(), 1)))
        code = SparseCode((AtomInstance(0, 0, 1.0),), np.ones(8))
        grads = gradient_directions(code, d)
        assert set(grads) == {0}

    def test_unknown_instance_rejected(self):
        d = Dictionary((Atom(unit_normalize(np.ones(4)), 0),))
        code = SparseCode((AtomInstance(7, 0, 1.0),), np.ones(8))
        with pytest.raises(ValueError, match="unknown"):
            gradient_directions(code, d)

    def test_matches_finite_differences_of_log_likelihood(self):
        rng = np.random.default_rng(42)
        noise_var = 1.7
        for _ in range(20):
            d, seg, code = random_case(rng)
            grads = gradient_directions(code, d)
            h = 1e-6
            for atom in d.atoms:
                if atom.id not in grads:
                    continue
                analytic = grads[atom.id] / noise_var
                fd = np.empty(len(atom))
                for j in range(len(atom)):
                    bumped = atom.waveform.copy()
                    bumped[j] += h
                    d_plus = Dictionary(
                        tuple(Atom(bumped, a.id) if a.id == atom.id else a for a in d.atoms),
                        d.generation,
                    )
                    bumped = atom.waveform.copy()
                    bumped[j] -= h
                    d_minus = Dictionary(
                        tuple(Atom(bumped, a.id) if a.id == atom.id else a for a in d.atoms),
                        d.generation,
                    )
                    lp = log_likelihood_term(seg.samples, code.instances, d_plus, noise_var)
                    lm = log_likelihood_term(seg.samples, code.instances, d_minus, noise_var)
                    fd[j] = (lp - lm) / (2.0 * h)
                denom = np.linalg.norm(analytic)
                assert denom > 0
                assert np.linalg.norm(fd - analytic) / denom < 1e-4


class TestLearnConfig:
    @pytest.mark.parametrize("field, value", [
        ("eta", -1e-3), ("eta", float("nan")), ("eta", float("inf")),
    ])
    def test_out_of_range_or_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            LearnConfig(**{field: value})


class TestGradientUpdate:
    def test_eta_zero_returns_same_object(self):
        rng = np.random.default_rng(0)
        d, seg, code = random_case(rng)
        assert gradient_update(d, code, LearnConfig(eta=0.0)) is d

    def test_unused_atoms_bitwise_unchanged(self):
        w0 = unit_normalize(np.concatenate([np.zeros(3), np.ones(6), np.zeros(3)]))
        w1 = unit_normalize(np.concatenate([np.zeros(3), np.arange(1.0, 7.0), np.zeros(3)]))
        d = Dictionary((Atom(w0, 0), Atom(w1, 1)))
        code = SparseCode((AtomInstance(0, 2, 1.5),), np.ones(24))
        out = gradient_update(d, code, LearnConfig(eta=1e-3))
        assert out.atoms[1] is d.atoms[1]
        assert out.atoms[0] is not d.atoms[0]

    def test_updated_atoms_unit_norm(self):
        rng = np.random.default_rng(1)
        d, seg, code = random_case(rng)
        out = gradient_update(d, code, LearnConfig(eta=0.1))
        for atom in out.atoms:
            assert abs(np.linalg.norm(atom.waveform) - 1.0) < 1e-12

    def test_generation_increments(self):
        rng = np.random.default_rng(2)
        d, seg, code = random_case(rng)
        out = gradient_update(d, code, LearnConfig(eta=1e-4))
        assert out.generation == d.generation + 1

    def test_step_is_toward_residual_window(self):
        # a single positive-amplitude instance pulls the atom toward the
        # residual over its support
        w = unit_normalize(np.concatenate([np.zeros(2), np.ones(8), np.zeros(2)]))
        d = Dictionary((Atom(w, 0),))
        residual = np.zeros(30)
        residual[4] = 1.0  # inside the instance window [2, 14)
        code = SparseCode((AtomInstance(0, 2, 2.0),), residual)
        out = gradient_update(d, code, LearnConfig(eta=1e-2))
        delta = out.atoms[0].waveform - w
        assert delta[2] > 0  # window position of the residual spike
        assert abs(delta[2]) > np.abs(np.delete(delta, 2)).max() - 1e-12

    def test_growth_applied_after_update(self):
        # concentrate energy in the leading 10-sample tail so growth must trigger
        w = unit_normalize(np.concatenate([np.ones(10), np.zeros(14)]))
        d = Dictionary((Atom(w, 0),))
        residual = np.full(40, 1e-9)
        code = SparseCode((AtomInstance(0, 0, 1.0),), residual)
        out = gradient_update(d, code, LearnConfig(eta=1e-6))
        assert len(out.atoms[0]) == 34
        np.testing.assert_array_equal(out.atoms[0].waveform[:10], 0.0)


class TestTrainBaseline:
    def blocks(self, rng, count=15, n=80):
        return [
            preprocess(SignalSegment(rng.standard_normal(n), 1000.0, k, "m"))
            for k in range(count)
        ]

    def test_returns_fidelity_per_block(self):
        rng = np.random.default_rng(3)
        d = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=0)
        result = train_baseline(
            self.blocks(rng), d, CodingConfig("mp", n_instances=8), LearnConfig(eta=1e-3)
        )
        assert result.fidelity_db.shape == (15,)
        assert np.isfinite(result.fidelity_db).all()
        assert result.dictionary.generation == 15

    def test_eta_zero_preserves_dictionary(self):
        rng = np.random.default_rng(4)
        d = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=0)
        result = train_baseline(
            self.blocks(rng), d, CodingConfig("mp", n_instances=8), LearnConfig(eta=0.0)
        )
        assert result.dictionary is d

    def test_empty_blocks_rejected(self):
        d = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=0)
        for blocks in ([], iter([])):
            with pytest.raises(ValueError, match="^need at least one training block$"):
                train_baseline(blocks, d, CodingConfig("mp"), LearnConfig())

    def test_pulls_blocks_lazily(self):
        """Each block is pulled when it is coded, and freed once the next one is."""
        d = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=1)
        refs = []

        def source():
            rng = np.random.default_rng(11)
            for k in range(3):
                block = preprocess(SignalSegment(rng.standard_normal(80), 1000.0, k, "m"))
                refs.append(weakref.ref(block))
                yield block
            del block
            raise RuntimeError(f"source failed after 3 blocks; alive: "
                               f"{[ref() is not None for ref in refs]}")

        with pytest.raises(RuntimeError, match=r"after 3 blocks; alive: \[False, False, True\]"):
            train_baseline(source(), d, CodingConfig("mp", n_instances=6), LearnConfig(eta=5e-2))

    def test_atom_grown_past_block_is_numeric_error(self):
        # A flat atom carries energy in both tails, so its first step grows
        # it from 20 to 40 samples, past the 30-sample blocks.
        flat = Dictionary((Atom(unit_normalize(np.ones(20)), 0),))
        blocks = self.blocks(np.random.default_rng(5), count=2, n=30)
        with pytest.raises(NumericError, match=r"^atom 0 grew to length 40 and does not fit "
                                               r"in segment of length 30 \(source m, t=1\); "
                                               r"the learning rate --eta 0\.001 is too large"):
            train_baseline(blocks, flat, CodingConfig("mp", n_instances=1), LearnConfig(1e-3))

    def test_atom_too_long_from_the_start_stays_data_error(self):
        long = Dictionary((Atom(unit_normalize(np.ones(40)), 0),))
        blocks = self.blocks(np.random.default_rng(5), count=2, n=30)
        with pytest.raises(AtomFitError, match="^atom 0 of length 40 does not fit"):
            train_baseline(blocks, long, CodingConfig("mp", n_instances=1), LearnConfig(1e-3))


class TestMonitor:
    def stream(self, rng, count=6, n=64):
        return [
            preprocess(SignalSegment(rng.standard_normal(n), 1000.0, 100 + 10 * k, "m"))
            for k in range(count)
        ]

    def test_atom_grown_past_segment_is_numeric_error(self):
        flat = Dictionary((Atom(unit_normalize(np.ones(20)), 0),))
        steps = monitor_segments(self.stream(np.random.default_rng(7), n=30), flat,
                                 CodingConfig("mp", n_instances=1), LearnConfig(1e-3))
        assert next(steps)[0].atoms[0].waveform.size == 40
        with pytest.raises(NumericError, match=r"^atom 0 grew to length 40 .* \(source m, "
                                               r"t=110\); the learning rate --eta 0\.001"):
            next(steps)

    def test_frozen_monitoring_distance_zero(self):
        rng = np.random.default_rng(6)
        d = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=1)
        steps = list(monitor_segments(
            self.stream(rng), d, CodingConfig("mp", n_instances=6), LearnConfig(eta=0.0)
        ))
        records = [record for _, record, _ in steps]
        assert steps[-1][0] is d
        assert all(r.distance_deg == 0.0 for r in records)
        assert [r.timestamp for r in records] == [100, 110, 120, 130, 140, 150]

    def test_propagation_accumulates_distance(self):
        rng = np.random.default_rng(7)
        d = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=1)
        steps = list(monitor_segments(
            self.stream(rng, count=10), d,
            CodingConfig("mp", n_instances=6), LearnConfig(eta=5e-2),
        ))
        final, record, _ = steps[-1]
        assert record.distance_deg > 0.0
        assert final.generation == 10

    def test_foreign_baseline_reference(self):
        rng = np.random.default_rng(9)
        own = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=1)
        foreign = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=2)
        steps = monitor_segments(
            self.stream(rng), foreign, CodingConfig("mp", n_instances=6),
            LearnConfig(eta=0.0), baseline=own,
        )
        expected = dictionary_distance(foreign, own)
        for _, r, _ in steps:
            assert r.distance_deg == pytest.approx(expected, abs=1e-12)

    def test_pulls_segments_lazily(self):
        rng = np.random.default_rng(11)
        d = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=1)
        stream = self.stream(rng, count=3)

        def source():
            yield from stream
            raise RuntimeError("source failed after 3 segments")

        seen = []
        with pytest.raises(RuntimeError, match="source failed after 3 segments"):
            for _, record, _ in monitor_segments(source(), d, CodingConfig("mp", n_instances=6),
                                                 LearnConfig(eta=5e-2)):
                seen.append(record.timestamp)
        assert seen == [100, 110, 120]


def stepwise_oracle(segments, dictionary, coding_cfg, learn_cfg, baseline):
    """The plain loop: encode, fidelity_db, gradient_update, dictionary_distance per segment.

    Returns the (stepped dictionary, record, code) of every segment and the
    number of atoms whose length a step changed.
    """
    steps, growth_events = [], 0
    for segment in segments:
        code = encode(segment, dictionary, coding_cfg)
        fidelity = fidelity_db(segment.samples, code.residual)
        lengths = {atom.id: len(atom) for atom in dictionary.atoms}
        dictionary = gradient_update(dictionary, code, learn_cfg)
        growth_events += sum(len(atom) != lengths[atom.id] for atom in dictionary.atoms)
        record = HistoryRecord(segment.timestamp, fidelity,
                               dictionary_distance(dictionary, baseline), len(code.instances))
        steps.append((dictionary, record, code))
    return steps, growth_events


def assert_same_dictionary(got, expected):
    assert got.generation == expected.generation
    assert [atom.id for atom in got.atoms] == [atom.id for atom in expected.atoms]
    for a, b in zip(got.atoms, expected.atoms):
        np.testing.assert_array_equal(a.waveform, b.waveform, strict=True)


class TestOneAdaptationLoop:
    """Training and monitoring both equal the stepwise oracle, bit for bit."""

    @pytest.mark.parametrize("algorithm", ["mp", "omp"])
    def test_matches_stepwise_oracle(self, algorithm):
        rng = np.random.default_rng(12)
        stream = [preprocess(SignalSegment(rng.standard_normal(256), 1000.0, 100 + 10 * k, "m"))
                  for k in range(5)]
        start = init_pseudorandom(num_atoms=3, core_len=20, pad=3, seed=1)
        foreign = init_pseudorandom(num_atoms=3, core_len=20, pad=3, seed=2)
        coding_cfg, learn_cfg = CodingConfig(algorithm, n_instances=6), LearnConfig(eta=1e-2)

        expected, growth_events = stepwise_oracle(stream, start, coding_cfg, learn_cfg, start)
        assert growth_events > 0
        result = train_baseline(stream, start, coding_cfg, learn_cfg)
        np.testing.assert_array_equal(
            result.fidelity_db, [record.fidelity_db for _, record, _ in expected], strict=True)
        assert result.growth_events == growth_events
        assert_same_dictionary(result.dictionary, expected[-1][0])

        for baseline, reference in ((None, start), (foreign, foreign)):
            expected, _ = stepwise_oracle(stream, start, coding_cfg, learn_cfg, reference)
            got = list(monitor_segments(stream, start, coding_cfg, learn_cfg, baseline))
            assert len(got) == len(expected)
            for (dictionary, record, code), (want_dict, want_record, want_code) in zip(
                    got, expected):
                assert record == want_record
                assert code.instances == want_code.instances
                np.testing.assert_array_equal(code.residual, want_code.residual, strict=True)
                assert_same_dictionary(dictionary, want_dict)

class TestHistoryCsv:
    def test_round_trip(self, tmp_path):
        records = (
            HistoryRecord(100, 12.5, 0.75, 128),
            HistoryRecord(200, 11.25, 1.5, 128),
        )
        path = tmp_path / "history.csv"
        save_history_csv(records, str(path))
        assert load_history_csv(str(path)) == records

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "history.csv"
        path.write_text("time,fid\n")
        from vibdict.errors import DataError
        with pytest.raises(DataError, match="header"):
            load_history_csv(str(path))
