import numpy as np
import pytest

from vibdict.coding import AtomInstance, CodingConfig, SparseCode, encode, reconstruct
from vibdict.dictionary import Atom, Dictionary, init_pseudorandom, unit_normalize
from vibdict.ingest import SignalSegment, preprocess
from vibdict.learning import (
    HistoryRecord,
    LearnConfig,
    MonitorState,
    gradient_directions,
    gradient_update,
    load_history_csv,
    monitor_segments,
    monitor_step,
    save_history_csv,
    train_baseline,
)
from vibdict.metrics import dictionary_distance


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
        code = SparseCode(
            (AtomInstance(0, 2, 2.0), AtomInstance(0, 5, -1.0)), residual, 0
        )
        grads = gradient_directions(code, d)
        expected = 2.0 * residual[2:6] - 1.0 * residual[5:9]
        np.testing.assert_allclose(grads[0], expected, atol=1e-12)

    def test_unused_atoms_absent(self):
        w = unit_normalize(np.ones(4))
        d = Dictionary((Atom(w, 0), Atom(w.copy(), 1)))
        code = SparseCode((AtomInstance(0, 0, 1.0),), np.ones(8), 0)
        grads = gradient_directions(code, d)
        assert set(grads) == {0}

    def test_unknown_instance_rejected(self):
        d = Dictionary((Atom(unit_normalize(np.ones(4)), 0),))
        code = SparseCode((AtomInstance(7, 0, 1.0),), np.ones(8), 0)
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
        ("noise_var", 0.0), ("noise_var", float("nan")), ("noise_var", float("inf")),
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
        code = SparseCode((AtomInstance(0, 2, 1.5),), np.ones(24), 0)
        out = gradient_update(d, code, LearnConfig(eta=1e-3, tail_len=3))
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
        code = SparseCode((AtomInstance(0, 2, 2.0),), residual, 0)
        out = gradient_update(d, code, LearnConfig(eta=1e-2, grow=False))
        delta = out.atoms[0].waveform - w
        assert delta[2] > 0  # window position of the residual spike
        assert abs(delta[2]) > np.abs(np.delete(delta, 2)).max() - 1e-12

    def test_growth_applied_after_update(self):
        # concentrate energy in the leading tail so growth must trigger
        w = unit_normalize(np.concatenate([np.ones(4), np.zeros(8)]))
        d = Dictionary((Atom(w, 0),))
        residual = np.full(20, 1e-9)
        code = SparseCode((AtomInstance(0, 0, 1.0),), residual, 0)
        out = gradient_update(d, code, LearnConfig(eta=1e-6, tail_len=4, tail_ratio=0.1))
        assert len(out.atoms[0]) == 16
        np.testing.assert_array_equal(out.atoms[0].waveform[:4], 0.0)

    def test_growth_disabled(self):
        w = unit_normalize(np.concatenate([np.ones(4), np.zeros(8)]))
        d = Dictionary((Atom(w, 0),))
        code = SparseCode((AtomInstance(0, 0, 1.0),), np.full(20, 1e-9), 0)
        out = gradient_update(d, code, LearnConfig(eta=1e-6, tail_len=4, grow=False))
        assert len(out.atoms[0]) == 12


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

    def test_progress_callback_invoked(self):
        rng = np.random.default_rng(5)
        d = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=0)
        seen = []
        train_baseline(
            self.blocks(rng, count=4), d, CodingConfig("mp", n_instances=4),
            LearnConfig(eta=1e-4),
            progress=lambda i, total, fid: seen.append((i, total)),
        )
        assert seen == [(0, 4), (1, 4), (2, 4), (3, 4)]

    def test_empty_blocks_rejected(self):
        d = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=0)
        with pytest.raises(ValueError):
            train_baseline([], d, CodingConfig("mp"), LearnConfig())


class TestMonitor:
    def stream(self, rng, count=6, n=64):
        return [
            preprocess(SignalSegment(rng.standard_normal(n), 1000.0, 100 + 10 * k, "m"))
            for k in range(count)
        ]

    def test_frozen_monitoring_distance_zero(self):
        rng = np.random.default_rng(6)
        d = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=1)
        state = monitor_segments(
            self.stream(rng), d, CodingConfig("mp", n_instances=6), LearnConfig(eta=0.0)
        )
        assert state.dictionary is d
        assert all(r.distance_deg == 0.0 for r in state.records)
        assert [r.timestamp for r in state.records] == [100, 110, 120, 130, 140, 150]

    def test_propagation_accumulates_distance(self):
        rng = np.random.default_rng(7)
        d = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=1)
        state = monitor_segments(
            self.stream(rng, count=10), d,
            CodingConfig("mp", n_instances=6), LearnConfig(eta=5e-2),
        )
        assert state.records[-1].distance_deg > 0.0
        assert state.dictionary.generation == 10

    def test_distance_measured_after_update(self):
        rng = np.random.default_rng(8)
        d = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=1)
        seg = self.stream(rng, count=1)[0]
        state = MonitorState(d, d)
        state, code = monitor_step(state, seg, CodingConfig("mp", n_instances=6),
                                   LearnConfig(eta=5e-2))
        expected = dictionary_distance(state.dictionary, d)
        assert state.records[0].distance_deg == pytest.approx(expected, abs=1e-12)
        assert state.records[0].n_instances == len(code.instances)

    def test_foreign_baseline_reference(self):
        rng = np.random.default_rng(9)
        own = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=1)
        foreign = init_pseudorandom(num_atoms=2, core_len=8, pad=2, seed=2)
        state = monitor_segments(
            self.stream(rng), foreign, CodingConfig("mp", n_instances=6),
            LearnConfig(eta=0.0), baseline=own,
        )
        expected = dictionary_distance(foreign, own)
        for r in state.records:
            assert r.distance_deg == pytest.approx(expected, abs=1e-12)


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
