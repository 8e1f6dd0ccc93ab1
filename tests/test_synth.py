import numpy as np
import pytest
from scipy import stats

from vibdict.detect import load_labels_csv
from vibdict.ingest import load_segments, rms
from vibdict.synth import (
    FaultSpec,
    SynthSpec,
    default_fleet_specs,
    default_planted_atoms,
    gabor_atom,
    generate_fleet,
    generate_segment,
    write_fleet,
)


class TestGabor:
    def test_unit_norm(self):
        w = gabor_atom(50, cycles=5.0)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_windowed_to_zero_at_ends(self):
        w = gabor_atom(64, cycles=4.0)
        assert abs(w[0]) < 1e-12
        assert abs(w[-1]) < 1e-12

    def test_distinct_frequencies_nearly_orthogonal(self):
        atoms = default_planted_atoms(3, 50)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(float(np.dot(atoms[i], atoms[j]))) < 0.2


class TestGenerateSegment:
    def test_noise_free_single_instance_is_scaled_atom(self):
        atom = gabor_atom(20, 3.0)
        spec = SynthSpec(
            "m0", (atom,), instance_rate=1.0, amplitude_dist=(2.0, 0.0), noise_std=0.0,
        )
        # rate 1 per 1000 at len 1000 -> exactly one instance
        seg = generate_segment(spec, 1000, np.random.default_rng(0), timestamp=0)
        matches = [
            off for off in range(1000 - 20 + 1)
            if np.allclose(seg.samples[off : off + 20], 2.0 * atom, atol=1e-12)
        ]
        assert matches
        off = matches[0]
        rest = np.delete(seg.samples, np.arange(off, off + 20))
        np.testing.assert_allclose(rest, 0.0, atol=1e-12)

    def test_atom_longer_than_segment_rejected(self):
        spec = SynthSpec("m0", (gabor_atom(64, 3.0),))
        with pytest.raises(ValueError, match="longer"):
            generate_segment(spec, 32, np.random.default_rng(0), timestamp=0)

    def test_fault_active_only_from_onset(self):
        atom = gabor_atom(20, 3.0)
        fault = FaultSpec(onset=100, impulse_period=37, impulse_amp=50.0)
        spec = SynthSpec("m0", (atom,), noise_std=0.1, fault=fault, seed=1)
        rng = np.random.default_rng(1)
        pre = generate_segment(spec, 2048, rng, timestamp=99)
        post = generate_segment(spec, 2048, rng, timestamp=100)
        assert np.abs(post.samples).max() > np.abs(pre.samples).max() * 2

    @pytest.mark.parametrize("amp", [float("nan"), float("inf"), float("-inf")])
    def test_fault_amplitude_must_be_finite(self, amp):
        with pytest.raises(ValueError, match=f"impulse_amp must be finite, got {amp}"):
            FaultSpec(onset=0, impulse_amp=amp)


class TestGenerateFleet:
    def test_same_seed_identical_fleets(self):
        specs = default_fleet_specs(machines=3, fault_machine=1, fault_onset=200, seed=9)
        fleet_a, labels_a = generate_fleet(specs, segments=4, segment_len=512, cadence=100)
        fleet_b, labels_b = generate_fleet(specs, segments=4, segment_len=512, cadence=100)
        assert labels_a == labels_b
        for machine in fleet_a:
            for sa, sb in zip(fleet_a[machine], fleet_b[machine]):
                np.testing.assert_array_equal(sa.samples, sb.samples)

    def test_labels_match_onset_exactly(self):
        specs = default_fleet_specs(machines=2, fault_machine=0, fault_onset=300, seed=0)
        _, labels = generate_fleet(specs, segments=6, segment_len=256, cadence=100)
        faulty = [w for w in labels if w.label == "faulty"]
        assert len(faulty) == 1
        assert faulty[0].machine_id == "m00"
        assert faulty[0].start == 300
        assert faulty[0].end == 600
        healthy_m0 = [w for w in labels if w.machine_id == "m00" and w.label == "healthy"]
        assert healthy_m0[0].end == 300

    def test_no_fault_yields_single_healthy_window(self):
        specs = default_fleet_specs(machines=2, fault_machine=-1, seed=0)
        _, labels = generate_fleet(specs, segments=3, segment_len=256, cadence=100)
        assert all(w.label == "healthy" for w in labels)
        assert len(labels) == 2

    def test_timestamps_follow_cadence(self):
        specs = default_fleet_specs(machines=1, fault_machine=-1, seed=3)
        fleet, _ = generate_fleet(specs, segments=5, segment_len=256, cadence=43200,
                                  start_time=1000)
        stamps = [s.timestamp for s in fleet["m00"]]
        assert stamps == [1000 + 43200 * k for k in range(5)]

    def test_default_specs_pass_rms_gate(self):
        specs = default_fleet_specs(machines=2, fault_machine=-1, seed=5)
        fleet, _ = generate_fleet(specs, segments=3, segment_len=2048, cadence=100)
        for segs in fleet.values():
            for seg in segs:
                assert rms(seg.samples) > 0.5

    def test_fault_raises_kurtosis(self):
        specs = default_fleet_specs(machines=1, fault_machine=0, fault_onset=300, seed=2)
        fleet, _ = generate_fleet(specs, segments=6, segment_len=4096, cadence=100)
        segs = fleet["m00"]
        pre = [stats.kurtosis(s.samples) for s in segs if s.timestamp < 300]
        post = [stats.kurtosis(s.samples) for s in segs if s.timestamp >= 300]
        assert min(post) > max(pre)

    def test_duplicate_machine_ids_rejected(self):
        atom = gabor_atom(20, 3.0)
        specs = [SynthSpec("m", (atom,), seed=0), SynthSpec("m", (atom,), seed=1)]
        with pytest.raises(ValueError, match="unique"):
            generate_fleet(specs, segments=1, segment_len=128, cadence=10)


class TestWriteFleet:
    def test_round_trips_through_ingest(self, tmp_path):
        specs = default_fleet_specs(machines=2, fault_machine=1, fault_onset=100, seed=4)
        fleet, labels = generate_fleet(specs, segments=3, segment_len=256, cadence=100)
        outdir = tmp_path / "fleet"
        write_fleet(fleet, labels, str(outdir))
        loaded = load_segments(str(outdir / "m01"))
        assert len(loaded) == 3
        for seg, orig in zip(loaded, fleet["m01"]):
            assert seg.timestamp == orig.timestamp
            assert seg.source_id == "m01"
            np.testing.assert_array_equal(seg.samples, orig.samples)
        assert load_labels_csv(str(outdir / "labels.csv")) == labels

    def test_raw_format(self, tmp_path):
        specs = default_fleet_specs(machines=1, fault_machine=-1, seed=6)
        fleet, labels = generate_fleet(specs, segments=2, segment_len=128, cadence=100)
        outdir = tmp_path / "fleet"
        write_fleet(fleet, labels, str(outdir), format="raw_f64le")
        loaded = load_segments(str(outdir / "m00"), "raw_f64le")
        assert len(loaded) == 2
        np.testing.assert_array_equal(loaded[0].samples, fleet["m00"][0].samples)
