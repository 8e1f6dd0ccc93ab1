import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vibdict.detect as detect
from vibdict.detect import (
    LabeledWindow,
    RocPoint,
    label_of,
    load_labels_csv,
    load_roc_csv,
    min_diff_series,
    roc_curve,
    save_labels_csv,
    save_roc_csv,
    series_samples,
    slope_indicator,
    validate_windows,
)
from vibdict.errors import DataError
from vibdict.metrics import IndicatorSeries

from oracles import confusion_at, loop_slope, midpoint_auc, naive_roc, ols_slope, trapezoid_auc

DAY = 86400


def series(name, values, step=DAY, start=0):
    values = np.asarray(values, dtype=np.float64)
    t = start + step * np.arange(len(values), dtype=np.int64)
    return IndicatorSeries(name, t, values)


class TestLabeledWindow:
    def test_half_open_membership(self):
        w = LabeledWindow("m0", 100, 200, "faulty")
        assert not w.contains(99)
        assert w.contains(100)
        assert w.contains(199)
        assert not w.contains(200)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            LabeledWindow("m0", 5, 5, "healthy")
        with pytest.raises(ValueError):
            LabeledWindow("m0", 0, 5, "broken")

    def test_overlap_rejected(self):
        windows = [
            LabeledWindow("m0", 0, 100, "healthy"),
            LabeledWindow("m0", 99, 200, "faulty"),
        ]
        with pytest.raises(ValueError, match="overlap"):
            validate_windows(windows)

    def test_adjacent_windows_allowed(self):
        validate_windows([
            LabeledWindow("m0", 0, 100, "healthy"),
            LabeledWindow("m0", 100, 200, "faulty"),
            LabeledWindow("m1", 0, 200, "healthy"),
        ])

    def test_label_of_requires_exactly_one(self):
        windows = [LabeledWindow("m0", 0, 100, "healthy")]
        assert label_of("m0", 50, windows) == "healthy"
        with pytest.raises(DataError, match="0 labeled windows"):
            label_of("m0", 150, windows)
        with pytest.raises(DataError):
            label_of("m1", 50, windows)


class TestSlopeIndicator:
    def test_linear_ramp_unit_slope(self):
        # one degree per day
        s = series("distance", np.arange(40, dtype=np.float64))
        out = slope_indicator(s, window=10)
        np.testing.assert_allclose(out.values, 1.0, atol=1e-9)
        np.testing.assert_array_equal(out.timestamps, s.timestamps[9:])

    def test_constant_series_zero_slope(self):
        out = slope_indicator(series("d", np.full(35, 4.2)), window=30)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-9)

    def test_matches_ols_oracle(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(50)
        s = series("d", v, step=7200)
        window = 12
        out = slope_indicator(s, window=window)
        for k, got in enumerate(out.values):
            lo = k
            hi = k + window
            expected = ols_slope(s.timestamps[lo:hi] / DAY, v[lo:hi])
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            slope_indicator(series("d", np.ones(5)), window=10)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(n=st.integers(30, 1500), window=st.integers(2, 200),
           repeats=st.sampled_from([0.0, 0.3, 0.95]), seed=st.integers(0, 2**32 - 1))
    def test_bytes_match_window_loop(self, n, window, repeats, seed):
        # Repeated timestamps cannot pass IndicatorSeries' own check, so
        # the input is assembled without it and the output is read back
        # through a stand-in.
        assume(window <= n)
        rng = np.random.default_rng(seed)
        gaps = rng.integers(1, 2 * 86400, size=n)
        gaps[rng.random(n) < repeats] = 0
        t = 1_600_000_000 + np.cumsum(gaps)
        v = rng.standard_normal(n) * 10.0 ** int(rng.integers(-3, 4))
        s = object.__new__(IndicatorSeries)
        for field, value in (("name", "d"), ("timestamps", t), ("values", v)):
            object.__setattr__(s, field, value)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detect, "IndicatorSeries", lambda name, times, values: values)
            try:
                expected = loop_slope(t, v, window)
            except ValueError:
                with pytest.raises(ValueError, match="identical timestamps"):
                    slope_indicator(s, window=window)
                return
            assert slope_indicator(s, window=window).tobytes() == expected.tobytes()
        with pytest.raises(ValueError):
            slope_indicator(series("d", np.ones(5)), window=1)


class TestMinDiff:
    def test_equal_machines_zero(self):
        pop = [series(f"m{k}", np.full(4, 2.0)) for k in range(3)]
        assert np.all(min_diff_series(pop)["m1"].values == 0.0)

    def test_five_above_nearest(self):
        pop = [
            series("hot", [10.0]),
            series("a", [5.0]),
            series("b", [1.0]),
        ]
        assert min_diff_series(pop)["hot"].values[0] == 5.0

    def test_positive_only_when_above_all(self):
        pop = [series("m", [3.0]), series("x", [4.0]), series("y", [1.0])]
        assert min_diff_series(pop)["m"].values[0] == -1.0

    def test_matches_bruteforce_panel(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((6, 10))
        pop = [series(f"m{k}", values[k]) for k in range(6)]
        by_machine = min_diff_series(pop)
        for k in range(6):
            got = by_machine[f"m{k}"]
            np.testing.assert_array_equal(got.timestamps, np.arange(10) * DAY)
            for j in range(10):
                expected = min(values[k, j] - values[i, j] for i in range(6) if i != k)
                assert got.values[j] == pytest.approx(expected, abs=1e-12)

    def test_fewer_than_two_machines_rejected(self):
        with pytest.raises(ValueError, match="two machines"):
            min_diff_series([series("a", [1.0, 2.0])])
        with pytest.raises(ValueError, match="two machines"):
            min_diff_series([])

    def test_misaligned_timestamps_rejected(self):
        a = series("a", [1.0, 2.0])
        b = IndicatorSeries("b", np.array([0, 2 * DAY]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="not aligned"):
            min_diff_series([a, b])


def two_machine_setup(healthy_values, faulty_values, onset_index):
    """One healthy machine, one machine that turns faulty at onset_index."""
    n = len(healthy_values)
    windows = [LabeledWindow("good", 0, n * DAY, "healthy")]
    if onset_index > 0:
        windows.append(LabeledWindow("bad", 0, onset_index * DAY, "healthy"))
    windows.append(LabeledWindow("bad", onset_index * DAY, n * DAY, "faulty"))
    by_machine = {
        "good": series("good", healthy_values),
        "bad": series("bad", faulty_values),
    }
    return series_samples(by_machine), windows


class TestRocCurve:
    def test_perfect_separation(self):
        samples, windows = two_machine_setup(
            [0.1, 0.2, 0.1, 0.2], [0.1, 0.2, 5.0, 6.0], onset_index=2
        )
        curve = roc_curve(samples, windows)
        assert curve.auc == pytest.approx(1.0, abs=1e-12)
        assert any(p.fpr == 0.0 and p.tpr == 1.0 for p in curve.points)

    def test_identical_values_auc_half(self):
        samples, windows = two_machine_setup(
            [3.0, 3.0, 3.0], [3.0, 3.0, 3.0], onset_index=1
        )
        curve = roc_curve(samples, windows)
        assert curve.auc == pytest.approx(0.5, abs=1e-12)
        assert [(p.fpr, p.tpr) for p in curve.points] == [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0)]

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(3)
        samples, windows = two_machine_setup(
            rng.standard_normal(20), rng.standard_normal(20) + 0.5, onset_index=5
        )
        curve = roc_curve(samples, windows)
        assert (curve.points[0].fpr, curve.points[0].tpr) == (0.0, 0.0)
        assert (curve.points[-1].fpr, curve.points[-1].tpr) == (1.0, 1.0)
        fpr = [p.fpr for p in curve.points]
        tpr = [p.tpr for p in curve.points]
        assert all(b >= a for a, b in zip(fpr, fpr[1:]))
        assert all(b >= a for a, b in zip(tpr, tpr[1:]))
        thresholds = [p.threshold for p in curve.points]
        assert all(b < a for a, b in zip(thresholds, thresholds[1:]))

    def test_confusion_counts_match_manual_tally(self):
        rng = np.random.default_rng(4)
        healthy = rng.normal(0.0, 1.0, 10)
        faulty = rng.normal(1.0, 1.0, 10)
        samples, windows = two_machine_setup(healthy, faulty, onset_index=0)
        curve = roc_curve(samples, windows)
        values = np.array([v for _, _, v in samples])
        truth = np.array([m == "bad" for m, _, _ in samples])
        n_pos, n_neg = truth.sum(), (~truth).sum()
        for point in curve.points[1:-1][:3]:
            tp, fp, tn, fn = confusion_at(values, truth, point.threshold)
            assert point.tpr == pytest.approx(tp / n_pos)
            assert point.fpr == pytest.approx(fp / n_neg)

    def test_auc_matches_midpoint_integration(self):
        rng = np.random.default_rng(5)
        samples, windows = two_machine_setup(
            rng.standard_normal(30), rng.standard_normal(30) + 1.0, onset_index=7
        )
        curve = roc_curve(samples, windows)
        fpr = [p.fpr for p in curve.points]
        tpr = [p.tpr for p in curve.points]
        assert curve.auc == pytest.approx(midpoint_auc(fpr, tpr), abs=1e-6)

    def test_negated_perfect_indicator_flips_auc(self):
        samples, windows = two_machine_setup(
            [0.0, 0.1, 0.2, 0.15], [0.0, 0.1, 7.0, 8.0], onset_index=2
        )
        curve = roc_curve(samples, windows)
        negated = [(m, t, -v) for m, t, v in samples]
        flipped = roc_curve(negated, windows)
        assert flipped.auc == pytest.approx(1.0 - curve.auc, abs=1e-12)

    def test_single_class_rejected(self):
        windows = [LabeledWindow("m0", 0, 100, "healthy")]
        with pytest.raises(DataError, match="ROC undefined"):
            roc_curve([("m0", 10, 1.0), ("m0", 20, 2.0)], windows)

    def test_unlabeled_sample_rejected(self):
        windows = [
            LabeledWindow("m0", 0, 100, "healthy"),
            LabeledWindow("m1", 0, 100, "faulty"),
        ]
        with pytest.raises(DataError, match="falls in 0"):
            roc_curve([("m0", 10, 1.0), ("m1", 10, 2.0), ("m0", 500, 3.0)], windows)


class TestRocOracle:
    # a small pool makes ties and repeats common; it holds both zeros,
    # both infinities and NaN
    VALUES = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, math.inf, -math.inf, math.nan]),
        st.integers(-4, 4).map(float),
        st.floats(-1e6, 1e6),
    )

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(VALUES, st.booleans()), min_size=2, max_size=40))
    def test_matches_brute_force_tally(self, rows):
        truth = [is_pos for _, is_pos in rows]
        assume(any(truth) and not all(truth))
        values = [v for v, _ in rows]
        samples = [("m", t, v) for t, v in enumerate(values)]
        windows = [
            LabeledWindow("m", t, t + 1, "faulty" if is_pos else "healthy")
            for t, is_pos in enumerate(truth)
        ]
        curve = roc_curve(samples, windows)
        expected = naive_roc(values, truth)
        assert len(curve.points) == len(expected)
        for point, (theta, fpr, tpr) in zip(curve.points, expected):
            assert point.threshold == theta or (math.isnan(point.threshold) and math.isnan(theta))
            assert (point.fpr, point.tpr) == (fpr, tpr)
        fpr, tpr = [p[1] for p in expected], [p[2] for p in expected]
        assert curve.auc == pytest.approx(trapezoid_auc(fpr, tpr), abs=1e-12)


class TestRocPoint:
    def test_rates_must_be_fractions(self):
        with pytest.raises(ValueError):
            RocPoint(1.0, -0.1, 0.5)
        with pytest.raises(ValueError):
            RocPoint(1.0, 0.5, 1.5)


class TestCsv:
    def test_labels_round_trip(self, tmp_path):
        windows = (
            LabeledWindow("m0", 0, 100, "healthy"),
            LabeledWindow("m0", 100, 300, "faulty"),
            LabeledWindow("m1", 0, 300, "healthy"),
        )
        path = tmp_path / "labels.csv"
        save_labels_csv(windows, str(path))
        assert load_labels_csv(str(path)) == windows

    def test_labels_overlap_rejected_on_load(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "machine_id,start,end,label\nm0,0,100,healthy\nm0,50,200,faulty\n"
        )
        with pytest.raises(ValueError, match="overlap"):
            load_labels_csv(str(path))

    def test_roc_round_trip(self, tmp_path):
        samples, windows = two_machine_setup(
            [0.1, 0.2, 0.3, 0.1], [0.2, 0.1, 2.0, 3.0], onset_index=2
        )
        curve = roc_curve(samples, windows)
        path = tmp_path / "roc.csv"
        save_roc_csv(curve, str(path))
        loaded = load_roc_csv(str(path))
        assert loaded.auc == curve.auc
        assert loaded.points == curve.points

    def test_roc_footer_required(self, tmp_path):
        path = tmp_path / "roc.csv"
        path.write_text("threshold,fpr,tpr\n1.0,0.0,0.0\n")
        with pytest.raises(DataError, match="auc"):
            load_roc_csv(str(path))
