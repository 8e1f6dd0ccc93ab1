import numpy as np
import pytest

from vibdict.errors import ConfigError, DataError
from vibdict.ingest import (
    RAW_DTYPES,
    SegmentGate,
    SignalSegment,
    gate_by_rms,
    load_segments,
    preprocess,
    read_key_values,
    read_table,
    rms,
    sample_blocks,
    save_segment_csv,
    save_segment_raw,
    write_key_values,
    write_table,
)

from oracles import naive_rms


def make_segment(samples, t=0, source="m0", rate=12800.0):
    return SignalSegment(np.asarray(samples, dtype=np.float64), rate, t, source)


class TestSignalSegment:
    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            make_segment([])
        with pytest.raises(ValueError):
            SignalSegment(np.zeros((2, 2)), 1.0, 0, "m")

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            SignalSegment(np.ones(4), 0.0, 0, "m")

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_non_finite_rate_like_nonpositive(self, rate):
        with pytest.raises(ValueError, match="^sample_rate must be positive and finite$"):
            SignalSegment(np.ones(4), rate, 0, "m")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_sample(self, bad):
        x = np.ones(8)
        x[3] = bad
        with pytest.raises(DataError,
                           match=rf"^non-finite sample {bad} at index 3 \(source m3, t=77\)$"):
            make_segment(x, t=77, source="m3")

    def test_len_and_dtype(self):
        seg = make_segment([1, 2, 3])
        assert len(seg) == 3
        assert seg.samples.dtype == np.float64


class TestGate:
    def test_constant_zero_excluded(self):
        kept = gate_by_rms([make_segment(np.zeros(64))], SegmentGate(0.5))
        assert kept == []

    def test_constant_one_included(self):
        seg = make_segment(np.ones(64))
        assert gate_by_rms([seg], SegmentGate(0.5)) == [seg]

    def test_at_threshold_excluded(self):
        seg = make_segment(np.full(16, 0.5))
        assert gate_by_rms([seg], SegmentGate(0.5)) == []

    @pytest.mark.parametrize("threshold", [-0.1, float("nan"), float("inf")])
    def test_threshold_must_be_finite_and_non_negative(self, threshold):
        with pytest.raises(ValueError, match="rms_gate"):
            SegmentGate(threshold)

    def test_matches_bruteforce_filter(self):
        rng = np.random.default_rng(42)
        segments = []
        for k in range(100):
            scale = rng.uniform(0.0, 1.0)
            x = rng.standard_normal(128)
            segments.append(make_segment(scale * x / rms(x) if rms(x) else x, t=k))
        gate = SegmentGate(0.5)
        kept = gate_by_rms(segments, gate)
        expected = [s for s in segments if naive_rms(s.samples) > 0.5]
        assert [s.timestamp for s in kept] == [s.timestamp for s in expected]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_rejected_not_dropped(self, bad):
        x = np.ones(64)
        x[5] = bad
        with pytest.raises(DataError, match=r"source m7, t=42"):
            gate_by_rms([make_segment(np.ones(8)), make_segment(x, t=42, source="m7")],
                        SegmentGate(0.0))

    def test_idempotent_and_order_preserving(self):
        rng = np.random.default_rng(7)
        segments = [make_segment(rng.standard_normal(32) * rng.uniform(0, 2), t=k)
                    for k in range(20)]
        gate = SegmentGate(0.5)
        once = gate_by_rms(segments, gate)
        assert gate_by_rms(once, gate) == once
        assert [s.timestamp for s in once] == sorted(s.timestamp for s in once)


class TestPreprocess:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(3)
        seg = preprocess(make_segment(5.0 + 2.5 * rng.standard_normal(4096)))
        assert abs(seg.samples.mean()) < 1e-9
        assert abs(seg.samples.var() - 1.0) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        seg = preprocess(make_segment(rng.standard_normal(512)))
        again = preprocess(seg)
        np.testing.assert_allclose(again.samples, seg.samples, atol=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        x = np.random.default_rng(5).standard_normal(512)
        x[100] = bad
        with pytest.raises(DataError, match=r"index 100 \(source m3, t=77\)"):
            preprocess(make_segment(x, t=77, source="m3"))

    def test_constant_segment_rejected(self):
        with pytest.raises(DataError, match="zero-variance"):
            preprocess(make_segment(np.full(16, 3.0)))


class TestCsvRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        seg = make_segment(rng.standard_normal(100), t=1234, source="turbine-1")
        path = tmp_path / "seg_00000.csv"
        save_segment_csv(seg, str(path))
        loaded = load_segments(str(path))
        assert len(loaded) == 1
        out = loaded[0]
        assert out.timestamp == 1234
        assert out.source_id == "turbine-1"
        assert out.sample_rate == seg.sample_rate
        np.testing.assert_array_equal(out.samples, seg.samples)

    def test_directory_sorted_by_timestamp(self, tmp_path):
        rng = np.random.default_rng(12)
        for name, t in [("b.csv", 100), ("a.csv", 300), ("c.csv", 200)]:
            save_segment_csv(make_segment(rng.standard_normal(8), t=t), str(tmp_path / name))
        loaded = load_segments(str(tmp_path))
        assert [s.timestamp for s in loaded] == [100, 200, 300]

    def test_timestamp_tie_broken_by_filename(self, tmp_path):
        for name, src in [("b.csv", "later"), ("a.csv", "earlier")]:
            save_segment_csv(make_segment(np.ones(4), t=5, source=src), str(tmp_path / name))
        loaded = load_segments(str(tmp_path))
        assert [s.source_id for s in loaded] == ["earlier", "later"]

    def test_malformed_sample_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("7,100.0,m0\n0.5\nnot-a-number\n")
        with pytest.raises(DataError, match=r"bad\.csv.*line 3"):
            load_segments(str(path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_sample_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "seg_00002.csv"
        lines = ["86400,100.0,m00"] + ["0.5"] * 12
        lines[4] = ""
        lines[9] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError,
                           match=r"seg_00002\.csv: non-finite sample .* at line 10 "
                                 r"\(source m00, t=86400\)"):
            load_segments(str(path))

    def test_non_utf8_segment_names_file(self, tmp_path):
        save_segment_csv(make_segment(np.ones(4), t=5), str(tmp_path / "a.csv"))
        path = tmp_path / "b.csv"
        save_segment_csv(make_segment(np.ones(4), t=6), str(path))
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        with pytest.raises(DataError, match=r"cannot read .*b\.csv: 'utf-8' codec"):
            load_segments(str(tmp_path))

    @pytest.mark.parametrize("rate", ["0", "nan", "-5", "inf"])
    def test_bad_sample_rate_names_file(self, tmp_path, rate):
        path = tmp_path / "seg_00003.csv"
        path.write_text(f"0,{rate},m00\n0.5\n0.25\n")
        with pytest.raises(DataError,
                           match=r"seg_00003\.csv: sample_rate must be positive and finite"):
            load_segments(str(tmp_path))

    def test_missing_timestamp_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(",100.0,m0\n0.5\n")
        with pytest.raises(DataError, match="timestamp"):
            load_segments(str(path))

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no such"):
            load_segments(str(tmp_path / "nope"))


class TestRawRoundTrip:
    @pytest.mark.parametrize("fmt", ["raw_f32le", "raw_f64le"])
    def test_round_trip(self, tmp_path, fmt):
        rng = np.random.default_rng(13)
        seg = make_segment(rng.standard_normal(64).astype(np.float32), t=77, source="m9")
        path = tmp_path / "seg.bin"
        save_segment_raw(seg, str(path), fmt)
        out = load_segments(str(path), fmt)[0]
        assert out.timestamp == 77
        assert out.source_id == "m9"
        np.testing.assert_array_equal(out.samples, seg.samples)

    @pytest.mark.parametrize("fmt", ["raw_f32le", "raw_f64le"])
    def test_non_finite_sample_names_file_and_index(self, tmp_path, fmt):
        path = tmp_path / "seg_00002.bin"
        save_segment_raw(make_segment(np.ones(32), t=86400, source="m00"), str(path), fmt)
        x = np.fromfile(str(path), dtype=RAW_DTYPES[fmt])
        x[8] = np.nan
        x.tofile(str(path))
        with pytest.raises(DataError,
                           match=r"seg_00002\.bin: non-finite sample nan at index 8 "
                                 r"\(source m00, t=86400\)"):
            load_segments(str(path), fmt)

    def test_missing_meta_rejected(self, tmp_path):
        path = tmp_path / "seg.bin"
        np.zeros(4).tofile(str(path))
        with pytest.raises(DataError, match="sidecar"):
            load_segments(str(path), "raw_f64le")

    def test_meta_without_timestamp_rejected(self, tmp_path):
        path = tmp_path / "seg.bin"
        np.ones(4).tofile(str(path))
        (tmp_path / "seg.bin.meta").write_text("sample_rate=100.0\nsource_id=m\n")
        with pytest.raises(DataError, match="timestamp"):
            load_segments(str(path), "raw_f64le")

    @pytest.mark.parametrize("rate", ["0", "nan", "-5", "inf"])
    def test_bad_sample_rate_names_sidecar(self, tmp_path, rate):
        path = tmp_path / "seg.bin"
        np.ones(4).tofile(str(path))
        (tmp_path / "seg.bin.meta").write_text(f"timestamp=0\nsample_rate={rate}\nsource_id=m\n")
        with pytest.raises(DataError,
                           match=r"seg\.bin\.meta: sample_rate must be positive and finite"):
            load_segments(str(path), "raw_f64le")

    def test_mixed_directory_ignores_other_format(self, tmp_path):
        seg = make_segment(np.ones(4), t=1)
        save_segment_csv(seg, str(tmp_path / "a.csv"))
        save_segment_raw(seg, str(tmp_path / "b.bin"))
        assert len(load_segments(str(tmp_path), "csv")) == 1
        assert len(load_segments(str(tmp_path), "raw_f64le")) == 1


class TestSampleBlocks:
    def test_reproducible_and_standardized(self):
        rng = np.random.default_rng(5)
        segments = [make_segment(rng.standard_normal(400), t=k) for k in range(3)]
        a = sample_blocks(segments, 64, 10, seed=99)
        b = sample_blocks(segments, 64, 10, seed=99)
        assert len(a) == 10
        for block_a, block_b in zip(a, b):
            np.testing.assert_array_equal(block_a.samples, block_b.samples)
            assert abs(block_a.samples.mean()) < 1e-9
            assert abs(block_a.samples.var() - 1.0) < 1e-9

    def test_blocks_are_contiguous_slices(self):
        rng = np.random.default_rng(6)
        segments = [make_segment(rng.standard_normal(300), t=k) for k in range(2)]
        for block in sample_blocks(segments, 50, 25, seed=1):
            source = next(s for s in segments if s.timestamp == block.timestamp)
            raw = source.samples
            found = False
            for off in range(len(raw) - 50 + 1):
                window = raw[off : off + 50]
                std = window.std()
                if std > 0 and np.allclose((window - window.mean()) / std,
                                           block.samples, atol=1e-9):
                    found = True
                    break
            assert found

    def test_too_long_block_names_segment(self):
        seg = make_segment(np.arange(10, dtype=float), t=42, source="short-one")
        with pytest.raises(DataError, match="short-one"):
            sample_blocks([seg], 11, 1, seed=0)

    def test_empty_pool_rejected(self):
        with pytest.raises(DataError):
            sample_blocks([], 8, 1, seed=0)


class TestTextReaders:
    def test_table_rows_and_metadata(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n# note\n# kind = slope\na,b\n1,x\n\n# auc=0.5\n2,y\n")
        rows, meta = read_table(str(path), "a,b", lambda a, b: (int(a), b))
        assert rows == [(1, "x"), (2, "y")]
        assert meta == {"kind": "slope", "auc": "0.5"}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", r"t\.csv: missing header 'a,b'"),
            ("# only=comments\n", r"t\.csv: missing header"),
            ("b,a\n1,2\n", r"t\.csv:1: expected header 'a,b', got 'b,a'"),
            ("a,b\n1,2\n1,2,3\n", r"t\.csv:3: expected 2 fields, got 3"),
            ("a,b\n1,2\n\nq,2\n", r"t\.csv:4: invalid literal for int"),
        ],
    )
    def test_table_errors_name_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            read_table(str(path), "a,b", lambda a, b: (int(a), int(b)))

    def test_non_utf8_file_is_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n\xff,1\n")
        with pytest.raises(DataError, match=r"cannot read .*t\.csv"):
            read_table(str(path), "a,b", lambda a, b: (a, b))

    def test_key_values(self, tmp_path):
        path = tmp_path / "k.cfg"
        path.write_text("# comment\n\n a = 1 \nb=x=y\n")
        assert read_key_values(str(path), DataError) == [(3, "a", "1"), (4, "b", "x=y")]

    def test_key_values_raise_the_given_error(self, tmp_path):
        path = tmp_path / "k.cfg"
        path.write_text("a=1\nnot a pair\n")
        with pytest.raises(ConfigError, match=r"k\.cfg:2: expected key=value"):
            read_key_values(str(path), ConfigError)
        with pytest.raises(DataError, match=r"cannot read .*missing\.cfg"):
            read_key_values(str(tmp_path / "missing.cfg"), DataError)


# Floats whose text is easy to get wrong: a signed zero, both exponent
# forms, and a sum that is not the decimal it looks like.
AWKWARD = [-0.0, 1e-05, 1e+16, 0.1 + 0.2]
AWKWARD_TEXT = ["-0.0", "1e-05", "1e+16", "0.30000000000000004"]


def _write_indicator(tmp_path, **kwargs):
    from vibdict.metrics import IndicatorSeries, save_indicator_csv

    path = tmp_path / "ind.csv"
    save_indicator_csv(IndicatorSeries("distance_deg", [10, 20, 30, 40], AWKWARD), str(path),
                       **kwargs)
    return path


def _write_history(tmp_path):
    from vibdict.metrics import HistoryRecord, save_history_csv

    path = tmp_path / "m00_history.csv"
    save_history_csv([HistoryRecord(100, -0.0, 1e-05, 3), HistoryRecord(200, 1e+16, 0.1 + 0.2, 0)],
                     str(path))
    return path


def _write_labels(tmp_path):
    from vibdict.detect import LabeledWindow, save_labels_csv

    path = tmp_path / "labels.csv"
    save_labels_csv([LabeledWindow("m00", 0, 100, "healthy"),
                     LabeledWindow("m01", -50, 200, "faulty")], str(path))
    return path


def _write_roc(tmp_path):
    from vibdict.detect import RocCurve, RocPoint, save_roc_csv

    path = tmp_path / "roc.csv"
    points = (RocPoint(float("inf"), 0.0, 0.0), RocPoint(1e-05, -0.0, 0.1 + 0.2),
              RocPoint(float("-inf"), 1.0, 1.0))
    save_roc_csv(RocCurve(points, 1e+16), str(path))
    return path


def _write_code(tmp_path, exhausted):
    from dataclasses import replace

    from vibdict.coding import AtomInstance, CodingConfig, encode, save_code_csv
    from vibdict.dictionary import init_pseudorandom

    # A real code with its instances and residual replaced by chosen ones.
    code = encode(make_segment(np.arange(12.0)), init_pseudorandom(2, 4, 0, 1),
                  CodingConfig("mp", n_instances=1))
    code = replace(code, instances=(AtomInstance(0, 3, -0.0), AtomInstance(1, 0, 1e+16)),
                   residual=np.array([3.0, 4.0]), exhausted=exhausted)
    path = tmp_path / "code.csv"
    save_code_csv(code, str(path))
    return path


def _write_train_log(tmp_path, monkeypatch):
    from types import SimpleNamespace

    from vibdict import fleet, learning
    from vibdict.cli import build_parser
    from vibdict.dictionary import init_pseudorandom

    indir = tmp_path / "m00"
    indir.mkdir()
    (indir / "seg.csv").write_text("0,100.0,m00\n1.0\n-2.0\n3.0\n0.5\n")
    result = SimpleNamespace(dictionary=init_pseudorandom(1, 2, 0, 0),
                             fidelity_db=np.array(AWKWARD), growth_events=0)
    monkeypatch.setattr(learning, "train_baseline", lambda *args: result)
    settings = build_parser().parse_args([
        "train", "--atoms", "1", "--core-len", "2", "--pad", "0", "--train-blocks", "1",
        "--block-len", "4", "--rms-gate", "0.0", "--output", str(tmp_path)])
    fleet.train_one(fleet.MachineTask("m00", str(indir), settings))
    return tmp_path / "m00_train_log.csv"


def _write_effective_config(tmp_path):
    from vibdict.cli import build_parser, write_effective_config

    args = build_parser().parse_args(["train", "--input", "in dir", "--output", "out"])
    args.sparsity, args.eta, args.rms_gate = 0.1 + 0.2, 1e-05, -0.0
    write_effective_config(args, str(tmp_path))
    return tmp_path / "effective_config.txt"


def _write_segment_csv(tmp_path):
    path = tmp_path / "seg.csv"
    save_segment_csv(make_segment(AWKWARD, t=-7, source="m 00", rate=1e+16), str(path))
    return path


def _write_meta(tmp_path):
    path = tmp_path / "seg.bin"
    save_segment_raw(make_segment(AWKWARD, t=86400, source="m00", rate=0.1 + 0.2), str(path),
                     "raw_f32le")
    return tmp_path / "seg.bin.meta"


ROWS = "".join(f"{t},{v}\n" for t, v in zip([10, 20, 30, 40], AWKWARD_TEXT))


class TestTextWriters:
    """Each writer's file, byte for byte."""

    @pytest.mark.parametrize("write, text", [
        (lambda p, mp: _write_indicator(p),
         "# kind=distance_deg\ntimestamp,value\n" + ROWS),
        (lambda p, mp: _write_indicator(p, machine="", comments={"time_constant": 30.0}),
         "# kind=distance_deg\n# time_constant=30.0\ntimestamp,value\n" + ROWS),
        (lambda p, mp: _write_indicator(p, machine="m01", comments={"a": "x=y", "b": 1e-05}),
         "# machine=m01\n# kind=distance_deg\n# a=x=y\n# b=1e-05\ntimestamp,value\n" + ROWS),
        (lambda p, mp: _write_history(p),
         "timestamp,fidelity_db,distance_deg,n_instances\n"
         "100,-0.0,1e-05,3\n200,1e+16,0.30000000000000004,0\n"),
        (lambda p, mp: _write_labels(p),
         "machine_id,start,end,label\nm00,0,100,healthy\nm01,-50,200,faulty\n"),
        (lambda p, mp: _write_roc(p),
         "threshold,fpr,tpr\ninf,0.0,0.0\n1e-05,-0.0,0.30000000000000004\n-inf,1.0,1.0\n"
         "# auc=1e+16\n"),
        (lambda p, mp: _write_code(p, exhausted=True),
         "atom_id,offset,amplitude\n0,3,-0.0\n1,0,1e+16\n"
         "# residual_l2=5.0\n# exhausted=true\n"),
        (lambda p, mp: _write_code(p, exhausted=False),
         "atom_id,offset,amplitude\n0,3,-0.0\n1,0,1e+16\n# residual_l2=5.0\n"),
        (_write_train_log,
         "block,fidelity_db\n" + "".join(f"{k},{v}\n" for k, v in enumerate(AWKWARD_TEXT))),
        (lambda p, mp: _write_effective_config(p),
         "algorithm=mp\natoms=8\nblock_len=12800\ncore_len=50\neta=1e-05\nformat=csv\n"
         "input=in dir\noutput=out\npad=10\nrms_gate=-0.0\nseed=0\n"
         "sparsity=0.30000000000000004\ntrain_blocks=5000\n"),
        (lambda p, mp: _write_segment_csv(p),
         "-7,1e+16,m 00\n" + "".join(f"{v}\n" for v in AWKWARD_TEXT)),
        (lambda p, mp: _write_meta(p),
         "timestamp=86400\nsample_rate=0.30000000000000004\nsource_id=m00\n"),
    ], ids=["indicator", "indicator-no-machine", "indicator-machine", "history", "labels",
            "roc", "code-exhausted", "code", "train-log", "effective-config", "segment-csv",
            "segment-meta"])
    def test_bytes(self, tmp_path, monkeypatch, write, text):
        path = write(tmp_path, monkeypatch)
        assert path.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("write, name, value, separator", [
        (lambda p: save_segment_csv(make_segment([1.0], source="m,00"), str(p)),
         "source_id", "m,00", ","),
        (lambda p: save_segment_csv(make_segment([1.0], source="m\n00"), str(p)),
         "source_id", "m\n00", "\n"),
        (lambda p: save_segment_raw(make_segment([1.0], source="m\r00"), str(p)),
         "source_id", "m\r00", "\r"),
        (lambda p: _save_labels(p, "m,01"), "machine_id", "m,01", ","),
        (lambda p: write_table(str(p), "a,b", [(1, 2.0), (3, "x\ny")]), "b", "x\ny", "\n"),
        (lambda p: write_table(str(p), "a", [(1,)], comments=[("note", "one\ntwo")]),
         "note", "one\ntwo", "\n"),
        (lambda p: write_table(str(p), "a", [(1,)], footer=[("auc", "0.5\r")]),
         "auc", "0.5\r", "\r"),
        (lambda p: write_key_values(str(p), [("seed", 1), ("input", "in\ndir")]),
         "input", "in\ndir", "\n"),
    ], ids=["segment-comma", "segment-newline", "meta-return", "labels-comma", "row-newline",
            "comment-newline", "footer-return", "key-value-newline"])
    def test_value_that_would_not_read_back_rejected_before_open(self, tmp_path, write, name,
                                                                  value, separator):
        path = tmp_path / "out"
        with pytest.raises(ValueError) as exc:
            write(path)
        target = f"{path}.meta" if name == "source_id" and separator == "\r" else str(path)
        assert str(exc.value) == (
            f"cannot write {name}={value!r} to {target}: it holds {separator!r}")
        assert list(tmp_path.iterdir()) == []


def _save_labels(path, machine):
    from vibdict.detect import LabeledWindow, save_labels_csv

    save_labels_csv([LabeledWindow("m00", 0, 10, "healthy"),
                     LabeledWindow(machine, 0, 10, "faulty")], str(path))
