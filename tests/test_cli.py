import hashlib
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import vibdict.cli as cli
from vibdict.dictionary import Atom, Dictionary, load_dictionary, save_dictionary, unit_normalize
from vibdict.errors import NumericError
from vibdict.learning import load_history_csv
from vibdict.metrics import load_indicator_csv, lowpass, mad_series, IndicatorSeries


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def small_fleet(tmp_path):
    """Two machines x 6 tiny segments, machine m01 faulted from segment 3."""
    out = tmp_path / "fleet"
    code = run(
        "synth", "--output", out, "--machines", 2, "--segments", 6,
        "--segment-len", 512, "--cadence", 43200, "--fault-machine", 1,
        "--fault-onset-segment", 3, "--seed", 11,
    )
    assert code == 0
    return out


def train_args(indir, outdir, **extra):
    args = [
        "train", "--input", indir, "--output", outdir,
        "--train-blocks", 10, "--block-len", 128,
        "--atoms", 2, "--core-len", 12, "--pad", 3,
        "--eta", "1e-3", "--seed", 11,
    ]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", value])
    return args


class TestTrain:
    def test_trains_and_persists(self, small_fleet, tmp_path, capsys):
        out = tmp_path / "base"
        assert run(*train_args(small_fleet / "m00", out)) == 0
        d = load_dictionary(str(out / "m00.vdct"))
        assert len(d.atoms) == 2
        for atom in d.atoms:
            assert abs(np.linalg.norm(atom.waveform) - 1.0) < 1e-12
        log = (out / "m00_train_log.csv").read_text().splitlines()
        assert log[0] == "block,fidelity_db"
        assert len(log) == 11
        assert (out / "effective_config.txt").exists()

    def test_eta_zero_keeps_seed_dictionary(self, small_fleet, tmp_path):
        out = tmp_path / "base"
        assert run(*train_args(small_fleet / "m00", out, eta="0")) == 0
        from vibdict.dictionary import init_pseudorandom
        seeded = init_pseudorandom(num_atoms=2, core_len=12, pad=3, seed=11)
        trained = load_dictionary(str(out / "m00.vdct"))
        for a, b in zip(seeded.atoms, trained.atoms):
            np.testing.assert_array_equal(a.waveform, b.waveform)

    def test_rerun_bitwise_identical(self, small_fleet, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(*train_args(small_fleet, out_a, jobs="2")) == 0
        assert run(*train_args(small_fleet, out_b)) == 0
        for name in ("m00.vdct", "m01.vdct"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_worker_failure_keeps_exit_code_and_message(self, small_fleet, tmp_path, capsys):
        (small_fleet / "m02").mkdir()
        outcomes = []
        for jobs in ("1", "2"):
            code = run(*train_args(small_fleet, tmp_path / f"out{jobs}", jobs=jobs))
            outcomes.append((code, capsys.readouterr()))
        (code_1, serial), (code_2, pooled) = outcomes
        assert code_1 == code_2 == 3
        assert pooled.err == serial.err
        assert "machine 'm02': insufficient training data (0 segments available" in pooled.err
        assert pooled.out == serial.out == ""

    @pytest.mark.parametrize("command", ["train", "monitor"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, small_fleet, tmp_path, capsys, command, jobs):
        args = train_args(small_fleet, tmp_path / "out", jobs=jobs)
        if command == "monitor":
            args = ["monitor", "--input", small_fleet, "--baseline", tmp_path / "base",
                    "--output", tmp_path / "mon", "--jobs", jobs]
        assert run(*args) == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "mon").exists()

    def test_insufficient_segments_reports_counts(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run(*train_args(empty, tmp_path / "out"))
        assert code == 3
        err = capsys.readouterr().err
        assert "0 segments available" in err

    def test_gate_can_exclude_everything(self, small_fleet, tmp_path, capsys):
        code = run(*train_args(small_fleet / "m00", tmp_path / "out",
                               rms_gate="1e9"))
        assert code == 3
        assert "passed the RMS gate" in capsys.readouterr().err

    def test_non_finite_sample_is_data_error(self, small_fleet, tmp_path, capsys):
        path = sorted((small_fleet / "m00").glob("*.csv"))[2]
        lines = path.read_text().splitlines()
        timestamp = lines[0].split(",")[0]
        lines[10] = "nan"
        path.write_text("\n".join(lines) + "\n")
        code = run(*train_args(small_fleet / "m00", tmp_path / "out", rms_gate="0"))
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite sample" in err
        assert f"source m00, t={timestamp}" in err

    def test_seed_atoms_longer_than_block_is_config_error(self, small_fleet, tmp_path, capsys):
        code = run(*train_args(small_fleet / "m00", tmp_path / "out", core_len=130))
        assert code == 2
        assert "core_len + 2 * pad = 136 samples do not fit in block_len=128" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_does_not_mutate_inputs(self, small_fleet, tmp_path):
        def digest():
            h = hashlib.sha256()
            for root, _, files in sorted(os.walk(small_fleet)):
                for name in sorted(files):
                    h.update((root + name).encode())
                    h.update(open(os.path.join(root, name), "rb").read())
            return h.hexdigest()

        before = digest()
        assert run(*train_args(small_fleet / "m00", tmp_path / "out")) == 0
        assert digest() == before


class TestMonitor:
    @pytest.fixture()
    def baseline(self, small_fleet, tmp_path):
        out = tmp_path / "base"
        assert run(*train_args(small_fleet, out)) == 0
        return out

    def monitor_args(self, indir, baseline, outdir, mode="propagate", **extra):
        args = [
            "monitor", "--input", indir, "--baseline", baseline,
            "--output", outdir, "--mode", mode,
            "--atoms", 2, "--eta", "1e-3", "--seed", 11,
        ]
        for key, value in extra.items():
            args.extend([f"--{key.replace('_', '-')}", value])
        return args

    def test_atom_longer_than_segment_is_data_error(self, small_fleet, tmp_path, capsys):
        base = tmp_path / "long"
        base.mkdir()
        long_atom = Atom(unit_normalize(np.ones(600)), 0)
        save_dictionary(Dictionary((long_atom,)), str(base / "m00.vdct"))
        code = run(*self.monitor_args(small_fleet / "m00", base, tmp_path / "mon", atoms=1))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: atom 0 of length 600 does not fit in segment of "
                              "length 512 (source m00, t=")

    def test_history_columns_and_final_dict(self, small_fleet, baseline, tmp_path):
        out = tmp_path / "mon"
        assert run(*self.monitor_args(small_fleet, baseline, out, jobs="2")) == 0
        records = load_history_csv(str(out / "m00_history.csv"))
        assert len(records) == 6
        assert [r.timestamp for r in records] == [43200 * k for k in range(6)]
        final = load_dictionary(str(out / "m00_final.vdct"))
        assert final.generation > 0

    def test_jobs_two_matches_serial_bytewise(self, small_fleet, baseline, tmp_path, capsys):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"mon{jobs}"
            args = self.monitor_args(small_fleet, baseline, out, jobs=jobs)
            assert run(*args, "--dump-codes") == 0
            files = {
                path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*"))
                if path.is_file() and path.name != "effective_config.txt"
            }
            outputs.append((files, capsys.readouterr().out))
        (serial_files, serial_out), (pooled_files, pooled_out) = outputs
        names = {str(p) for p in serial_files}
        assert {"m00_history.csv", "m01_history.csv",
                "m00_final.vdct", "m01_final.vdct"} <= names
        assert len([n for n in names if n.startswith("m01_codes")]) == 6
        assert pooled_files == serial_files
        assert pooled_out == serial_out
        assert serial_out.count("6 segments") == 2

    def test_machine_task_pickles_for_any_start_method(self, small_fleet, baseline, tmp_path):
        def task(output):
            (tmp_path / output).mkdir()
            cfg = cli.RunConfig(atoms=2, eta=1e-3, seed=11, input=str(small_fleet),
                                output=str(tmp_path / output))
            return cli.MachineTask("m00", str(small_fleet / "m00"), cfg, "csv",
                                   str(baseline), "propagate", None, False)

        serial, spawned = task("serial"), task("spawned")
        assert pickle.loads(pickle.dumps(serial)) == serial
        expected = cli.monitor_one(serial)

        # A spawned worker starts from a fresh import: nothing is inherited.
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            result = pool.submit(cli.monitor_one, spawned).result(timeout=120)
        assert result == expected
        for name in ("m00_history.csv", "m00_final.vdct"):
            assert ((tmp_path / "spawned" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())

    def test_frozen_mode_distance_zero(self, small_fleet, baseline, tmp_path):
        out = tmp_path / "mon"
        assert run(*self.monitor_args(
            small_fleet / "m00", baseline / "m00.vdct", out, mode="frozen")) == 0
        records = load_history_csv(str(out / "m00_history.csv"))
        assert all(r.distance_deg == 0.0 for r in records)
        before = load_dictionary(str(baseline / "m00.vdct"))
        after = load_dictionary(str(out / "m00_final.vdct"))
        for a, b in zip(before.atoms, after.atoms):
            np.testing.assert_array_equal(a.waveform, b.waveform)

    def test_foreign_mode_uses_other_dictionary(self, small_fleet, baseline, tmp_path):
        out = tmp_path / "mon"
        code = run(*self.monitor_args(
            small_fleet / "m00", baseline / "m00.vdct", out,
            mode="foreign", foreign=str(baseline / "m01.vdct")))
        assert code == 0
        records = load_history_csv(str(out / "m00_history.csv"))
        assert all(r.distance_deg == records[0].distance_deg for r in records)
        assert records[0].distance_deg > 0.0

    def test_foreign_mode_requires_foreign_flag(self, small_fleet, baseline, tmp_path, capsys):
        code = run(*self.monitor_args(
            small_fleet / "m00", baseline / "m00.vdct", tmp_path / "mon",
            mode="foreign"))
        assert code == 2

    def test_empty_input_exits_success(self, baseline, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "mon"
        assert run(*self.monitor_args(empty, baseline / "m00.vdct", out)) == 0
        history = (out / "empty_history.csv").read_text().splitlines()
        assert history == ["timestamp,fidelity_db,distance_deg,n_instances"]

    def test_atom_count_mismatch_rejected(self, small_fleet, baseline, tmp_path, capsys):
        args = [
            "monitor", "--input", str(small_fleet / "m00"),
            "--baseline", str(baseline / "m00.vdct"),
            "--output", str(tmp_path / "mon"), "--atoms", "5",
        ]
        assert cli.main(args) == 2
        assert "atoms" in capsys.readouterr().err

    def test_dump_codes(self, small_fleet, baseline, tmp_path):
        out = tmp_path / "mon"
        args = self.monitor_args(small_fleet / "m00", baseline / "m00.vdct", out)
        assert run(*args, "--dump-codes") == 0
        files = sorted((out / "m00_codes").iterdir())
        assert len(files) == 6
        first = files[0].read_text().splitlines()
        assert first[0] == "atom_id,offset,amplitude"


class TestDistance:
    def test_self_distance_prints_zero(self, small_fleet, tmp_path, capsys):
        base = tmp_path / "base"
        assert run(*train_args(small_fleet / "m00", base)) == 0
        capsys.readouterr()
        assert run("distance", base / "m00.vdct", base / "m00.vdct") == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert run("distance", tmp_path / "a.vdct", tmp_path / "b.vdct") == 3


class TestIndicatorsAndRoc:
    @pytest.fixture()
    def history_dir(self, small_fleet, tmp_path):
        base = tmp_path / "base"
        assert run(*train_args(small_fleet, base)) == 0
        out = tmp_path / "mon"
        args = [
            "monitor", "--input", str(small_fleet), "--baseline", str(base),
            "--output", str(out), "--mode", "propagate",
            "--atoms", "2", "--eta", "1e-2", "--seed", "11",
        ]
        assert cli.main(args) == 0
        return out

    def test_indicators_match_library(self, history_dir, tmp_path):
        out = tmp_path / "ind"
        assert run("indicators", "--history", history_dir, "--output", out,
                   "--time-constant", 5) == 0
        smoothed = {}
        for machine in ("m00", "m01"):
            records = load_history_csv(str(history_dir / f"{machine}_history.csv"))
            times = np.array([r.timestamp for r in records])
            raw = np.array([r.distance_deg for r in records])
            expected = lowpass(raw, 5.0)
            series, meta = load_indicator_csv(
                str(out / f"{machine}_distance_deg_smooth.csv"))
            assert meta["machine"] == machine
            np.testing.assert_allclose(series.values, expected, atol=1e-12)
            smoothed[machine] = IndicatorSeries("distance_deg", times, expected)
        expected_mad = mad_series(smoothed)
        for machine in ("m00", "m01"):
            series, _ = load_indicator_csv(str(out / f"{machine}_distance_mad.csv"))
            np.testing.assert_allclose(series.values, expected_mad[machine].values,
                                       atol=1e-12)

    def test_roc_on_separable_indicator(self, small_fleet, tmp_path):
        # hand-build perfectly separating indicator files
        ind_dir = tmp_path / "ind"
        ind_dir.mkdir()
        from vibdict.metrics import save_indicator_csv
        t = np.array([43200 * k for k in range(6)])
        save_indicator_csv(IndicatorSeries("v", t, np.zeros(6)),
                           str(ind_dir / "m00.csv"), machine="m00")
        values = np.where(t >= 43200 * 3, 5.0, 0.0)
        save_indicator_csv(IndicatorSeries("v", t, values.astype(float)),
                           str(ind_dir / "m01.csv"), machine="m01")
        roc_path = tmp_path / "roc.csv"
        assert run("roc", "--indicators", ind_dir / "m00.csv", ind_dir / "m01.csv",
                   "--labels", small_fleet / "labels.csv",
                   "--output", roc_path) == 0
        text = roc_path.read_text()
        assert text.splitlines()[0] == "threshold,fpr,tpr"
        assert "# auc=1.0" in text


class TestFileContentErrors:
    """Bad rows in a file that parses exit 3 with the file named on stderr."""

    def write_indicator(self, path, times):
        path.write_text("timestamp,value\n" + "".join(f"{t},0.5\n" for t in times))
        return path

    def write_labels(self, path, rows):
        path.write_text("machine_id,start,end,label\n" + "".join(f"{r}\n" for r in rows))
        return path

    def assert_data_error(self, code, capsys, path):
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("data error: ")
        assert str(path) in err

    def test_history_repeated_timestamp(self, tmp_path, capsys):
        hist = tmp_path / "hist"
        hist.mkdir()
        path = hist / "m00_history.csv"
        path.write_text("timestamp,fidelity_db,distance_deg,n_instances\n"
                        "100,10.0,0.5,3\n100,11.0,0.6,3\n")
        code = run("indicators", "--history", hist, "--output", tmp_path / "out")
        self.assert_data_error(code, capsys, path)

    def test_indicator_decreasing_timestamps(self, tmp_path, capsys):
        path = self.write_indicator(tmp_path / "m00.csv", [200, 100])
        labels = self.write_labels(tmp_path / "labels.csv", ["m00,0,1000,healthy"])
        code = run("roc", "--indicators", path, "--labels", labels,
                   "--output", tmp_path / "roc.csv")
        self.assert_data_error(code, capsys, path)

    def test_labels_overlapping_windows(self, tmp_path, capsys):
        indicator = self.write_indicator(tmp_path / "m00.csv", [100, 200])
        path = self.write_labels(tmp_path / "labels.csv",
                                 ["m00,0,150,healthy", "m00,120,1000,faulty"])
        code = run("roc", "--indicators", indicator, "--labels", path,
                   "--output", tmp_path / "roc.csv")
        self.assert_data_error(code, capsys, path)


class TestConfigHandling:
    def test_config_file_and_flag_precedence(self, small_fleet, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "atoms = 2\ncore_len = 12\npad = 3\neta = 1e-3\n"
            "train_blocks = 10\nblock_len = 128\nseed = 11\n"
        )
        out = tmp_path / "out"
        assert run("train", "--config", config, "--input", small_fleet / "m00",
                   "--output", out, "--seed", 99) == 0
        effective = (out / "effective_config.txt").read_text()
        assert "seed=99" in effective       # flag wins
        assert "atoms=2" in effective       # file wins over default
        assert "sparsity=0.9" in effective  # default preserved

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("not_a_key = 5\n")
        code = run("train", "--config", config, "--input", tmp_path,
                   "--output", tmp_path / "out")
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_invalid_flag_value_rejected(self, tmp_path, capsys):
        code = run("train", "--input", tmp_path, "--output", tmp_path / "o",
                   "--sparsity", "1.5")
        assert code == 2

    def test_missing_required_paths_rejected(self, capsys):
        assert run("train", "--output", "somewhere") == 2

    def test_numeric_error_maps_to_exit_4(self, monkeypatch, capsys):
        def boom(args):
            raise NumericError("synthetic numeric failure")

        monkeypatch.setattr(cli, "cmd_distance", boom)
        assert cli.main(["distance", "a", "b"]) == 4
        assert "numeric" in capsys.readouterr().err


class TestAtomInfo:
    def test_prints_per_atom_lines(self, small_fleet, tmp_path, capsys):
        base = tmp_path / "base"
        assert run(*train_args(small_fleet / "m00", base)) == 0
        capsys.readouterr()
        assert run("atom-info", base / "m00.vdct") == 0
        out = capsys.readouterr().out.splitlines()
        assert "2 atoms" in out[0]
        assert len([line for line in out if line.startswith("atom ")]) == 2
        assert all("Hz" in line for line in out[1:])


class TestSynthCommand:
    def test_labels_and_layout(self, small_fleet):
        assert (small_fleet / "labels.csv").exists()
        assert (small_fleet / "m00").is_dir()
        assert (small_fleet / "m01").is_dir()
        assert (small_fleet / "effective_config.txt").exists()
        assert len(list((small_fleet / "m00").glob("*.csv"))) == 6

    def test_jobs_flag_not_accepted(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--output", tmp_path / "f", "--jobs", 2)
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_fault_machine_out_of_range(self, tmp_path, capsys):
        code = run("synth", "--output", tmp_path / "f", "--machines", 2,
                   "--fault-machine", 7)
        assert code == 2
