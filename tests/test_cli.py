import hashlib
import os
import pickle
import shutil
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import vibdict.cli as cli
import vibdict.fleet as fleet
from vibdict.coding import CodingConfig, save_code_csv
from vibdict.detect import (
    load_labels_csv,
    min_diff_series,
    roc_curve,
    save_roc_csv,
    series_samples,
    slope_indicator,
)
from vibdict.dictionary import (
    Atom,
    Dictionary,
    init_pseudorandom,
    load_dictionary,
    save_dictionary,
    unit_normalize,
)
from vibdict.errors import ConfigError, DataError, NumericError
from vibdict.ingest import (
    SegmentGate,
    gate_by_rms,
    load_segments,
    preprocess,
    sample_blocks,
    write_table,
)
from vibdict.learning import LearnConfig, monitor_segments
from vibdict.metrics import (
    IndicatorSeries,
    load_history_csv,
    load_indicator_csv,
    lowpass,
    mad_series,
    save_history_csv,
    save_indicator_csv,
)
from vibdict.synth import FaultSpec, SynthSpec, default_planted_atoms, generate_fleet, write_fleet

from oracles import MALFORMED_VDCT, vdct_bytes


def run(*argv):
    return cli.main([str(a) for a in argv])


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def spawn(*argv):
    """Run ``python *argv`` in a fresh process that imports vibdict from ``SRC``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)


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


@pytest.fixture()
def forked_pids(monkeypatch):
    """The pids of the children that ``os.fork`` starts during the test."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    """No child is left running, or exited but unreaped: neither these nor any other."""
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    @pytest.mark.parametrize("command", ["train", "monitor"])
    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_input_not_a_directory_writes_nothing(self, tmp_path, capsys, command, kind):
        indir, out = tmp_path / "in", tmp_path / "out"
        if kind == "file":
            indir.write_text("")
        args = train_args(indir, out)
        if command == "monitor":
            args = ["monitor", "--input", indir, "--baseline", tmp_path / "base",
                    "--output", out]
        assert run(*args) == 3
        assert capsys.readouterr().err == (
            f"data error: input path {str(indir)!r} is not a directory\n")
        assert not out.exists()

    @pytest.mark.parametrize("algorithm, fmt", [("mp", "csv"), ("omp", "raw_f32le")])
    def test_baseline_is_train_machine_result(self, tmp_path, algorithm, fmt):
        """The shell around ``fleet.train_machine`` adds only I/O.

        ``train_one`` loads, gates, standardises and length-filters each
        machine's segments and draws its blocks with ``sample_blocks`` at
        ``machine_seed``; the training is ``train_machine`` under the parsed flags.
        """
        fleet_dir, out, lib = tmp_path / "fleet", tmp_path / "base", tmp_path / "lib"
        assert run("synth", "--output", fleet_dir, "--machines", 2, "--segments", 6,
                   "--segment-len", 512, "--fault-machine", 1, "--fault-onset-segment", 3,
                   "--seed", 11, "--format", fmt) == 0
        argv = [str(a) for a in train_args(fleet_dir, out, algo=algorithm, format=fmt)]
        assert cli.main(argv) == 0
        settings = cli.build_parser().parse_args(argv)
        lib.mkdir()
        for machine in ("m00", "m01"):
            segments = gate_by_rms(load_segments(str(fleet_dir / machine), fmt),
                                   SegmentGate(settings.rms_gate))
            usable = [s for s in map(preprocess, segments) if len(s) >= settings.block_len]
            blocks = sample_blocks(usable, settings.block_len, settings.train_blocks,
                                   fleet.machine_seed(settings.seed, machine))
            result = fleet.train_machine(blocks, settings)
            save_dictionary(result.dictionary, str(lib / "m.vdct"))
            write_table(str(lib / "log.csv"), "block,fidelity_db",
                        enumerate(result.fidelity_db.tolist()))
            assert (lib / "m.vdct").read_bytes() == (out / f"{machine}.vdct").read_bytes()
            assert ((lib / "log.csv").read_bytes()
                    == (out / f"{machine}_train_log.csv").read_bytes())

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

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("jobs", [(), ("--jobs", "1")])
    def test_norm_overflow_is_numeric_error(self, small_fleet, tmp_path, capsys, jobs):
        # An update's norm overflows at this eta; dividing by it once wrote
        # all-zero atoms and reported a final fidelity of -200 dB.
        assert run(*train_args(small_fleet, tmp_path / "out", eta="1e300"), *jobs) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numeric error: cannot normalize a waveform of norm inf\n"

    def test_forked_failure_writes_serial_stderr(self, small_fleet, tmp_path):
        # Each forked child hits the same overflow warning; --jobs 1 prints it
        # once. capsys cannot see what forked children write, so the CLI runs
        # as a process of its own.
        done = {jobs: spawn("-m", "vibdict.cli", *train_args(
                    small_fleet, tmp_path / f"out{jobs}", eta="1e300", jobs=jobs))
                for jobs in ("2", "1")}
        assert [done[jobs].returncode for jobs in ("2", "1")] == [4, 4]
        assert done["2"].stderr == done["1"].stderr
        assert done["1"].stderr.count("RuntimeWarning: overflow encountered") == 1
        assert done["1"].stderr.endswith(
            "numeric error: cannot normalize a waveform of norm inf\n")

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

    def monitor_args(self, indir, baseline, outdir, **extra):
        args = [
            "monitor", "--input", indir, "--baseline", baseline,
            "--output", outdir, "--atoms", 2, "--eta", "1e-3",
        ]
        for key, value in extra.items():
            args.extend([f"--{key.replace('_', '-')}", value])
        return args

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_atom_grown_past_segment_is_numeric_error(self, tmp_path, capsys, forked_pids,
                                                      jobs):
        fleet_dir, base = tmp_path / "fleet", tmp_path / "base"
        assert run("synth", "--output", fleet_dir, "--machines", 1, "--segments", 200,
                   "--segment-len", 256, "--fault-machine", -1, "--seed", 3) == 0
        assert run("train", "--input", fleet_dir, "--output", base, "--atoms", 3,
                   "--core-len", 50, "--pad", 10, "--train-blocks", 50, "--block-len", 256,
                   "--eta", "3e-4", "--seed", 5) == 0
        # A second machine with the same data and baseline, so that --jobs 2 forks.
        (fleet_dir / "m01").symlink_to(fleet_dir / "m00", target_is_directory=True)
        shutil.copy(base / "m00.vdct", base / "m01.vdct")
        capsys.readouterr()
        code = run("monitor", "--input", fleet_dir, "--baseline", base, "--output",
                   tmp_path / "mon", "--atoms", 3, "--eta", "1e-2", "--rms-gate", 0,
                   "--jobs", jobs)
        # The trained atom 0 is shorter than 256 samples; monitoring grows it to 270.
        assert (code, capsys.readouterr().err) == (4, (
            "numeric error: atom 0 grew to length 270 and does not fit in segment of length "
            "256 (source m00, t=388800); the learning rate --eta 0.01 is too large for this "
            "segment length\n"))
        assert len(forked_pids) == (2 if jobs == 2 else 0)
        assert_reaped(forked_pids)

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

    def test_outputs_match_library_loop(self, small_fleet, baseline, tmp_path):
        out = tmp_path / "mon"
        assert run(*self.monitor_args(small_fleet, baseline, out), "--dump-codes") == 0
        cfg = cli.build_parser().parse_args(["monitor"])
        lib = tmp_path / "lib"
        lib.mkdir()
        for machine in ("m00", "m01"):
            segments = load_segments(str(small_fleet / machine))
            prepared = [preprocess(s) for s in gate_by_rms(segments, SegmentGate(cfg.rms_gate))]
            start = load_dictionary(str(baseline / f"{machine}.vdct"))
            steps = list(monitor_segments(prepared, start, CodingConfig(cfg.algorithm, cfg.sparsity),
                                          LearnConfig(eta=1e-3)))
            assert len(steps) == len(prepared) > 0
            save_history_csv([record for _, record, _ in steps], str(lib / "history.csv"))
            save_dictionary(steps[-1][0], str(lib / "final.vdct"))
            assert ((lib / "history.csv").read_bytes()
                    == (out / f"{machine}_history.csv").read_bytes())
            assert ((lib / "final.vdct").read_bytes()
                    == (out / f"{machine}_final.vdct").read_bytes())
            for segment, (_, _, code) in zip(prepared, steps):
                save_code_csv(code, str(lib / "code.csv"))
                assert ((lib / "code.csv").read_bytes()
                        == (out / f"{machine}_codes" / f"{segment.timestamp}.csv").read_bytes())

    def test_history_is_monitor_machine_records(self, tmp_path):
        """The shell around ``fleet.monitor_machine`` adds only I/O.

        One faulted machine of the fleet criterion's shape: 1,024-sample
        segments and ``--sparsity`` 1 - 8/1024, which codes 8 placements each.
        """
        planted = default_planted_atoms(count=3, length=50)
        spec = SynthSpec("m00", planted_atoms=planted, instance_rate=5.0,
                         amplitude_dist=(3.0, 0.5), noise_std=0.057,
                         fault=FaultSpec(20 * 3600, 149, 1.5, 0.8), seed=102)
        segments, windows = generate_fleet([spec], segments=40, segment_len=1024, cadence=3600)
        write_fleet(segments, windows, str(tmp_path / "fleet"), "csv")
        baseline = Dictionary(tuple(Atom(w, i) for i, w in enumerate(planted)))
        save_dictionary(baseline, str(tmp_path / "m00.vdct"))
        argv = ["monitor", "--input", str(tmp_path / "fleet"), "--output", str(tmp_path / "mon"),
                "--baseline", str(tmp_path / "m00.vdct"), "--atoms", "3",
                "--sparsity", "0.9921875", "--eta", "1e-4", "--rms-gate", "0"]
        assert cli.main(argv) == 0
        settings = cli.build_parser().parse_args(argv)
        records = [r for _, r, _ in fleet.monitor_machine(segments["m00"], settings, baseline)]
        assert list(load_history_csv(str(tmp_path / "mon" / "m00_history.csv"))) == records
        assert [r.n_instances for r in records] == [8] * 40

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

    def test_non_utf8_segment_is_data_error(self, small_fleet, baseline, tmp_path,
                                            capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        path = small_fleet / "m00" / "seg_00001.csv"
        with open(path, "ab") as fh:
            fh.write(b"\xff")
        outcomes = []
        for jobs in ([], ["--jobs", 1]):
            code = run(*self.monitor_args(small_fleet, baseline, tmp_path / "mon"), *jobs)
            outcomes.append((code, capsys.readouterr().err))
        (code, err), serial = outcomes
        assert serial == (code, err)
        assert code == 3
        assert err.startswith(f"data error: cannot read {path}: 'utf-8' codec can't decode")

    def test_repeated_timestamp_rejected_before_coding(self, small_fleet, baseline,
                                                       tmp_path, capsys):
        machine = small_fleet / "m00"
        (machine / "seg_00001b.csv").write_bytes((machine / "seg_00001.csv").read_bytes())
        out = tmp_path / "mon"
        assert run(*self.monitor_args(small_fleet, baseline, out)) == 3
        assert capsys.readouterr().err == (
            f"data error: {machine}: two segments at timestamp 43200; "
            f"monitor needs one segment per timestamp\n")
        assert not (out / "m00_history.csv").exists()
        # Training samples blocks, not a time series, so it keeps both.
        assert run(*train_args(small_fleet, tmp_path / "base2")) == 0

    def test_machine_task_pickles_for_any_start_method(self, small_fleet, baseline, tmp_path):
        def task(output):
            (tmp_path / output).mkdir()
            settings = cli.build_parser().parse_args([
                "monitor", "--atoms", "2", "--eta", "1e-3", "--input", str(small_fleet),
                "--output", str(tmp_path / output), "--baseline", str(baseline)])
            return fleet.MachineTask("m00", str(small_fleet / "m00"), settings)

        serial, spawned = task("serial"), task("spawned")
        assert pickle.loads(pickle.dumps(serial)) == serial
        expected = fleet.monitor_one(serial)

        # A spawned worker starts from a fresh import: nothing is inherited.
        # The pool runs in a process of its own, so that its resource
        # tracker ends with it and leaves no child of this one.
        probe = (
            "import multiprocessing, pickle, sys\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "import vibdict.fleet as fleet\n"
            "with open(sys.argv[1], 'rb') as fh:\n"
            "    task = pickle.load(fh)\n"
            "context = multiprocessing.get_context('spawn')\n"
            "with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:\n"
            "    result = pool.submit(fleet.monitor_one, task).result(timeout=120)\n"
            "with open(sys.argv[2], 'wb') as fh:\n"
            "    pickle.dump(result, fh)\n"
        )
        (tmp_path / "task.pkl").write_bytes(pickle.dumps(spawned))
        done = spawn("-c", probe, tmp_path / "task.pkl", tmp_path / "result.pkl")
        assert (done.returncode, done.stderr) == (0, "")
        assert pickle.loads((tmp_path / "result.pkl").read_bytes()) == expected
        for name in ("m00_history.csv", "m00_final.vdct"):
            assert ((tmp_path / "spawned" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())

    def test_frozen_mode_distance_zero(self, small_fleet, baseline, tmp_path):
        out = tmp_path / "mon"
        assert run(*self.monitor_args(
            small_fleet / "m00", baseline / "m00.vdct", out, eta=0)) == 0
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
            foreign=str(baseline / "m01.vdct"), eta=0))
        assert code == 0
        records = load_history_csv(str(out / "m00_history.csv"))
        assert all(r.distance_deg == records[0].distance_deg for r in records)
        assert records[0].distance_deg > 0.0

    def test_foreign_propagates_from_foreign_dictionary(self, small_fleet, baseline, tmp_path):
        """``--foreign F --eta > 0`` codes with F, adapts it and measures to ``--baseline``."""
        out = tmp_path / "mon"
        argv = self.monitor_args(small_fleet / "m00", baseline / "m00.vdct", out,
                                 foreign=baseline / "m01.vdct")
        assert run(*argv) == 0
        settings = cli.build_parser().parse_args([str(a) for a in argv])
        own = load_dictionary(str(baseline / "m00.vdct"))
        live = load_dictionary(str(baseline / "m01.vdct"))
        steps = list(fleet.monitor_machine(load_segments(str(small_fleet / "m00")),
                                           settings, own=own, live=live))
        records = [record for _, record, _ in steps]
        assert list(load_history_csv(str(out / "m00_history.csv"))) == records
        assert len(records) == 6 and records[-1].distance_deg != records[0].distance_deg
        save_dictionary(steps[-1][0], str(tmp_path / "final.vdct"))
        assert (tmp_path / "final.vdct").read_bytes() == (out / "m00_final.vdct").read_bytes()

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
        assert capsys.readouterr().err == (f"config error: {baseline / 'm00.vdct'} has 2 atoms "
                                           f"but --atoms is 5\n")
        assert not (tmp_path / "mon").exists()

    def test_foreign_atom_count_mismatch_rejected(self, small_fleet, baseline, tmp_path, capsys):
        foreign = tmp_path / "three.vdct"
        save_dictionary(init_pseudorandom(3, 12, 3, 11), str(foreign))
        out = tmp_path / "mon"
        assert run(*self.monitor_args(small_fleet, baseline, out, foreign=foreign)) == 2
        assert capsys.readouterr().err == (f"config error: {foreign} has 3 atoms "
                                           f"but --atoms is 2\n")
        assert not out.exists()

    def test_empty_foreign_rejected(self, small_fleet, baseline, tmp_path, capsys):
        out = tmp_path / "mon"
        assert run(*self.monitor_args(small_fleet, baseline, out, foreign="")) == 2
        assert capsys.readouterr().err == "config error: --foreign must name a dictionary file\n"
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["file", "machine-in-directory"])
    def test_missing_baseline_writes_nothing(self, small_fleet, baseline, tmp_path, capsys,
                                             missing):
        if missing == "file":
            path = tmp_path / "nonexist.vdct"
        else:
            (baseline / "m01.vdct").unlink()
            path = baseline
        out = tmp_path / "mon"
        assert run(*self.monitor_args(small_fleet, path, out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("i/o error: [Errno 2] No such file or directory")
        assert not out.exists()

    @pytest.mark.parametrize("extra, line", [
        (["--format", "raw_f32le"], "m00: 0 segments loaded, 0 passed the gate; "
                                    "empty history written"),
        (["--rms-gate", "1e9"], "m00: 6 segments loaded, 0 passed the gate; "
                                "empty history written"),
    ], ids=["nothing-loaded", "all-gated"])
    def test_empty_history_line_counts_loaded_and_passed(self, small_fleet, baseline, tmp_path,
                                                         capsys, extra, line):
        out = tmp_path / "mon"
        capsys.readouterr()
        assert run(*self.monitor_args(small_fleet / "m00", baseline / "m00.vdct", out),
                   *extra) == 0
        assert capsys.readouterr().out == line + "\n"
        assert load_history_csv(str(out / "m00_history.csv")) == ()

    def test_dump_codes(self, small_fleet, baseline, tmp_path):
        out = tmp_path / "mon"
        args = self.monitor_args(small_fleet / "m00", baseline / "m00.vdct", out)
        assert run(*args, "--dump-codes") == 0
        files = sorted((out / "m00_codes").iterdir())
        assert len(files) == 6
        first = files[0].read_text().splitlines()
        assert first[0] == "atom_id,offset,amplitude"

    def test_dump_codes_with_nothing_coded_makes_no_codes_directory(self, small_fleet, baseline,
                                                                     tmp_path):
        out = tmp_path / "mon"
        args = self.monitor_args(small_fleet / "m00", baseline / "m00.vdct", out, rms_gate=1e9)
        assert run(*args, "--dump-codes") == 0
        assert sorted(os.listdir(out)) == ["effective_config.txt", "m00_final.vdct",
                                           "m00_history.csv"]


class TestDefaultJobs:
    """Without --jobs, machines fan out over min(usable CPUs, machines) workers."""

    def pipeline_outputs(self, fleet, out, coder, jobs):
        assert run(*train_args(fleet, out / "base"), *coder, *jobs) == 0
        assert run("monitor", "--input", fleet, "--baseline", out / "base",
                   "--output", out / "mon", "--atoms", 2, "--eta", "1e-3", *coder, *jobs) == 0
        return {
            str(path.relative_to(out)): path.read_bytes()
            for path in sorted(out.rglob("*"))
            if path.is_file() and path.name != "effective_config.txt"
        }

    @pytest.mark.parametrize("jobs", [[], ["--jobs", 2]], ids=["default", "jobs2"])
    @pytest.mark.parametrize("algo, fmt", [("mp", "csv"), ("omp", "raw_f32le")])
    def test_default_matches_in_process_bytewise(self, tmp_path, capsys, monkeypatch,
                                                 forked_pids, algo, fmt, jobs):
        # Three machines over two workers, so the third reuses a worker slot.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fleet = tmp_path / "fleet"
        assert run("synth", "--output", fleet, "--format", fmt, "--machines", 3,
                   "--segments", 6, "--segment-len", 512, "--fault-machine", 1,
                   "--fault-onset-segment", 3, "--seed", 11) == 0
        coder = ["--algo", algo, "--format", fmt]
        capsys.readouterr()
        serial = self.pipeline_outputs(fleet, tmp_path / "serial", coder, ["--jobs", 1])
        serial_out = capsys.readouterr().out
        assert forked_pids == []
        forked = self.pipeline_outputs(fleet, tmp_path / "forked", coder, jobs)
        assert capsys.readouterr().out == serial_out
        assert serial_out.count("trained 2 atoms") == 3
        assert serial_out.count("6 segments") == 3
        assert set(serial) == {
            f"{stage}/{machine}{suffix}"
            for machine in ("m00", "m01", "m02")
            for stage, suffix in [("base", ".vdct"), ("base", "_train_log.csv"),
                                  ("mon", "_history.csv"), ("mon", "_final.vdct")]
        }
        assert forked == serial
        assert len(forked_pids) == 6  # one child per machine and stage
        assert_reaped(forked_pids)

    @pytest.fixture()
    def pools(self, monkeypatch):
        """Record each fan-out's worker count; run its tasks in this process."""
        created = []

        def recording_fork(worker, tasks, workers):
            created.append(workers)
            return [(True, worker(task), []) for task in tasks]

        monkeypatch.setattr(fleet, "_fork_per_machine", recording_fork)
        return created

    @pytest.mark.parametrize("command", ["train", "monitor"])
    @pytest.mark.parametrize("affinity, cpu_count, jobs, machine, expected", [
        (64, 64, [], "", [2]),
        (1, 64, [], "", []),
        (None, 64, [], "", [2]),
        (None, 1, [], "", []),
        (None, None, [], "", []),
        (64, 64, [], "m00", []),
        (64, 64, ["--jobs", 1], "", []),
        (1, 1, ["--jobs", 3], "", [2]),
    ])
    def test_worker_count(self, small_fleet, tmp_path, monkeypatch, pools, command,
                          affinity, cpu_count, jobs, machine, expected):
        fleet = small_fleet / machine
        if command == "monitor":
            assert run(*train_args(fleet, tmp_path / "base"), "--jobs", 1) == 0
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                                raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        if command == "train":
            code = run(*train_args(fleet, tmp_path / "base"), *jobs)
        else:
            code = run("monitor", "--input", fleet, "--baseline", tmp_path / "base",
                       "--output", tmp_path / "mon", "--atoms", 2, *jobs)
        assert code == 0
        assert pools == expected


class NeedsTwoArguments(Exception):
    """Pickles, but cannot be rebuilt from its pickle: __init__ wants two arguments."""

    def __init__(self, machine, detail):
        super().__init__(f"{machine}: {detail}")


def fleet_tasks(*machines):
    settings = cli.build_parser().parse_args(["train"])
    return [fleet.MachineTask(machine, "", settings) for machine in machines]


class TestForkedWorkers:
    """Each machine runs in a forked child; outcomes come back over its pipe."""

    @pytest.mark.parametrize("algo, fmt", [("mp", "csv"), ("omp", "raw_f32le")])
    def test_corrupt_segment_in_later_machine_matches_serial(self, tmp_path, capsys,
                                                              monkeypatch, forked_pids,
                                                              algo, fmt):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        fleet = tmp_path / "fleet"
        assert run("synth", "--output", fleet, "--format", fmt, "--machines", 3,
                   "--segments", 6, "--segment-len", 512, "--fault-machine", -1,
                   "--seed", 11) == 0
        if fmt == "csv":
            path = sorted((fleet / "m01").glob("*.csv"))[2]
            lines = path.read_text().splitlines()
            lines[10] = "nan"
            path.write_text("\n".join(lines) + "\n")
            where = "line 11"
        else:
            path = sorted((fleet / "m01").glob("*.bin"))[2]
            samples = np.fromfile(path, "<f4")
            samples[10] = np.nan
            samples.tofile(path)
            where = "index 10"
        capsys.readouterr()
        outcomes = {}
        for name, jobs in [("forked", []), ("serial", ["--jobs", 1])]:
            code = run(*train_args(fleet, tmp_path / name, algo=algo, format=fmt), *jobs)
            outcomes[name] = (code, capsys.readouterr())
        assert outcomes["forked"] == outcomes["serial"]
        code, (out, err) = outcomes["forked"]
        assert (code, out) == (3, "")
        assert err.startswith(f"data error: {path}: non-finite sample nan at {where} ")
        # Every machine ran in the fan-out; the serial run stopped at m01.
        assert {p.name for p in (tmp_path / "forked").glob("*.vdct")} == {"m00.vdct", "m02.vdct"}
        assert {p.name for p in (tmp_path / "serial").glob("*.vdct")} == {"m00.vdct"}
        assert len(forked_pids) == 3
        assert_reaped(forked_pids)

    def test_killed_worker_names_machine_and_leaves_no_child(self, small_fleet, tmp_path):
        (small_fleet / "m02").symlink_to(small_fleet / "m00", target_is_directory=True)
        probe = (
            "import os, signal, sys\n"
            "import vibdict.cli as cli\n"
            "import vibdict.fleet as fleet\n"
            "train_one = fleet.train_one\n"
            "def killed_on_m01(task):\n"
            "    if task.machine == 'm01':\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return train_one(task)\n"
            "fleet.train_one = killed_on_m01\n"
            "try:\n"
            "    cli.main(sys.argv[1:])\n"
            "except RuntimeError as exc:\n"
            "    print(exc)\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left')\n"
        )
        out = tmp_path / "base"
        done = spawn("-c", probe, *train_args(small_fleet, out, jobs=2))
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == ("the worker for machine 'm01' was killed by signal 9\n"
                               "no child left\n")
        assert {p.name for p in out.glob("*.vdct")} == {"m00.vdct", "m02.vdct"}

    def test_large_result_comes_back_intact(self):
        payload = bytes(range(256)) * 4096  # 1 MiB, more than a pipe buffers
        results = fleet.run_per_machine(lambda task: task.machine.encode() + payload,
                                        fleet_tasks("m00", "m01", "m02"), 2)
        assert results == [name.encode() + payload for name in ("m00", "m01", "m02")]

    def test_first_failure_in_task_order_after_every_machine_ran(self, tmp_path):
        def worker(task):
            if task.machine == "m00":
                time.sleep(0.3)
                raise ConfigError("m00 failed last")
            if task.machine == "m01":
                raise DataError("m01 failed first")
            (tmp_path / task.machine).write_text("ran")
            return task.machine

        with pytest.raises(ConfigError, match="^m00 failed last$"):
            fleet.run_per_machine(worker, fleet_tasks("m00", "m01", "m02"), 2)
        assert (tmp_path / "m02").read_text() == "ran"

    @pytest.mark.parametrize("fails_in", ["pickle", "unpickle"])
    def test_exception_lost_in_pickling_names_machine(self, fails_in):
        class LocalError(Exception):
            """Defined in a function, so pickle cannot find its class."""

        error = LocalError("bad") if fails_in == "pickle" else NeedsTwoArguments("m01", "bad")

        def worker(task):
            if task.machine == "m01":
                raise error
            return task.machine

        with pytest.raises(RuntimeError, match=f"^machine 'm01': cannot {fails_in} the worker's"):
            fleet.run_per_machine(worker, fleet_tasks("m00", "m01"), 2)

    def test_without_fork_runs_serially_in_process(self, monkeypatch):
        def no_fan_out(*args):
            raise AssertionError("no fork fan-out without os.fork")

        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(fleet, "_fork_per_machine", no_fan_out)
        results = fleet.run_per_machine(lambda task: (task.machine, os.getpid()),
                                        fleet_tasks("m00", "m01"), 2)
        assert results == [("m00", os.getpid()), ("m01", os.getpid())]

    def test_fork_warning_of_threaded_parent_is_hidden(self, monkeypatch):
        fork = os.fork

        def warning_fork():
            # What os.fork does on Python >= 3.12 when other threads exist.
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                          f"fork() may lead to deadlocks in the child.",
                          DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            results = fleet.run_per_machine(lambda task: task.machine,
                                            fleet_tasks("m00", "m01"), 2)
        assert results == ["m00", "m01"]
        assert seen == []

    def test_stages_load_no_pool_machinery(self, small_fleet, tmp_path):
        probe = (
            "import sys\n"
            "import vibdict.cli as cli\n"
            "train, monitor = sys.argv[1:].index('train'), sys.argv[1:].index('monitor')\n"
            "assert cli.main(sys.argv[1 + train:1 + monitor]) == 0\n"
            "assert cli.main(sys.argv[1 + monitor:]) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
        )
        base = tmp_path / "base"
        done = spawn("-c", probe, *train_args(small_fleet, base, jobs=2),
                     "monitor", "--input", small_fleet, "--baseline", base,
                     "--output", tmp_path / "mon", "--atoms", 2, "--jobs", 2)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "mon" / "m01_history.csv").exists()


class TestDistance:
    def test_self_distance_prints_zero(self, small_fleet, tmp_path, capsys):
        base = tmp_path / "base"
        assert run(*train_args(small_fleet / "m00", base)) == 0
        capsys.readouterr()
        assert run("distance", base / "m00.vdct", base / "m00.vdct") == 0
        assert capsys.readouterr().out.strip() == "0.000000"

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        assert run("distance", tmp_path / "a.vdct", tmp_path / "b.vdct") == 3


class TestMalformedDictionary:
    """A .vdct whose content no dictionary may hold exits 3 naming the file."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_VDCT))
    @pytest.mark.parametrize("command", ["distance", "atom-info", "monitor"])
    def test_data_error_names_the_file(self, small_fleet, tmp_path, capsys, command, case):
        atoms, message = MALFORMED_VDCT[case]
        bad = tmp_path / f"{case}.vdct"
        bad.write_bytes(vdct_bytes(atoms))
        good = tmp_path / "good.vdct"
        save_dictionary(init_pseudorandom(1, 12, 3, 11), str(good))
        argv = {
            "distance": ["distance", good, bad],
            "atom-info": ["atom-info", bad],
            "monitor": ["monitor", "--input", small_fleet, "--baseline", bad,
                        "--output", tmp_path / "mon", "--atoms", 1],
        }[command]
        capsys.readouterr()
        assert run(*argv) == 3
        assert capsys.readouterr() == ("", f"data error: {bad}: {message}\n")
        assert not (tmp_path / "mon").exists()


class TestIndicatorsAndRoc:
    @pytest.fixture()
    def history_dir(self, small_fleet, tmp_path):
        base = tmp_path / "base"
        assert run(*train_args(small_fleet, base)) == 0
        out = tmp_path / "mon"
        args = [
            "monitor", "--input", str(small_fleet), "--baseline", str(base),
            "--output", str(out), "--atoms", "2", "--eta", "1e-2",
        ]
        assert cli.main(args) == 0
        return out

    @pytest.fixture()
    def fleet_indicators(self, tmp_path):
        """`indicators` output of three machines, m01 faulted from segment 3, and the labels."""
        fleet_dir = tmp_path / "fleet"
        assert run("synth", "--output", fleet_dir, "--machines", 3, "--segments", 6,
                   "--segment-len", 512, "--cadence", 43200, "--fault-machine", 1,
                   "--fault-onset-segment", 3, "--seed", 11) == 0
        assert run(*train_args(fleet_dir, tmp_path / "base", jobs=1)) == 0
        assert run("monitor", "--input", fleet_dir, "--baseline", tmp_path / "base",
                   "--output", tmp_path / "mon", "--atoms", 2, "--eta", "1e-2",
                   "--jobs", 1) == 0
        assert run("indicators", "--history", tmp_path / "mon", "--output", tmp_path / "ind",
                   "--time-constant", 3) == 0
        return tmp_path / "ind", fleet_dir / "labels.csv"

    def test_min_diff_scores_each_machine_of_smooth_files(self, fleet_indicators):
        # every smooth distance file holds a series named distance_deg
        ind, _ = fleet_indicators
        loaded = {}
        for path in sorted(ind.glob("*_distance_deg_smooth.csv")):
            series, meta = load_indicator_csv(str(path))
            assert series.name == "distance_deg"
            loaded[meta["machine"]] = series
        scored = min_diff_series(loaded)
        assert list(scored) == ["m00", "m01", "m02"]
        for machine, series in scored.items():
            others = [s.values for m, s in loaded.items() if m != machine]
            expected = np.min(loaded[machine].values - np.array(others), axis=0)
            assert series.values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("indicator", ["value", "slope", "min-diff"])
    def test_roc_matches_library(self, fleet_indicators, tmp_path, indicator):
        ind, labels = fleet_indicators
        paths = sorted(ind.glob("*_distance_deg_smooth.csv"))
        roc_path = tmp_path / "roc.csv"
        assert run("roc", "--indicators", *paths, "--labels", labels, "--output", roc_path,
                   "--indicator", indicator, "--slope-window", 3) == 0
        loaded = {}
        for path in paths:
            series, meta = load_indicator_csv(str(path))
            loaded[meta["machine"]] = series
        if indicator == "slope":
            loaded = {m: slope_indicator(s, 3) for m, s in loaded.items()}
        elif indicator == "min-diff":
            loaded = min_diff_series(loaded)
        expected = tmp_path / "expected.csv"
        save_roc_csv(roc_curve(series_samples(loaded), load_labels_csv(str(labels))),
                     str(expected))
        assert roc_path.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("m01_windows, message", [
        ("", "sample ('m01', t=100) falls in 0 labeled windows"),
        ("m01,0,300,faulty\n", "sample ('m01', t=300) falls in 0 labeled windows"),
        ("m01,0,1000,healthy\n", "ROC undefined: 0 faulty and 10 healthy samples"),
    ])
    def test_roc_label_errors_name_labels_file(self, tmp_path, capsys, m01_windows, message):
        labels = tmp_path / "labels.csv"
        labels.write_text(f"machine_id,start,end,label\nm00,0,1000,healthy\n{m01_windows}")
        paths = [tmp_path / f"{machine}.csv" for machine in ("m00", "m01")]
        for path in paths:
            save_indicator_csv(IndicatorSeries("v", np.arange(1, 6) * 100, np.arange(5.0)),
                               str(path), machine=path.stem)
        capsys.readouterr()
        assert run("roc", "--indicators", *paths, "--labels", labels,
                   "--output", tmp_path / "roc.csv") == 3
        assert capsys.readouterr() == ("", f"data error: {labels}: {message}\n")
        assert not (tmp_path / "roc.csv").exists()

    def test_roc_without_samples_names_no_file(self, tmp_path, capsys):
        # the indicator files are empty, so the labels are not at fault
        labels = tmp_path / "labels.csv"
        labels.write_text("machine_id,start,end,label\nm00,0,1000,healthy\n")
        path = tmp_path / "m00.csv"
        path.write_text("timestamp,value\n")
        capsys.readouterr()
        assert run("roc", "--indicators", path, "--labels", labels,
                   "--output", tmp_path / "roc.csv") == 3
        assert capsys.readouterr() == ("", "data error: no indicator samples to evaluate\n")

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

    def test_indicators_read_only_machine_history_files(self, tmp_path):
        # history.csv names no machine; machine_history.csv is machine "machine".
        # history.csv's timestamps match no other file's, so reading it fails.
        history = tmp_path / "hist"
        history.mkdir()
        distances = {"history": [9.0, 9.0], "machine_history": [0.1, 0.2, 0.4],
                     "m01_history": [0.3, 0.3, 0.5]}
        for stem, values in distances.items():
            (history / f"{stem}.csv").write_text(
                "timestamp,fidelity_db,distance_deg,n_instances\n"
                + "".join(f"{100 * (k + 1)},10.0,{v},3\n" for k, v in enumerate(values)))
        out = tmp_path / "ind"
        assert run("indicators", "--history", history, "--output", out,
                   "--time-constant", 2) == 0
        assert sorted(os.listdir(out)) == sorted(
            f"{m}_{column}.csv" for m in ("machine", "m01")
            for column in ("fidelity_db_smooth", "distance_deg_smooth", "distance_mad"))
        for machine in ("machine", "m01"):
            series, meta = load_indicator_csv(str(out / f"{machine}_distance_deg_smooth.csv"))
            assert meta["machine"] == machine
            np.testing.assert_allclose(
                series.values, lowpass(np.array(distances[f"{machine}_history"]), 2.0),
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

    def test_outputs_go_to_directories_that_do_not_exist_yet(self, history_dir, tmp_path,
                                                            small_fleet):
        ind = tmp_path / "new" / "ind"
        assert run("indicators", "--history", history_dir, "--output", ind) == 0
        roc_path = tmp_path / "other" / "roc" / "roc.csv"
        assert run("roc", "--indicators", ind / "m00_distance_mad.csv",
                   ind / "m01_distance_mad.csv", "--labels", small_fleet / "labels.csv",
                   "--output", roc_path) == 0
        assert roc_path.read_text().splitlines()[0] == "threshold,fpr,tpr"


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

    @pytest.mark.parametrize("fmt", ["csv", "raw_f32le"])
    def test_segment_bad_sample_rate(self, tmp_path, capsys, fmt):
        machine = tmp_path / "fleet" / "m00"
        machine.mkdir(parents=True)
        if fmt == "csv":
            path = machine / "seg_00000.csv"
            path.write_text("0,nan,m00\n" + "0.5\n" * 256)
        else:
            np.ones(256, dtype="<f4").tofile(str(machine / "seg_00000.bin"))
            path = machine / "seg_00000.bin.meta"
            path.write_text("timestamp=0\nsample_rate=inf\nsource_id=m00\n")
        code = run(*train_args(machine, tmp_path / "base", format=fmt))
        self.assert_data_error(code, capsys, path)

    def test_history_repeated_timestamp(self, tmp_path, capsys):
        hist = tmp_path / "hist"
        hist.mkdir()
        path = hist / "m00_history.csv"
        path.write_text("timestamp,fidelity_db,distance_deg,n_instances\n"
                        "100,10.0,0.5,3\n100,11.0,0.6,3\n")
        code = run("indicators", "--history", hist, "--output", tmp_path / "out")
        self.assert_data_error(code, capsys, path)

    @pytest.mark.parametrize("row, message", [
        ("200,6.0,nan,103", "distance_deg must be finite, got nan"),
        ("200,-inf,0.5,103", "fidelity_db must be finite, got -inf"),
    ], ids=["distance-nan", "fidelity-inf"])
    def test_history_non_finite_value_writes_nothing(self, tmp_path, capsys, row, message):
        hist = tmp_path / "hist"
        hist.mkdir()
        for machine in ("m00", "m01"):
            (hist / f"{machine}_history.csv").write_text(
                "timestamp,fidelity_db,distance_deg,n_instances\n100,6.0,0.5,103\n"
                + (f"{row}\n" if machine == "m01" else "200,6.0,0.5,103\n"))
        out = tmp_path / "out"
        assert run("indicators", "--history", hist, "--output", out) == 3
        assert capsys.readouterr() == (
            "", f"data error: {hist / 'm01_history.csv'}:3: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_indicator_non_finite_value(self, tmp_path, capsys, value):
        path = tmp_path / "m00.csv"
        path.write_text(f"timestamp,value\n100,0.5\n200,{value}\n")
        labels = self.write_labels(tmp_path / "labels.csv",
                                   ["m00,0,150,healthy", "m00,150,1000,faulty"])
        out = tmp_path / "roc.csv"
        assert run("roc", "--indicators", path, "--labels", labels, "--output", out) == 3
        assert capsys.readouterr() == (
            "", f"data error: {path}:3: value must be finite, got {value}\n")
        assert not out.exists()

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

    @pytest.mark.parametrize("command, text, lineno, key", [
        ("synth", "seed = 3\neta = nan\n", 2, "eta"),
        ("synth", "algorithm = lasso\n", 1, "algorithm"),
        ("monitor", "atoms = 2\n\ncore_len = 12\n", 3, "core_len"),
        ("monitor", "seed = 11\n", 1, "seed"),
    ], ids=["synth-eta", "synth-algorithm", "monitor-core_len", "monitor-seed"])
    def test_key_of_another_command_rejected(self, tmp_path, capsys, command, text, lineno,
                                             key):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        out = tmp_path / "out"
        paths = [] if command == "synth" else ["--input", tmp_path, "--baseline", tmp_path]
        assert run(command, "--config", config, *paths, "--output", out) == 2
        assert capsys.readouterr() == (
            "", f"config error: {config}:{lineno}: unknown config key {key!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("path, reason", [
        ("in\ndir", "it holds '\\n'"),
        # read_key_values strips each value, so the replay would read 'fl'.
        ("fl ", "it starts or ends with whitespace"),
        (" fl", "it starts or ends with whitespace"),
        # Python reads an argument's byte that is not UTF-8 as a lone surrogate.
        ("in\udcffdir", "UTF-8 cannot encode it"),
    ], ids=["line-break", "trailing-blank", "leading-blank", "undecodable-byte"])
    def test_path_that_would_not_replay_rejected(self, tmp_path, monkeypatch, capsys, path,
                                                 reason):
        # The input directory exists, so the refused record is what stops the run.
        monkeypatch.chdir(tmp_path)
        os.mkdir(path)
        out = tmp_path / "out"
        assert run("train", "--input", path, "--output", out) == 2
        assert capsys.readouterr() == ("", f"config error: cannot write input={path!r} to "
                                           f"{out}/effective_config.txt: {reason}\n")
        assert not out.exists()

    def test_monitor_takes_no_seed_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("monitor", "--input", tmp_path, "--baseline", tmp_path,
                "--output", tmp_path / "out", "--seed", 1)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        ("dump_codes = yes\n", "{config}:1: bad value for dump_codes: 'yes'"),
        ("dump_codes = 1\n", "{config}:1: bad value for dump_codes: '1'"),
        ("atoms = 2.0\n", "{config}:1: bad value for atoms: '2.0'"),
        ("format = bin\n", "format must be one of ('csv', 'raw_f32le', 'raw_f64le'), "
                            "got 'bin'"),
        ("", "monitor requires --input, --output and --baseline"),
        # A record from before --eta 0 and --foreign replaced the mode flag does not replay.
        ("mode = frozen\n", "{config}:1: unknown config key 'mode'"),
    ], ids=["bool-word", "bool-digit", "int-float", "format-choice", "no-baseline",
            "old-mode-key"])
    def test_monitor_config_value_rejected(self, tmp_path, capsys, text, message):
        config = tmp_path / "run.cfg"
        config.write_text(text)
        out = tmp_path / "out"
        baseline = [] if not text else ["--baseline", tmp_path]
        assert run("monitor", "--config", config, "--input", tmp_path, *baseline,
                   "--output", out) == 2
        assert capsys.readouterr() == ("", f"config error: {message.format(config=config)}\n")
        assert not out.exists()

    def test_boolean_key_reads_back(self, small_fleet, tmp_path):
        base = tmp_path / "base"
        assert run(*train_args(small_fleet, base)) == 0
        config = tmp_path / "run.cfg"
        config.write_text(f"dump_codes = True\nbaseline = {base}\natoms = 2\n")
        assert run("monitor", "--config", config, "--input", small_fleet,
                   "--output", tmp_path / "on") == 0
        assert len(list((tmp_path / "on" / "m00_codes").iterdir())) == 6
        config.write_text(f"dump_codes = False\nbaseline = {base}\natoms = 2\n")
        assert run("monitor", "--config", config, "--input", small_fleet, "--dump-codes",
                   "--output", tmp_path / "flag") == 0
        assert (tmp_path / "flag" / "m00_codes").is_dir()  # the flag wins over the file
        assert run("monitor", "--config", config, "--input", small_fleet,
                   "--output", tmp_path / "off") == 0
        assert not (tmp_path / "off" / "m00_codes").exists()
        assert "dump_codes=False\n" in (tmp_path / "off" / "effective_config.txt").read_text()

    def test_invalid_flag_value_rejected(self, tmp_path, capsys):
        code = run("train", "--input", tmp_path, "--output", tmp_path / "o",
                   "--sparsity", "1.5")
        assert code == 2

    def test_missing_required_paths_rejected(self, capsys):
        assert run("train", "--output", "somewhere") == 2

    def test_value_error_in_handler_propagates(self, monkeypatch):
        def bug(args):
            raise ValueError("a bug, not a bad flag")

        monkeypatch.setattr(cli, "cmd_distance", bug)
        with pytest.raises(ValueError, match="^a bug, not a bad flag$"):
            cli.main(["distance", "a", "b"])

    def test_numeric_error_maps_to_exit_4(self, monkeypatch, capsys):
        def boom(args):
            raise NumericError("synthetic numeric failure")

        monkeypatch.setattr(cli, "cmd_distance", boom)
        assert cli.main(["distance", "a", "b"]) == 4
        assert "numeric" in capsys.readouterr().err


def replay_tree(root):
    """Every file under ``root`` by relative path; the record without its output= line."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "effective_config.txt":
                data = b"".join(line for line in data.splitlines(keepends=True)
                                if not line.startswith(b"output="))
            files[str(path.relative_to(root))] = data
    return files


TRAIN_KEYS = {"algorithm", "atoms", "block_len", "core_len", "eta", "format", "input", "output",
              "pad", "rms_gate", "seed", "sparsity", "train_blocks"}
MONITOR_KEYS = {"algorithm", "atoms", "baseline", "dump_codes", "eta", "format", "input",
                "output", "rms_gate", "sparsity"}
SYNTH_KEYS = {"cadence", "fault_machine", "fault_onset_segment", "format", "impulse_amp",
              "impulse_decay", "impulse_period", "machines", "output", "seed", "segment_len",
              "segments", "start_time"}


class TestReplay:
    """``<command> --config <out>/effective_config.txt --output <out2>`` repeats the run."""

    @pytest.fixture()
    def raw_fleet(self, tmp_path):
        out = tmp_path / "raw"
        assert run("synth", "--output", out, "--format", "raw_f32le", "--machines", 2,
                   "--segments", 6, "--segment-len", 512, "--fault-machine", 1,
                   "--fault-onset-segment", 3, "--seed", 11) == 0
        return out

    def replay(self, tmp_path, argv, keys):
        """Run ``argv`` into ``first``, replay its record into ``second``; return both trees."""
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(*argv, "--output", first) == 0
        record = [line.partition("=")[0]
                  for line in (first / "effective_config.txt").read_text().splitlines()]
        assert record == sorted(keys)
        assert run(argv[0], "--config", first / "effective_config.txt", "--output", second) == 0
        return replay_tree(first), replay_tree(second)

    @pytest.mark.parametrize("fmt", ["csv", "raw_f32le"])
    def test_synth(self, tmp_path, fmt):
        argv = ["synth", "--format", fmt, "--machines", 3, "--segments", 5, "--segment-len", 300,
                "--cadence", 600, "--start-time", 7, "--fault-machine", 2,
                "--fault-onset-segment", 2, "--impulse-period", 31, "--impulse-amp", "0.1",
                "--impulse-decay", "0.3", "--seed", 4]
        first, second = self.replay(tmp_path, argv, SYNTH_KEYS)
        assert first == second
        assert len(first) == 1 + 1 + 3 * 5 * (1 if fmt == "csv" else 2)

    @pytest.mark.parametrize("algo, fleet_name, fmt", [("mp", "small_fleet", "csv"),
                                                       ("omp", "raw_fleet", "raw_f32le")])
    def test_train(self, request, tmp_path, algo, fleet_name, fmt):
        fleet_dir = request.getfixturevalue(fleet_name)
        argv = ["train", "--input", fleet_dir, "--train-blocks", 10, "--block-len", 128,
                "--atoms", 2, "--core-len", 12, "--pad", 3, "--eta", "1e-3", "--seed", 11,
                "--algo", algo, "--format", fmt, "--sparsity", "0.7", "--rms-gate", "0.25",
                "--jobs", 1]
        first, second = self.replay(tmp_path, argv, TRAIN_KEYS | {"jobs"})
        assert first == second
        assert {"m00.vdct", "m01.vdct", "m00_train_log.csv"} <= set(first)

    @pytest.mark.parametrize("eta, coder, extra, keys", [
        ("1e-3", [], [], set()),
        ("0", [], [], set()),
        ("0", [], ["--foreign", "m01.vdct"], {"foreign"}),
        ("1e-3", [], ["--dump-codes", "--jobs", 1], {"jobs"}),
        ("1e-3", ["--algo", "omp", "--format", "raw_f32le"], ["--dump-codes"], set()),
    ], ids=["propagate", "frozen", "foreign", "dump-codes", "omp-raw-dump-codes"])
    def test_monitor(self, request, tmp_path, eta, coder, extra, keys):
        fleet_dir = request.getfixturevalue("raw_fleet" if coder else "small_fleet")
        base = tmp_path / "base"
        assert run(*train_args(fleet_dir, base), *coder) == 0
        extra = [str(base / a) if a == "m01.vdct" else a for a in extra]
        argv = ["monitor", "--input", fleet_dir, "--baseline", base / "m00.vdct",
                "--atoms", 2, "--eta", eta, "--rms-gate", 0, *coder, *extra]
        first, second = self.replay(tmp_path, argv, MONITOR_KEYS | keys)
        assert first == second
        assert {"m00_history.csv", "m01_final.vdct"} <= set(first)
        if "--dump-codes" in extra:
            assert len([name for name in first if name.startswith("m01_codes")]) == 6
        record = (tmp_path / "first" / "effective_config.txt").read_text()
        assert f"eta={float(eta)!r}\n" in record
        assert f"dump_codes={'--dump-codes' in extra}\n" in record


class TestNonFiniteFlags:
    """A nan or inf float flag exits 2 naming it instead of turning into nan output."""

    @pytest.mark.parametrize("command, flag, value, name", [
        ("train", "--eta", "nan", "eta"),
        ("monitor", "--eta", "inf", "eta"),
        ("monitor", "--rms-gate", "nan", "rms_gate"),
        ("indicators", "--time-constant", "nan", "time_constant"),
        ("atom-info", "--sample-rate", "nan", "sample_rate"),
        ("atom-info", "--sample-rate", "inf", "sample_rate"),
        ("synth", "--impulse-amp", "nan", "impulse_amp"),
        ("synth", "--impulse-amp", "inf", "impulse_amp"),
    ])
    def test_rejected_with_exit_2(self, small_fleet, tmp_path, capsys, command, flag, value,
                                  name):
        out = tmp_path / "out"
        if command == "train":
            argv = train_args(small_fleet, out)
        elif command == "monitor":
            baseline = tmp_path / "base.vdct"
            save_dictionary(init_pseudorandom(2, 12, 3, 11), str(baseline))
            argv = ["monitor", "--input", small_fleet, "--baseline", baseline,
                    "--output", out, "--atoms", 2]
        elif command == "atom-info":
            argv = ["atom-info", tmp_path / "d.vdct"]
            save_dictionary(init_pseudorandom(2, 12, 3, 11), str(argv[1]))
        elif command == "synth":
            argv = ["synth", "--output", out, "--machines", 2, "--segments", 4,
                    "--segment-len", 256, "--fault-onset-segment", 1]
        else:
            history = tmp_path / "hist"
            history.mkdir()
            (history / "m00_history.csv").write_text(
                "timestamp,fidelity_db,distance_deg,n_instances\n"
                + "".join(f"{100 * t},10.0,{0.1 * t},3\n" for t in range(1, 6))
            )
            argv = ["indicators", "--history", history, "--output", out]
        capsys.readouterr()
        assert run(*argv, flag, value) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {name} must be ")
        assert captured.err.endswith(f"got {value}\n")
        if command == "synth":
            assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-1"])
    def test_indicators_bad_time_constant_writes_nothing(self, tmp_path, capsys, value):
        history = tmp_path / "hist"
        history.mkdir()
        (history / "m00_history.csv").write_text(
            "timestamp,fidelity_db,distance_deg,n_instances\n"
            + "".join(f"{100 * t},10.0,{0.1 * t},3\n" for t in range(1, 6))
        )
        out = tmp_path / "out"
        capsys.readouterr()
        assert run("indicators", "--history", history, "--output", out,
                   "--time-constant", value) == 2
        assert capsys.readouterr().err.startswith("config error: time_constant must be ")
        assert not out.exists()


class TestFlagErrors:
    """A bad flag exits 2 with the message of the check that rejects it.

    Each command raises the ConfigError where it uses the flag; none of
    these reaches ``main`` as a ValueError.
    """

    @staticmethod
    def expect(capsys, argv, message):
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    @pytest.mark.parametrize("extra, message", [
        (["--block-len", 1, "--core-len", 1, "--pad", 0], "block_len must be >= 2"),
        (["--sparsity", "1.5"], "sparsity must be in [0, 1), got 1.5"),
        (["--config", "lasso.cfg"], "algorithm must be one of ('mp', 'omp'), got 'lasso'"),
    ])
    def test_train(self, small_fleet, tmp_path, monkeypatch, capsys, extra, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "lasso.cfg").write_text("algorithm = lasso\n")
        out = tmp_path / "out"
        self.expect(capsys, train_args(small_fleet, out) + extra, message)
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--eta", "inf"], "eta must be finite and >= 0, got inf"),
        (["--sparsity", "-0.1"], "sparsity must be in [0, 1), got -0.1"),
        (["--config", "lasso.cfg"], "algorithm must be one of ('mp', 'omp'), got 'lasso'"),
    ])
    def test_monitor(self, small_fleet, tmp_path, monkeypatch, capsys, extra, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "lasso.cfg").write_text("algorithm = lasso\n")
        baseline = tmp_path / "base.vdct"
        save_dictionary(init_pseudorandom(2, 12, 3, 11), str(baseline))
        out = tmp_path / "out"
        self.expect(capsys, ["monitor", "--input", small_fleet, "--baseline", baseline,
                             "--output", out, "--atoms", 2, *extra], message)
        assert not out.exists()

    # TestNonFiniteFlags covers nan, 0 and -1 for indicators, nan and inf for atom-info.
    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_indicators(self, tmp_path, capsys, value):
        history = tmp_path / "hist"
        history.mkdir()
        (history / "m00_history.csv").write_text(
            "timestamp,fidelity_db,distance_deg,n_instances\n10,1.0,0.1,3\n")
        self.expect(capsys, ["indicators", "--history", history, "--output", tmp_path / "out",
                             f"--time-constant={value}"],
                    f"time_constant must be positive and finite, got {float(value)}")

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_atom_info(self, tmp_path, capsys, value):
        path = tmp_path / "d.vdct"
        save_dictionary(init_pseudorandom(2, 12, 3, 11), str(path))
        self.expect(capsys, ["atom-info", path, "--sample-rate", value],
                    f"sample_rate must be positive and finite, got {float(value)}")

    @pytest.mark.parametrize("machines, extra, message", [
        (["m00"], ["--indicator", "slope", "--slope-window", 1], "window must be >= 2"),
        (["m00"], ["--indicator", "slope", "--slope-window", 0], "window must be >= 2"),
        (["m00"], ["--indicator", "slope", "--slope-window", 6],
         "{m00}: series of length 5 shorter than window 6 (--slope-window)"),
        (["m00"], ["--indicator", "min-diff"], "need at least two machines"),
        (["m00", "m01"], ["--indicator", "min-diff"],
         "series '{m01}' is not aligned with '{m00}'"),
    ])
    def test_roc(self, tmp_path, capsys, machines, extra, message):
        # {m00} and {m01} in a message stand for the paths of those indicator files.
        labels = tmp_path / "labels.csv"
        labels.write_text("machine_id,start,end,label\nm00,0,1000,healthy\n"
                          "m01,0,1000,faulty\n")
        paths = []
        for k, machine in enumerate(machines):
            # m01 starts one step later than m00, so the two are not aligned
            times = np.arange(1, 6) * 100 + 100 * k
            paths.append(tmp_path / f"{machine}.csv")
            save_indicator_csv(IndicatorSeries("distance", times, np.arange(5.0)),
                               str(paths[-1]), machine=machine)
        self.expect(capsys, ["roc", "--indicators", *paths, "--labels", labels,
                             "--output", tmp_path / "roc.csv", *extra],
                    message.format(**{m: p for m, p in zip(machines, paths)}))
        assert not (tmp_path / "roc.csv").exists()

    @pytest.mark.parametrize("swap", [False, True])
    def test_roc_repeated_machine(self, tmp_path, capsys, swap):
        # Two files of one machine would keep only the later one, so the AUC
        # would hang on argument order; they fail before the labels are read.
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        for path, machine, values in zip(paths, ("m00", "m00", "m01"),
                                         (np.zeros(5), np.arange(5.0), np.ones(5))):
            save_indicator_csv(IndicatorSeries("distance", np.arange(1, 6) * 100, values),
                               str(path), machine=machine)
        if swap:
            paths[:2] = paths[1::-1]
        capsys.readouterr()
        assert run("roc", "--indicators", *paths, "--labels", tmp_path / "missing.csv",
                   "--output", tmp_path / "roc.csv") == 3
        assert capsys.readouterr() == (
            "", f"data error: {paths[1]}: machine 'm00' also comes from {paths[0]}; "
                "roc takes one file per machine\n")
        assert not (tmp_path / "roc.csv").exists()

    def test_indicators_misaligned_histories(self, tmp_path, capsys):
        # Unlike roc's, this misalignment is in the files, not in a flag: exit 3.
        history = tmp_path / "hist"
        history.mkdir()
        paths = []
        for machine, later in (("m00", 200), ("m01", 300)):
            paths.append(history / f"{machine}_history.csv")
            paths[-1].write_text("timestamp,fidelity_db,distance_deg,n_instances\n"
                                 f"100,10.0,0.5,3\n{later},11.0,0.6,3\n")
        out = tmp_path / "out"
        capsys.readouterr()
        assert run("indicators", "--history", history, "--output", out) == 3
        assert capsys.readouterr() == (
            "", f"data error: {paths[1]}: timestamps are not aligned with {paths[0]}\n")
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--machines", 0, "--fault-machine", -1], "machines must be >= 1"),
        (["--machines", 0], "machines must be >= 1"),
        (["--segments", 0], "segments, segment_len and cadence must be positive"),
        (["--segment-len", -1], "segments, segment_len and cadence must be positive"),
        (["--cadence", 0], "segments, segment_len and cadence must be positive"),
        (["--segment-len", 20], "planted atom of length 50 longer than segment of length 20"),
        (["--impulse-period", 0], "impulse_period must be >= 1"),
        (["--impulse-decay", 1], "impulse_decay must be in (0, 1)"),
        (["--impulse-amp=-inf"], "impulse_amp must be finite, got -inf"),
        # The machine count sets the range of --fault-machine, so it is checked first.
        (["--machines", 0, "--fault-machine", 2], "machines must be >= 1"),
        (["--machines", -3, "--fault-machine", -5], "machines must be >= 1"),
    ])
    def test_synth(self, tmp_path, capsys, extra, message):
        out = tmp_path / "fleet"
        self.expect(capsys, ["synth", "--output", out, "--machines", 2, "--segments", 4,
                             "--segment-len", 256, "--fault-onset-segment", 1, *extra], message)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_negative_seed(self, small_fleet, tmp_path, capsys, command):
        # numpy seeds only from non-negative integers; the run stops before it writes.
        out = tmp_path / "out"
        argv = train_args(small_fleet, out) if command == "train" else [
            "synth", "--output", out, "--machines", 2, "--segments", 4, "--segment-len", 256,
            "--fault-onset-segment", 1]
        self.expect(capsys, [*argv, "--seed", -1], "seed must be >= 0, got -1")
        assert not out.exists()


class TestProcessEntry:
    """``python -m vibdict.cli`` runs ``main`` through ``entry`` in a fresh process."""

    def test_exit_codes_and_output(self, tmp_path, capsys):
        good = tmp_path / "good.vdct"
        save_dictionary(init_pseudorandom(2, 12, 3, 11), str(good))
        bad = tmp_path / "bad.vdct"
        bad.write_bytes(b"junk")
        cases = [
            (["distance", good, good], 0, "0.000000\n", ""),
            (["train", "--input", tmp_path, "--output", tmp_path / "o", "--eta", "nan"], 2,
             "", "config error: eta must be finite and >= 0, got nan\n"),
            (["distance", bad, good], 3,
             "", f"data error: {bad}: bad magic b'junk', not a dictionary file\n"),
        ]
        for argv, code, stdout, stderr in cases:
            done = spawn("-m", "vibdict.cli", *argv)
            assert (done.returncode, done.stdout, done.stderr) == (code, stdout, stderr)
            capsys.readouterr()
            assert run(*argv) == code
            assert capsys.readouterr() == (stdout, stderr)

    def test_freezes_import_time_objects_before_main(self):
        probe = (
            "import gc, sys\n"
            "import vibdict.cli as cli\n"
            "assert gc.get_freeze_count() == 0\n"
            "cli.main = lambda argv=None: print(gc.get_freeze_count() > 0) or 5\n"
            "sys.exit(cli.entry())\n"
        )
        done = spawn("-c", probe)
        assert (done.returncode, done.stdout, done.stderr) == (5, "True\n", "")


def stage_imports(*argv, watched=()):
    """Run ``entry()`` on ``argv`` in a fresh process; report its imports.

    Returns two printed lists: the vibdict modules that ``main`` imported
    beyond those ``entry`` imported before its ``gc.freeze()``, and the
    ``watched`` modules the process loaded in all.
    """
    probe = (
        "import sys\n"
        "import vibdict.cli as cli\n"
        "main = cli.main\n"
        "def recording_main(argv=None):\n"
        "    before = set(sys.modules)\n"
        "    code = main(argv)\n"
        "    print(sorted(m for m in set(sys.modules) - before if m.startswith('vibdict')))\n"
        "    return code\n"
        "cli.main = recording_main\n"
        "code = cli.entry()\n"
        f"print(sorted(m for m in sys.modules if m in {tuple(watched)!r}))\n"
        "sys.exit(code)\n"
    )
    done = spawn("-c", probe, *argv)
    assert done.returncode == 0, done.stderr
    return tuple(done.stdout.splitlines()[-2:])


class TestStageImports:
    """Each stage loads only the modules its command runs, all before the freeze."""

    def test_package_import_loads_no_submodule(self):
        done = spawn("-c", "import sys, vibdict\n"
                           "print(sorted(m for m in sys.modules if m.startswith('vibdict.')))")
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    def test_coding_stages_load_no_detector_or_generator(self, small_fleet, tmp_path):
        watched = ("vibdict.detect", "vibdict.synth")
        base = tmp_path / "base"
        assert stage_imports(*train_args(small_fleet, base, jobs=2),
                             watched=watched) == ("[]", "[]")
        assert stage_imports("monitor", "--input", small_fleet, "--baseline", base,
                             "--output", tmp_path / "mon", "--atoms", 2, "--jobs", 2,
                             watched=watched) == ("[]", "[]")
        assert (tmp_path / "mon" / "m01_history.csv").exists()

    def test_analysis_stages_load_no_coder(self, small_fleet, tmp_path):
        watched = ("vibdict.coding", "vibdict.learning", "vibdict.fleet", "vibdict.synth",
                   "fractions")
        assert run(*train_args(small_fleet, tmp_path / "base")) == 0
        assert run("monitor", "--input", small_fleet, "--baseline", tmp_path / "base",
                   "--output", tmp_path / "mon", "--atoms", 2) == 0
        ind = tmp_path / "ind"
        assert stage_imports("indicators", "--history", tmp_path / "mon", "--output", ind,
                             watched=watched) == ("[]", "[]")
        assert stage_imports("roc", "--indicators", *sorted(ind.glob("*_distance_mad.csv")),
                             "--labels", small_fleet / "labels.csv", "--output",
                             tmp_path / "roc.csv", "--indicator", "slope", "--slope-window", 2,
                             watched=watched) == ("[]", "[]")

    def test_other_commands_import_everything_before_the_freeze(self, small_fleet, tmp_path):
        assert run(*train_args(small_fleet / "m00", tmp_path / "base")) == 0
        vdct = tmp_path / "base" / "m00.vdct"
        for argv in (["distance", vdct, vdct], ["atom-info", vdct],
                     ["synth", "--output", tmp_path / "fleet", "--machines", 1,
                      "--segments", 2, "--segment-len", 256, "--fault-machine", -1]):
            assert stage_imports(*argv)[0] == "[]"


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

    @pytest.mark.parametrize("flag, value", [("--algo", "omp"), ("--eta", "1e-3"),
                                             ("--sparsity", "0.5"), ("--rms-gate", "0")])
    def test_coding_flags_not_accepted(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--output", tmp_path / "f", flag, value)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()

    def test_fault_machine_out_of_range(self, tmp_path, capsys):
        code = run("synth", "--output", tmp_path / "f", "--machines", 2,
                   "--fault-machine", 7)
        assert code == 2

    @pytest.mark.parametrize("value", [-2, -7])
    def test_fault_machine_below_minus_one(self, tmp_path, capsys, value):
        capsys.readouterr()
        code = run("synth", "--output", tmp_path / "f", "--machines", 2,
                   "--fault-machine", value)
        assert code == 2
        assert capsys.readouterr() == (
            "", f"config error: --fault-machine must be >= -1 (-1 for none), got {value}\n")
        assert not (tmp_path / "f").exists()
