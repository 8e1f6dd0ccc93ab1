"""Tests of the benchmark itself: checkers, MAC formula, tracer, smoke runs.

Run from the checkout root: python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import stages  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from vibdict import coding, detect  # noqa: E402
from vibdict.dictionary import Atom, Dictionary  # noqa: E402
from vibdict.ingest import SignalSegment  # noqa: E402
from vibdict.metrics import IndicatorSeries  # noqa: E402


# --- AUC checker ----------------------------------------------------------------


def test_auc_without_ties():
    # positives 0.35 and 0.8 against negatives 0.1 and 0.4: 3 of 4 pairs won
    assert checks.mann_whitney_auc([0.1, 0.4, 0.35, 0.8], [False, False, True, True]) == 0.75


def test_auc_ties_get_half_credit():
    # positive 1 ties negative 1 (0.5) and beats 0 (1); positive 2 beats both (2)
    assert checks.mann_whitney_auc([1, 1, 2, 0], [True, False, True, False]) == 0.875


def test_auc_all_values_equal_is_one_half():
    assert checks.mann_whitney_auc([3.0] * 7, [True, False, False, True, False, True, False]) == 0.5


def test_auc_perfect_and_inverted():
    assert checks.mann_whitney_auc([0, 1, 2, 3], [False, False, True, True]) == 1.0
    assert checks.mann_whitney_auc([0, 1, 2, 3], [True, True, False, False]) == 0.0


def test_auc_needs_both_classes():
    with pytest.raises(ValueError):
        checks.mann_whitney_auc([1, 2], [True, True])


def test_auc_matches_threshold_sweep_with_ties():
    rng = np.random.default_rng(4)
    values = rng.integers(0, 12, size=300).astype(float)
    truth = rng.random(300) < 0.3
    samples = [("m", t, v) for t, v in enumerate(values)]
    faulty = [detect.LabeledWindow("m", t, t + 1, detect.FAULTY) for t in np.flatnonzero(truth)]
    healthy = [detect.LabeledWindow("m", t, t + 1, detect.HEALTHY) for t in np.flatnonzero(~truth)]
    curve = detect.roc_curve(samples, faulty + healthy)
    assert checks.mann_whitney_auc(values, truth) == pytest.approx(curve.auc, abs=1e-12)


def test_trailing_slope_is_bitwise_the_detector_slope():
    rng = np.random.default_rng(1)
    times = np.arange(80, dtype=np.int64) * 43200
    values = np.cumsum(rng.normal(size=80))
    ours = checks.trailing_slope(times, values, 30)
    theirs = detect.slope_indicator(IndicatorSeries("x", times, values), 30).values
    assert np.array_equal(ours, theirs)


# --- history checker ---------------------------------------------------------------


def _write_history(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,fidelity_db,distance_deg,n_instances\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def test_history_checker_flags_nan_count_and_missing_rows(tmp_path):
    good = [(0, 6.0, 0.1, 103), (10, 6.1, 0.2, 103)]
    _write_history(tmp_path / "m00_history.csv", good)
    _write_history(tmp_path / "m01_history.csv", [(0, 6.0, float("nan"), 103), (10, 6.1, 0.2, 103)])
    _write_history(tmp_path / "m02_history.csv", [(0, 6.0, 0.1, 102), (10, 6.1, 0.2, 103)])
    _write_history(tmp_path / "m03_history.csv", good[:1])
    expected = {m: [0, 10] for m in ("m00", "m01", "m02", "m03")}
    results = checks.check_histories(str(tmp_path), ".", expected, 1024, workloads.instance_budget(1024))
    assert [ok for _, ok, _ in results] == [True, False, False, False]


def test_instance_budget_matches_coder():
    for n in (256, 1000, 1024, 2048, 12800):
        assert workloads.instance_budget(n) == coding.instance_budget(n, coding.CodingConfig())


# --- MAC formula ------------------------------------------------------------------


class _CountingNumpy:
    """numpy stand-in that counts the MACs of every np.correlate call."""

    def __init__(self):
        self.macs = 0

    def correlate(self, a, v, mode="valid"):
        out = np.correlate(a, v, mode=mode)
        self.macs += out.size * len(v)
        return out

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("n, lengths", [(200, (7, 12)), (64, (30, 5)), (40, (40, 3))])
def test_mp_corr_macs_matches_brute_force_count(monkeypatch, n, lengths):
    rng = np.random.default_rng(n)
    atoms = tuple(Atom(w / np.linalg.norm(w), k)
                  for k, w in enumerate(rng.normal(size=L) for L in lengths))
    dictionary = Dictionary(atoms)
    segment = SignalSegment(rng.normal(size=n), 100.0, 0, "m")
    counter = _CountingNumpy()
    monkeypatch.setattr(coding, "np", counter)
    code = coding.mp_encode(segment, dictionary, coding.CodingConfig(n_instances=25))
    position = {a.id: p for p, a in enumerate(dictionary.atoms)}
    picks = [(position[i.atom_id], i.offset) for i in code.instances]
    assert tracer.mp_corr_macs(n, lengths, picks) == counter.macs


# --- tracer -------------------------------------------------------------------------


def test_span_self_time_excludes_children():
    spans = tracer.Tracer()

    def child():
        time.sleep(0.02)

    wrapped_child = spans.wrap("child", child)

    def parent():
        wrapped_child()
        wrapped_child()

    spans.wrap("parent", parent)()
    recorded = {name: (parent_name, duration, self_s)
                for name, parent_name, _, duration, self_s in spans._span_lists[0]}
    parent_name, duration, self_s = recorded["parent"]
    assert parent_name == "" and recorded["child"][0] == "parent"
    assert duration >= 0.04
    assert self_s < 0.01


def test_install_swaps_and_uninstall_restores():
    import vibdict.learning

    original = vibdict.learning.encode
    replaced = tracer.install(tracer.Tracer())
    try:
        assert vibdict.learning.encode is not original
        assert vibdict.learning.encode.__wrapped__ is original
    finally:
        tracer.uninstall(replaced)
    assert vibdict.learning.encode is original


def test_runner_does_not_load_numpy_before_stages():
    # A child's wait4 peak RSS includes its parent's RSS at spawn.
    code = ("import sys; sys.argv = ['run.py']; sys.path[:0] = ['perfbench', 'src']; "
            "import run, stages, workloads; assert run.preflight() is None; "
            "from workloads import tree_digest; print('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert proc.stdout.strip() == "False", proc.stderr


def test_untraced_stage_is_the_plain_cli():
    argv = stages.cli_argv(["train", "--input", "x"])
    assert argv[1:4] == ["-m", "vibdict.cli", "train"]
    assert not any("traced_cli" in a for a in argv)


def test_stage_env_pins_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    env = stages.stage_env()
    assert env["PYTHONPATH"] == "src"
    assert all(env[name] == "1" for name in stages.BLAS_ENV_VARS)


# --- whole benchmark -------------------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _benchmark_names(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[section]}


def test_gated_workloads_exist():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        gated = [w["name"] for w in json.load(fh)["workloads"]]
    assert gated and set(gated) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_all_workloads_tiny(trace, section):
    names = _benchmark_names(section)
    for workload in workloads.WORKLOADS:
        proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", trace, "--scale", "tiny"])
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == names


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run(["--workload", "baseline_train", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
