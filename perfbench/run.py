"""vibdict benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each stage runs as its own ``python -m vibdict.cli ...`` process with
``PYTHONPATH=src``, one at a time. The pipeline of a workload is repeated
for about ``--seconds`` seconds; ``pipeline_s`` is the mean wall time per
pipeline over those repeats, and the other figures are medians.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates a
traced and an untraced pipeline, checks that their outputs are
byte-identical, and reports the per-layer metrics from the traced one.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every stage and every output check passed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.util
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import stages
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = ".perfbench"
DIGESTS_PATH = os.path.join(HERE, "input_digests.json")

# Set-up probes after each pipeline run, and the least number per run.
PROBES_PER_PIPELINE = 2
MIN_PROBES = 8
STAGE_KINDS = ("train", "monitor", "indicators", "roc")


@dataclass
class Iteration:
    """One pass of a workload's stages: (Stage, StageResult) pairs in order."""

    traced: bool
    runs: list = field(default_factory=list)
    # (stage kind, trace file) of each traced stage
    traces: list = field(default_factory=list)
    digest: str = ""

    @property
    def ok(self) -> bool:
        return all(r.ok for _, r in self.runs)

    @property
    def pipeline_s(self) -> float:
        return sum(r.wall_s for _, r in self.runs)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.maxrss_mb for _, r in self.runs)

    def results(self, kinds):
        return [r for stage, r in self.runs if stage.kind in kinds]

    def wall(self, kinds) -> float:
        return sum(r.wall_s for r in self.results(kinds))


class Outcome:
    """Counts attempted and failed operations, and remembers the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.lines: list[str] = []

    def record(self, name: str, ok: bool, detail: str, quiet: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        if not (ok and quiet):
            self.lines.append(f"  check {'ok  ' if ok else 'FAIL'} {name}: {detail}")


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _mean_pipeline_s(iterations) -> float:
    """Stage wall time per pipeline over the whole run: the inverse of
    pipelines completed per second.

    The host's CPU speed switches between a fast and a slow state every
    few seconds, so stage times are bimodal and the median of a run's
    8-11 pipelines jumps between the modes; the mean follows the share of
    time spent in each and spread 20-30 % less from run to run.
    """
    return statistics.fmean(it.pipeline_s for it in iterations)


def _percentile(values, q: float) -> float:
    import numpy as np  # only after the stages: see workloads.main

    return float(np.percentile(values, q)) if len(values) else 0.0


def _clear(path: str) -> None:
    shutil.rmtree(os.path.join(ROOT, path), ignore_errors=True)


def run_iteration(plan, traced: bool, index: int) -> Iteration:
    """Run the plan's stages in order; stop at the first failing stage."""
    _clear(plan.outputs)
    os.makedirs(os.path.join(ROOT, plan.outputs), exist_ok=True)
    logs = os.path.join(ROOT, plan.work, "logs", f"{index}{'t' if traced else 'u'}")
    it = Iteration(traced)
    for stage in plan.stages:
        env = None
        if traced:
            trace_path = os.path.join(logs, f"{stage.name}.trace.json")
            os.makedirs(logs, exist_ok=True)
            env = stages.stage_env({"PERFBENCH_TRACE_OUT": trace_path})
            argv = stages.traced_argv(list(stage.args))
            it.traces.append((stage.kind, trace_path))
        else:
            argv = stages.cli_argv(list(stage.args))
        result = stages.run_process(stage.name, argv, logs, env)
        it.runs.append((stage, result))
        if not result.ok:
            break
    h = hashlib.sha256(workloads.tree_digest(os.path.join(ROOT, plan.outputs)).encode())
    for _, result in it.runs:
        h.update(result.stdout)
    it.digest = h.hexdigest()
    return it


class SetupProbes:
    """Fresh interpreters that import vibdict and code one segment, timed.

    Probes run between pipeline runs, so that their median spans the
    whole measuring window rather than one stretch of it.
    """

    def __init__(self, plan):
        base = sorted(glob.glob(os.path.join(ROOT, plan.baseline_dir, "*.vdct"))) if plan.baseline_dir else []
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), plan.algorithm, *base[:1]]
        self.logs = os.path.join(ROOT, plan.work, "logs", "setup")
        self.walls: list[float] = []
        self.error = ""

    def run(self, count: int) -> None:
        for _ in range(count):
            result = stages.run_process(f"setup{len(self.walls)}", self.argv, self.logs)
            self.walls.append(result.wall_s)
            if not result.ok and not self.error:
                self.error = result.stderr.decode(errors="replace").strip()[-300:]

    def record(self, outcome: Outcome) -> float:
        median = _median(self.walls)
        outcome.record("setup_probe", not self.error,
                       self.error or f"{len(self.walls)} probes, median {median:.4f} s")
        return median


def run_checks(plan, iterations, outcome: Outcome) -> dict:
    """Output checks; returns quality figures (AUCs, fidelity) for the report."""
    import checks  # loads numpy

    quality = {}
    digests = {it.digest for it in iterations}
    outcome.record("outputs_identical_across_runs", len(digests) == 1,
                   f"{len(iterations)} pipeline runs, {len(digests)} distinct output digests")
    if plan.baseline_dir:
        for name, ok, detail in checks.check_dictionaries(ROOT, plan.outputs):
            outcome.record(name, ok, detail)
    if plan.history_dir:
        budget = workloads.instance_budget(plan.segment_len)
        for name, ok, detail in checks.check_histories(
                ROOT, plan.history_dir, plan.expected_history, plan.segment_len, budget):
            outcome.record(name, ok, detail)
    for roc in plan.rocs:
        name, ok, detail, auc = checks.check_roc(ROOT, roc)
        outcome.record(name, ok, detail)
        quality[f"roc_auc.{roc.indicator}"] = auc
    if plan.fidelity_files:
        try:
            rows = checks.fidelity_rows(ROOT, plan.fidelity_files)
            quality["fidelity_db_mean"] = sum(rows) / len(rows)
        except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
            outcome.record("fidelity_rows", False, f"{type(exc).__name__}: {exc}")
    return quality


# --- per-layer aggregation -----------------------------------------------------


def _layer_totals(trace_files):
    """name -> {s, self_s, calls, durations} plus summed counts, over traces."""
    layers: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for path in trace_files:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        for name, _parent, _start, duration, self_s in doc["spans"]:
            entry = layers.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "durations": []})
            entry["s"] += duration
            entry["self_s"] += self_s
            entry["calls"] += 1
            entry["durations"].append(duration)
        for key, value in doc["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return layers, counts


def layer_metrics(traced: Iteration, untraced: Iteration) -> dict:
    """Per-layer figures of one traced pipeline, cli figures from its untraced twin."""
    layers, counts = _layer_totals([p for _, p in traced.traces])
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "durations": []}

    def layer(name):
        return layers.get(name, empty)

    def per_pick(name):
        picks = counts.get(f"{name}.picks", 0)
        return layer(name)["s"] / picks * 1e6 if picks else 0.0

    m = {}
    for coder in ("mp", "omp"):
        name = f"coding.{coder}"
        m[f"{name}.s"] = layer(name)["s"]
        m[f"{name}.calls"] = layer(name)["calls"]
        m[f"{name}.picks"] = counts.get(f"{name}.picks", 0)
        m[f"{name}.us_per_pick"] = per_pick(name)
        m[f"{name}.exhausted"] = counts.get(f"{name}.exhausted", 0)
    m["coding.mp.corr_macs"] = counts.get("coding.mp.corr_macs", 0)
    m["coding.argmax.s"] = layer("coding.argmax")["s"]
    m["coding.omp.gram_solve.s"] = layer("coding.omp.gram_solve")["s"]
    encode_ms = [d * 1e3 for d in layer("coding.encode")["durations"]]
    m["coding.encode.ms_p50"] = _percentile(encode_ms, 50)
    m["coding.encode.ms_p98"] = _percentile(encode_ms, 98)

    m["ingest.load_segments.s"] = layer("ingest.load_segments")["s"]
    m["ingest.load_segments.files"] = counts.get("ingest.load_segments.files", 0)
    m["ingest.load_segments.mb_read"] = counts.get("ingest.load_segments.bytes", 0) / 1e6
    m["ingest.preprocess.s"] = layer("ingest.preprocess")["s"]
    m["ingest.gate_by_rms.dropped"] = counts.get("ingest.gate_by_rms.dropped", 0)

    m["learning.gradient_update.s"] = layer("learning.gradient_update")["s"]
    m["learning.gradient_update.calls"] = layer("learning.gradient_update")["calls"]
    m["learning.growth_events"] = counts.get("learning.growth_events", 0)
    step_ms = [d * 1e3 for d in layer("learning.monitor_step")["durations"]]
    m["learning.monitor_step.self_s"] = layer("learning.monitor_step")["self_s"]
    m["learning.monitor_step.ms_p50"] = _percentile(step_ms, 50)
    m["learning.monitor_step.ms_p98"] = _percentile(step_ms, 98)
    m["learning.monitor_state.retained_dicts"] = counts.get("learning.monitor_state.retained_dicts", 0)
    m["metrics.dictionary_distance.s"] = layer("metrics.dictionary_distance")["s"]
    m["metrics.dictionary_distance.calls"] = layer("metrics.dictionary_distance")["calls"]

    for kind in STAGE_KINDS:
        runs = untraced.results((kind,))
        m[f"cli.{kind}.wall_s"] = sum(r.wall_s for r in runs)
        m[f"cli.{kind}.cpu_s"] = sum(r.cpu_s for r in runs)
    wall = m["cli.monitor.wall_s"]
    m["cli.monitor.cpu_over_wall"] = m["cli.monitor.cpu_s"] / wall if wall else 0.0

    m["detect.roc_curve.s"] = layer("detect.roc_curve")["s"]
    m["detect.roc_curve.samples"] = counts.get("detect.roc_curve.samples", 0)
    m["detect.roc_curve.thresholds"] = counts.get("detect.roc_curve.thresholds", 0)
    for name in ("detect.slope_indicator", "detect.min_diff_series", "metrics.lowpass",
                 "metrics.mad_series", "metrics.indicator_io", "dictionary.io"):
        m[f"{name}.s"] = layer(name)["s"]
    atoms = counts.get("dictionary.atoms_saved", 0)
    m["dictionary.mean_atom_len"] = counts.get("dictionary.atom_len_sum", 0) / atoms if atoms else 0.0

    # Shares the workloads were chosen for, from the traced run alone.
    monitor_layers, _ = _layer_totals([p for k, p in traced.traces if k == "monitor"])
    roc_layers, _ = _layer_totals([p for k, p in traced.traces if k == "roc"])
    monitor_wall, roc_wall = traced.wall(("monitor",)), traced.wall(("roc",))
    m["coding.mp.share_of_pipeline"] = m["coding.mp.s"] / traced.pipeline_s
    m["coding.omp.share_of_monitor"] = (
        monitor_layers.get("coding.omp", empty)["s"] / monitor_wall if monitor_wall else 0.0)
    m["detect.roc_curve.share_of_roc"] = (
        roc_layers.get("detect.roc_curve", empty)["s"] / roc_wall if roc_wall else 0.0)
    return m


PER_LAYER_UNITS = {
    ".s": "s", ".self_s": "s", ".wall_s": "s", ".cpu_s": "s", ".overhead_s": "s",
    ".us_per_pick": "us", ".ms_p50": "ms", ".ms_p98": "ms", ".mb_read": "MB",
    ".mean_atom_len": "samples", ".corr_macs": "MAC", ".cpu_over_wall": "ratio",
    ".share_of_pipeline": "fraction", ".share_of_monitor": "fraction", ".share_of_roc": "fraction",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


# --- one workload ----------------------------------------------------------------


def _recorded_digest(workload: str, seed: int, scale: str) -> str | None:
    if scale != "full" or not os.path.exists(DIGESTS_PATH):
        return None
    with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str):
    """Generate, run for ``seconds``, check; returns (outcome, metrics, detail)."""
    work = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    _clear(work)
    outcome = Outcome()
    try:
        generated = stages.run_process(
            "generate", [sys.executable, os.path.join(HERE, "workloads.py"), name, str(seed), work, scale],
            os.path.join(ROOT, work, "logs"))
        outcome.record("generate_inputs", generated.ok,
                       f"exit {generated.returncode}: {generated.stderr.decode(errors='replace')[-300:]}",
                       quiet=True)
        if not generated.ok:
            return outcome, {}, None
        plan = workloads.load_plan(work)
        digest = workloads.tree_digest(os.path.join(ROOT, plan.inputs))
        gen_s = generated.wall_s
        recorded = _recorded_digest(name, seed, scale)
        comparable = ("unrecorded" if recorded is None
                      else "yes" if recorded == digest else "NO: inputs differ from the recorded digest")

        untraced: list[Iteration] = []
        traced: list[Iteration] = []
        probes = None
        start = time.perf_counter()
        while True:
            index = len(untraced)
            if trace:
                traced.append(run_iteration(plan, True, index))
                if not traced[-1].ok:
                    break
            untraced.append(run_iteration(plan, False, index))
            if not untraced[-1].ok:
                break
            if not trace:
                probes = probes or SetupProbes(plan)
                probes.run(PROBES_PER_PIPELINE)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(untraced) > seconds:
                break
        measured_s = time.perf_counter() - start

        for it in traced + untraced:
            for stage, r in it.runs:
                outcome.record(f"stage {stage.name}{' (traced)' if it.traced else ''}", r.ok,
                               f"exit {r.returncode}: {r.stderr.decode(errors='replace').strip()[-300:]}",
                               quiet=True)
        all_ok = all(it.ok for it in traced + untraced)
        if trace and all_ok:
            outcome.record("traced_outputs_identical",
                           all(t.digest == u.digest for t, u in zip(traced, untraced)),
                           f"{len(traced)} traced vs untraced pipeline pairs")

        metrics: dict[str, tuple[float, str]] = {}
        quality = {}
        ok_runs = [it for it in untraced if it.ok]
        if all_ok:
            if probes:
                probes.run(MIN_PROBES - len(probes.walls))
            # numpy is loaded by the checks, so no stage may start after them.
            quality = run_checks(plan, untraced, outcome)
            if trace:
                per_run = [layer_metrics(t, u) for t, u in zip(traced, untraced)]
                for key in per_run[0]:
                    metrics[key] = (_median(r[key] for r in per_run), per_layer_unit(key))
                overhead = (_median(t.pipeline_s for t in traced)
                            - _median(u.pipeline_s for u in untraced))
                metrics["trace.overhead_s"] = (overhead, "s")
            else:
                metrics["pipeline_s"] = (_mean_pipeline_s(ok_runs), "s")
                metrics["setup_s"] = (probes.record(outcome), "s")
                metrics["peak_rss_mb"] = (_median(u.peak_rss_mb for u in ok_runs), "MB")

        report = {}
        if ok_runs:
            report["pipeline_s"] = _mean_pipeline_s(ok_runs)
            report["pipeline_s_p50"] = _median(u.pipeline_s for u in ok_runs)
            train = _median(u.wall(("train",)) for u in ok_runs)
            monitor = _median(u.wall(("monitor",)) for u in ok_runs)
            if plan.train_blocks:
                report["train_blocks_per_s"] = plan.train_blocks / train
            if plan.monitored_segments:
                report["monitor_segments_per_s"] = plan.monitored_segments / monitor
            if ok_runs[0].results(("indicators", "roc")):
                report["analysis_s"] = _median(u.wall(("indicators", "roc")) for u in ok_runs)
            report["peak_rss_mb"] = _median(u.peak_rss_mb for u in ok_runs)
        report.update(quality)
        report["error_rate"] = len(outcome.failures) / max(outcome.attempted, 1)

        detail = {
            "workload": name,
            "why": workloads.WHY[name],
            "seed": seed,
            "scale": scale,
            "trace": int(trace),
            "inputs_sha256": digest,
            "inputs_comparable": comparable,
            "generate_s": gen_s,
            "measured_s": measured_s,
            "pipeline_runs": len(untraced),
            "report": report,
            "stages": [
                {"stage": stage.name, "traced": it.traced, "wall_s": r.wall_s,
                 "cpu_s": r.cpu_s, "maxrss_mb": r.maxrss_mb, "exit": r.returncode}
                for it in traced + untraced for stage, r in it.runs
            ],
            "machine": stages.machine_info(),
        }
        return outcome, metrics, detail
    finally:
        _clear(work)


def print_report(outcome: Outcome, metrics: dict, detail: dict) -> None:
    d = detail
    print(f"workload {d['workload']} (seed {d['seed']}, {d['scale']}, trace {d['trace']}): "
          f"{d['pipeline_runs']} pipeline runs in {d['measured_s']:.1f} s; "
          f"inputs sha256 {d['inputs_sha256'][:16]} comparable: {d['inputs_comparable']}")
    units = {"pipeline_s": "s", "pipeline_s_p50": "s", "train_blocks_per_s": "blocks/s",
             "monitor_segments_per_s": "segments/s", "analysis_s": "s", "peak_rss_mb": "MB",
             "fidelity_db_mean": "dB", "error_rate": "fraction"}
    for key, value in d["report"].items():
        print(f"  {key:<28} {value:>14.6g} {units.get(key, '')}")
    for key, (value, unit) in metrics.items():
        print(f"  metric {key:<38} {value:>14.6g} {unit}")
    for line in outcome.lines:
        print(line)


# --- entry point -----------------------------------------------------------------


def preflight() -> str | None:
    """Why the benchmark cannot run here, or None."""
    if not os.path.isfile(os.path.join(SRC, "vibdict", "cli.py")):
        return f"vibdict sources not found under {os.path.relpath(SRC)}; run from a full checkout"
    # find_spec, not import: this process must not hold numpy while stages run.
    if importlib.util.find_spec("numpy") is None:
        return "numpy is not installed"
    return None


def record_digests(count: int) -> int:
    """Write the input digests of seeds 0..count-1 for every workload."""
    recorded = {}
    for name in workloads.WORKLOADS:
        recorded[name] = {}
        for seed in range(count):
            work = os.path.join(WORK_ROOT, f"digest-{os.getpid()}")
            _clear(work)
            try:
                plan = workloads.generate(name, seed, work)
                recorded[name][str(seed)] = workloads.tree_digest(os.path.join(ROOT, plan.inputs))
            finally:
                _clear(work)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded input digests of seeds 0..{count - 1} to {os.path.relpath(DIGESTS_PATH, ROOT)}")
    return 0


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--record-digests", type=int, default=0, metavar="N",
                        help="record input digests of seeds 0..N-1 and exit")
    args = parser.parse_args(argv)

    problem = preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_digests:
        return record_digests(args.record_digests)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")

    signal.signal(signal.SIGTERM, _terminate)
    if args.workload != "all":
        outcome, metrics, detail = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
        if detail:
            print_report(outcome, metrics, detail)
            print("detail " + json.dumps(detail, sort_keys=True))
        else:
            print("\n".join(f"  FAIL {failure}" for failure in outcome.failures))
        result = {
            "correct": not outcome.failures,
            "attempted": max(outcome.attempted, 1),
            "failed": len(outcome.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if not outcome.failures else 1
    return run_all(args, workloads.WORKLOADS)


def run_all(args, names) -> int:
    """Each workload in its own run.py process; metrics merged as <workload>.<metric>."""
    attempted, failed, merged = 0, 0, {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"attempted": 1, "failed": 1, "metrics": {}}
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            merged[f"{name}.{key}"] = value
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": merged}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
