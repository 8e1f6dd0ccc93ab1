"""The four benchmark workloads: seeded inputs and the CLI stages run on them.

Each workload generates its inputs from the seed into ``<work>/in`` before
anything is timed, and returns a :class:`Plan`: the CLI stages to run in
order (arguments relative to the checkout root) and what the output checks
expect. Three workloads build their fleets with the ``vibdict.synth``
API; ``fleet_analysis`` writes monitoring histories with its own numpy
generator, so no coding happens in it.

``SIZES`` holds the shapes: ``full`` is what the benchmark measures,
``tiny`` is the smoke-test shape.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CADENCE_S = 43200
# The coder's instance budget is ceil((1 - sparsity) * n); the CLI default
# sparsity is 0.9.
BUDGET_FRACTION = Fraction(1, 10)

SIZES = {
    "baseline_train": {
        "full": dict(machines=2, segments=12, segment_len=16384, blocks=10),
        "tiny": dict(machines=2, segments=2, segment_len=1024, blocks=1),
    },
    "fleet_monitor": {
        "full": dict(machines=4, segments=64, onset=32, blocks=40),
        "tiny": dict(machines=3, segments=36, onset=18, blocks=2),
    },
    "omp_code": {
        "full": dict(machines=2, segments=10, segment_len=2048, blocks=2),
        "tiny": dict(machines=2, segments=2, segment_len=256, blocks=1),
    },
    "fleet_analysis": {
        "full": dict(machines=24, timestamps=1200),
        "tiny": dict(machines=6, timestamps=60),
    },
}

WHY = {
    "baseline_train": "CLI-default MP training on long CSV segments: the MP pick loop and CSV ingest, "
                      "single-threaded, with no OMP, distance or detect",
    "fleet_monitor": "fleet monitoring with short CSV segments and --jobs 2: per-call MP overhead, gradient "
                     "steps, dictionary distance, the thread pool, then indicators and a slope ROC",
    "omp_code": "OMP training and monitoring on binary float32 segments: the per-pick Gram solve "
                "dominates, ingest is cheap",
    "fleet_analysis": "fleet reporting over 24 machine histories: quadratic ROC sweep, slope, lowpass, "
                      "MAD and indicator CSV I/O, with no coding",
}

WORKLOADS = tuple(SIZES)


@dataclass(frozen=True)
class Stage:
    """One CLI invocation; ``kind`` is the subcommand it is accounted under."""

    name: str
    kind: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class RocCheck:
    """An ``roc`` output and what is needed to recompute its AUC."""

    roc_csv: str
    indicators: tuple[str, ...]
    labels: str
    indicator: str
    slope_window: int


@dataclass
class Plan:
    """Stages of one workload plus the facts the output checks rely on."""

    workload: str
    work: str
    inputs: str
    outputs: str
    algorithm: str
    stages: list[Stage]
    train_blocks: int = 0
    monitored_segments: int = 0
    segment_len: int = 0
    baseline_dir: str = ""
    history_dir: str = ""
    # machine -> timestamps of the segments it monitors, in order
    expected_history: dict[str, list[int]] = field(default_factory=dict)
    rocs: list[RocCheck] = field(default_factory=list)
    fidelity_files: list[str] = field(default_factory=list)

    def rel(self, *parts) -> str:
        """A path under the work directory, relative to the checkout root."""
        return os.path.join(self.work, *parts)


def instance_budget(n: int) -> int:
    return max(1, math.ceil(BUDGET_FRACTION * n))


def tree_digest(path: str) -> str:
    """SHA-256 over every file under ``path``: relative name and bytes."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode())
            h.update(b"\0")
            with open(full, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _synth_fleet(outdir, machines, segments, segment_len, seed, fault_machine=-1,
                 onset_segment=0, fmt="csv"):
    from vibdict import synth

    onset = onset_segment * CADENCE_S
    specs = synth.default_fleet_specs(machines, fault_machine, onset, seed)
    fleet, windows = synth.generate_fleet(specs, segments, segment_len, CADENCE_S)
    synth.write_fleet(fleet, windows, outdir, fmt)
    return {m: [seg.timestamp for seg in segs] for m, segs in fleet.items()}


def _baseline_train(plan: Plan, seed: int, size: dict) -> None:
    fleet = plan.rel("in", "fleet")
    _synth_fleet(os.path.join(ROOT, fleet), size["machines"], size["segments"],
                 size["segment_len"], seed)
    block_len = min(12800, size["segment_len"])
    base = plan.rel("out", "base")
    plan.stages = [Stage("train", "train", (
        "train", "--input", fleet, "--output", base, "--atoms", "8",
        "--block-len", str(block_len), "--train-blocks", str(size["blocks"]),
        "--jobs", "1", "--seed", str(seed),
    ))]
    plan.algorithm = "mp"
    plan.baseline_dir = base
    plan.train_blocks = size["machines"] * size["blocks"]
    plan.fidelity_files = [os.path.join(base, f"m{k:02d}_train_log.csv")
                           for k in range(size["machines"])]


def _fleet_monitor(plan: Plan, seed: int, size: dict) -> None:
    healthy = plan.rel("in", "healthy")
    fleet = plan.rel("in", "fleet")
    # Baselines learn from the healthy prefix: same synth seed, no fault,
    # so the pre-onset segments are identical to the monitored fleet's.
    _synth_fleet(os.path.join(ROOT, healthy), size["machines"], size["onset"], 1024, seed)
    timestamps = _synth_fleet(os.path.join(ROOT, fleet), size["machines"], size["segments"],
                              1024, seed, fault_machine=1, onset_segment=size["onset"])
    base, hist, ind = plan.rel("out", "base"), plan.rel("out", "hist"), plan.rel("out", "ind")
    machines = sorted(timestamps)
    smooth = tuple(os.path.join(ind, f"{m}_distance_deg_smooth.csv") for m in machines)
    labels = os.path.join(fleet, "labels.csv")
    roc = plan.rel("out", "roc_slope.csv")
    plan.stages = [
        Stage("train", "train", (
            "train", "--input", healthy, "--output", base, "--atoms", "3", "--core-len", "50",
            "--pad", "10", "--train-blocks", str(size["blocks"]), "--block-len", "1024",
            "--eta", "1e-4", "--seed", str(seed),
        )),
        Stage("monitor", "monitor", (
            "monitor", "--input", fleet, "--baseline", base, "--output", hist, "--atoms", "3",
            "--eta", "3e-5", "--rms-gate", "0", "--jobs", "2",
        )),
        Stage("indicators", "indicators", (
            "indicators", "--history", hist, "--output", ind, "--time-constant", "10",
        )),
        Stage("roc_slope", "roc", (
            "roc", "--indicators", *smooth, "--labels", labels, "--output", roc,
            "--indicator", "slope", "--slope-window", "30",
        )),
    ]
    plan.algorithm = "mp"
    plan.baseline_dir = base
    plan.history_dir = hist
    plan.segment_len = 1024
    plan.train_blocks = size["machines"] * size["blocks"]
    plan.monitored_segments = size["machines"] * size["segments"]
    plan.expected_history = timestamps
    plan.rocs = [RocCheck(roc, smooth, labels, "slope", 30)]
    plan.fidelity_files = [os.path.join(base, f"{m}_train_log.csv") for m in machines] + [
        os.path.join(hist, f"{m}_history.csv") for m in machines]


def _omp_code(plan: Plan, seed: int, size: dict) -> None:
    fleet = plan.rel("in", "fleet")
    n = size["segment_len"]
    timestamps = _synth_fleet(os.path.join(ROOT, fleet), size["machines"], size["segments"],
                              n, seed, fmt="raw_f32le")
    base, hist = plan.rel("out", "base"), plan.rel("out", "hist")
    machines = sorted(timestamps)
    plan.stages = [
        Stage("train", "train", (
            "train", "--input", fleet, "--output", base, "--format", "raw_f32le",
            "--algo", "omp", "--atoms", "3", "--train-blocks", str(size["blocks"]),
            "--block-len", str(n), "--eta", "1e-4", "--seed", str(seed),
        )),
        Stage("monitor", "monitor", (
            "monitor", "--input", fleet, "--baseline", base, "--output", hist,
            "--format", "raw_f32le", "--algo", "omp", "--atoms", "3", "--eta", "3e-5",
            "--rms-gate", "0",
        )),
    ]
    plan.algorithm = "omp"
    plan.baseline_dir = base
    plan.history_dir = hist
    plan.segment_len = n
    plan.train_blocks = size["machines"] * size["blocks"]
    plan.monitored_segments = size["machines"] * size["segments"]
    plan.expected_history = timestamps
    plan.fidelity_files = [os.path.join(base, f"{m}_train_log.csv") for m in machines] + [
        os.path.join(hist, f"{m}_history.csv") for m in machines]


def write_fleet_histories(outdir: str, machines: int, timestamps: int, seed: int) -> None:
    """Random-walk distance histories with a planted drift on two machines.

    Writes ``m<k>_history.csv`` per machine in the monitor's history format,
    plus ``labels.csv`` marking each drifting machine faulty from its
    drift onset. Every machine shares the same timestamps.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0x5EED])
    os.makedirs(outdir, exist_ok=True)
    times = np.arange(timestamps, dtype=np.int64) * CADENCE_S
    end = int(timestamps * CADENCE_S)
    drifting = set(int(k) for k in rng.choice(machines, size=min(2, machines), replace=False))
    n_instances = instance_budget(1024)
    labels = ["machine_id,start,end,label"]
    for k in range(machines):
        machine = f"m{k:02d}"
        distance = rng.uniform(2.0, 4.0) + np.cumsum(rng.normal(0.0, 0.02, timestamps))
        fidelity = 6.0 + rng.normal(0.0, 0.3, timestamps)
        if k in drifting:
            onset = int(rng.integers(timestamps // 3, 2 * timestamps // 3))
            rate = rng.uniform(0.005, 0.02)
            distance[onset:] += rate * np.arange(timestamps - onset)
            labels.append(f"{machine},0,{int(times[onset])},healthy")
            labels.append(f"{machine},{int(times[onset])},{end},faulty")
        else:
            labels.append(f"{machine},0,{end},healthy")
        distance = np.abs(distance)
        with open(os.path.join(outdir, f"{machine}_history.csv"), "w", encoding="utf-8") as fh:
            fh.write("timestamp,fidelity_db,distance_deg,n_instances\n")
            for t, fid, dist in zip(times, fidelity, distance):
                fh.write(f"{int(t)},{float(fid)!r},{float(dist)!r},{n_instances}\n")
    with open(os.path.join(outdir, "labels.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(labels) + "\n")


def _fleet_analysis(plan: Plan, seed: int, size: dict) -> None:
    hist = plan.rel("in", "hist")
    write_fleet_histories(os.path.join(ROOT, hist), size["machines"], size["timestamps"], seed)
    ind = plan.rel("out", "ind")
    machines = [f"m{k:02d}" for k in range(size["machines"])]
    smooth = tuple(os.path.join(ind, f"{m}_distance_deg_smooth.csv") for m in machines)
    labels = os.path.join(hist, "labels.csv")
    plan.stages = [Stage("indicators", "indicators", (
        "indicators", "--history", hist, "--output", ind, "--time-constant", "10",
    ))]
    for indicator in ("value", "slope", "min-diff"):
        roc = plan.rel("out", f"roc_{indicator}.csv")
        plan.stages.append(Stage(f"roc_{indicator}", "roc", (
            "roc", "--indicators", *smooth, "--labels", labels, "--output", roc,
            "--indicator", indicator, "--slope-window", "30",
        )))
        plan.rocs.append(RocCheck(roc, smooth, labels, indicator, 30))
    plan.algorithm = "mp"


GENERATORS = {
    "baseline_train": _baseline_train,
    "fleet_monitor": _fleet_monitor,
    "omp_code": _omp_code,
    "fleet_analysis": _fleet_analysis,
}


def generate(workload: str, seed: int, work: str, scale: str = "full") -> Plan:
    """Write the workload's inputs under ``work`` and return its plan.

    ``work`` is relative to the checkout root.
    """
    plan = Plan(workload, work, os.path.join(work, "in"), os.path.join(work, "out"), "mp", [])
    os.makedirs(os.path.join(ROOT, plan.inputs), exist_ok=True)
    GENERATORS[workload](plan, seed, SIZES[workload][scale])
    return plan


def plan_path(work: str) -> str:
    return os.path.join(ROOT, work, "plan.json")


def load_plan(work: str) -> Plan:
    """Read the plan that ``python perfbench/workloads.py`` wrote for ``work``."""
    with open(plan_path(work), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["stages"] = [Stage(s["name"], s["kind"], tuple(s["args"])) for s in doc["stages"]]
    doc["rocs"] = [RocCheck(**dict(r, indicators=tuple(r["indicators"]))) for r in doc["rocs"]]
    return Plan(**doc)


def main(argv) -> int:
    """Generate one workload's inputs and write its plan next to them.

    Usage: PYTHONPATH=src python perfbench/workloads.py <workload> <seed> <work> <scale>

    Generation runs in its own process so that run.py
    never loads numpy before it starts the stages: a child's peak RSS
    from wait4 includes the RSS of the parent that started it.
    """
    workload, seed, work, scale = argv[1], int(argv[2]), argv[3], argv[4]
    plan = generate(workload, seed, work, scale)
    with open(plan_path(work), "w", encoding="utf-8") as fh:
        json.dump(asdict(plan), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
