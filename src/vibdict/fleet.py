"""Per-machine work of ``train`` and ``monitor``, and the fan-out that runs it.

``train_one`` and ``monitor_one`` each run one machine's whole stage from
a :class:`MachineTask`: load, gate and standardise its segments, code
them, and write its outputs. ``run_per_machine`` runs a worker over a
fleet's tasks, one forked child per machine, and returns the results in
task order.
"""

from __future__ import annotations

import itertools
import os
import pickle
import sys
import typing
import warnings
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import coding, dictionary, ingest, learning, metrics
from .errors import ConfigError, DataError

if typing.TYPE_CHECKING:
    import argparse


@dataclass(frozen=True)
class MachineTask:
    """One machine's work for ``train_one`` or ``monitor_one``.

    ``settings`` holds the resolved flags of ``vibdict train`` or
    ``vibdict monitor`` (an ``argparse.Namespace``, or any object with the
    same attributes). The CLI hands tasks to forked children, which
    inherit them unpickled, but a task still pickles, so library callers
    can send it to any worker process, spawned ones included.
    """

    machine: str
    indir: str
    settings: argparse.Namespace


def machine_seed(base_seed: int, machine: str) -> int:
    """Stable per-machine seed derived from the run seed and machine name."""
    seq = np.random.SeedSequence([base_seed, zlib.crc32(machine.encode())])
    return int(seq.generate_state(1, np.uint64)[0])


def coder_configs(
    cfg: argparse.Namespace,
) -> tuple[coding.CodingConfig, learning.LearnConfig, ingest.SegmentGate]:
    """The coder, learner and RMS gate settings of a run; a bad one raises ConfigError."""
    try:
        gate = ingest.SegmentGate(cfg.rms_gate)
        return (coding.CodingConfig(cfg.algorithm, cfg.sparsity),
                learning.LearnConfig(eta=cfg.eta), gate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _prepared_segments(indir: str, fmt: str, gate: ingest.SegmentGate):
    """Load, gate, and standardize one machine's segments.

    Returns (available, gated, prepared) so callers can report the
    accounting in errors.
    """
    segments = ingest.load_segments(indir, fmt)
    gated = ingest.gate_by_rms(segments, gate)
    return len(segments), len(gated), [ingest.preprocess(s) for s in gated]


def train_one(task: MachineTask) -> tuple[float, int]:
    """Train and save one machine's baseline; return (final fidelity dB, growth events)."""
    cfg, machine = task.settings, task.machine
    coding_cfg, learn_cfg, gate = coder_configs(cfg)
    available, gated, prepared = _prepared_segments(task.indir, cfg.format, gate)
    usable = [s for s in prepared if len(s) >= cfg.block_len]
    if not usable:
        raise DataError(
            f"machine {machine!r}: insufficient training data "
            f"({available} segments available, {gated} passed the RMS gate, "
            f"{len(usable)} long enough for block_len={cfg.block_len})"
        )
    blocks = ingest.sample_blocks(
        usable, cfg.block_len, cfg.train_blocks, machine_seed(cfg.seed, machine)
    )
    init = dictionary.init_pseudorandom(cfg.atoms, cfg.core_len, cfg.pad, cfg.seed)
    result = learning.train_baseline(blocks, init, coding_cfg, learn_cfg)
    dictionary.save_dictionary(
        result.dictionary, os.path.join(cfg.output, f"{machine}.vdct")
    )
    log_path = os.path.join(cfg.output, f"{machine}_train_log.csv")
    ingest.write_table(log_path, "block,fidelity_db", enumerate(result.fidelity_db.tolist()))
    return float(result.fidelity_db[-1]), result.growth_events


def _load_baseline(path: str, atoms: int):
    base = dictionary.load_dictionary(path)
    if len(base.atoms) != atoms:
        raise ConfigError(
            f"baseline {path} has {len(base.atoms)} atoms but config expects {atoms}"
        )
    return base


def _baseline_for(machine: str, baseline_path: str, atoms: int):
    if os.path.isdir(baseline_path):
        return _load_baseline(os.path.join(baseline_path, f"{machine}.vdct"), atoms)
    return _load_baseline(baseline_path, atoms)


def monitor_one(task: MachineTask) -> tuple[int, metrics.HistoryRecord | None]:
    """Monitor one machine and save its outputs; return (records, last record)."""
    cfg, machine = task.settings, task.machine
    coding_cfg, learn_cfg, gate = coder_configs(cfg)
    if cfg.mode in ("frozen", "foreign"):
        learn_cfg = replace(learn_cfg, eta=0.0)
    own = _baseline_for(machine, cfg.baseline, cfg.atoms)
    live = _load_baseline(cfg.foreign, cfg.atoms) if cfg.mode == "foreign" else own
    _, _, prepared = _prepared_segments(task.indir, cfg.format, gate)
    for before, after in zip(prepared, prepared[1:]):
        if before.timestamp == after.timestamp:
            raise DataError(f"{task.indir}: two segments at timestamp {after.timestamp}; "
                            f"monitor needs one segment per timestamp")
    codes_dir = os.path.join(cfg.output, f"{machine}_codes")
    if cfg.dump_codes:
        os.makedirs(codes_dir, exist_ok=True)
    final, records = live, []
    for state, record, code in learning.monitor_segments(
        prepared, live, coding_cfg, learn_cfg, baseline=own
    ):
        final = state.dictionary
        records.append(record)
        if cfg.dump_codes:
            coding.save_code_csv(code, os.path.join(codes_dir, f"{record.timestamp}.csv"))
    metrics.save_history_csv(records, os.path.join(cfg.output, f"{machine}_history.csv"))
    dictionary.save_dictionary(final, os.path.join(cfg.output, f"{machine}_final.vdct"))
    return len(records), records[-1] if records else None


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_per_machine(worker, tasks: list[MachineTask], jobs: int | None) -> list:
    """Run ``worker`` on every task and return the results in task order.

    Each task runs in a forked child of its own, with at most
    ``min(jobs, machines)`` children alive at once; ``jobs=None`` means one
    per usable CPU. Children inherit ``worker`` and the tasks, so neither
    is pickled; each sends back one pickled outcome over its own pipe. One
    worker, or a platform without ``os.fork``, runs the tasks serially in
    this process. Every forked machine runs even when one fails; then the
    first failure in task order is re-raised here, with its original type
    and message. The warnings each child recorded are re-issued here, in
    task order up to that failure, through one registry, so a warning that
    ``--jobs 1`` prints once is printed once.
    """
    workers = min(_usable_cpus() if jobs is None else jobs, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return [worker(task) for task in tasks]
    if any(task.settings.algorithm == coding.OMP for task in tasks):
        from . import omp_kernel

        omp_kernel.fast_forward()  # built and checked once here; every child inherits it
    outcomes = _fork_per_machine(worker, tasks, workers)
    registry: dict = {}
    for ok, value, caught in outcomes:
        for text, category, filename, lineno in caught:
            warnings.warn_explicit(text, category, filename, lineno, registry=registry)
        if not ok:
            raise value
    return [value for _, value, _ in outcomes]


def _fork_per_machine(worker, tasks: list[MachineTask],
                      workers: int) -> list[tuple[bool, object, list]]:
    """Fork one child per task, ``workers`` at a time; (ok, value, warnings) per task.

    The parent reads whichever pipe is ready, so a child never blocks on a
    full pipe, and it reaps every child before it returns or raises.
    """
    import select
    import signal

    outcomes: list = [None] * len(tasks)
    running: dict[int, tuple[int, int, list[bytes]]] = {}  # read fd -> (index, pid, chunks)
    queue = iter(enumerate(tasks))
    sys.stdout.flush()  # so no child inherits and repeats buffered output
    sys.stderr.flush()
    try:
        while True:
            for index, task in itertools.islice(queue, workers - len(running)):
                read_fd, write_fd = os.pipe()
                with warnings.catch_warnings():
                    # Python >= 3.12 warns when other threads exist, such as
                    # BLAS workers; OpenBLAS stops its pool before a fork.
                    warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                            DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    os.close(read_fd)
                    _run_in_child(worker, task, write_fd)
                os.close(write_fd)
                running[read_fd] = (index, pid, [])
            if not running:
                return outcomes
            for fd in select.select(list(running), [], [])[0]:
                index, pid, chunks = running[fd]
                chunk = os.read(fd, 1 << 20)
                if chunk:
                    chunks.append(chunk)
                    continue
                del running[fd]
                os.close(fd)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                outcomes[index] = _child_outcome(tasks[index].machine, b"".join(chunks), code)
    finally:
        for fd, (_, pid, _) in running.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_in_child(worker, task: MachineTask, write_fd: int) -> typing.NoReturn:
    """Run one task, write its pickled (ok, value, warnings) to ``write_fd`` and exit.

    Any exception, interrupts included, goes to the parent, which re-raises
    it. Warnings that pass the filters are recorded instead of printed, as
    (message, category, filename, lineno), for the parent to re-issue.
    ``os._exit`` skips the exit handlers and ``finally`` blocks, which
    belong to the parent.
    """
    code = 1
    try:
        with warnings.catch_warnings(record=True) as log:
            try:
                ok, value = True, worker(task)
            except BaseException as exc:
                ok, value = False, exc
        caught = [(str(w.message), w.category, w.filename, w.lineno) for w in log]
        try:
            payload = pickle.dumps((ok, value, caught))
        except Exception as exc:
            payload = pickle.dumps((False, RuntimeError(
                f"machine {task.machine!r}: cannot pickle the worker's {value!r} ({exc})"), []))
        with open(write_fd, "wb") as fh:
            fh.write(payload)
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    finally:
        os._exit(code)


def _child_outcome(machine: str, payload: bytes, code: int) -> tuple[bool, object, list]:
    """(ok, value, warnings) from a reaped child's exit code and pipe bytes."""
    if code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
        return False, RuntimeError(f"the worker for machine {machine!r} {how}"), []
    try:
        return pickle.loads(payload)
    except Exception as exc:
        return False, RuntimeError(
            f"machine {machine!r}: cannot unpickle the worker's outcome ({exc!r})"), []
