"""Command-line pipeline: train, monitor, and analyze machine fleets.

Subcommands mirror the two-stage protocol plus the analysis helpers:

  train       learn a baseline dictionary from healthy segments
  monitor     propagate (or freeze) a dictionary over a segment stream
  distance    print the distance in degrees between two dictionary files
  indicators  smooth history columns and compute fleet MAD scores
  roc         sweep an indicator against ground-truth labels
  synth       generate a synthetic fleet with an optional planted fault
  atom-info   print per-atom diagnostics of a dictionary file

Configuration comes from defaults, then an optional flat key=value config
file, then explicit flags, in increasing precedence. Every command that
writes an output directory drops an ``effective_config.txt`` there so
runs are replayable. Exit codes: 0 success, 2 configuration error,
3 data error, 4 numeric failure. Each command reports a bad flag as a
configuration error where it uses the flag, and a bad file as a data
error naming it; any other exception, a bug's ValueError included,
propagates with its traceback.

Each command imports the modules it runs inside its handler, so a stage
loads no coder, detector or generator that it does not use.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import ingest
from .defaults import (
    ALGORITHMS,
    DEFAULT_IMPULSE_PERIOD,
    DEFAULT_SAMPLE_RATE,
    DEFAULT_SLOPE_WINDOW,
)
from .errors import ConfigError, DataError, NumericError


@dataclass(frozen=True)
class RunConfig:
    """Pipeline parameters; defaults match the reference protocol."""

    algorithm: str = "mp"
    sparsity: float = 0.9
    eta: float = 1e-6
    atoms: int = 8
    core_len: int = 50
    pad: int = 10
    rms_gate: float = 0.5
    train_blocks: int = 5000
    block_len: int = 12800
    seed: int = 0
    input: str = ""
    output: str = ""

    def __post_init__(self):
        # algorithm, sparsity and eta are checked by the coder and learner
        # configs that fleet.coder_configs builds from them.
        if self.atoms < 1 or self.core_len < 1 or self.pad < 0:
            raise ConfigError("atoms and core_len must be >= 1, pad >= 0")
        if not (math.isfinite(self.rms_gate) and self.rms_gate >= 0):
            raise ConfigError(f"rms_gate must be finite and >= 0, got {self.rms_gate}")
        if self.train_blocks < 1 or self.block_len < 1:
            raise ConfigError("train_blocks and block_len must be >= 1")
        if self.block_len < 2:  # a block of one sample has no variance to standardize
            raise ConfigError("block_len must be >= 2")


# Field name -> annotated type, which also converts the config file's text.
_FIELD_TYPES = typing.get_type_hints(RunConfig)


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` config file into typed overrides."""
    overrides: dict = {}
    for lineno, key, raw in ingest.read_key_values(path, ConfigError):
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            overrides[key] = _FIELD_TYPES[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
    return overrides


def resolve_config(args) -> RunConfig:
    """Merge defaults, the optional config file, and explicit flags."""
    overrides: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        overrides.update(load_config_file(config_path))
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            overrides[key] = flag
    if getattr(args, "algo", None) is not None:
        overrides["algorithm"] = args.algo
    try:
        return replace(RunConfig(), **overrides)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def write_effective_config(cfg: RunConfig, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "effective_config.txt")
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in sorted(asdict(cfg).items()):
            fh.write(f"{key}={value}\n")


def _machine_dirs(path: str) -> list[tuple[str, str]]:
    """(machine, dir) pairs: one per subdirectory, else the path itself."""
    if not os.path.isdir(path):
        raise DataError(f"input path {path!r} is not a directory")
    subdirs = sorted(
        name for name in os.listdir(path) if os.path.isdir(os.path.join(path, name))
    )
    if subdirs:
        return [(name, os.path.join(path, name)) for name in subdirs]
    return [(os.path.basename(os.path.normpath(path)), path)]


def _check_jobs(jobs: int | None) -> None:
    if jobs is not None and jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")


def cmd_train(args) -> int:
    from . import fleet

    _check_jobs(args.jobs)
    cfg = resolve_config(args)
    if not cfg.input or not cfg.output:
        raise ConfigError("train requires --input and --output")
    if cfg.core_len + 2 * cfg.pad > cfg.block_len:
        raise ConfigError(
            f"seed atoms of core_len + 2 * pad = {cfg.core_len + 2 * cfg.pad} samples "
            f"do not fit in block_len={cfg.block_len}"
        )
    fleet.coder_configs(cfg)
    write_effective_config(cfg, cfg.output)
    machines = _machine_dirs(cfg.input)
    tasks = [fleet.MachineTask(machine, indir, cfg, args.format) for machine, indir in machines]
    results = fleet.run_per_machine(fleet.train_one, tasks, args.jobs)
    for (machine, _), (fidelity, growth_events) in zip(machines, results):
        print(
            f"{machine}: trained {cfg.atoms} atoms over {cfg.train_blocks} blocks, "
            f"final fidelity {fidelity:.2f} dB, "
            f"{growth_events} growth events"
        )
    return 0


def cmd_monitor(args) -> int:
    from . import fleet

    _check_jobs(args.jobs)
    cfg = resolve_config(args)
    if not cfg.input or not cfg.output:
        raise ConfigError("monitor requires --input and --output")
    if args.mode == "foreign" and not args.foreign:
        raise ConfigError("--mode foreign requires --foreign DICT")
    fleet.coder_configs(cfg)
    write_effective_config(cfg, cfg.output)
    machines = _machine_dirs(cfg.input)
    tasks = [
        fleet.MachineTask(machine, indir, cfg, args.format, args.baseline, args.mode,
                          args.foreign, args.dump_codes)
        for machine, indir in machines
    ]
    results = fleet.run_per_machine(fleet.monitor_one, tasks, args.jobs)
    for (machine, _), (count, last) in zip(machines, results):
        if last is not None:
            print(
                f"{machine}: {count} segments, "
                f"final fidelity {last.fidelity_db:.2f} dB, "
                f"final distance {last.distance_deg:.4f} deg"
            )
        else:
            print(f"{machine}: 0 segments passed the gate; empty history written")
    return 0


def cmd_distance(args) -> int:
    from . import dictionary, metrics

    a = dictionary.load_dictionary(args.dict_a)
    b = dictionary.load_dictionary(args.dict_b)
    print(f"{metrics.dictionary_distance(a, b):.6f}")
    return 0


def _history_files(history_dir: str) -> list[tuple[str, str]]:
    if not os.path.isdir(history_dir):
        raise DataError(f"history path {history_dir!r} is not a directory")
    out = []
    for name in sorted(os.listdir(history_dir)):
        if name.endswith("_history.csv"):
            out.append((name[: -len("_history.csv")], os.path.join(history_dir, name)))
        elif name == "history.csv":
            out.append(("machine", os.path.join(history_dir, name)))
    if not out:
        raise DataError(f"no *_history.csv files found under {history_dir}")
    return out


def cmd_indicators(args) -> int:
    from . import metrics

    try:
        metrics.check_time_constant(args.time_constant)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(args.output, exist_ok=True)
    smoothed: dict[str, metrics.IndicatorSeries] = {}
    for machine, path in _history_files(args.history):
        records = metrics.load_history_csv(path)
        if not records:
            raise DataError(f"{path}: empty history")
        times = np.array([r.timestamp for r in records])
        repeated = np.flatnonzero(np.diff(times) <= 0)
        if repeated.size:
            raise DataError(f"{path}: timestamps must be strictly increasing, got "
                            f"{times[repeated[0]]} then {times[repeated[0] + 1]}")
        settings = {"time_constant": args.time_constant}
        for column in ("fidelity_db", "distance_deg"):
            raw = np.array([getattr(r, column) for r in records])
            series = metrics.IndicatorSeries(
                column, times, metrics.lowpass(raw, args.time_constant)
            )
            metrics.save_indicator_csv(
                series,
                os.path.join(args.output, f"{machine}_{column}_smooth.csv"),
                machine=machine,
                comments=settings,
            )
            if column == "distance_deg":
                smoothed[machine] = series
    if len(smoothed) >= 2:
        try:
            scored = metrics.mad_series(smoothed)
        except ValueError as exc:
            raise DataError(str(exc)) from exc
        for machine, series in scored.items():
            metrics.save_indicator_csv(
                series,
                os.path.join(args.output, f"{machine}_distance_mad.csv"),
                machine=machine,
                comments={"time_constant": args.time_constant},
            )
    print(f"wrote indicators for {len(smoothed)} machines to {args.output}")
    return 0


def cmd_roc(args) -> int:
    from . import detect, metrics

    series_by_machine: dict[str, metrics.IndicatorSeries] = {}
    for path in args.indicators:
        series, meta = metrics.load_indicator_csv(path)
        machine = meta.get("machine") or os.path.splitext(os.path.basename(path))[0]
        series_by_machine[machine] = metrics.IndicatorSeries(
            machine, series.timestamps, series.values
        )
    windows = detect.load_labels_csv(args.labels)
    try:  # a series shorter than --slope-window, or too few series for min-diff
        if args.indicator == "slope":
            sloped = {}
            for m, s in series_by_machine.items():
                d = detect.slope_indicator(s, args.slope_window)
                sloped[m] = metrics.IndicatorSeries(m, d.timestamps, d.values)
            series_by_machine = sloped
        elif args.indicator == "min-diff":
            series_by_machine = detect.min_diff_series(list(series_by_machine.values()))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    curve = detect.roc_curve(detect.series_samples(series_by_machine), windows)
    detect.save_roc_csv(curve, args.output)
    print(f"auc={curve.auc:.6f}")
    return 0


def cmd_synth(args) -> int:
    from . import synth

    cfg = resolve_config(args)
    if not cfg.output:
        raise ConfigError("synth requires --output")
    if args.fault_machine >= args.machines:
        raise ConfigError(
            f"fault machine index {args.fault_machine} out of range for {args.machines} machines"
        )
    onset = args.start_time + args.fault_onset_segment * args.cadence
    try:  # synth reads no file, so a ValueError here comes from a flag
        specs = []
        for base in synth.default_fleet_specs(
            args.machines, args.fault_machine, onset, cfg.seed
        ):
            if base.fault is not None:
                fault = synth.FaultSpec(
                    onset, args.impulse_period, args.impulse_amp, args.impulse_decay
                )
                base = replace(base, fault=fault)
            specs.append(base)
        fleet, windows = synth.generate_fleet(
            specs, args.segments, args.segment_len, args.cadence, args.start_time
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    synth.write_fleet(fleet, windows, cfg.output, args.format)
    write_effective_config(cfg, cfg.output)
    print(
        f"wrote {args.machines} machines x {args.segments} segments "
        f"of {args.segment_len} samples to {cfg.output}"
    )
    return 0


def cmd_atom_info(args) -> int:
    from . import dictionary, metrics

    try:
        metrics.check_sample_rate(args.sample_rate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    d = dictionary.load_dictionary(args.dict)
    lines = [f"{args.dict}: {len(d.atoms)} atoms, generation {d.generation}"]
    for atom in d.atoms:
        norm = float(np.linalg.norm(atom.waveform))
        peak = metrics.peak_frequency(atom, args.sample_rate)
        centroid = metrics.center_frequency(atom, args.sample_rate)
        lines.append(
            f"atom {atom.id}: length {len(atom)}, norm {norm:.6f}, "
            f"peak {peak:.1f} Hz, centroid {centroid:.1f} Hz"
        )
    print("\n".join(lines))
    return 0


def _add_config_flags(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--seed", type=int, default=None, help="run seed")


def _add_common_flags(sub):
    """Flags of the commands that code segments: train and monitor."""
    _add_config_flags(sub)
    sub.add_argument("--algo", choices=ALGORITHMS, default=None, help="coder")
    sub.add_argument("--eta", type=float, default=None, help="learning rate")
    sub.add_argument("--sparsity", type=float, default=None, help="target sparsity in [0,1)")
    sub.add_argument("--rms-gate", dest="rms_gate", type=float, default=None,
                     help="segment RMS gate in G")
    sub.add_argument("--input", default=None, help="segment directory")
    sub.add_argument("--output", default=None, help="output directory")
    sub.add_argument("--format", choices=sorted(ingest.FORMATS), default="csv",
                     help="segment file format")
    sub.add_argument("--jobs", type=int, default=None,
                     help="worker processes, each running whole machines "
                          "(default: one per usable CPU, at most one per "
                          "machine; 1: run in this process)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibdict",
        description="Shift-invariant dictionary learning for vibration condition monitoring.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="learn a baseline dictionary per machine")
    _add_common_flags(p)
    p.add_argument("--atoms", type=int, default=None)
    p.add_argument("--core-len", dest="core_len", type=int, default=None)
    p.add_argument("--pad", type=int, default=None)
    p.add_argument("--train-blocks", dest="train_blocks", type=int, default=None)
    p.add_argument("--block-len", dest="block_len", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("monitor", help="run monitoring over a segment stream")
    _add_common_flags(p)
    p.add_argument("--baseline", required=True,
                   help="baseline dictionary file, or directory of <machine>.vdct files")
    p.add_argument("--mode", choices=("propagate", "frozen", "foreign"), default="propagate")
    p.add_argument("--foreign", default=None,
                   help="foreign dictionary file used for coding in foreign mode")
    p.add_argument("--atoms", type=int, default=None)
    p.add_argument("--dump-codes", dest="dump_codes", action="store_true",
                   help="export one sparse-code CSV per segment")
    p.set_defaults(func=cmd_monitor)

    p = subs.add_parser("distance", help="distance in degrees between two dictionaries")
    p.add_argument("dict_a")
    p.add_argument("dict_b")
    p.set_defaults(func=cmd_distance)

    p = subs.add_parser("indicators", help="smooth histories and compute fleet MAD scores")
    p.add_argument("--history", required=True, help="directory of *_history.csv files")
    p.add_argument("--output", required=True)
    p.add_argument("--time-constant", dest="time_constant", type=float, default=30.0,
                   help="lowpass time constant in segments")
    p.set_defaults(func=cmd_indicators)

    p = subs.add_parser("roc", help="ROC curve of an indicator vs ground-truth labels")
    p.add_argument("--indicators", nargs="+", required=True,
                   help="per-machine indicator CSVs")
    p.add_argument("--labels", required=True, help="labels CSV")
    p.add_argument("--output", required=True, help="ROC CSV path")
    p.add_argument("--indicator", choices=("value", "slope", "min-diff"), default="value",
                   help="detector applied to the loaded series")
    p.add_argument("--slope-window", dest="slope_window", type=int,
                   default=DEFAULT_SLOPE_WINDOW)
    p.set_defaults(func=cmd_roc)

    p = subs.add_parser("synth", help="generate a synthetic fleet with ground-truth labels")
    _add_config_flags(p)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=sorted(ingest.FORMATS), default="csv")
    p.add_argument("--machines", type=int, default=6)
    p.add_argument("--segments", type=int, default=300)
    p.add_argument("--segment-len", dest="segment_len", type=int, default=16384)
    p.add_argument("--cadence", type=int, default=43200, help="seconds between segments")
    p.add_argument("--start-time", dest="start_time", type=int, default=0)
    p.add_argument("--fault-machine", dest="fault_machine", type=int, default=0,
                   help="index of the faulted machine, -1 for none")
    p.add_argument("--fault-onset-segment", dest="fault_onset_segment", type=int, default=150)
    p.add_argument("--impulse-period", dest="impulse_period", type=int,
                   default=DEFAULT_IMPULSE_PERIOD)
    p.add_argument("--impulse-amp", dest="impulse_amp", type=float, default=10.0)
    p.add_argument("--impulse-decay", dest="impulse_decay", type=float, default=0.8)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("atom-info", help="print per-atom diagnostics")
    p.add_argument("dict")
    p.add_argument("--sample-rate", dest="sample_rate", type=float,
                   default=DEFAULT_SAMPLE_RATE)
    p.set_defaults(func=cmd_atom_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


# The modules each command imports where it runs them; entry() imports
# them up front, so that gc.freeze() covers them.
COMMAND_MODULES = {
    "train": ("fleet",),
    "monitor": ("fleet",),
    "distance": ("dictionary", "metrics"),
    "indicators": ("metrics",),
    "roc": ("detect", "metrics"),
    "synth": ("synth",),
    "atom-info": ("dictionary", "metrics"),
}


def entry() -> int:
    """Process entry of ``python -m vibdict.cli`` and the ``vibdict`` script.

    It imports the modules of the command named by the first argument
    (the top-level parser takes no other), then calls ``gc.freeze()``.
    The freeze moves every object alive after those imports, most of them
    numpy's, out of the collector's reach, so neither the collections of
    a run nor the ones at interpreter exit walk them again; worker
    processes forked later inherit that. Exit handlers still run and
    files are still flushed and closed.
    """
    for name in COMMAND_MODULES.get(sys.argv[1] if len(sys.argv) > 1 else "", ()):
        importlib.import_module(f".{name}", __package__)
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
