"""Command-line pipeline: train, monitor, and analyze machine fleets.

Subcommands mirror the two-stage protocol plus the analysis helpers:

  train       learn a baseline dictionary from healthy segments
  monitor     propagate (or freeze) a dictionary over a segment stream
  distance    print the distance in degrees between two dictionary files
  indicators  smooth history columns and compute fleet MAD scores
  roc         sweep an indicator against ground-truth labels
  synth       generate a synthetic fleet with an optional planted fault
  atom-info   print per-atom diagnostics of a dictionary file

Each setting is a flag of the commands that read it. ``train``, ``monitor``
and ``synth`` also take ``--config FILE`` of ``key = value`` lines, keyed
by the command's flags in snake case (``--algo`` is ``algorithm``), which
flags on the command line override. Each writes its resolved flags to
``effective_config.txt`` in its output directory, and
``vibdict <command> --config <out>/effective_config.txt`` replays the run.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure. Each command reports a bad flag as a configuration error where
it uses the flag, and a bad file as a data error naming it; any other
exception, a bug's ValueError included, propagates with its traceback.

Each command imports the modules it runs inside its handler, so a stage
loads no coder, detector or generator that it does not use.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import sys
from dataclasses import replace

import numpy as np

from . import ingest
from .defaults import (
    ALGORITHMS,
    DEFAULT_IMPULSE_PERIOD,
    DEFAULT_SAMPLE_RATE,
    DEFAULT_SLOPE_WINDOW,
)
from .errors import ConfigError, DataError, NumericError


class _ConfigFile(argparse.Action):
    """``--config FILE``: the file's ``key = value`` lines become defaults of this command.

    A key is the ``dest`` of one of the command's flags. Its value is
    converted with that flag's type and must be one of its choices, if it
    has any; a boolean flag takes ``True`` or ``False``. ``main`` parses
    the command line again once the file is applied, so a flag given
    there still wins.
    """

    def __call__(self, parser, namespace, path, option_string=None):
        flags = {a.dest: a for a in parser._actions if a.dest not in ("help", self.dest)}
        values = {}
        for lineno, key, raw in ingest.read_key_values(path, ConfigError):
            flag = flags.get(key)
            if flag is None:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                if flag.nargs == 0:  # a boolean flag such as --dump-codes
                    values[key] = {"True": True, "False": False}[raw]
                else:
                    values[key] = (flag.type or str)(raw)
            except (KeyError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
            if flag.choices is not None and values[key] not in flag.choices:
                raise ConfigError(f"{key} must be one of {tuple(flag.choices)}, got {raw!r}")
        parser.set_defaults(**values)
        setattr(namespace, self.dest, path)


def write_effective_config(args, outdir: str) -> None:
    """Record the command's resolved flags, which ``--config`` reads back."""
    os.makedirs(outdir, exist_ok=True)
    settings = [(key, value) for key, value in sorted(vars(args).items())
                if key not in ("func", "command", "config") and value is not None]
    try:  # a path flag holding a line break
        ingest.write_key_values(os.path.join(outdir, "effective_config.txt"), settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    if args.atoms < 1 or args.core_len < 1 or args.pad < 0:
        raise ConfigError("atoms and core_len must be >= 1, pad >= 0")
    if args.train_blocks < 1:
        raise ConfigError("train_blocks must be >= 1")
    if args.block_len < 2:  # a block of one sample has no variance to standardize
        raise ConfigError("block_len must be >= 2")
    if not args.input or not args.output:
        raise ConfigError("train requires --input and --output")
    if args.core_len + 2 * args.pad > args.block_len:
        raise ConfigError(
            f"seed atoms of core_len + 2 * pad = {args.core_len + 2 * args.pad} samples "
            f"do not fit in block_len={args.block_len}"
        )
    fleet.coder_configs(args)
    write_effective_config(args, args.output)
    machines = _machine_dirs(args.input)
    tasks = [fleet.MachineTask(machine, indir, args) for machine, indir in machines]
    results = fleet.run_per_machine(fleet.train_one, tasks, args.jobs)
    for (machine, _), (fidelity, growth_events) in zip(machines, results):
        print(
            f"{machine}: trained {args.atoms} atoms over {args.train_blocks} blocks, "
            f"final fidelity {fidelity:.2f} dB, "
            f"{growth_events} growth events"
        )
    return 0


def cmd_monitor(args) -> int:
    from . import fleet

    _check_jobs(args.jobs)
    if args.atoms < 1:
        raise ConfigError("atoms must be >= 1")
    if not args.input or not args.output or not args.baseline:
        raise ConfigError("monitor requires --input, --output and --baseline")
    if args.mode == "foreign" and not args.foreign:
        raise ConfigError("--mode foreign requires --foreign DICT")
    fleet.coder_configs(args)
    write_effective_config(args, args.output)
    machines = _machine_dirs(args.input)
    tasks = [fleet.MachineTask(machine, indir, args) for machine, indir in machines]
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
    if not out:
        raise DataError(f"no *_history.csv files found under {history_dir}")
    return out


def cmd_indicators(args) -> int:
    from . import metrics

    try:
        metrics.check_time_constant(args.time_constant)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # Every history is loaded and checked before any file is written.
    smoothed: dict[str, dict] = {}  # machine -> {column: lowpassed series}
    first = None  # (path, timestamps) of the first history
    for machine, path in _history_files(args.history):
        records = metrics.load_history_csv(path)
        if not records:
            raise DataError(f"{path}: empty history")
        times = np.array([r.timestamp for r in records])
        columns = {}
        for column in ("fidelity_db", "distance_deg"):
            raw = np.array([getattr(r, column) for r in records])
            try:
                columns[column] = metrics.IndicatorSeries(
                    column, times, metrics.lowpass(raw, args.time_constant)
                )
            except ValueError as exc:  # timestamps that do not strictly increase
                raise DataError(f"{path}: {exc}") from exc
        if first is None:
            first = (path, times)
        elif not np.array_equal(times, first[1]):
            raise DataError(f"{path}: timestamps are not aligned with {first[0]}")
        smoothed[machine] = columns
    os.makedirs(args.output, exist_ok=True)
    settings = {"time_constant": args.time_constant}
    for machine, columns in smoothed.items():
        for column, series in columns.items():
            metrics.save_indicator_csv(
                series,
                os.path.join(args.output, f"{machine}_{column}_smooth.csv"),
                machine=machine,
                comments=settings,
            )
    if len(smoothed) >= 2:
        scored = metrics.mad_series({m: c["distance_deg"] for m, c in smoothed.items()})
        for machine, series in scored.items():
            metrics.save_indicator_csv(
                series,
                os.path.join(args.output, f"{machine}_distance_mad.csv"),
                machine=machine,
                comments=settings,
            )
    print(f"wrote indicators for {len(smoothed)} machines to {args.output}")
    return 0


def cmd_roc(args) -> int:
    from . import detect, metrics

    # Each series is named by its file, so a message about it names the file.
    series_by_machine: dict[str, metrics.IndicatorSeries] = {}
    for path in args.indicators:
        series, meta = metrics.load_indicator_csv(path)
        machine = meta.get("machine") or os.path.splitext(os.path.basename(path))[0]
        if machine in series_by_machine:
            raise DataError(f"{path}: machine {machine!r} also comes from "
                            f"{series_by_machine[machine].name}; roc takes one file per machine")
        series_by_machine[machine] = metrics.IndicatorSeries(
            path, series.timestamps, series.values
        )
    windows = detect.load_labels_csv(args.labels)
    if args.indicator == "slope":
        try:
            detect.check_slope_window(args.slope_window)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for m, s in series_by_machine.items():
            try:
                series_by_machine[m] = detect.slope_indicator(s, args.slope_window)
            except ValueError as exc:  # the series is shorter than the window
                raise ConfigError(f"{s.name}: {exc} (--slope-window)") from exc
    elif args.indicator == "min-diff":
        try:  # too few series, or two that are not aligned
            by_path = detect.min_diff_series(list(series_by_machine.values()))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        series_by_machine = {m: by_path[s.name] for m, s in series_by_machine.items()}
    curve = detect.roc_curve(detect.series_samples(series_by_machine), windows)
    detect.save_roc_csv(curve, args.output)
    print(f"auc={curve.auc:.6f}")
    return 0


def cmd_synth(args) -> int:
    from . import synth

    if not args.output:
        raise ConfigError("synth requires --output")
    if args.fault_machine < -1:
        raise ConfigError(f"--fault-machine must be >= -1 (-1 for none), got {args.fault_machine}")
    if args.fault_machine >= args.machines:
        raise ConfigError(
            f"fault machine index {args.fault_machine} out of range for {args.machines} machines"
        )
    onset = args.start_time + args.fault_onset_segment * args.cadence
    try:  # synth reads no file, so a ValueError here comes from a flag
        specs = []
        for base in synth.default_fleet_specs(
            args.machines, args.fault_machine, onset, args.seed
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
    write_effective_config(args, args.output)
    synth.write_fleet(fleet, windows, args.output, args.format)
    print(
        f"wrote {args.machines} machines x {args.segments} segments "
        f"of {args.segment_len} samples to {args.output}"
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


def _add_common_flags(sub):
    """Flags of the commands that code segments: train and monitor."""
    sub.add_argument("--config", action=_ConfigFile, help="flat key=value config file")
    sub.add_argument("--algo", dest="algorithm", choices=ALGORITHMS, default="mp", help="coder")
    sub.add_argument("--eta", type=float, default=1e-6, help="learning rate")
    sub.add_argument("--sparsity", type=float, default=0.9, help="target sparsity in [0,1)")
    sub.add_argument("--rms-gate", dest="rms_gate", type=float, default=0.5,
                     help="segment RMS gate in G")
    sub.add_argument("--input", help="segment directory")
    sub.add_argument("--output", help="output directory")
    sub.add_argument("--format", choices=sorted(ingest.FORMATS), default="csv",
                     help="segment file format")
    sub.add_argument("--jobs", type=int, default=None,
                     help="worker processes, each running whole machines "
                          "(default: one per usable CPU, at most one per "
                          "machine; 1: run in this process)")
    sub.add_argument("--atoms", type=int, default=8)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vibdict",
        description="Shift-invariant dictionary learning for vibration condition monitoring.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="learn a baseline dictionary per machine")
    _add_common_flags(p)
    p.add_argument("--core-len", dest="core_len", type=int, default=50)
    p.add_argument("--pad", type=int, default=10)
    p.add_argument("--train-blocks", dest="train_blocks", type=int, default=5000)
    p.add_argument("--block-len", dest="block_len", type=int, default=12800)
    p.add_argument("--seed", type=int, default=0, help="run seed")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("monitor", help="run monitoring over a segment stream")
    _add_common_flags(p)
    p.add_argument("--baseline",
                   help="baseline dictionary file, or directory of <machine>.vdct files")
    p.add_argument("--mode", choices=("propagate", "frozen", "foreign"), default="propagate")
    p.add_argument("--foreign", default=None,
                   help="foreign dictionary file used for coding in foreign mode")
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
    p.add_argument("--config", action=_ConfigFile, help="flat key=value config file")
    p.add_argument("--seed", type=int, default=0, help="run seed")
    p.add_argument("--output")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = parser.parse_args(argv)  # again, over the defaults the file set
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
