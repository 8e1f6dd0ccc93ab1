"""Timing wrappers swapped into vibdict's module namespaces from outside.

Nothing under ``src/`` is edited. :func:`install` replaces a function in
the namespace its callers look the name up in (for example
``vibdict.learning.encode``, which ``train_baseline`` and ``monitor_step``
call) with a wrapper that records a span around the call. Spans nest per
thread, so a span's self time excludes the time of its child spans.

Counts are derived from arguments and return values at the same
boundaries: picks, computed correlation MACs, growth events, gated-out
segments, retained monitor snapshots, ROC samples and thresholds.

Spans and counts stay in memory and are written out once, by
:meth:`Tracer.dump`, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import Counter

import numpy as np


def mp_corr_macs(n: int, lengths, picks) -> int:
    """Correlation multiply-accumulates of MP with windowed updates (computed).

    ``lengths`` are the atom lengths by dictionary position; ``picks`` is
    a sequence of (position, offset) selections in order. The count is
    the initial full correlation of every atom, sum_m (n - L_m + 1) L_m,
    plus, for each pick of an atom of length L_w at offset tau, the
    recomputed window of every atom o: (hi - lo + 1) L_o outputs times
    taps with lo = max(0, tau - L_o + 1) and hi = min(n - L_o, tau + L_w - 1).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(np.sum((n - lengths + 1) * lengths))
    if len(picks) == 0:
        return total
    pos = np.array([p for p, _ in picks], dtype=np.int64)
    tau = np.array([t for _, t in picks], dtype=np.int64)[:, None]
    lw = lengths[pos][:, None]
    lo = np.maximum(0, tau - lengths[None, :] + 1)
    hi = np.minimum(n - lengths[None, :], tau + lw - 1)
    width = np.maximum(hi - lo + 1, 0)
    return total + int(np.sum(width * lengths[None, :]))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Per-thread span stacks plus shared counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_lists: list[list] = []
        self.counts: Counter = Counter()
        self._retained: dict[int, int] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.spans = []
            with self._lock:
                self._span_lists.append(self._local.spans)
        return stack

    def add(self, name: str, value) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, name: str, fn, count=None, before=None):
        """Wrap ``fn`` in a span called ``name``.

        ``before(args, kwargs)`` may replace the arguments (outside the
        span); ``count(tracer, args, kwargs, result)`` derives counters
        from the call after the span has closed.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = self._stack()
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self._local.spans.append((name, parent, start, duration, duration - frame[1]))
            if count is not None:
                count(self, args, kwargs, return_value)
            return return_value

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span and counter as one JSON document."""
        with self._lock:
            spans = [span for spans in self._span_lists for span in spans]
            counts = dict(self.counts)
        counts["learning.monitor_state.retained_dicts"] = sum(self._retained.values())
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": counts, "spans": spans}, fh)


# --- counters derived from arguments and return values -----------------------


def _count_load(tracer, args, kwargs, segments):
    path = _arg(args, kwargs, 0, "path")
    fmt = args[1] if len(args) > 1 else kwargs.get("format", "csv")
    if os.path.isdir(path):
        names = os.listdir(path)
        if fmt == "csv":
            names = [n for n in names if n.endswith(".csv")]
        else:
            names = [n for n in names if not n.endswith(".csv")]
        size = sum(os.path.getsize(os.path.join(path, n)) for n in names)
    else:
        size = os.path.getsize(path)
    tracer.add("ingest.load_segments.files", len(segments))
    tracer.add("ingest.load_segments.bytes", size)


def _count_gate(tracer, args, kwargs, kept):
    tracer.add("ingest.gate_by_rms.dropped", len(_arg(args, kwargs, 0, "segments")) - len(kept))


def _picks(code, dictionary):
    position = {atom.id: pos for pos, atom in enumerate(dictionary.atoms)}
    return [(position[inst.atom_id], inst.offset) for inst in code.instances]


def _count_mp(tracer, args, kwargs, code):
    segment = _arg(args, kwargs, 0, "segment")
    dictionary = _arg(args, kwargs, 1, "dictionary")
    lengths = [len(atom) for atom in dictionary.atoms]
    macs = mp_corr_macs(len(segment), lengths, _picks(code, dictionary))
    tracer.add("coding.mp.picks", len(code.instances))
    tracer.add("coding.mp.exhausted", int(code.exhausted))
    tracer.add("coding.mp.corr_macs", macs)


def _count_omp(tracer, args, kwargs, code):
    tracer.add("coding.omp.picks", len(code.instances))
    tracer.add("coding.omp.exhausted", int(code.exhausted))


def _count_growth(tracer, args, kwargs, updated):
    before = {atom.id: len(atom) for atom in _arg(args, kwargs, 0, "dictionary").atoms}
    grown = sum(1 for atom in updated.atoms if len(atom) != before.get(atom.id, len(atom)))
    tracer.add("learning.growth_events", grown)


def _count_monitor(tracer, args, kwargs, result):
    state = result[0]
    retained = len(getattr(state, "snapshots", ()))
    key = id(state.baseline)
    with tracer._lock:
        tracer._retained[key] = max(tracer._retained.get(key, 0), retained)


def _materialize_samples(args, kwargs):
    if args:
        return (list(args[0]),) + tuple(args[1:]), kwargs
    kwargs = dict(kwargs)
    kwargs["samples"] = list(kwargs["samples"])
    return args, kwargs


def _count_roc(tracer, args, kwargs, curve):
    tracer.add("detect.roc_curve.samples", len(_arg(args, kwargs, 0, "samples")))
    tracer.add("detect.roc_curve.thresholds", len(curve.points))


def _count_dict_save(tracer, args, kwargs, _):
    dictionary = _arg(args, kwargs, 0, "dictionary")
    tracer.add("dictionary.atoms_saved", len(dictionary.atoms))
    tracer.add("dictionary.atom_len_sum", sum(len(atom) for atom in dictionary.atoms))


# (module, attribute, span name, count, before). The attribute is replaced
# in the module its callers resolve it from. Names that a later version
# of the program no longer defines are skipped, and their layers read 0.
TARGETS = (
    ("vibdict.ingest", "load_segments", "ingest.load_segments", _count_load, None),
    ("vibdict.ingest", "gate_by_rms", "ingest.gate_by_rms", _count_gate, None),
    ("vibdict.ingest", "preprocess", "ingest.preprocess", None, None),
    ("vibdict.ingest", "sample_blocks", "ingest.sample_blocks", None, None),
    ("vibdict.learning", "encode", "coding.encode", None, None),
    ("vibdict.coding", "mp_encode", "coding.mp", _count_mp, None),
    ("vibdict.coding", "omp_encode", "coding.omp", _count_omp, None),
    ("vibdict.coding", "_argmax_correlation", "coding.argmax", None, None),
    ("vibdict.coding", "_solve_gram", "coding.omp.gram_solve", None, None),
    ("vibdict.learning", "train_baseline", "learning.train_baseline", None, None),
    ("vibdict.learning", "gradient_update", "learning.gradient_update", _count_growth, None),
    ("vibdict.learning", "monitor_step", "learning.monitor_step", _count_monitor, None),
    ("vibdict.learning", "fidelity_db", "metrics.fidelity_db", None, None),
    ("vibdict.learning", "dictionary_distance", "metrics.dictionary_distance", None, None),
    ("vibdict.learning", "save_history_csv", "learning.history_io", None, None),
    ("vibdict.learning", "load_history_csv", "learning.history_io", None, None),
    ("vibdict.metrics", "lowpass", "metrics.lowpass", None, None),
    ("vibdict.metrics", "mad_series", "metrics.mad_series", None, None),
    ("vibdict.metrics", "save_indicator_csv", "metrics.indicator_io", None, None),
    ("vibdict.metrics", "load_indicator_csv", "metrics.indicator_io", None, None),
    ("vibdict.detect", "slope_indicator", "detect.slope_indicator", None, None),
    ("vibdict.detect", "min_diff_series", "detect.min_diff_series", None, None),
    ("vibdict.detect", "roc_curve", "detect.roc_curve", _count_roc, _materialize_samples),
    ("vibdict.dictionary", "save_dictionary", "dictionary.io", _count_dict_save, None),
    ("vibdict.dictionary", "load_dictionary", "dictionary.io", None, None),
)


def install(tracer: Tracer) -> list[tuple]:
    """Swap wrappers into the target namespaces; return what to restore."""
    replaced = []
    for module_name, attr, span, count, before in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            continue
        setattr(module, attr, tracer.wrap(span, original, count, before))
        replaced.append((module, attr, original))
    return replaced


def uninstall(replaced: list[tuple]) -> None:
    for module, attr, original in reversed(replaced):
        setattr(module, attr, original)
