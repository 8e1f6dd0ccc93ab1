"""Loading, gating, and preprocessing of vibration signal segments.

A segment is a fixed-rate sample vector with a timestamp (integer seconds
since epoch) and a machine identifier. Two on-disk formats are supported:

* CSV: one file per segment. The first line carries the metadata values
  named by :data:`SEGMENT_HEADER`; every following line holds one sample
  as a decimal float.
* Raw binary: one file per segment of little-endian IEEE-754 float32 or
  float64 samples, with a sidecar ``<name>.meta`` text file holding the
  same three fields as ``key=value`` lines.

Root-mean-square gating operates on raw amplitudes in physical units (G);
standardization to zero mean and unit variance happens afterwards.

Every text file of the toolkit (segment CSVs, histories, labels,
indicators, ROC curves, sparse codes, training logs, ``.meta`` sidecars
and run configs) is written by :func:`write_table` or
:func:`write_key_values`, and read through :func:`_text_lines`, which
splits it into lines at ``\\n`` and ``\\r`` and strips each line. The
readers (:func:`read_table`, :func:`read_key_values` and the segment CSV's)
skip blank lines and take ``#`` lines for comments, split rows at ``,``, and
strip each segment-header field, key and value. A writer refuses every
value that this would change (:func:`_check_text`) before it makes the
file's directory or opens the file, so a refused value leaves nothing behind.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DataError

RAW_DTYPES = {"raw_f32le": "<f4", "raw_f64le": "<f8"}
# The metadata fields of a segment: its CSV's first line, its sidecar's keys.
SEGMENT_HEADER = "timestamp,sample_rate,source_id"
FORMATS = ("csv",) + tuple(RAW_DTYPES)
# Text in which no reader finds whitespace to strip, a comment or a '\r'.
_PLAIN = re.compile(r"[-+.,0-9A-Za-z_\n]*")
_SURROGATE = re.compile("[\ud800-\udfff]")  # all the str characters UTF-8 cannot encode


@dataclass(frozen=True, eq=False)
class SignalSegment:
    """Timestamped fixed-rate sample vector.

    ``samples`` are acceleration values in G for raw field data, or
    dimensionless after :func:`preprocess`. A NaN or infinite sample
    raises DataError naming its index, source and timestamp.
    """

    samples: np.ndarray
    sample_rate: float
    timestamp: int
    source_id: str

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a nonempty 1-D vector")
        if not (self.sample_rate > 0 and math.isfinite(self.sample_rate)):
            raise ValueError("sample_rate must be positive and finite")
        if not self.source_id:
            raise ValueError("source_id must be nonempty")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "timestamp", int(self.timestamp))
        bad = np.flatnonzero(~np.isfinite(samples))
        if bad.size:
            raise DataError(
                f"non-finite sample {samples[bad[0]]} at index {bad[0]} "
                f"(source {self.source_id}, t={self.timestamp})"
            )

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class SegmentGate:
    """RMS inclusion gate; segments at or below the threshold are dropped."""

    rms_gate: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.rms_gate) and self.rms_gate >= 0):
            raise ValueError(f"rms_gate must be finite and >= 0, got {self.rms_gate}")


def rms(samples: np.ndarray) -> float:
    """Root mean square of a sample vector."""
    x = np.asarray(samples, dtype=np.float64)
    return float(np.sqrt(np.mean(x * x)))


def _read_csv_segment(path: str) -> SignalSegment:
    lines = _text_lines(path, DataError)
    if not (lines and lines[0]):
        raise DataError(f"{path}: empty file, expected metadata header")
    fields = [f.strip() for f in lines[0].split(",")]
    if len(fields) != 3:
        raise DataError(f"{path}: header must be {SEGMENT_HEADER!r}, got {len(fields)} field(s)")
    timestamp, sample_rate, source_id = _segment_fields(path, *fields)

    samples = []
    for lineno, text in enumerate(lines[1:], start=2):
        if text:
            try:
                samples.append(float(text))
            except ValueError:
                raise DataError(f"{path}: malformed sample at line {lineno}: {text!r}") from None
    if not samples:
        raise DataError(f"{path}: no samples after header")
    try:
        return SignalSegment(np.array(samples), sample_rate, timestamp, source_id)
    except DataError:  # a non-finite sample: name its line
        lineno, text = next((lineno, text) for lineno, text in enumerate(lines[1:], start=2)
                            if text and not math.isfinite(float(text)))
        raise DataError(f"{path}: non-finite sample {float(text)} at line {lineno} "
                        f"(source {source_id}, t={timestamp})") from None


def _segment_fields(path: str, timestamp: str, sample_rate: str, source_id: str):
    """A segment's (timestamp, sample rate, source id) parsed from header text.

    A missing or bad field raises a DataError naming the file and the field.
    """
    try:
        stamp = int(timestamp)
    except ValueError:
        raise DataError(f"{path}: timestamp missing or not an integer: {timestamp!r}") from None
    try:
        rate = float(sample_rate)
    except ValueError:
        raise DataError(f"{path}: sample_rate missing or not a number: {sample_rate!r}") from None
    if not (rate > 0 and math.isfinite(rate)):
        raise DataError(f"{path}: sample_rate must be positive and finite, got {sample_rate!r}")
    if not source_id:
        raise DataError(f"{path}: source_id missing")
    return stamp, rate, source_id


def _text_lines(path: str, error: type[Exception]) -> list[str]:
    """The stripped lines of a UTF-8 text file; an unreadable one raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def read_key_values(path: str, error: type[Exception]) -> list[tuple[int, str, str]]:
    """(line number, key, value) of each ``key=value`` line of a text file.

    Blank and ``#`` lines are skipped. An unreadable file or a line
    without ``=`` raises ``error`` with a message naming the file.
    """
    entries = []
    for lineno, text in enumerate(_text_lines(path, error), start=1):
        if not text or text.startswith("#"):
            continue
        key, eq, value = text.partition("=")
        if not eq:
            raise error(f"{path}:{lineno}: expected key=value, got {text!r}")
        entries.append((lineno, key.strip(), value.strip()))
    return entries


def read_table(path: str, header: str, parse) -> tuple[list, dict]:
    """Rows and ``# key=value`` metadata of a comma-separated text table.

    The first line that is neither blank nor a ``#`` comment must equal
    ``header``. Every later row must have as many fields as the header
    and becomes ``parse(*fields)``. Errors are DataErrors naming the file,
    and the line for a bad row or a ValueError from ``parse``.
    """
    rows, meta, width = [], {}, 0
    for lineno, text in enumerate(_text_lines(path, DataError), start=1):
        if text.startswith("#"):
            key, eq, value = text[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        elif text and not width:
            if text != header:
                raise DataError(f"{path}:{lineno}: expected header {header!r}, got {text!r}")
            width = header.count(",") + 1
        elif text:
            fields = text.split(",")
            if len(fields) != width:
                raise DataError(f"{path}:{lineno}: expected {width} fields, got {len(fields)}")
            try:
                rows.append(parse(*fields))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    if not width:
        raise DataError(f"{path}: missing header {header!r}")
    return rows, meta


def _check_text(path: str, name, value, separators: str = "", stripped: bool = True,
                starts: bool = False, ends: bool = False) -> None:
    """Raise ValueError unless the readers give ``str(value)`` back unchanged.

    ``separators`` split the value's line. A reader strips the value if it
    is ``stripped``, and the ends of the line, which it ``starts`` or ``ends``.
    """
    text = str(value)
    held = [sep for sep in separators + "\n\r" if sep in text]
    if held:
        reason = f"it holds {held[0]!r}"
    elif _SURROGATE.search(text):
        reason = "UTF-8 cannot encode it"
    elif ((stripped or starts) and text != text.lstrip()
            or (stripped or ends) and text != text.rstrip()):
        reason = "it starts or ends with whitespace"
    elif starts and text.startswith("#"):
        reason = "it starts with '#'"
    elif starts and ends and not text:
        reason = "it would be a blank line"
    else:
        return
    raise ValueError(f"cannot write {name}={value!r} to {path}: {reason}")


def write_table(path: str, header: str, rows, comments=(), footer=()) -> None:
    """Write a comma-separated text table that :func:`read_table` reads back.

    ``comments`` and ``footer`` are (key, value) pairs, written as
    ``# key=value`` lines before the header and after the rows. Every
    field is written as ``str`` writes it, so pass Python ints, floats and
    strings: a float is then written as its shortest round-trip ``repr``.
    A value that would not read back as written (see :func:`_check_text`)
    raises ValueError before the file's directory is made or the file opened.
    """
    comments, footer, rows = list(comments), list(footer), list(rows)
    for key, value in comments + footer:
        _check_text(path, "key", key, "=")
        _check_text(path, key, value)
    body = "".join([",".join(map(str, row)) + "\n" for row in rows])
    # Plain text with a comma between fields and a line break after rows only,
    # and no blank line, reads back as written; anything else is checked.
    if not (_PLAIN.fullmatch(body) and body.count("\n") == len(rows)
            and body.count(",") == sum(map(len, rows)) - len(rows)
            and not body.startswith("\n") and "\n\n" not in body):
        names = header.split(",")
        for row in rows:
            for i, (name, value) in enumerate(zip(names, row)):
                _check_text(path, name, value, ",", stripped=False, starts=i == 0,
                            ends=i == len(row) - 1)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {key}={value}\n" for key, value in comments)
        fh.write(f"{header}\n")
        fh.write(body)
        fh.writelines(f"# {key}={value}\n" for key, value in footer)


def write_key_values(path: str, items) -> None:
    """Write (key, value) pairs as ``key=value`` lines, refusing as :func:`write_table` does."""
    items = list(items)
    for key, value in items:
        _check_text(path, "key", key, "=", starts=True)
        _check_text(path, key, value)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key}={value}\n" for key, value in items)


def _read_raw_segment(path: str, format: str) -> SignalSegment:
    meta_path = path + ".meta"
    if not os.path.exists(meta_path):
        raise DataError(f"{path}: missing sidecar metadata file {meta_path}")
    meta = {key: value for _, key, value in read_key_values(meta_path, DataError)}
    timestamp, sample_rate, source_id = _segment_fields(
        meta_path, *(meta.get(key, "") for key in SEGMENT_HEADER.split(","))
    )
    dtype = np.dtype(RAW_DTYPES[format])
    try:
        size = os.path.getsize(path)
        if size % dtype.itemsize:
            raise DataError(f"{path}: {size} bytes is not a whole number of "
                            f"{dtype.itemsize}-byte {format} samples")
        samples = np.fromfile(path, dtype=dtype)
    except OSError as exc:
        raise DataError(f"{path}: unreadable file: {exc}") from exc
    if samples.size == 0:
        raise DataError(f"{path}: no samples in file")
    try:
        return SignalSegment(samples.astype(np.float64), sample_rate, timestamp, source_id)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_segments(path: str, format: str = "csv") -> list[SignalSegment]:
    """Load all segments under ``path`` (a file or a directory of files).

    Returns segments in ascending timestamp order; ties are broken by
    filename lexicographic order. An empty directory yields an empty list.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    if not os.path.exists(path):
        raise DataError(f"{path}: no such file or directory")

    if os.path.isdir(path):
        names = sorted(os.listdir(path))
        if format == "csv":
            names = [n for n in names if n.endswith(".csv")]
        else:
            names = [n for n in names if not n.endswith(".meta") and not n.endswith(".csv")]
        files = [os.path.join(path, n) for n in names]
        files = [f for f in files if os.path.isfile(f)]
    else:
        files = [path]

    loaded = []
    for fpath in files:
        seg = (_read_csv_segment(fpath) if format == "csv"
               else _read_raw_segment(fpath, format))
        loaded.append((seg.timestamp, os.path.basename(fpath), seg))
    loaded.sort(key=lambda item: (item[0], item[1]))
    return [seg for _, _, seg in loaded]


def save_segment_csv(segment: SignalSegment, path: str) -> None:
    """Write one segment in the CSV format read by :func:`load_segments`."""
    header = (segment.timestamp, float(segment.sample_rate), segment.source_id)
    for name, value in zip(SEGMENT_HEADER.split(","), header):
        _check_text(path, name, value, ",")
    write_table(path, ",".join(map(str, header)), ((x,) for x in segment.samples.tolist()))


def save_segment_raw(segment: SignalSegment, path: str, format: str = "raw_f64le") -> None:
    """Write one segment as raw little-endian floats plus a ``.meta`` sidecar."""
    if format not in RAW_DTYPES:
        raise ValueError(f"unknown raw format {format!r}")
    header = (segment.timestamp, float(segment.sample_rate), segment.source_id)
    write_key_values(path + ".meta", zip(SEGMENT_HEADER.split(","), header))
    segment.samples.astype(RAW_DTYPES[format]).tofile(path)


def gate_by_rms(segments: list[SignalSegment], gate: SegmentGate) -> list[SignalSegment]:
    """Keep segments whose raw-amplitude RMS is strictly above the threshold.

    Idempotent; preserves input order. Apply before :func:`preprocess`,
    since the threshold is physical (G). Segments hold finite samples
    only, so no NaN can fail the comparison and drop a segment unseen.
    """
    return [seg for seg in segments if rms(seg.samples) > gate.rms_gate]


def preprocess(segment: SignalSegment) -> SignalSegment:
    """Standardize a segment to zero mean and unit population variance.

    Raises DataError for a zero-variance segment.
    """
    x = segment.samples
    mean = x.mean()
    var = x.var()
    if var == 0.0:
        raise DataError(
            f"zero-variance segment (source {segment.source_id}, t={segment.timestamp})"
        )
    return SignalSegment(
        (x - mean) / np.sqrt(var), segment.sample_rate, segment.timestamp, segment.source_id
    )


def sample_blocks(
    segments: list[SignalSegment], block_len: int, count: int, seed: int
) -> Iterator[SignalSegment]:
    """Draw ``count`` random contiguous blocks from a pool of segments.

    Each block comes from a uniformly chosen segment at a uniformly chosen
    valid offset and is standardized. The arguments are checked now; the
    blocks are drawn one at a time, as the returned iterator is read. The
    draw order is fixed by ``seed`` (PCG64), so identical inputs replay
    identically.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if block_len < 2:
        raise ValueError("block_len must be >= 2")
    if count > 0 and not segments:
        raise DataError("no segments available for block sampling")
    for seg in segments:
        if len(seg) < block_len:
            raise DataError(
                f"block_len {block_len} exceeds segment of length {len(seg)} "
                f"(source {seg.source_id}, t={seg.timestamp})"
            )

    def draw():
        rng = np.random.default_rng(seed)
        for _ in range(count):
            seg = segments[int(rng.integers(len(segments)))]
            offset = int(rng.integers(len(seg) - block_len + 1))
            yield preprocess(SignalSegment(seg.samples[offset : offset + block_len].copy(),
                                           seg.sample_rate, seg.timestamp, seg.source_id))

    return draw()
