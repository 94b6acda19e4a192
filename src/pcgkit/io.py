"""Dataset ingestion and report serialization.

A dataset is a directory of subject folders, each holding ``pcg.wav``
(16-bit PCM), an optional ``ecg.txt`` (one value per line, or
"time,value" lines), and an optional ``meta.json`` with references and
free-form metadata. Reports are JSON with sorted keys so identical runs
produce identical bytes; plot series go to CSV. Only this module knows
the JSON format: how values are written and which are read as numbers.
"""

import json
import math
import sys
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import SampledSignal
from .errors import PcgKitError

__all__ = [
    "read_wav_pcm16", "write_wav_pcm16", "read_ecg_text", "write_ecg_text",
    "SubjectRecord", "load_subject_dir", "load_dataset",
    "write_subject_dir", "write_json_report", "write_csv_series",
]

PCM16_SCALE = 32768.0
# Largest relative gap between an ECG rate given with a file that has a
# time column and the rate that column gives; past it the file is rejected.
ECG_RATE_TOLERANCE = 1e-3


def read_wav_pcm16(path):
    """Read a mono (or first-channel) 16-bit PCM WAV file.

    Samples are scaled to [-1, 1) by dividing by 32768; the rate comes
    from the header.

    Raises
    ------
    PcgKitError
        A missing file, one that is not 16-bit PCM WAV (compressed, another
        sample width, or cut short inside its header or inside a sample
        frame), one with no samples, or one whose header rate is 0.
    """
    path = Path(path)
    if not path.exists():
        raise PcgKitError(f"no such file: {path}")
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise PcgKitError(f"{path}: compressed WAV not supported")
            if wf.getsampwidth() != 2:
                raise PcgKitError(
                    f"{path}: only 16-bit PCM supported, "
                    f"got {8 * wf.getsampwidth()}-bit")
            n_channels = wf.getnchannels()
            rate = wf.getframerate()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:
        raise PcgKitError(
            f"{path}: {str(exc) or 'truncated header'}") from exc
    if not raw:
        raise PcgKitError(f"{path}: zero-length data chunk")
    if len(raw) % (2 * n_channels):
        raise PcgKitError(
            f"{path}: truncated data chunk ends inside a sample frame")
    data = np.frombuffer(raw, dtype="<i2").reshape(-1, n_channels)[:, 0]
    samples = data.astype(np.float64)
    samples /= PCM16_SCALE
    try:
        return SampledSignal(samples, float(rate))
    except PcgKitError as exc:  # a header rate of 0
        raise PcgKitError(f"{path}: {exc}") from None


def write_wav_pcm16(path, signal):
    """Write a signal as mono 16-bit PCM WAV, clipping to full scale."""
    path = Path(path)
    scaled = np.clip(np.round(signal.samples * PCM16_SCALE), -32768, 32767)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(int(round(signal.rate_hz)))
        wf.writeframes(scaled.astype("<i2").tobytes())


def _row_lines(lines):
    """Line numbers (1-based) of the non-blank ``lines``, in order."""
    return [n for n, line in enumerate(lines, start=1) if line.strip()]


def _raise_first_fault(path, lines, rows, width):
    """Raise an error naming the first row that is not ``width`` floats.

    ``rows`` are the non-blank ``lines``, stripped.
    """
    for line_no, row in zip(_row_lines(lines), rows):
        parts = row.split(",")
        if len(parts) != width:
            raise PcgKitError(f"{path}:{line_no}: inconsistent column count")
        try:
            for part in parts:
                float(part)
        except ValueError:
            raise PcgKitError(
                f"{path}:{line_no}: not numeric: {row!r}") from None


def read_ecg_text(path, rate_hz=None):
    """Read an ECG from a text file.

    Two layouts are accepted: one numeric value per line with the rate
    supplied by the caller, or "time,value" lines from which the rate is
    inferred as one over the median time step. The first non-blank line
    sets the layout and every other line must follow it. The time column
    must increase uniformly: every step must lie within 0.5 to 1.5 times
    the median step, which rejects a missing or an extra sample but
    passes rounded time stamps. A ``rate_hz`` given for a file with a
    time column must agree with the inferred rate to within
    ``ECG_RATE_TOLERANCE`` of itself; the inferred rate is the one used.

    A line ends at a line feed, a carriage return or both. Blank lines
    are skipped but still counted in line numbers. Each field is read as
    Python's ``float`` reads it: surrounding whitespace, ``1_0`` and
    non-ASCII digits are accepted, and ``#`` starts no comment. The file
    is read once and its rows are converted in one numpy cast, which
    calls ``float`` on each field; only when that cast fails are the
    rows walked again to name the first bad line.

    Raises
    ------
    PcgKitError
        A missing file; text that is not UTF-8, refused whole before any
        line is read; a line with the wrong number of fields, a field
        ``float`` does not read, a non-finite time or value, or a time step
        that is not positive and uniform, each with its line number; a
        single timed row; a time column whose rate disagrees with
        ``rate_hz``; a file with no non-blank line; or plain values
        without ``rate_hz``, or with one that is not finite and > 0.
    """
    path = Path(path)
    if not path.exists():
        raise PcgKitError(f"no such file: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise PcgKitError(f"{path}: not UTF-8 text: {exc}") from None
    rows = list(filter(None, map(str.strip, lines)))
    if not rows:
        raise PcgKitError(f"{path}: no samples")
    # any first row but a two-field one is read as one plain value
    width = 2 if rows[0].count(",") == 1 else 1
    try:
        if width == 2 and not all(row.count(",") == 1 for row in rows):
            raise ValueError("a row without exactly two fields")
        # timed rows are joined and split once, so one cast reads every field
        table = np.array(",".join(rows).split(",") if width == 2 else rows,
                         dtype=np.float64)
    except ValueError:
        _raise_first_fault(path, lines, rows, width)
        raise  # the cast refuses only what ``float`` or the width refuses
    times, values = table.reshape(-1, 2).T if width == 2 else (None, table)
    finite = np.isfinite(values)
    if times is not None:
        finite &= np.isfinite(times)
    if not finite.all():
        bad = _row_lines(lines)[int(np.argmin(finite))]
        raise PcgKitError(f"{path}:{bad}: non-finite time or value")
    if times is None:
        if rate_hz is None:
            raise PcgKitError(f"{path}: rate_hz required for plain value "
                              "files")
        try:
            return SampledSignal(values, float(rate_hz))
        except PcgKitError as exc:  # a rate that is not finite and > 0
            raise PcgKitError(f"{path}: {exc}") from None
    dt = np.diff(times)
    if len(dt) == 0:
        raise PcgKitError(f"{path}: single row, rate cannot be inferred")
    step = float(np.median(dt))
    off = (dt <= 0) | (dt < 0.5 * step) | (dt > 1.5 * step)
    if np.any(off):
        bad = _row_lines(lines)[int(np.argmax(off)) + 1]
        raise PcgKitError(
            f"{path}: time column does not increase uniformly at line "
            f"{bad} (step not within 0.5-1.5x the median {step:g} s)")
    inferred = 1.0 / step
    if rate_hz is not None and not (
            abs(inferred - rate_hz) <= ECG_RATE_TOLERANCE * rate_hz):
        raise PcgKitError(f"{path}: time column gives {inferred:g} Hz, more "
                          f"than {ECG_RATE_TOLERANCE:.1%} off the given rate "
                          f"{rate_hz:g} Hz")
    return SampledSignal(np.ascontiguousarray(values), inferred)


def write_ecg_text(path, signal):
    """Write an ECG as one value per line (rate travels in metadata)."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in signal.samples:
            fh.write(f"{float(v)!r}\n")


@dataclass(frozen=True)
class SubjectRecord:
    """One subject's signals, references, and metadata."""

    subject_id: str
    pcg: SampledSignal
    ecg: SampledSignal = None
    sbp_ref: float = None
    dbp_ref: float = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.pcg is None:
            raise PcgKitError("subject record requires a PCG signal")
        if self.sbp_ref is not None and self.dbp_ref is not None:
            if not self.sbp_ref > self.dbp_ref > 0:
                raise PcgKitError(
                    f"need sbp_ref > dbp_ref > 0, got "
                    f"{self.sbp_ref}/{self.dbp_ref}")


def is_json_number(value):
    """Whether a parsed JSON value is a number that fits a float64.

    JSON ``true`` and ``false`` parse as Python bools, which are ints, so
    they are refused; so are ``1e400``, which parses as ``inf``, and an
    integer literal too long for a float64.
    """
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _reject_constant(name):
    raise ValueError(f"non-finite {name} is not strict JSON")


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def read_json_object(path):
    """Parse a JSON object file; a PcgKitError if it is not one.

    ``NaN``, ``Infinity`` and ``-Infinity`` are not JSON, and a key that
    repeats within any object would silently hide the first value: each
    is refused.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=_reject_constant,
                                object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise PcgKitError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # syntax, NaN/Infinity, a repeated key, encoding
        raise PcgKitError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise PcgKitError(f"{path}: top level must be a JSON object")
    return payload


def load_subject_dir(subject_dir, ecg=True):
    """Load one subject folder (``pcg.wav`` required, rest optional).

    With ``ecg=False`` the folder's ``ecg.txt`` is neither opened nor
    checked and ``record.ecg`` is None; ``meta.json`` is read and checked
    in full either way.
    """
    subject_dir = Path(subject_dir)
    meta_path = subject_dir / "meta.json"
    meta = read_json_object(meta_path) if meta_path.exists() else {}
    for key in ("ecg_rate_hz", "sbp_ref", "dbp_ref"):
        if meta.get(key) is not None and not is_json_number(meta[key]):
            raise PcgKitError(f"{meta_path}: {key} must be a number")
    subject_id = meta.get("subject_id", subject_dir.name)
    if not (isinstance(subject_id, str) and subject_id):
        raise PcgKitError(f"{meta_path}: subject_id must be a non-empty "
                          f"string, got {subject_id!r}")
    pcg = read_wav_pcm16(subject_dir / "pcg.wav")
    ecg_signal = None
    ecg_path = subject_dir / "ecg.txt"
    if ecg and ecg_path.exists():
        ecg_signal = read_ecg_text(ecg_path, rate_hz=meta.get("ecg_rate_hz"))
    return SubjectRecord(
        subject_id=subject_id, pcg=pcg, ecg=ecg_signal,
        sbp_ref=meta.get("sbp_ref"), dbp_ref=meta.get("dbp_ref"),
        meta=meta)


def _subject_records(root, errors, ecg=True):
    """``(folder, record)`` for each folder :func:`map_subjects` analyses,
    in its order and when asked; each folder it does not analyse is filed
    in ``errors`` under its name as ``"ingest: <reason>"`` instead."""
    root = Path(root)
    if not root.is_dir():
        raise PcgKitError(f"dataset directory not found: {root}")
    dirs = sorted(p for p in root.iterdir() if (p / "pcg.wav").exists())
    if not dirs:
        raise PcgKitError(f"{root}: no subject folders with pcg.wav")
    names = {d.name for d in dirs}
    folder_of = {}
    for d in dirs:
        try:
            record = load_subject_dir(d, ecg=ecg)
        except (PcgKitError, OSError) as exc:
            errors[d.name] = f"ingest: {exc}"
            continue
        sid = record.subject_id
        # results are keyed by subject_id and ingest errors by folder
        # name, so an id may not be another folder's name
        if sid in folder_of:
            errors[d.name] = (f"ingest: duplicate subject_id {sid} "
                              f"(also {folder_of[sid]})")
        elif sid != d.name and sid in names:
            errors[d.name] = (f"ingest: subject_id {sid} is the name "
                              f"of another folder")
        else:
            folder_of[sid] = d.name
            yield d, record
        del record  # before the next folder loads


def map_subjects(root, analyze, ecg=True):
    """``analyze`` each subject folder under a dataset root, in name order.

    Returns ``(results, errors)``. Each folder with a ``pcg.wav`` is loaded
    by :func:`load_subject_dir` with ``ecg`` and dropped before the next
    loads, so one subject is in memory at a time unless ``analyze`` keeps
    it. A folder that fails to load (a toolkit error or an ``OSError``),
    whose ``subject_id`` an earlier folder has, or whose ``subject_id`` is
    another folder's name is not analysed: ``errors`` maps its name to
    ``"ingest: <reason>"``. ``results`` maps every other ``subject_id`` to
    ``analyze(record)``, or ``errors`` maps it to the message of the
    :class:`PcgKitError` that raised; any other exception propagates. So
    every folder lands once, under a key no other folder uses.

    Raises
    ------
    PcgKitError
        If the root is not a directory or holds no subject folder.
    """
    results, errors = {}, {}
    for _, record in _subject_records(root, errors, ecg):
        try:
            results[record.subject_id] = analyze(record)
        except PcgKitError as exc:
            errors[record.subject_id] = str(exc)
        del record  # before the next folder loads
    return results, errors


def load_dataset(root, ecg=True):
    """Every subject record under a dataset root, and the ingest errors.

    This is :func:`map_subjects` keeping every record, returned as a list
    in folder order. The commands call :func:`map_subjects` instead, so one
    subject is in memory at a time.
    """
    records, errors = map_subjects(root, lambda record: record, ecg)
    return list(records.values()), errors


def write_subject_dir(subject_dir, pcg, ecg=None, meta=None):
    """Write one subject folder in the layout :func:`load_subject_dir` reads.

    ``meta.json`` goes through :func:`write_json_report`, so a NaN
    reference in ``meta`` is written as ``null`` and loads back as none.
    """
    subject_dir = Path(subject_dir)
    subject_dir.mkdir(parents=True, exist_ok=True)
    write_wav_pcm16(subject_dir / "pcg.wav", pcg)
    meta = dict(meta or {})
    if ecg is not None:
        write_ecg_text(subject_dir / "ecg.txt", ecg)
        meta.setdefault("ecg_rate_hz", ecg.rate_hz)
    write_json_report(subject_dir / "meta.json", meta)


def _plain(obj):
    """``obj`` as the plain values :func:`write_json_report` writes."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return obj.item()
    return obj


def write_json_report(path, payload):
    """Write ``payload`` as strict JSON with sorted keys, creating its folder.

    numpy scalars and arrays become plain numbers and lists, tuples become
    lists and dict keys strings, and a NaN or infinite float becomes
    ``null``; so every file this writes parses under a strict JSON reader,
    and the same payload always gives the same bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_plain(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def write_csv_series(path, header, rows):
    """Write a simple CSV; values are formatted with repr for round trips."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                repr(float(v)) if isinstance(v, (float, np.floating))
                else str(v) for v in row) + "\n")
