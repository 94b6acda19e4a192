"""File ingestion and report serialization."""

import io
import itertools
import json
import math
import struct
import tempfile
import warnings
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcgkit import (
    PcgKitError,
    SampledSignal,
    SubjectRecord,
    load_dataset,
    load_subject_dir,
    read_ecg_text,
    read_wav_pcm16,
    write_csv_series,
    write_ecg_text,
    write_json_report,
    write_subject_dir,
    write_wav_pcm16,
)
from pcgkit import io as pcgkit_io
from pcgkit.io import ECG_RATE_TOLERANCE


def raw_wav(path, values, rate=2000, sampwidth=2, channels=1):
    """Write a WAV straight through the wave module, bypassing the package."""
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(rate)
        if sampwidth == 2:
            wf.writeframes(struct.pack(f"<{len(values)}h", *values))
        else:
            wf.writeframes(bytes(len(values) * sampwidth))


class TestReadWav:

    def test_pcm_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        raw_wav(path, [0, 16384, -32768])
        sig = read_wav_pcm16(path)
        assert np.array_equal(sig.samples, [0.0, 0.5, -1.0])
        assert sig.rate_hz == 2000.0

    def test_rate_comes_from_header(self, tmp_path):
        path = tmp_path / "a.wav"
        raw_wav(path, [1, 2, 3], rate=8000)
        assert read_wav_pcm16(path).rate_hz == 8000.0

    def test_first_channel_of_stereo(self, tmp_path):
        path = tmp_path / "a.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(2000)
            wf.writeframes(struct.pack("<6h", 100, -5, 200, -5, 300, -5))
        sig = read_wav_pcm16(path)
        assert np.array_equal(sig.samples * 32768.0, [100.0, 200.0, 300.0])

    @pytest.mark.parametrize("width", [1, 3, 4])
    def test_non_16_bit_rejected(self, tmp_path, width):
        path = tmp_path / "a.wav"
        raw_wav(path, [0, 0], sampwidth=width)
        with pytest.raises(PcgKitError, match=f"only 16-bit PCM supported, "
                           f"got {8 * width}-bit"):
            read_wav_pcm16(path)

    def test_garbage_bytes_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(b"definitely not RIFF data")
        with pytest.raises(PcgKitError, match="does not start with RIFF id"):
            read_wav_pcm16(path)

    @pytest.mark.parametrize("cut", [0, 6, 30])
    def test_header_cut_short_is_named(self, tmp_path, cut):
        # the wave module raises an EOFError with no message here
        path = tmp_path / "a.wav"
        raw_wav(path, [1, 2, 3])
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(PcgKitError) as info:
            read_wav_pcm16(path)
        assert str(info.value) == f"{path}: truncated header"

    def test_zero_frames_rejected(self, tmp_path):
        path = tmp_path / "a.wav"
        raw_wav(path, [])
        with pytest.raises(PcgKitError, match="zero-length data chunk"):
            read_wav_pcm16(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PcgKitError, match="no such file"):
            read_wav_pcm16(tmp_path / "absent.wav")

    def test_zero_header_rate_names_the_file(self, tmp_path):
        # the wave module writes no rate of 0, so the fmt chunk's rate
        # field (bytes 24-27) is zeroed after writing
        path = tmp_path / "a.wav"
        raw_wav(path, [1, 2, 3])
        data = bytearray(path.read_bytes())
        data[24:28] = struct.pack("<I", 0)
        path.write_bytes(bytes(data))
        with pytest.raises(PcgKitError) as info:
            read_wav_pcm16(path)
        assert str(info.value) == (
            f"{path}: rate_hz must be finite and > 0, got 0.0")


class TestWriteWav:

    def test_grid_values_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        ints = rng.integers(-32768, 32768, size=1000)
        sig = SampledSignal(ints / 32768.0, 2000.0)
        path = tmp_path / "a.wav"
        write_wav_pcm16(path, sig)
        back = read_wav_pcm16(path)
        assert np.array_equal(back.samples, sig.samples)
        assert back.rate_hz == sig.rate_hz

    def test_overrange_clips_to_full_scale(self, tmp_path):
        sig = SampledSignal(np.array([1.5, -2.0]), 2000.0)
        path = tmp_path / "a.wav"
        write_wav_pcm16(path, sig)
        back = read_wav_pcm16(path)
        assert np.array_equal(back.samples * 32768.0, [32767.0, -32768.0])

    def test_subgrid_values_round_to_nearest_step(self, tmp_path):
        sig = SampledSignal(np.array([1e-5]), 2000.0)
        path = tmp_path / "a.wav"
        write_wav_pcm16(path, sig)
        assert read_wav_pcm16(path).samples[0] == 0.0


class TestReadEcgText:

    def test_plain_values_need_a_rate(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1.0\n-2.5\n3.0\n")
        sig = read_ecg_text(path, rate_hz=190.0)
        assert np.array_equal(sig.samples, [1.0, -2.5, 3.0])
        assert sig.rate_hz == 190.0
        with pytest.raises(PcgKitError) as info:
            read_ecg_text(path)
        assert str(info.value) == (
            f"{path}: rate_hz required for plain value files")

    @pytest.mark.parametrize("rate_hz", [0, -190, math.inf])
    def test_plain_values_refuse_a_bad_rate_naming_the_file(self, tmp_path,
                                                             rate_hz):
        path = tmp_path / "e.txt"
        path.write_text("1.0\n-2.5\n3.0\n")
        with pytest.raises(PcgKitError) as info:
            read_ecg_text(path, rate_hz=rate_hz)
        assert str(info.value) == (
            f"{path}: rate_hz must be finite and > 0, got {float(rate_hz)}")

    def test_time_value_rate_inferred(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0.0,1.0\n0.005,2.0\n0.010,3.0\n")
        sig = read_ecg_text(path)
        assert sig.rate_hz == pytest.approx(200.0, rel=1e-9)
        assert np.array_equal(sig.samples, [1.0, 2.0, 3.0])

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("\n1.0\n\n2.0\n\n")
        assert len(read_ecg_text(path, rate_hz=190.0).samples) == 2

    def test_non_numeric_cites_line(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("abc\n")
        with pytest.raises(PcgKitError) as exc:
            read_ecg_text(path, rate_hz=190.0)
        assert str(exc.value) == f"{path}:1: not numeric: 'abc'"

    def test_column_count_must_be_consistent(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0.0,1.0\n2.0\n")
        with pytest.raises(PcgKitError) as exc:
            read_ecg_text(path)
        assert str(exc.value) == f"{path}:2: inconsistent column count"

    @pytest.mark.parametrize("text, line_no, needle", [
        ("0,1\n\n0.01,2,9\n0.02,3\n", 3, "column count"),
        ("0,1\n0.01,2\n\n0.02\n0.03,4\n", 4, "column count"),
        ("0,1\n0.01,2\n0.02,x3\n0.03,4,5\n", 3, "not numeric"),
        ("0,1\n0.01,2\n0.02,3\n\n0.5,4\n", 5, "increase uniformly")])
    def test_timed_row_faults_cite_line(self, tmp_path, text, line_no,
                                        needle):
        # the first faulty row is named, after blank lines and before any
        # later fault
        path = tmp_path / "e.txt"
        path.write_text(text)
        with pytest.raises(PcgKitError, match=needle) as exc:
            read_ecg_text(path)
        message = str(exc.value)
        if needle == "increase uniformly":  # cites its line after the path
            assert f"uniformly at line {line_no} " in message
        else:
            assert message.startswith(f"{path}:{line_no}: ")

    def test_time_gap_rejected_with_line(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0,1\n0.01,2\n\n0.5,3\n0.51,4\n0.52,5\n")
        with pytest.raises(PcgKitError, match="increase uniformly at line 4 "):
            read_ecg_text(path)

    @pytest.mark.parametrize("last", [0.875, 1.125])
    def test_steps_of_half_and_one_and_a_half_median_accepted(self, tmp_path,
                                                             last):
        # the bounds are inclusive: 0.125 and 0.375 s against a 0.25 s
        # median, each exact in binary
        path = tmp_path / "e.txt"
        path.write_text(f"0,1\n0.25,2\n0.5,3\n0.75,4\n{last},5\n")
        sig = read_ecg_text(path)
        assert sig.rate_hz == 4.0
        assert np.array_equal(sig.samples, [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_rounded_time_stamps_accepted(self, tmp_path):
        # 190 Hz stamps rounded to the millisecond: steps of 5 and 6 ms
        times = np.round(np.arange(40) / 190.0, 3)
        path = tmp_path / "e.txt"
        path.write_text("".join(f"{t},{i}\n" for i, t in enumerate(times)))
        sig = read_ecg_text(path)
        assert len(sig.samples) == 40
        assert 1 / 0.006 <= sig.rate_hz <= 1 / 0.005

    @pytest.mark.parametrize("text, rate_hz, line_no", [
        # a NaN time used to pass the step check and fail later as a
        # nameless "rate_hz must be > 0, got nan"
        ("0,1\n\nnan,2\n0.02,3\n0.03,4\n", None, 3),
        ("1.0\n2.0\ninf\n", 190.0, 3),
        ("1.0\nnan\n", None, 2),
        ("0,1\n0.01,-inf\n0.02,3\n", None, 2),
        ("0,1e999\n0.01,2\n", None, 1),
    ])
    def test_non_finite_number_cites_line(self, tmp_path, text, rate_hz,
                                          line_no):
        path = tmp_path / "e.txt"
        path.write_text(text)
        with pytest.raises(PcgKitError) as exc:
            read_ecg_text(path, rate_hz=rate_hz)
        assert str(exc.value) == f"{path}:{line_no}: non-finite time or value"

    def test_non_utf8_text_is_parse_error(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_bytes(b"1.0\n\xff\xfe2.0\n")
        with pytest.raises(PcgKitError, match="not UTF-8"):
            read_ecg_text(path, rate_hz=190.0)

    def test_non_utf8_text_refused_whole(self, tmp_path):
        # the bad byte comes after a bad line and past the first 8 KiB
        path = tmp_path / "e.txt"
        path.write_bytes(b"abc\n" + b"1.0\n" * 3000 + b"\xff\n")
        with pytest.raises(PcgKitError, match="not UTF-8.* position 12004:"):
            read_ecg_text(path, rate_hz=190.0)

    def test_time_column_must_increase(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0.0,1.0\n0.010,2.0\n0.010,3.0\n")
        with pytest.raises(PcgKitError,
                           match="time column does not increase uniformly"):
            read_ecg_text(path)

    def test_single_timed_row_raises(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0.0,1.0\n")
        with pytest.raises(PcgKitError,
                           match="single row, rate cannot be inferred"):
            read_ecg_text(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("")
        with pytest.raises(PcgKitError, match="e.txt: no samples"):
            read_ecg_text(path, rate_hz=190.0)

    def test_write_read_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(23)
        sig = SampledSignal(rng.standard_normal(64), 190.0)
        path = tmp_path / "e.txt"
        write_ecg_text(path, sig)
        back = read_ecg_text(path, rate_hz=190.0)
        assert np.array_equal(back.samples, sig.samples)

    @pytest.mark.parametrize("text, rate_hz", [
        ("1.0\n2.0\n", 190.0),
        ("0,1\n0.01,2\n", None),
        ("1.0\nabc\n", 190.0),
        ("0,1\n2\n", None),
        ("1.0\nnan\n", 190.0),
        ("0,1\n0.01,2\n\n0.5,3\n0.51,4\n", None),
        ("\n\n", 190.0),
    ], ids=["plain", "timed", "not-numeric", "ragged", "non-finite",
            "non-uniform-step", "blank"])
    def test_file_opened_once(self, tmp_path, monkeypatch, text, rate_hz):
        path = tmp_path / "e.txt"
        path.write_text(text)
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(Path(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(pcgkit_io, "open", counting_open, raising=False)
        try:
            read_ecg_text(path, rate_hz=rate_hz)
        except PcgKitError:
            pass
        assert opened == [path]

    @pytest.mark.parametrize("rate_hz", [250.0, 250.2, 249.8])
    def test_given_rate_agreeing_with_time_column(self, tmp_path, rate_hz):
        path = tmp_path / "e.txt"
        path.write_text("".join(f"{i / 250.0!r},{i}\n" for i in range(50)))
        sig = read_ecg_text(path, rate_hz=rate_hz)
        assert sig.rate_hz == pytest.approx(250.0, rel=1e-12)
        assert sig.rate_hz == read_ecg_text(path).rate_hz

    @pytest.mark.parametrize("step, inferred", [
        ("0.008008008008008008", 124.875), ("0.007992007992007992", 125.125)])
    def test_given_rate_exactly_at_the_tolerance_accepted(self, tmp_path,
                                                          step, inferred):
        # |inferred - 125| == ECG_RATE_TOLERANCE * 125 == 0.125 exactly
        path = tmp_path / "e.txt"
        path.write_text(f"0,1\n{step},2\n")
        assert abs(inferred - 125.0) == ECG_RATE_TOLERANCE * 125.0
        assert read_ecg_text(path, rate_hz=125.0).rate_hz == inferred

    @pytest.mark.parametrize("rate_hz", [190.0, 250.3, 249.7])
    def test_given_rate_disagreeing_with_time_column(self, tmp_path,
                                                     rate_hz):
        path = tmp_path / "e.txt"
        path.write_text("".join(f"{i / 250.0!r},{i}\n" for i in range(50)))
        with pytest.raises(PcgKitError, match="more than 0.1% off the given "
                           f"rate {rate_hz:g} Hz"):
            read_ecg_text(path, rate_hz=rate_hz)


def _row_line(path, row):
    """Line number of a text file's ``row``-th (0-based) non-blank line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = (n for n, line in enumerate(fh, start=1) if line.strip())
        return next(itertools.islice(lines, row, None))


def _read_ecg_text_by_lines(path, rate_hz=None):
    """The line-by-line ECG reader that ``read_ecg_text`` replaced.

    Kept as the oracle of the one-call parse: every file must give this
    reader's samples and rate, or its exception and message.
    """
    path = Path(path)
    if not path.exists():
        raise PcgKitError(f"no such file: {path}")
    times = []
    values = []
    has_time = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if has_time is None:
                    has_time = len(parts) == 2
                if len(parts) != (2 if has_time else 1):
                    raise PcgKitError(f"{path}:{line_no}: inconsistent "
                                      f"column count")
                try:
                    if has_time:
                        times.append(float(parts[0]))
                    values.append(float(parts[-1]))
                except ValueError:
                    raise PcgKitError(f"{path}:{line_no}: not numeric: "
                                      f"{line!r}") from None
    except UnicodeDecodeError as exc:
        raise PcgKitError(f"{path}: not UTF-8 text: {exc}") from None
    if not values:
        raise PcgKitError(f"{path}: no samples")
    values = np.asarray(values)
    finite = np.isfinite(values)
    if has_time:
        times = np.asarray(times)
        finite &= np.isfinite(times)
    if not finite.all():
        bad = _row_line(path, int(np.argmin(finite)))
        raise PcgKitError(f"{path}:{bad}: non-finite time or value")
    if has_time:
        dt = np.diff(times)
        if len(dt) == 0:
            raise PcgKitError(f"{path}: single row, rate cannot be inferred")
        step = float(np.median(dt))
        off = (dt <= 0) | (dt < 0.5 * step) | (dt > 1.5 * step)
        if np.any(off):
            bad = _row_line(path, int(np.argmax(off)) + 1)
            raise PcgKitError(
                f"{path}: time column does not increase uniformly at line "
                f"{bad} (step not within 0.5-1.5x the median {step:g} s)")
        rate_hz = 1.0 / step
    elif rate_hz is None:
        raise PcgKitError(f"{path}: rate_hz required for plain value files")
    return SampledSignal(values, float(rate_hz))


def _ecg_outcome(reader, path, rate_hz):
    """``(samples bytes, rate)``, or ``(exception class, message)``."""
    try:
        sig = reader(path, rate_hz)
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return type(exc), str(exc)
    assert sig.samples.dtype == np.float64
    return sig.samples.tobytes(), sig.rate_hz


class TestEcgTextAgainstLineReader:
    """``read_ecg_text`` gives what the line-by-line reader gives.

    Text that is not UTF-8 is drawn only in files under 8 KiB that do not
    end inside a UTF-8 sequence. Past that the line reader, which decodes
    8 KiB at a time, can name a bad line before the bad bytes or count
    the byte offset from a chunk, where ``read_ecg_text`` refuses the
    whole text (``test_non_utf8_text_refused_whole``).
    """

    number = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-10**6, 10**6).map(str),
        st.sampled_from([
            "1_0", "2_5.0_1", "\u0661\u0662", "\u0663.\u0665", "nan",
            "-inf", "inf", "Infinity", "1e999", "-1e999", "1e-400", "+.5",
            "5.", "-0", "0x10", "1e", ".", "1.0.0", "abc"]))
    spaced = st.tuples(st.sampled_from(["", " ", "\t", "\u00a0", "\x0c"]),
                       number, st.sampled_from(["", " ", "\t", "\u2028"])
                       ).map("".join)
    line = st.one_of(
        spaced,
        # a regular time column at 190 Hz: the layout that passes
        st.tuples(st.integers(0, 40), spaced).map(
            lambda iv: f"{iv[0] / 190.0!r},{iv[1]}"),
        st.tuples(spaced, spaced).map(",".join),
        st.sampled_from(["", "  ", "\t", "\u00a0", "\x0b"]),
        # comments, trailing commas and extra columns
        st.sampled_from(["# header", "#", "1.0 # note", "1.0#2"]),
        st.tuples(spaced, st.sampled_from(["#c", " # 2", "#"])).map("".join),
        st.tuples(spaced, st.sampled_from([",", ",,", ", "])).map("".join),
        st.tuples(spaced, spaced, spaced).map(",".join),
        st.text(max_size=8))

    @staticmethod
    def _file(lines, ending, bom, junk):
        data = ending.join(lines).encode("utf-8")
        if bom:
            data = b"\xef\xbb\xbf" + data
        if junk is not None:
            cut = junk % (len(data) + 1)
            data = data[:cut] + b"\xff\xfe" + data[cut:]
        return data

    @settings(max_examples=500, deadline=None)
    @given(lines=st.lists(line, max_size=12),
           regular=st.lists(st.integers(0, 2000), max_size=30),
           timed=st.booleans(),
           ending=st.sampled_from(["\n", "\r\n", "\r"]),
           tail=st.booleans(), bom=st.booleans(),
           junk=st.one_of(st.none(), st.integers(0, 10**6)),
           rate_hz=st.sampled_from([None, 190.0, 200.0]))
    def test_same_samples_or_same_error(self, lines, regular, timed, ending,
                                        tail, bom, junk, rate_hz):
        # mostly-valid rows around the generated lines, on either layout
        rows = [f"{i / 190.0!r},{i * 0.5!r}" if timed else f"{i * 0.5!r}"
                for i in sorted(regular)]
        half = len(rows) // 2
        data = self._file(rows[:half] + lines + rows[half:] + [""] * tail,
                          ending, bom, junk)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ecg.txt"
            path.write_bytes(data)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _ecg_outcome(read_ecg_text, path, rate_hz)
            want = _ecg_outcome(_read_ecg_text_by_lines, path, rate_hz)
        if (isinstance(want[0], bytes) and rate_hz is not None
                and abs(want[1] - rate_hz) > ECG_RATE_TOLERANCE * rate_hz):
            # a time column whose rate the old reader did not check
            assert got[0] is PcgKitError
            assert "off the given rate" in got[1]
        else:
            assert got == want

    # times of a 190 Hz column, and the same spelt in Arabic-Indic digits
    T = [repr(i / 190.0) for i in range(4)]
    T_ARABIC = [t.translate(str.maketrans("0123456789",
                                          "\u0660\u0661\u0662\u0663\u0664"
                                          "\u0665\u0666\u0667\u0668\u0669"))
                for t in T]

    @pytest.mark.parametrize("data", [
        b"", b"\n\n", b"  \r\n\t\n", b"\xef\xbb\xbf1.0\n",
        b"1.0\n\xff\n", b"1.0\r2.0\r", b"1_0\n2\n",
        "\u0661\n\u0662\n".encode(), b"# t\n1.0\n", b"1.0 # c\n",
        b"1.0,\n2.0,\n", b"1,2,3\n4,5,6\n", b"0,1\n0.004,nan\n",
        b"0,1\n0.004,2\n\n0.008,1e999\n",
        # where a numpy cast of Python strings and np.loadtxt part ways
        f"{T[0]},1_0\n{T[1][:4]}_{T[1][4:]},2\n{T[2]},3_5\n".encode(),
        f"{T_ARABIC[0]},1\n{T_ARABIC[1]},\u0662\n{T[2]},3\n".encode(),
        b"1.0\n2\x00\n", b"\x001.0\n", f"{T[0]},1\n\x00{T[1]},2\n".encode(),
        f"{T[0]},1\n{T[1]}\n{T[2]},3\n".encode(),
        f"{T[0]},1\n{T[1]},2,3\n{T[2]},3\n".encode(),
        b"1,2,3\n", b"\n1,2,3\n4\n",
        f"{T[0]}\u2028,1\n{T[1]},\u20282\n{T[2]},3\u2028\n".encode(),
        "1.0\u2028\n\u20282.0\n".encode(), "1\u20282\n".encode()])
    def test_edge_files(self, tmp_path, data):
        path = tmp_path / "ecg.txt"
        path.write_bytes(data)
        assert _ecg_outcome(read_ecg_text, path, 190.0) == \
            _ecg_outcome(_read_ecg_text_by_lines, path, 190.0)


class TestSubjectRecord:

    def _pcg(self):
        return SampledSignal(np.zeros(10), 2000.0)

    def test_pcg_required(self):
        with pytest.raises(PcgKitError, match="requires a PCG signal"):
            SubjectRecord(subject_id="x", pcg=None)

    def test_reference_ordering_enforced(self):
        # both bounds are strict: equal references and a zero dbp refused
        for sbp, dbp in ((80.0, 120.0), (120.0, -5.0), (80.0, 80.0),
                         (120.0, 0.0)):
            with pytest.raises(PcgKitError,
                               match="need sbp_ref > dbp_ref > 0"):
                SubjectRecord(subject_id="x", pcg=self._pcg(),
                              sbp_ref=sbp, dbp_ref=dbp)
        assert SubjectRecord(subject_id="x", pcg=self._pcg(), sbp_ref=1.0,
                             dbp_ref=0.5).dbp_ref == 0.5

    def test_partial_references_allowed(self):
        record = SubjectRecord(subject_id="x", pcg=self._pcg(), sbp_ref=120.0)
        assert record.dbp_ref is None


class TestSubjectDirs:

    def _signals(self):
        ints = np.arange(-100, 100)
        pcg = SampledSignal(ints / 32768.0, 2000.0)
        ecg = SampledSignal(np.linspace(-1.0, 1.0, 50), 190.0)
        return pcg, ecg

    def test_write_then_load_round_trip(self, tmp_path):
        pcg, ecg = self._signals()
        sdir = tmp_path / "s01"
        write_subject_dir(sdir, pcg, ecg=ecg,
                          meta={"subject_id": "s01", "sbp_ref": 120.0,
                                "dbp_ref": 80.0})
        record = load_subject_dir(sdir)
        assert record.subject_id == "s01"
        assert np.array_equal(record.pcg.samples, pcg.samples)
        assert np.array_equal(record.ecg.samples, ecg.samples)
        assert record.ecg.rate_hz == 190.0
        assert record.sbp_ref == 120.0 and record.dbp_ref == 80.0

    def test_minimal_folder_defaults(self, tmp_path):
        pcg, _ = self._signals()
        sdir = tmp_path / "bare"
        sdir.mkdir()
        write_wav_pcm16(sdir / "pcg.wav", pcg)
        record = load_subject_dir(sdir)
        assert record.subject_id == "bare"
        assert record.ecg is None
        assert record.sbp_ref is None and record.dbp_ref is None
        assert record.meta == {}

    def test_dataset_sorted_and_filtered(self, tmp_path):
        pcg, _ = self._signals()
        for name in ("s02", "s01", "s03"):
            write_subject_dir(tmp_path / name, pcg)
        (tmp_path / "notes.txt").write_text("ignore me\n")
        (tmp_path / "empty_dir").mkdir()
        records, errors = load_dataset(tmp_path)
        assert [r.subject_id for r in records] == ["s01", "s02", "s03"]
        assert errors == {}

    def test_bad_folder_reported_by_name(self, tmp_path):
        pcg, _ = self._signals()
        write_subject_dir(tmp_path / "s01", pcg, meta={"subject_id": "alpha"})
        (tmp_path / "s02").mkdir()
        (tmp_path / "s02" / "pcg.wav").write_bytes(b"not a wav file")
        # malformed meta.json: bad syntax, a non-object top level, a
        # reference that is not a number
        for name, text in (("s03", "{bad"), ("s04", "[1, 2]"),
                           ("s05", '{"sbp_ref": "120", "dbp_ref": 80}')):
            write_subject_dir(tmp_path / name, pcg)
            (tmp_path / name / "meta.json").write_text(text)
        # pcg.wav cut short: odd length, and only 6 bytes of the header
        wav = (tmp_path / "s01" / "pcg.wav").read_bytes()
        for name, data in (("s06", wav[:-1]), ("s07", wav[:6])):
            (tmp_path / name).mkdir()
            (tmp_path / name / "pcg.wav").write_bytes(data)
        records, errors = load_dataset(tmp_path)
        assert [r.subject_id for r in records] == ["alpha"]
        assert list(errors) == ["s02", "s03", "s04", "s05", "s06", "s07"]
        for name in errors:
            assert errors[name].startswith("ingest: ")
            assert name in errors[name]
        assert "not valid JSON" in errors["s03"]
        assert "JSON object" in errors["s04"]
        assert "sbp_ref must be a number" in errors["s05"]
        with pytest.raises(PcgKitError,
                           match=r"meta.json: not valid JSON: .* line 1 "):
            load_subject_dir(tmp_path / "s03")

    @pytest.mark.parametrize("key", ["ecg_rate_hz", "sbp_ref", "dbp_ref"])
    def test_boolean_meta_number_rejected(self, key, tmp_path):
        # JSON true is a Python int: it must not pass as the number 1
        pcg, ecg = self._signals()
        write_subject_dir(tmp_path / "s01", pcg, ecg=ecg, meta={key: True})
        with pytest.raises(PcgKitError, match=f"{key} must be a number"):
            load_subject_dir(tmp_path / "s01")

    @pytest.mark.parametrize("damage", ["missing", "not numeric",
                                        "not UTF-8", "directory"])
    def test_without_ecg_the_file_is_not_read(self, damage, tmp_path,
                                              monkeypatch):
        pcg, ecg = self._signals()
        sdir = tmp_path / "s01"
        write_subject_dir(sdir, pcg, ecg=ecg, meta={"sbp_ref": 120.0,
                                                   "dbp_ref": 80.0})
        path = sdir / "ecg.txt"
        path.unlink()
        if damage == "not numeric":
            path.write_text("0.5\nnot a number\n")
        elif damage == "not UTF-8":
            path.write_bytes(b"0.5\n\xff\xfe\n")
        elif damage == "directory":
            path.mkdir()
        monkeypatch.setattr(pcgkit_io, "read_ecg_text", None)  # never called
        record = load_subject_dir(sdir, ecg=False)
        assert record.ecg is None and record.subject_id == "s01"
        assert record.sbp_ref == 120.0 and record.dbp_ref == 80.0
        assert np.array_equal(record.pcg.samples, pcg.samples)
        records, errors = load_dataset(tmp_path, ecg=False)
        assert [r.subject_id for r in records] == ["s01"] and errors == {}

    @pytest.mark.parametrize("value", [
        "1.7976931348623157e308", "-1.7976931348623157e308"])
    def test_largest_float_meta_number_accepted(self, value, tmp_path):
        pcg, _ = self._signals()
        write_subject_dir(tmp_path / "s01", pcg, meta={"sbp_ref": 0.0})
        meta_path = tmp_path / "s01" / "meta.json"
        meta_path.write_text(meta_path.read_text().replace("0.0", value))
        meta = load_subject_dir(tmp_path / "s01").meta
        assert meta["sbp_ref"] == float(value)

    @pytest.mark.parametrize("value", ["true", '"190"', "1e400"])
    def test_without_ecg_meta_is_still_checked(self, value, tmp_path):
        pcg, ecg = self._signals()
        write_subject_dir(tmp_path / "s01", pcg, ecg=ecg,
                          meta={"ecg_rate_hz": 190.0})
        meta_path = tmp_path / "s01" / "meta.json"
        meta_path.write_text(meta_path.read_text().replace("190.0", value))
        with pytest.raises(PcgKitError, match="ecg_rate_hz must be a number"):
            load_subject_dir(tmp_path / "s01", ecg=False)
        records, errors = load_dataset(tmp_path, ecg=False)
        assert records == [] and errors["s01"].startswith("ingest: ")

    @pytest.mark.parametrize("rate_hz", [0, -190])
    def test_non_positive_ecg_rate_is_an_ingest_error_naming_the_file(
            self, rate_hz, tmp_path):
        pcg, ecg = self._signals()
        write_subject_dir(tmp_path / "s01", pcg, ecg=ecg,
                          meta={"ecg_rate_hz": rate_hz})
        records, errors = load_dataset(tmp_path)
        assert records == []
        assert errors == {"s01": (
            f"ingest: {tmp_path / 's01' / 'ecg.txt'}: rate_hz must be "
            f"finite and > 0, got {float(rate_hz)}")}

    def test_non_finite_meta_number_loads_as_none(self, tmp_path):
        pcg, _ = self._signals()
        write_subject_dir(tmp_path / "s01", pcg,
                          meta={"sbp_ref": math.nan, "dbp_ref": 80.0})
        assert "NaN" not in (tmp_path / "s01" / "meta.json").read_text()
        record = load_subject_dir(tmp_path / "s01")
        assert record.sbp_ref is None and record.dbp_ref == 80.0

    @pytest.mark.parametrize("subject_id", [None, "", 5, ["s01"]])
    def test_subject_id_must_be_a_non_empty_string(self, subject_id,
                                                   tmp_path):
        pcg, _ = self._signals()
        write_subject_dir(tmp_path / "s01", pcg,
                          meta={"subject_id": subject_id})
        with pytest.raises(PcgKitError, match="subject_id must be a "
                                             "non-empty string"):
            load_subject_dir(tmp_path / "s01")
        write_subject_dir(tmp_path / "s02", pcg)
        records, errors = load_dataset(tmp_path)
        assert [r.subject_id for r in records] == ["s02"]
        assert list(errors) == ["s01"]
        assert errors["s01"].startswith("ingest: ")

    def test_duplicate_subject_id_is_an_ingest_error(self, tmp_path):
        pcg, _ = self._signals()
        for name in ("a", "b", "c"):
            write_subject_dir(tmp_path / name, pcg, meta={"subject_id": "s09"})
        # a later folder repeating the id of a folder named after it
        write_subject_dir(tmp_path / "s01", pcg)
        write_subject_dir(tmp_path / "t", pcg, meta={"subject_id": "s01"})
        records, errors = load_dataset(tmp_path)
        assert [r.subject_id for r in records] == ["s09", "s01"]
        assert errors == {
            "b": "ingest: duplicate subject_id s09 (also a)",
            "c": "ingest: duplicate subject_id s09 (also a)",
            "t": "ingest: duplicate subject_id s01 (also s01)"}

    @settings(max_examples=100, deadline=None)
    @given(folders=st.integers(1, 5).flatmap(lambda n: st.lists(
        st.tuples(st.one_of(st.none(),
                            st.sampled_from([f"f{i}" for i in range(n)]),
                            st.sampled_from(["x", "y"])),
                  st.sampled_from([None, "pcg.wav", "meta.json",
                                   "ecg.txt"])),
        min_size=n, max_size=n)))
    def test_every_folder_lands_once(self, folders):
        pcg, ecg = self._signals()
        broken_bytes = {"pcg.wav": b"not a wav", "meta.json": b"{",
                        "ecg.txt": b"nan\n"}
        with tempfile.TemporaryDirectory() as tmp:
            for i, (subject_id, broken) in enumerate(folders):
                folder = Path(tmp) / f"f{i}"
                meta = {} if subject_id is None else {"subject_id": subject_id}
                write_subject_dir(folder, pcg, ecg=ecg, meta=meta)
                if broken:
                    (folder / broken).write_bytes(broken_bytes[broken])
            records, errors = load_dataset(tmp)
        ids = [r.subject_id for r in records]
        assert len(set(ids)) == len(ids)
        assert not set(ids) & set(errors)
        assert len(ids) + len(errors) == len(folders)

    def test_subject_id_naming_another_folder_is_an_ingest_error(
            self, tmp_path):
        pcg, _ = self._signals()
        # "a" takes the name of a later folder, "b" of one that fails to load
        write_subject_dir(tmp_path / "a", pcg, meta={"subject_id": "s01"})
        write_subject_dir(tmp_path / "b", pcg, meta={"subject_id": "s02"})
        write_subject_dir(tmp_path / "s01", pcg)
        write_subject_dir(tmp_path / "s02", pcg)
        (tmp_path / "s02" / "pcg.wav").write_bytes(b"not a wav")
        records, errors = load_dataset(tmp_path)
        assert [r.subject_id for r in records] == ["s01"]
        assert errors["a"] == "ingest: subject_id s01 is the name of " \
                              "another folder"
        assert errors["b"] == "ingest: subject_id s02 is the name of " \
                              "another folder"
        assert list(errors) == ["a", "b", "s02"]

    def test_unreadable_file_is_an_ingest_error(self, tmp_path):
        pcg, ecg = self._signals()
        write_subject_dir(tmp_path / "s01", pcg, ecg=ecg)
        write_subject_dir(tmp_path / "s02", pcg)
        (tmp_path / "s02" / "ecg.txt").mkdir()
        records, errors = load_dataset(tmp_path)
        assert [r.subject_id for r in records] == ["s01"]
        assert list(errors) == ["s02"]
        assert errors["s02"].startswith("ingest: ")
        assert "ecg.txt" in errors["s02"]

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(PcgKitError, match="dataset directory not found"):
            load_dataset(tmp_path / "nope")

    def test_rootful_of_nothing_raises(self, tmp_path):
        (tmp_path / "empty_dir").mkdir()
        with pytest.raises(PcgKitError,
                           match="no subject folders with pcg.wav"):
            load_dataset(tmp_path)



class TestMapSubjects:
    """The one loop behind ``load_dataset`` and every report command."""

    @staticmethod
    def _write(root, *names, meta=None):
        pcg = SampledSignal(np.arange(-100, 100) / 32768.0, 2000.0)
        for name in names:
            write_subject_dir(root / name, pcg, meta=(meta or {}).get(name))

    def test_analysis_error_is_filed_under_the_subject(self, tmp_path):
        self._write(tmp_path, "s01", "s02", "s03",
                    meta={"s02": {"subject_id": "beta"}})

        def analyze(record):
            if record.subject_id == "beta":
                raise PcgKitError("no frame produced a usable estimate")
            return len(record.pcg.samples)

        results, errors = pcgkit_io.map_subjects(tmp_path, analyze)
        assert results == {"s01": 200, "s03": 200}
        assert errors == {"beta": "no frame produced a usable estimate"}

    def test_rejected_folders_are_never_analysed(self, tmp_path):
        # "a" names the folder "s03", "s02" repeats the id of "s01", and
        # "s03" holds no audio
        self._write(tmp_path, "a", "s01", "s02", "s03",
                    meta={"a": {"subject_id": "s03"},
                          "s02": {"subject_id": "s01"}})
        (tmp_path / "s03" / "pcg.wav").write_bytes(b"not a wav")
        analysed = []
        results, errors = pcgkit_io.map_subjects(
            tmp_path, lambda record: analysed.append(record.subject_id))
        assert analysed == ["s01"] and list(results) == ["s01"]
        assert list(errors) == ["a", "s02", "s03"]
        assert all(e.startswith("ingest: ") for e in errors.values())

    @pytest.mark.parametrize("root, message", [
        ("nope", "dataset directory not found"),
        ("empty", "no subject folders with pcg.wav")])
    def test_bad_root_raises_before_any_folder_loads(self, root, message,
                                                     tmp_path, monkeypatch):
        (tmp_path / "empty" / "no_audio").mkdir(parents=True)
        monkeypatch.setattr(pcgkit_io, "load_subject_dir", None)
        with pytest.raises(PcgKitError, match=message):
            pcgkit_io.map_subjects(tmp_path / root, lambda record: record)

    def test_other_exceptions_propagate(self, tmp_path):
        self._write(tmp_path, "s01", "s02")

        def analyze(record):
            raise ZeroDivisionError(record.subject_id)

        with pytest.raises(ZeroDivisionError, match="s01"):
            pcgkit_io.map_subjects(tmp_path, analyze)


class TestReports:

    def test_json_bytes_reproducible_and_sorted(self, tmp_path):
        payload = {"zeta": 1, "alpha": {"b": 2.5, "a": [1, 2]}}
        p1 = tmp_path / "deep" / "r1.json"
        p2 = tmp_path / "r2.json"
        write_json_report(p1, payload)
        write_json_report(p2, payload)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert text.index('"alpha"') < text.index('"zeta"')
        assert text.endswith("\n")
        assert json.loads(text) == payload

    def test_json_is_strict_and_plain(self, tmp_path):
        payload = {"f": np.float64(1.5), "h": np.float32(0.25),
                   "i": np.int64(3), "a": np.array([1.0, np.nan]),
                   "t": (1, (2.0, -math.inf)), "nan": math.nan,
                   "inf": math.inf, "ninf": -np.inf, 4: "key"}
        path = tmp_path / "r.json"
        write_json_report(path, payload)
        # the strict reader refuses NaN and Infinity
        assert pcgkit_io.read_json_object(path) == {
            "f": 1.5, "h": 0.25, "i": 3, "a": [1.0, None],
            "t": [1, [2.0, None]], "nan": None, "inf": None, "ninf": None,
            "4": "key"}

    @pytest.mark.parametrize("text, key", [
        ('{"n_subjects": 1, "n_subjects": 2}', "n_subjects"),
        ('{"a": {"b": 1, "b": 1}}', "b"),
        ('{"a": [{"c": 1}, {"c": 2, "d": 0, "c": 3}]}', "c"),
    ], ids=["top", "nested", "in-list"])
    def test_repeated_key_refused_at_any_depth(self, text, key, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(text)
        with pytest.raises(PcgKitError, match=f"duplicate key '{key}'"):
            pcgkit_io.read_json_object(path)

    def test_equal_keys_in_different_objects_read(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text('{"a": {"k": 1}, "b": [{"k": 2}, {"k": 3}]}')
        assert pcgkit_io.read_json_object(path) == {
            "a": {"k": 1}, "b": [{"k": 2}, {"k": 3}]}

    def test_csv_floats_survive_reparse(self, tmp_path):
        rows = [("a", 0.1 + 0.2, 1), ("b", 1e-17, 2)]
        path = tmp_path / "series.csv"
        write_csv_series(path, ("name", "value", "count"), rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,value,count"
        for line, row in zip(lines[1:], rows):
            name, value, count = line.split(",")
            assert name == row[0]
            assert float(value) == row[1]
            assert int(count) == row[2]


def _wav_bytes(values, channels):
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(2000)
        wf.writeframes(struct.pack(f"<{len(values)}h", *values))
    return buf.getvalue()


def _has_non_finite_number(line):
    """Whether a comma-separated field of the line reads as NaN or infinity."""
    for part in line.strip().split(","):
        try:
            if not math.isfinite(float(part)):
                return True
        except ValueError:
            pass
    return False


class TestIngestProperties:
    """Ingest either loads a file or raises a PcgKitError, nothing else."""

    @settings(max_examples=20, deadline=None)
    @given(channels=st.integers(1, 2), n_frames=st.integers(1, 12),
           data=st.data())
    def test_every_wav_truncation(self, channels, n_frames, data):
        values = data.draw(st.lists(st.integers(-32768, 32767),
                                    min_size=channels * n_frames,
                                    max_size=channels * n_frames))
        wav = _wav_bytes(values, channels)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pcg.wav"
            for cut in range(len(wav) + 1):
                path.write_bytes(wav[:cut])
                try:
                    sig = read_wav_pcm16(path)
                except PcgKitError:
                    continue
                frames = (cut - 44) // (2 * channels)
                assert np.array_equal(sig.samples * 32768,
                                      values[::channels][:frames])

    line = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.tuples(st.floats(-1e3, 1e3), st.floats()).map(
            lambda tv: f"{tv[0]!r},{tv[1]!r}"),
        st.sampled_from(["", "  ", "\t"]),
        st.text(max_size=12))

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(line, max_size=30),
           rate_hz=st.sampled_from([None, 190.0]))
    @example(lines=["nan", "1.0"], rate_hz=190.0)
    @example(lines=["0.0,1.0", "0.01,inf"], rate_hz=None)
    def test_ecg_text_from_random_lines(self, lines, rate_hz):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ecg.txt"
            path.write_text("\n".join(lines), encoding="utf-8")
            try:
                sig = read_ecg_text(path, rate_hz=rate_hz)
            except PcgKitError as exc:
                msg = str(exc)
                if msg.startswith(f"{path}:") and msg != f"{path}: no samples":
                    return  # a parse error, the only error a non-finite
                    # number may raise
                sig = None
            assert not any(map(_has_non_finite_number, lines))
            assert sig is None or np.all(np.isfinite(sig.samples))

