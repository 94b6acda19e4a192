import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import signal as sps

from pcgkit import (
    EnvelopeMethod,
    SampledSignal,
    butterworth_lowpass_zero_phase,
    compute_envelope,
    detrend,
    normalize_max_abs,
    read_wav_pcm16,
    resample_rational,
    segment_frames,
    write_wav_pcm16,
)
from pcgkit import core
from pcgkit.core import (
    LOWPASS_ORDER,
    _antialias_fir,
    _butter_lowpass_sos,
    _lowpass_plan,
    _next_fast_len,
)
from pcgkit.errors import DegenerateSignalError, PcgKitError, TooShortError


def sig(values, rate=100.0):
    return SampledSignal(np.asarray(values, dtype=np.float64), rate)


def sosfiltfilt_extended(sos, x, padlen):
    """``sosfiltfilt(sos, x, padtype="even", padlen)`` in ``np.longdouble``.

    The same float64 sections, steady-state start and even extension as
    ``scipy.signal.sosfiltfilt``, with every product and sum rounded to
    the 64-bit mantissa of the x87 extended type: 2048 times finer than
    float64, so a reference for float64 filters where they lose digits.
    """
    sos = sos.astype(np.longdouble)
    zi = np.empty((len(sos), 2), dtype=np.longdouble)
    scale = np.longdouble(1)
    for k, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        r0, r1 = b1 - a1 * b0, b2 - a2 * b0
        z0 = (r0 + r1) / (1 + a1 + a2)
        zi[k] = scale * z0, scale * (r1 - a2 * z0)
        scale *= (b0 + b1 + b2) / (1 + a1 + a2)
    y = np.concatenate((x[padlen:0:-1], x, x[-2:-padlen - 2:-1]))
    y = y.astype(np.longdouble)
    for _ in range(2):
        y, _ = sps.sosfilt(sos, y, zi=zi * y[0])
        y = y[::-1]
    return y[padlen:len(y) - padlen]


def section_recursion_extended(rhs, a1, a2):
    """``y[n] + a1 y[n-1] + a2 y[n-2] = rhs[n]`` from rest, sample by
    sample in ``np.longdouble``."""
    a1, a2 = np.longdouble(a1), np.longdouble(a2)
    y = np.zeros(len(rhs) + 2, dtype=np.longdouble)
    for k, r in enumerate(rhs.astype(np.longdouble)):
        y[k + 2] = r - a1 * y[k + 1] - a2 * y[k]
    return y[2:]


class TestSampledSignal:
    def test_rejects_empty(self):
        with pytest.raises(PcgKitError, match="samples must be non-empty"):
            sig([])

    def test_rejects_nonfinite(self):
        with pytest.raises(PcgKitError, match="non-finite values"):
            sig([1.0, np.nan])
        with pytest.raises(PcgKitError, match="non-finite values"):
            sig([np.inf, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 5000), data=st.data(),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           scale=st.sampled_from([1.0, 1e300]),
           seed=st.integers(0, 2**32 - 1))
    def test_rejects_any_nonfinite_sample(self, n, data, bad, scale, seed):
        x = np.random.default_rng(seed).normal(size=n) * scale
        x[data.draw(st.integers(0, n - 1), label="index")] = bad
        with pytest.raises(PcgKitError, match="non-finite"):
            sig(x)

    @pytest.mark.parametrize("values", [
        [1e308] * 4, [-1.7e308, -1.7e308], [1.7e308, -1.7e308, 1.7e308],
        [np.finfo(float).max, np.finfo(float).max]])
    def test_accepts_finite_samples_whose_sum_overflows(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and says nothing about it
            s = sig(values)
        assert np.array_equal(s.samples, values)

    def test_rejects_bad_rate(self):
        with pytest.raises(PcgKitError,
                           match="rate_hz must be finite and > 0"):
            SampledSignal(np.ones(4), 0.0)
        with pytest.raises(PcgKitError,
                           match="rate_hz must be finite and > 0"):
            SampledSignal(np.ones(4), -5.0)
        for rate in (math.inf, math.nan):
            with pytest.raises(PcgKitError, match="finite"):
                SampledSignal(np.ones(4), rate)

    def test_duration_and_times(self):
        s = sig([0, 1, 2, 3], rate=2.0)
        assert s.duration_s == 2.0
        assert len(s) == 4

    def test_with_samples_keeps_rate_and_label(self):
        s = SampledSignal(np.ones(8), 44100.0)
        out = s.with_samples(np.zeros(8) + 2)
        assert out.rate_hz == 44100.0
        assert np.all(out.samples == 2.0)
        assert np.all(s.samples == 1.0)

    @pytest.mark.parametrize("holder", ["recording", "frame", "envelope"])
    def test_holders_cannot_write_samples(self, tmp_path, holder):
        t = np.arange(8000) / 2000.0
        path = tmp_path / "pcg.wav"
        write_wav_pcm16(path, SampledSignal(
            0.5 * np.sin(2 * np.pi * 3.0 * t), 2000.0))
        s = read_wav_pcm16(path)
        if holder != "recording":
            s = segment_frames(s, 2.0)[1]
        if holder == "envelope":
            s = compute_envelope(s, EnvelopeMethod.SHANNON)
        before = s.samples.copy()
        with pytest.raises(ValueError, match="read-only"):
            s.samples[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            s.samples *= 2.0
        assert np.array_equal(s.samples, before)

    def test_leaves_the_callers_array_writable(self):
        arr = np.arange(4.0)
        s = SampledSignal(arr, 1.0)
        assert arr.flags.writeable
        assert not s.samples.flags.writeable
        arr[0] = 7.0
        assert arr[0] == 7.0


class TestDetrend:
    def test_pure_ramp_removed(self):
        out = detrend(sig([1, 2, 3, 4, 5]))
        assert np.max(np.abs(out.samples)) < 1e-12

    def test_constant_removed(self):
        out = detrend(sig([7.25] * 64))
        assert np.max(np.abs(out.samples)) < 1e-12

    @pytest.mark.parametrize("values", [[5.0], [1.0, 3.0]])
    def test_shortest_signals(self, values):
        # one sample has no slope to fit; two fit their line exactly
        assert detrend(sig(values)).samples.tolist() == [0.0] * len(values)

    def test_sine_plus_ramp_leaves_detrended_sine(self):
        n = 500
        t = np.arange(n) / 100.0
        wave = np.sin(2 * np.pi * 3.0 * t)
        out = detrend(sig(wave + 0.4 * t + 2.0))
        # closed-form OLS line on the output must be flat
        tc = np.arange(n) - (n - 1) / 2.0
        slope = np.dot(tc, out.samples) / np.dot(tc, tc)
        assert abs(slope) < 1e-10
        assert abs(out.samples.mean()) < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        s = sig(rng.normal(size=300) + np.linspace(0, 5, 300))
        once = detrend(s)
        twice = detrend(once)
        assert np.max(np.abs(once.samples - twice.samples)) < 1e-10


class TestNormalize:
    def test_example_values(self):
        out = normalize_max_abs(sig([2.0, -4.0, 1.0]))
        assert np.allclose(out.samples, [0.5, -1.0, 0.25], atol=0)

    def test_single_sample(self):
        out = normalize_max_abs(sig([1.0]))
        assert out.samples[0] == 1.0

    def test_zero_signal_raises(self):
        with pytest.raises(DegenerateSignalError):
            normalize_max_abs(sig([0.0, 0.0, 0.0]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        a = normalize_max_abs(sig(x)).samples
        b = normalize_max_abs(sig(1234.5 * x)).samples
        assert np.max(np.abs(a - b)) < 1e-12


class TestResample:
    def test_identity_rate(self, tone):
        s = tone(100.0, 1.0, 2000.0)
        out = resample_rational(s, 2000.0)
        assert out.rate_hz == 2000.0
        assert np.max(np.abs(out.samples - s.samples)) < 1e-9

    def test_downsample_preserves_passband_tone(self, tone):
        s = tone(100.0, 1.0, 44100.0)
        out = resample_rational(s, 2000.0)
        assert out.rate_hz == 2000.0
        # peak FFT amplitude of the interior should stay within 1%
        x = out.samples[200:-200]
        spec = np.abs(np.fft.rfft(x * np.hanning(len(x))))
        amp = 2 * spec.max() / np.sum(np.hanning(len(x)))
        assert abs(amp - 1.0) < 0.01
        freqs = np.fft.rfftfreq(len(x), 1 / 2000.0)
        assert abs(freqs[spec.argmax()] - 100.0) < 2.0

    def test_above_target_nyquist_rejected(self, tone):
        s = tone(1500.0, 1.0, 44100.0)
        out = resample_rational(s, 2000.0)
        rms_in = np.sqrt(np.mean(s.samples**2))
        rms_out = np.sqrt(np.mean(out.samples[200:-200] ** 2))
        assert rms_out < 0.01 * rms_in

    def test_round_trip_band_limited(self, tone):
        s = tone(220.0, 1.0, 2000.0)
        back = resample_rational(resample_rational(s, 44100.0), 2000.0)
        assert len(back) == len(s)
        a, b = s.samples[200:-200], back.samples[200:-200]
        err = np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(a**2))
        assert err < 0.02

    @pytest.mark.parametrize("freq, target, passes", [
        (600.0, 2000.0, True), (900.0, 2000.0, False),
        (600.0, 2205.0, True)])
    def test_documented_pass_and_stop_bands(self, tone, freq, target, passes):
        # below 0.6 of the limiting Nyquist within 1%; above 0.9 of the
        # new Nyquist at least 40 dB down
        out = resample_rational(tone(freq, 1.0, 44100.0), target)
        x = out.samples[300:-300]
        rms = np.sqrt(np.mean(x ** 2)) * np.sqrt(2.0)
        if passes:
            assert abs(rms - 1.0) < 0.01
        else:
            assert rms < 0.01

    def test_filter_is_odd_and_symmetric(self):
        # 4000 -> 2000 Hz is a design whose Kaiser estimate is even
        h = _antialias_fir(1, 2, 4000.0)
        assert len(h) % 2 == 1
        assert np.array_equal(h, h[::-1])

    def test_target_rate_checked_first(self):
        for target in (0.0, -1.0, math.inf, -math.inf, math.nan):
            with pytest.raises(PcgKitError,
                               match="target_rate_hz must be > 0"):
                resample_rational(sig(np.ones(100), 1.0), target)

    def test_sub_hertz_target(self):
        out = resample_rational(sig(np.ones(100), 1.0), 0.5)
        assert (len(out), out.rate_hz) == (50, 0.5)

    def test_denominator_limit_is_10000(self):
        with pytest.raises(PcgKitError,
                           match="not representable with denominator"):
            resample_rational(sig(np.ones(20002), 10001.0), 1.0)

    def test_irrational_ratio_raises(self, tone):
        s = tone(50.0, 0.5, 2000.0)
        with pytest.raises(PcgKitError,
                           match="not representable with denominator"):
            resample_rational(s, 2000.0 * math.pi)

    def test_result_past_the_cap_refused_before_allocating(self):
        # 10,000 samples at 1 Hz would become 2e7 samples, 160 MB, at 2 kHz
        s = sig(np.ones(10_000), 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(PcgKitError,
                               match="10000 samples from 1 Hz"):
                resample_rational(s, 2000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    # (samples, source rate, cap): the result may reach the cap, and a
    # source already past it may still be resampled to fewer samples
    @pytest.mark.parametrize("n, rate, cap, n_out", [
        (1500, 1000.0, 3000, 3000), (1001, 3000.0, 300, 668),
        (900, 1000.0, 1000, None), (1501, 1000.0, 3000, None)])
    def test_cap_is_the_larger_of_source_and_max_samples(self, n, rate, cap,
                                                         n_out, monkeypatch):
        monkeypatch.setattr(core, "MAX_SAMPLES", cap)
        s = sig(np.zeros(n), rate)
        if n_out is None:
            with pytest.raises(PcgKitError, match="more than"):
                resample_rational(s, 2000.0)
        else:
            assert len(resample_rational(s, 2000.0).samples) == n_out


def scipy_antialias_fir(up, down, rate_in):
    """``_antialias_fir``'s design as scipy makes it."""
    rate_up = rate_in * up
    f_lim = min(rate_in, rate_in * up / down) / 2.0
    numtaps, beta = sps.kaiserord(60.0, 0.3 * f_lim / (rate_up / 2.0))
    return sps.firwin(numtaps | 1, 0.75 * f_lim, window=("kaiser", beta),
                      fs=rate_up)


class TestResampleAgainstScipy:
    """The numpy Kaiser design and polyphase filter against scipy's."""

    @settings(max_examples=200, deadline=None)
    @given(up=st.integers(1, 2000), down=st.integers(1, 2000),
           rate_in=st.floats(0.5, 50000.0))
    @example(up=20, down=441, rate_in=44100.0)
    @example(up=2000, down=1999, rate_in=1999.0)
    def test_taps_equal_kaiserord_firwin(self, up, down, rate_in):
        expected = scipy_antialias_fir(up, down, rate_in)
        got = _antialias_fir(up, down, rate_in)
        assert len(got) == len(expected)
        np.testing.assert_allclose(got, expected, rtol=0,
                                   atol=1e-15 * expected.max())

    # 2000/1999 reads 1999 input samples between outputs of one phase,
    # more than the 25 taps it applies; rows is the outputs per phase
    # that one chunk of input gives
    @settings(max_examples=60, deadline=None)
    @given(rate_in=st.integers(1, 3000), rate_out=st.integers(1, 3000),
           n=st.one_of(st.integers(1, 50), st.integers(1, 20000)),
           rows=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @example(rate_in=1999, rate_out=2000, n=8000, rows=32, seed=0)
    @example(rate_in=44100, rate_out=2000, n=176400, rows=148, seed=0)
    @example(rate_in=48000, rate_out=2000, n=1, rows=2730, seed=0)
    @example(rate_in=8000, rate_out=2000, n=32000, rows=16384, seed=0)
    @example(rate_in=2205, rate_out=2000, n=8820, rows=148, seed=0)
    def test_output_equals_resample_poly(self, rate_in, rate_out, n, rows,
                                         seed):
        g = math.gcd(rate_in, rate_out)
        up, down = rate_out // g, rate_in // g
        n = min(n, 20000 * down // up + 1)  # at most about 20000 outputs
        x = np.random.default_rng(seed).normal(size=n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_antialias_fir", scipy_antialias_fir)
            mp.setattr(core, "_RESAMPLE_CHUNK", rows * down)
            got = resample_rational(SampledSignal(x, float(rate_in)),
                                    rate_out)
        if up == down:
            expected = x
        else:
            expected = sps.resample_poly(
                x, up, down, window=scipy_antialias_fir(up, down, rate_in))
        assert got.samples.tobytes() == expected.tobytes()

    def test_memory_is_the_output_and_a_fixed_chunk(self):
        # 60 s at 44.1 kHz: a 21 MB input and a 0.96 MB output; 2 MiB
        # holds the taps and one chunk, but no copy of the input
        x = np.random.default_rng(0).normal(size=60 * 44100)
        s = SampledSignal(x, 44100.0)
        tracemalloc.start()
        try:
            out = resample_rational(s, 2000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 120_000
        assert peak <= out.samples.nbytes + 2 * 2 ** 20


class TestFrames:
    def test_fifteen_frames_per_minute(self):
        s = SampledSignal(np.zeros(120000) + 1.0, 2000.0)
        frames = segment_frames(s, 4.0)
        assert len(frames) == 15
        assert all(len(f) == 8000 for f in frames)

    def test_six_second_frames(self):
        s = SampledSignal(np.ones(120000), 2000.0)
        assert len(segment_frames(s, 6.0)) == 10

    def test_trailing_partial_discarded(self):
        s = SampledSignal(np.ones(11000), 1000.0)
        frames = segment_frames(s, 4.0)
        assert len(frames) == 2

    def test_start_offsets(self):
        s = SampledSignal(np.arange(12000, dtype=float) + 1, 1000.0)
        frames = segment_frames(s, 4.0)
        assert [f.samples[0] for f in frames] == [1.0, 4001.0, 8001.0]
        assert frames[1].samples[0] == s.samples[4000]

    @pytest.mark.parametrize("n, frame_len_s, rate, lengths", [
        (4000, 4.0, 1000.0, [4000]), (7999, 4.0, 1000.0, [4000]),
        (5, 0.02, 100.0, [2, 2])])
    def test_exact_and_shortest_frames(self, n, frame_len_s, rate, lengths):
        frames = segment_frames(SampledSignal(np.ones(n), rate), frame_len_s)
        assert [len(f) for f in frames] == lengths

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 5000), data=st.data(),
           rate=st.floats(1.0, 5e4, allow_nan=False),
           seed=st.integers(0, 2**32 - 1))
    def test_frames_are_read_only_views_of_the_signal(self, n, data, rate,
                                                      seed):
        frame_len = data.draw(st.integers(2, n), label="frame_len")
        s = SampledSignal(np.random.default_rng(seed).normal(size=n), rate)
        frames = segment_frames(s, frame_len / rate)
        assert len(frames) == n // frame_len
        for f in frames:
            assert f.rate_hz == rate
            assert np.shares_memory(f.samples, s.samples)
            assert not f.samples.flags.writeable
        assert np.array_equal(np.concatenate([f.samples for f in frames]),
                              s.samples[:len(frames) * frame_len])

    def test_too_short_raises(self):
        s = SampledSignal(np.ones(5000), 1000.0)
        with pytest.raises(TooShortError):
            segment_frames(s, 6.0)

    def test_bad_plan(self):
        s = SampledSignal(np.ones(8000), 1000.0)
        for frame_len_s in (0.0, -4.0, 0.001, math.nan, math.inf):
            with pytest.raises(PcgKitError,
                               match="frame (shorter|of .* no finite)"):
                segment_frames(s, frame_len_s)
        # 4 s at 1e308 Hz overflows to an infinite sample count
        with pytest.raises(PcgKitError, match="finite"):
            segment_frames(SampledSignal(np.ones(10), 1e308), 4.0)


class TestZeroPhaseLowpass:
    def test_dc_unity_gain(self):
        s = SampledSignal(np.ones(2000), 1000.0)
        out = butterworth_lowpass_zero_phase(s, 20.0)
        assert np.max(np.abs(out.samples - 1.0)) < 1e-6

    def test_passband_tone_kept(self, tone):
        s = tone(5.0, 4.0, 1000.0)
        out = butterworth_lowpass_zero_phase(s, 20.0)
        a, b = s.samples[500:-500], out.samples[500:-500]
        assert abs(np.sqrt(np.mean(b**2)) / np.sqrt(np.mean(a**2)) - 1) < 0.02

    def test_stopband_tone_crushed(self, tone):
        s = tone(100.0, 4.0, 1000.0)
        out = butterworth_lowpass_zero_phase(s, 20.0)
        assert (np.sqrt(np.mean(out.samples[500:-500] ** 2))
                < 0.01 * np.sqrt(np.mean(s.samples**2)))

    def test_zero_phase_time_reversal(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=4000)
        s = SampledSignal(x, 1000.0)
        fwd = butterworth_lowpass_zero_phase(s, 30.0).samples
        rev = butterworth_lowpass_zero_phase(
            SampledSignal(x[::-1].copy(), 1000.0), 30.0).samples[::-1]
        assert np.max(np.abs(fwd[300:-300] - rev[300:-300])) < 1e-8

    def test_cutoff_at_nyquist_raises(self):
        s = SampledSignal(np.ones(100), 100.0)
        with pytest.raises(PcgKitError,
                           match=r"cutoff 50.0 Hz outside \(0, 50.0\)"):
            butterworth_lowpass_zero_phase(s, 50.0)

    def test_zero_cutoff_raises(self):
        s = SampledSignal(np.ones(100), 100.0)
        with pytest.raises(PcgKitError,
                           match=r"cutoff 0.0 Hz outside \(0, 50.0\)"):
            butterworth_lowpass_zero_phase(s, 0.0)

    def test_next_fast_len_is_scipys(self):
        from scipy.fft import next_fast_len
        for real in (False, True):
            assert [_next_fast_len(n, real) for n in range(1, 3000)] == \
                [next_fast_len(n, real) for n in range(1, 3000)]


class TestLowpassAgainstScipy:
    """The numpy Butterworth design and FFT-convolution filter against scipy.

    ``scipy.signal`` is imported here only; the package never loads it
    for filtering.
    """

    @settings(max_examples=300, deadline=None)
    @given(rate=st.floats(500.0, 8000.0),
           frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_sections_equal_butter(self, rate, frac):
        cutoff = frac * rate / 2.0
        assume(0.0 < cutoff < rate / 2.0)
        expected = sps.butter(LOWPASS_ORDER, cutoff, fs=rate, output="sos")
        got = _butter_lowpass_sos(cutoff, rate)
        eps = np.finfo(float).eps
        np.testing.assert_allclose(got, expected, rtol=4 * eps, atol=4 * eps)
        # the gain, tiny at low cutoffs, to a few ulps of its own size
        np.testing.assert_allclose(got[0, :3], expected[0, :3], rtol=4 * eps)

    @pytest.mark.parametrize("n", [3, 50, 400, 8000])
    def test_extended_reference_is_sosfiltfilt(self, n):
        """``sosfiltfilt_extended`` runs the filter ``sosfiltfilt`` runs."""
        assert np.finfo(np.longdouble).nmant >= 63
        x = np.random.default_rng(n).normal(size=n)
        sos = sps.butter(LOWPASS_ORDER, 20.0, fs=2000.0, output="sos")
        padlen = min(n - 1, 1200)
        got = sosfiltfilt_extended(sos, x, padlen)
        assert got.dtype == np.longdouble
        expected = sps.sosfiltfilt(sos, x, padtype="even", padlen=padlen)
        np.testing.assert_allclose(got.astype(np.float64), expected, rtol=0,
                                   atol=1e-13 * np.max(np.abs(expected)))

    @settings(max_examples=60, deadline=None)
    @given(n=st.one_of(st.integers(3, 400), st.integers(3, 60000)),
           rate=st.floats(500.0, 8000.0),
           # inside 0.005-0.99 of Nyquist every pole stays 5e-3 or more
           # from the unit circle; below that both recursions lose digits
           # (at 1e-4 of Nyquist scipy's own error against an extended-
           # precision run is 3.8e-11 of the peak, the banded solve's
           # 3.6e-12)
           frac=st.floats(0.005, 0.99), seed=st.integers(0, 2**32 - 1))
    # draws that failed the 1e-12 bound against sosfiltfilt, the LAPACK
    # banded solve's largest miss of the 80-bit run in about 1.4e5 draws,
    # the blocked section solve's largest miss inside 1e-11 in 8e4 corner
    # draws, and two corner draws where every float64 section cascade is
    # over 1e-11 of the peak from the 80-bit run
    @example(n=140, rate=500.0, frac=0.005, seed=0)
    @example(n=201, rate=500.0, frac=0.005, seed=133296)
    @example(n=177, rate=2345.1523062389197, frac=0.0052933904389372245,
             seed=1151804580)
    @example(n=178, rate=6791.680603569052, frac=0.005159083588241284,
             seed=4284853704)
    @example(n=24, rate=2335.917, frac=0.005962, seed=4211711846)
    @example(n=50, rate=4288.819, frac=0.005238, seed=334818816)
    def test_filter_equals_sosfiltfilt(self, n, rate, frac, seed):
        x = np.random.default_rng(seed).normal(size=n)
        cutoff = frac * rate / 2.0
        settle = math.ceil(rate / cutoff) * LOWPASS_ORDER
        padlen = min(n - 1, 3 * settle)
        sos = sps.butter(LOWPASS_ORDER, cutoff, fs=rate, output="sos")
        expected = sps.sosfiltfilt(sos, x, padtype="even", padlen=padlen)
        got = butterworth_lowpass_zero_phase(SampledSignal(x, rate), cutoff)
        peak = np.max(np.abs(expected))
        if frac < 0.015 and n < rate / cutoff:
            # A frame shorter than one period of a cutoff below 0.015 of
            # Nyquist comes out with a peak down to 1e-5 of its input's,
            # and a float64 section cascade rounds at the input's scale:
            # at n=24, 2336 Hz, 0.0060 of Nyquist sosfiltfilt is 1.8e-11
            # of the peak from an 80-bit run. So there the filter is held
            # to 1e-12 of the peak from the 80-bit run, not sosfiltfilt.
            exact = sosfiltfilt_extended(sos, x, padlen)
            np.testing.assert_allclose(got.samples, exact.astype(np.float64),
                                       rtol=0, atol=1e-12 * peak)
        else:
            np.testing.assert_allclose(got.samples, expected, rtol=0,
                                       atol=1e-12 * peak)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 50, 1200, 1201, 1202,
                                   8000, 60000])
    def test_envelope_smoothing_lengths(self, n):
        """The pipeline's 20 Hz at 2000 Hz, where padlen is n - 1 to 1200."""
        x = np.random.default_rng(n).normal(size=n)
        expected = sps.sosfiltfilt(
            sps.butter(LOWPASS_ORDER, 20.0, fs=2000.0, output="sos"), x,
            padtype="even", padlen=min(n - 1, 1200))
        got = butterworth_lowpass_zero_phase(SampledSignal(x, 2000.0), 20.0)
        np.testing.assert_allclose(got.samples, expected, rtol=0,
                                   atol=1e-12 * np.max(np.abs(expected)))


class TestSectionSolve:
    """The lowpass plan: one pass multiplies by the sections' frequency
    response on the FFT grid."""

    @pytest.mark.parametrize("n", [1, 2, 3, 10400, 60000])
    def test_unit_impulse_gives_impulse_response(self, n):
        """The grid's inverse transform is the sections' impulse response
        over all ``nfft`` samples, to 1e-14 of its peak."""
        for frac in (0.005, 0.02, 0.99):
            _, spectrum, nfft = _lowpass_plan(frac * 1000.0, 2000.0, n)
            got = np.fft.irfft(spectrum, nfft)
            h = np.zeros(nfft, dtype=np.longdouble)
            h[0] = 1
            for b0, b1, b2, _, a1, a2 in _butter_lowpass_sos(frac * 1000.0,
                                                             2000.0):
                b = np.array([b0, b1, b2], dtype=np.longdouble)
                h = section_recursion_extended(np.convolve(h, b)[:nfft],
                                               a1, a2)
            np.testing.assert_allclose(got, h.astype(np.float64), rtol=0,
                                       atol=1e-14 * np.max(np.abs(h)))

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("frac", [0.005, 0.02, 0.99])
    def test_short_inputs_equal_extended_run(self, n, frac):
        """Inputs far shorter than the response's decay, whose grid the
        decay alone sizes."""
        x = np.random.default_rng(n).normal(size=n)
        cutoff = frac * 1000.0
        settle = math.ceil(2000.0 / cutoff) * LOWPASS_ORDER
        padlen = min(n - 1, 3 * settle)
        sos = sps.butter(LOWPASS_ORDER, cutoff, fs=2000.0, output="sos")
        exact = sosfiltfilt_extended(sos, x, padlen).astype(np.float64)
        got = butterworth_lowpass_zero_phase(SampledSignal(x, 2000.0), cutoff)
        np.testing.assert_allclose(got.samples, exact, rtol=0,
                                   atol=1e-12 * np.max(np.abs(exact)))

    @pytest.mark.parametrize("cutoff", [1e-3, 1e-12, 1e-14, 1e-310, 1e-320,
                                        5e-324])
    def test_cutoff_too_slow_to_decay_raises_at_once(self, cutoff):
        """At 1e-3 and 1e-12 Hz the response takes 3.0e7 and 3.0e16
        samples to decay, more than ``MAX_SAMPLES``; at 1e-14 Hz its pole
        radius rounds to 1. From 1e-310 Hz down the rate over the cutoff
        overflows a float, and at 5e-324 Hz the prewarped poles round onto
        the real axis."""
        s = SampledSignal(np.ones(100), 2000.0)
        tracemalloc.start()
        try:
            with pytest.raises(PcgKitError, match="decay"):
                butterworth_lowpass_zero_phase(s, cutoff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_decay_of_exactly_max_samples_is_planned(self, monkeypatch):
        # the slowest pole pair's radius sets the samples to decay to eps
        radius = math.sqrt(_butter_lowpass_sos(21.5, 1000.0)[:, 5].max())
        eps = np.finfo(np.float64).eps
        decay = math.ceil(math.log(eps) / math.log(radius))
        monkeypatch.setattr(core, "MAX_SAMPLES", decay)
        _lowpass_plan(21.5, 1000.0, 37)
        monkeypatch.setattr(core, "MAX_SAMPLES", decay - 1)
        with pytest.raises(PcgKitError, match="decay"):
            _lowpass_plan(21.5, 1000.0, 38)

    @pytest.mark.parametrize("cutoff", [1e-310, 1e-320, 5e-324])
    def test_plan_refuses_a_subnormal_cutoff(self, cutoff):
        with pytest.raises(PcgKitError, match="decay"):
            _lowpass_plan(cutoff, 2000.0, 100)

    def test_plan_grid_is_built_in_chunks(self):
        """At 0.03 Hz the 100-sample plan spans 1,000,000 points: its
        7.6 MiB complex128 spectrum and one chunk of extended-precision
        scratch, not a grid of them."""
        _lowpass_plan.cache_clear()
        tracemalloc.start()
        try:
            _, spectrum, nfft = _lowpass_plan(0.03, 2000.0, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nfft == 1_000_000 and spectrum.dtype == np.complex128
        assert peak < 16 * 2 ** 20

    def test_plan_is_cached_and_read_only(self):
        _, spectrum, _ = _lowpass_plan(20.0, 2000.0, 10400)
        assert _lowpass_plan(20.0, 2000.0, 10400)[1] is spectrum
        assert not spectrum.flags.writeable

    def test_concurrent_calls_match_serial(self):
        # more threads than cores and a short switch interval, starting from
        # an empty plan cache, so threads race on its misses and interleave
        # their passes
        rng = np.random.default_rng(5)
        signals = [SampledSignal(rng.normal(size=n), 2000.0)
                   for n in (8000, 1201, 60, 8000, 1201, 60)]
        serial = [butterworth_lowpass_zero_phase(s, 20.0).samples
                  for s in signals]
        _lowpass_plan.cache_clear()
        results = [None] * len(signals)

        def work(i):
            for _ in range(5):
                results[i] = butterworth_lowpass_zero_phase(signals[i], 20.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(signals))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for expected, got in zip(serial, results):
            assert np.array_equal(got.samples, expected)
