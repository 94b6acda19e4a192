"""Heart-rate conversion formulas and the end-to-end PCG rate chain."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks

from pcgkit import (
    CycleSegmentation,
    DegenerateSignalError,
    EnvelopeMethod,
    FrameQuality,
    HrEstimate,
    HrFormula,
    PcgKitError,
    SampledSignal,
    StageError,
    SynthSpec,
    compute_envelope,
    detrend,
    dwt_denoise_db4,
    frame_qualities,
    generate_ecg,
    generate_pcg,
    hr_from_ecg_frame,
    hr_from_pcg,
    hr_pipeline,
    normalize_max_abs,
    segment_frames,
)
from pcgkit import hr as pcgkit_hr
from pcgkit.hr import ECG_PROMINENCE, _r_peaks

ECG_RATE = 190.0


def impulse_train(gap, n_peaks, rate_hz=ECG_RATE, amp=1.0, start=None):
    start = gap // 2 if start is None else start
    x = np.zeros(start + gap * n_peaks)
    for k in range(n_peaks):
        x[start + k * gap] = amp
    return SampledSignal(x, rate_hz)


# Raw 4 s frames of synthetic ECG, with baseline wander and noise, from
# seeds 0-11.
RAW_ECG_FRAMES = [
    frame for seed in range(12)
    for frame in segment_frames(generate_ecg(SynthSpec(
        hr_bpm=55.0 + 5 * seed, duration_s=12.0, jitter_ms=2.0,
        snr_db=15.0, seed=seed))[0], 4.0)]


def seg_with(t_sys, t_dias):
    return CycleSegmentation(peaks=(), t_sys=t_sys, t_dias=t_dias,
                             t_rs1=0.03, t_ds1=0.03, t_rd2=0.03, t_dd2=0.03,
                             n_cycles=3)


class TestHrFromEcg:

    def test_sixty_bpm_from_one_second_gaps(self):
        est = hr_from_ecg_frame(impulse_train(190, 5))
        assert est.bpm == pytest.approx(60.0, abs=1e-12)
        assert est.accepted

    def test_one_twenty_bpm_from_half_second_gaps(self):
        est = hr_from_ecg_frame(impulse_train(95, 8))
        assert est.bpm == pytest.approx(120.0, abs=1e-12)

    def test_time_reversed_train_same_rate(self):
        frame = impulse_train(95, 8)
        reversed_frame = frame.with_samples(frame.samples[::-1].copy())
        assert hr_from_ecg_frame(reversed_frame).bpm == pytest.approx(
            hr_from_ecg_frame(frame).bpm, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_noisy_synthetic_ecg_within_one_bpm(self, seed):
        spec = SynthSpec(hr_bpm=72.0, duration_s=20.0, jitter_ms=2.0,
                         snr_db=20.0, seed=seed)
        sig, _ = generate_ecg(spec)
        frame = normalize_max_abs(detrend(sig))
        est = hr_from_ecg_frame(frame)
        assert abs(est.bpm - 72.0) <= 1.0

    def test_below_two_peaks_raises(self):
        x = np.zeros(500)
        x[100] = 1.0
        with pytest.raises(PcgKitError, match="found 1 R-peaks, need >= 2"):
            hr_from_ecg_frame(SampledSignal(x, ECG_RATE))

    def test_two_peaks_give_a_rate(self):
        x = np.zeros(500)
        x[[100, 300]] = 1.0
        est = hr_from_ecg_frame(SampledSignal(x, ECG_RATE))
        assert est.bpm == pytest.approx(60.0 * ECG_RATE / 200)

    def test_raw_frame_gives_the_rate_of_its_conditioned_frame(self):
        # oracle: R-peaks of the detrended, max-abs normalized frame
        for raw in RAW_ECG_FRAMES:
            locs = _r_peaks(normalize_max_abs(detrend(raw)).samples)
            want = 60.0 * raw.rate_hz / float(np.mean(np.diff(locs)))
            assert hr_from_ecg_frame(raw).bpm == want

    @settings(max_examples=100, deadline=None)
    @given(raw=st.sampled_from(RAW_ECG_FRAMES), k=st.integers(-20, 20))
    def test_any_scale_gives_the_same_rate(self, raw, k):
        scaled = raw.with_samples(np.ldexp(raw.samples, k))
        assert hr_from_ecg_frame(scaled) == hr_from_ecg_frame(raw)

    def test_all_zero_frame_raises(self):
        with pytest.raises(DegenerateSignalError,
                           match="cannot normalize an all-zero signal"):
            hr_from_ecg_frame(SampledSignal(np.zeros(760), ECG_RATE))

    def test_tachycardic_estimate_flagged_not_dropped(self):
        est = hr_from_ecg_frame(impulse_train(38, 10))
        assert est.bpm == pytest.approx(300.0, abs=1e-9)
        assert "out_of_range" in est.flags
        assert not est.accepted


class TestRPeaksAgainstFindPeaks:
    """R-peak selection equals ``find_peaks(x, prominence=0.8)``."""

    # fifths put prominences on and around 0.8; runs make plateaus and ties
    fifths = st.lists(st.tuples(st.integers(-5, 5), st.integers(1, 5)),
                      min_size=1, max_size=120).map(lambda runs: np.repeat(
                          [v / 5.0 for v, _ in runs], [k for _, k in runs]))
    continuous = st.lists(st.floats(-1.0, 1.0), min_size=1,
                          max_size=300).map(np.array)

    @settings(max_examples=400, deadline=None)
    @given(x=st.one_of(fifths, continuous))
    def test_same_peaks(self, x):
        assert _r_peaks(x) == find_peaks(
            x, prominence=ECG_PROMINENCE)[0].tolist()

    @pytest.mark.parametrize("seed", range(4))
    def test_same_peaks_on_synthetic_ecg_frames(self, seed):
        spec = SynthSpec(hr_bpm=60.0 + 20 * seed, duration_s=16.0,
                         jitter_ms=2.0, snr_db=10.0, seed=seed)
        sig, _ = generate_ecg(spec)
        for start in range(0, len(sig.samples) - 760 + 1, 760):
            x = normalize_max_abs(detrend(sig.with_samples(
                sig.samples[start:start + 760]))).samples
            assert _r_peaks(x) == find_peaks(
                x, prominence=ECG_PROMINENCE)[0].tolist()


class TestHrFromPcg:

    def test_equal_one_second_intervals_verbatim(self):
        est = hr_from_pcg(seg_with(1.0, 1.0), HrFormula.EQ7_VERBATIM)
        assert est.bpm == pytest.approx(60.0, abs=1e-12)

    def test_resting_intervals_both_formulas(self):
        eq7 = hr_from_pcg(seg_with(0.3, 0.5), HrFormula.EQ7_VERBATIM)
        cycle = hr_from_pcg(seg_with(0.3, 0.5), HrFormula.CYCLE_PERIOD)
        assert eq7.bpm == pytest.approx(160.0, abs=1e-9)
        assert cycle.bpm == pytest.approx(75.0, abs=1e-9)

    def test_string_formula_coercion(self):
        assert hr_from_pcg(seg_with(0.3, 0.5), "cycle").bpm == pytest.approx(75.0)
        assert hr_from_pcg(seg_with(0.3, 0.5), "eq7").bpm == pytest.approx(160.0)

    def test_nonpositive_interval_raises(self):
        with pytest.raises(PcgKitError, match="intervals must be positive"):
            hr_from_pcg(seg_with(0.0, 0.5))
        with pytest.raises(PcgKitError, match="intervals must be positive"):
            hr_from_pcg(seg_with(0.3, -0.1))
        with pytest.raises(PcgKitError, match="intervals must be positive"):
            hr_from_pcg(seg_with(0.3, 0.0))

    def test_formula_ratio_identity(self):
        # EQ7 / CYCLE = (a + b)^2 / (2ab), which is >= 1 by AM-GM
        rng = np.random.default_rng(9)
        for _ in range(200):
            a, b = rng.uniform(0.05, 2.0, 2)
            seg = seg_with(a, b)
            eq7 = hr_from_pcg(seg, HrFormula.EQ7_VERBATIM).bpm
            cyc = hr_from_pcg(seg, HrFormula.CYCLE_PERIOD).bpm
            factor = (a + b) ** 2 / (2.0 * a * b)
            assert eq7 == pytest.approx(cyc * factor, rel=1e-9)
            assert eq7 >= cyc

    def test_bradycardic_estimate_flagged(self):
        est = hr_from_pcg(seg_with(2.0, 2.0), HrFormula.CYCLE_PERIOD)
        assert est.bpm == pytest.approx(15.0)
        assert not est.accepted

    @pytest.mark.parametrize("bpm, accepted", [
        (19.5, False), (20.0, True), (240.0, True), (241.0, False)])
    def test_range_bounds_are_inclusive(self, bpm, accepted):
        half = 30.0 / bpm  # equal intervals: the cycle is 60 / bpm seconds
        est = hr_from_pcg(seg_with(half, half))
        assert est.bpm == pytest.approx(bpm)
        assert est.accepted is accepted

    def test_any_flag_rejects_the_estimate(self):
        # in range, but flagged: acceptance means no flag of any kind
        assert HrEstimate(72.0).accepted
        assert not HrEstimate(72.0, flags=("period_mismatch",)).accepted


class TestHrPipeline:

    @pytest.mark.parametrize("method", list(EnvelopeMethod))
    def test_clean_sixty_bpm_recovered(self, method):
        spec = SynthSpec(hr_bpm=60.0, duration_s=10.0, jitter_ms=0.0,
                         snr_db=None)
        sig, _ = generate_pcg(spec)
        result = hr_pipeline(sig, method=method)
        assert abs(result.hr.bpm - 60.0) <= 1.5
        assert result.hr.accepted

    def test_seventy_five_bpm_recovered(self):
        spec = SynthSpec(hr_bpm=75.0, duration_s=10.0, jitter_ms=0.0,
                         snr_db=None)
        sig, _ = generate_pcg(spec)
        result = hr_pipeline(sig)
        assert abs(result.hr.bpm - 75.0) <= 2.0

    def test_silence_fails_at_segmentation(self):
        frame = SampledSignal(np.zeros(8000), 2000.0)
        with pytest.raises(StageError) as excinfo:
            hr_pipeline(frame)
        assert excinfo.value.stage == "segmentation"
        assert str(excinfo.value.cause) == ("only 0 peaks survive detection; "
                                            "need >= 3")

    def test_amplitude_scaling_invariance(self):
        spec = SynthSpec(hr_bpm=75.0, duration_s=8.0, jitter_ms=0.0,
                         snr_db=None)
        sig, _ = generate_pcg(spec)
        scaled = sig.with_samples(sig.samples * 123.0)
        assert hr_pipeline(scaled).hr.bpm == pytest.approx(
            hr_pipeline(sig).hr.bpm, abs=0.1)

    def test_intermediates_exposed(self):
        spec = SynthSpec(hr_bpm=75.0, duration_s=8.0, jitter_ms=0.0,
                         snr_db=None)
        sig, _ = generate_pcg(spec)
        result = hr_pipeline(sig)
        assert abs(np.max(np.abs(result.normalized.samples)) - 1.0) < 1e-12
        assert abs(np.max(result.envelope.samples) - 1.0) < 1e-12
        assert result.envelope.rate_hz == sig.rate_hz
        assert result.segmentation.n_cycles >= 1
        assert result.denoised.rate_hz == sig.rate_hz

    def test_verbatim_formula_passthrough(self):
        spec = SynthSpec(hr_bpm=75.0, duration_s=8.0, jitter_ms=0.0,
                         snr_db=None)
        sig, _ = generate_pcg(spec)
        eq7 = hr_pipeline(sig, formula="eq7")
        cyc = hr_pipeline(sig, formula="cycle")
        assert eq7.hr.bpm > cyc.hr.bpm

    def test_method_source_tagging(self):
        spec = SynthSpec(hr_bpm=75.0, duration_s=8.0, jitter_ms=0.0,
                         snr_db=None)
        sig, _ = generate_pcg(spec)
        for method in ("hilbert", "wes"):
            result = hr_pipeline(sig, method=method)
            expected = compute_envelope(result.normalized, method)
            assert np.array_equal(result.envelope.samples, expected.samples)


class TestDenoiseNormalize:
    """The one denoise-and-normalize step ``hr_pipeline`` and ``quality``'s
    later wavelet families both run."""

    @pytest.mark.filterwarnings("ignore:peak at .* has truncated support")
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(256, 8000), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([0.0, 1e-200, 1e-6, 1.0, 3e4]))
    def test_equals_what_hr_pipeline_normalizes(self, n, seed, scale):
        # the envelope stage's input is hr_pipeline's normalized frame,
        # also where a later stage fails, as it does on all-zero frames
        frame = SampledSignal(
            scale * np.random.default_rng(seed).standard_normal(n), 2000.0)
        seen = []

        def envelope(normalized, *args, **kwargs):
            seen.append(normalized)
            return compute_envelope(normalized, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pcgkit_hr, "compute_envelope", envelope)
            try:
                assert hr_pipeline(frame).normalized is seen[0]
            except PcgKitError:
                pass
        denoised, normalized = pcgkit_hr._denoise_normalize(frame)
        assert np.array_equal(normalized.samples, seen[0].samples)
        assert normalized.rate_hz == seen[0].rate_hz
        assert np.array_equal(denoised.samples,
                              dwt_denoise_db4(frame).samples)
        assert (normalized is denoised) == (scale == 0.0)


def degenerate_frame(shape, amp, position, freq_hz, rate_hz=2000.0, n=8000):
    """A 4 s frame with no heart sounds in it."""
    if shape == "zero":
        x = np.zeros(n)
    elif shape == "constant":
        x = np.full(n, amp)
    elif shape == "clipped":
        t = np.arange(n) / rate_hz
        x = np.clip(amp * np.sin(2 * np.pi * freq_hz * t), -1.0, 1.0)
    else:  # a single impulse
        x = np.zeros(n)
        x[position] = amp
    return SampledSignal(x, rate_hz)


class TestDegenerateFrames:
    """A frame without heart sounds gives a result or a PcgKitError."""

    @pytest.mark.filterwarnings("ignore:peak at .* has truncated support")
    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(["zero", "constant", "clipped", "impulse"]),
           amp=st.floats(1e-6, 1e3).flatmap(
               lambda a: st.sampled_from([a, -a])),
           position=st.integers(0, 7999),
           freq_hz=st.floats(1.0, 400.0))
    def test_result_or_toolkit_error(self, shape, amp, position, freq_hz):
        frame = degenerate_frame(shape, amp, position, freq_hz)
        for method in EnvelopeMethod:
            try:
                result = hr_pipeline(frame, method=method)
            except PcgKitError:
                continue
            quality, = frame_qualities(
                [(result.normalized, result.segmentation)])
            assert isinstance(quality, (FrameQuality, PcgKitError))
