"""Band estimation, spectrogram, MFCC, energy tracks, NRMSE, and SNR."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgkit import (
    ConfigError,
    CycleSegmentation,
    DegenerateCoverageError,
    DegenerateSignalError,
    FrameQuality,
    InvalidInputError,
    PeakEvent,
    PeakLabel,
    SampledSignal,
    SignalLabel,
    SnrResult,
    SynthSpec,
    TooShortError,
    UndefinedNormalizerError,
    aggregate_quality,
    energy_spectrum,
    fft_band,
    frame_quality,
    generate_pcg,
    hr_pipeline,
    mfcc,
    normalize_max_abs,
    nrmse_wes_vs_es,
    snr_frame,
    spectrogram_stft,
)

RATE = 2000.0


def tone_frame(freqs, duration_s=1.0, rate_hz=RATE):
    t = np.arange(int(duration_s * rate_hz)) / rate_hz
    x = sum(np.cos(2 * np.pi * f * t) for f in freqs)
    return SampledSignal(x, rate_hz, SignalLabel.PCG)


class TestFftBand:

    def test_pure_tone_band_collapses(self):
        # the Hann mainlobe reaches the 5% threshold about 1.6 bins out,
        # so the band sits within two bins of the line
        frame = tone_frame([100.0])
        low, high = fft_band(frame)
        bin_hz = RATE / len(frame.samples)
        assert abs(low - 100.0) <= 2 * bin_hz
        assert abs(high - 100.0) <= 2 * bin_hz
        assert low <= high

    def test_two_tone_band_spans_both_lines(self):
        frame = tone_frame([30.0, 180.0])
        low, high = fft_band(frame)
        bin_hz = RATE / len(frame.samples)
        assert abs(low - 30.0) <= 2 * bin_hz
        assert abs(high - 180.0) <= 2 * bin_hz

    def test_synth_pcg_band_in_sanity_window(self):
        sig, _ = generate_pcg(SynthSpec(duration_s=4.0, jitter_ms=0.0,
                                        snr_db=None))
        low, high = fft_band(sig)
        assert 8.0 < low < high < 300.0

    def test_dc_is_excluded(self):
        # offset chosen so the DC bin alone would cross the threshold
        # while its leakage into neighboring bins stays below it
        frame = tone_frame([100.0])
        shifted = frame.with_samples(frame.samples + 0.03)
        assert fft_band(shifted) == fft_band(frame)

    def test_short_frame_raises(self):
        with pytest.raises(TooShortError):
            fft_band(tone_frame([100.0], duration_s=0.1))

    def test_zero_spectrum_raises(self):
        frame = SampledSignal(np.zeros(512), RATE, SignalLabel.PCG)
        with pytest.raises(DegenerateSignalError):
            fft_band(frame)


class TestSpectrogram:

    def test_column_count_formula(self):
        for n in (256, 1000, 8000):
            frame = SampledSignal(np.random.default_rng(0).standard_normal(n),
                                  RATE, SignalLabel.PCG)
            spec = spectrogram_stft(frame)
            assert spec.magnitude.shape[1] == (n - 256) // 128 + 1

    def test_single_column_boundary(self):
        frame = tone_frame([100.0], duration_s=256 / RATE)
        spec = spectrogram_stft(frame)
        assert spec.magnitude.shape == (129, 1)

    def test_stationary_tone_constant_ridge(self):
        spec = spectrogram_stft(tone_frame([200.0], duration_s=2.0))
        ridges = np.argmax(spec.magnitude, axis=0)
        assert np.all(ridges == ridges[0])
        assert abs(spec.freqs_hz[ridges[0]] - 200.0) <= RATE / 256

    def test_burst_energy_localized(self):
        t = np.arange(int(3.0 * RATE)) / RATE
        x = np.zeros_like(t)
        for center in (0.8, 1.8):
            x += np.cos(2 * np.pi * 80 * (t - center)) * np.exp(
                -0.5 * ((t - center) / 0.015) ** 2)
        spec = spectrogram_stft(SampledSignal(x, RATE, SignalLabel.PCG))
        energy = np.sum(spec.magnitude ** 2, axis=0)
        hop_s = 128 / RATE
        order = np.argsort(energy)[::-1]
        hot = sorted(spec.times_s[order[:2]])
        assert abs(hot[0] - 0.8) <= 2 * hop_s
        assert abs(hot[1] - 1.8) <= 2 * hop_s

    def test_window_power_is_periodic_hann(self):
        spec = spectrogram_stft(tone_frame([100.0]))
        assert spec.window_power == pytest.approx(96.0, abs=1e-9)

    def test_short_frame_raises(self):
        frame = SampledSignal(np.ones(100), RATE, SignalLabel.PCG)
        with pytest.raises(TooShortError):
            spectrogram_stft(frame)

    @settings(max_examples=100, deadline=None)
    @given(extra=st.integers(0, 3000), seed=st.integers(0, 2 ** 32 - 1),
           window_len=st.sampled_from([16, 64, 100, 256]),
           overlap=st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9]))
    def test_matches_per_column_rfft(self, extra, seed, window_len, overlap):
        x = np.random.default_rng(seed).standard_normal(window_len + extra)
        spec = spectrogram_stft(SampledSignal(x, RATE, SignalLabel.PCG),
                                window_len, overlap)
        hop = int(round(window_len * (1.0 - overlap)))
        win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(window_len) / window_len)
        starts = range(0, len(x) - window_len + 1, hop)
        ref = np.column_stack([np.abs(np.fft.rfft(x[j:j + window_len] * win))
                               for j in starts])
        np.testing.assert_allclose(spec.magnitude, ref, rtol=1e-12, atol=1e-12)
        assert len(spec.times_s) == len(starts)


class TestMfcc:

    def test_shape(self):
        frame = tone_frame([100.0], duration_s=2.0)
        out = mfcc(frame)
        assert out.shape == (13, (len(frame.samples) - 256) // 128 + 1)

    def test_white_noise_c0_dominates(self):
        rng = np.random.default_rng(31)
        mags = np.zeros(13)
        for _ in range(50):
            frame = SampledSignal(rng.standard_normal(1024), RATE,
                                  SignalLabel.PCG)
            mags += np.abs(mfcc(frame)).mean(axis=1)
        assert np.all(mags[0] > mags[1:])

    def test_amplitude_scaling_shifts_c0_only(self):
        frame = tone_frame([100.0], duration_s=1.0)
        scaled = frame.with_samples(frame.samples * 8.0)
        base = mfcc(frame)
        shifted = mfcc(scaled)
        assert np.max(np.abs(shifted[1:] - base[1:])) < 1e-6
        c0_shift = shifted[0] - base[0]
        # log power rises by log(64) in every filter; the orthonormal
        # DCT maps that constant to sqrt(n_filters) * log(64) on c0
        expected = math.sqrt(26) * math.log(64.0)
        assert np.allclose(c0_shift, expected, atol=1e-6)

    def test_silence_gives_floor_vector(self):
        frame = SampledSignal(np.zeros(1024), RATE, SignalLabel.PCG)
        out = mfcc(frame)
        assert np.allclose(out[1:], 0.0, atol=1e-9)
        expected_c0 = math.sqrt(26) * math.log(1e-10)
        assert np.allclose(out[0], expected_c0, rtol=1e-9)
        assert np.allclose(out, out[:, :1], atol=1e-12)

    def test_too_many_coefficients_rejected(self):
        with pytest.raises(ConfigError):
            mfcc(tone_frame([100.0]), n_filters=20, n_coeffs=21)


class TestEnergySpectrum:

    def test_zero_to_zero(self):
        frame = SampledSignal(np.zeros(300), RATE, SignalLabel.PCG)
        assert np.all(energy_spectrum(frame).samples == 0.0)

    def test_normalized_frame_gives_unit_max(self):
        frame = tone_frame([50.0])
        es = energy_spectrum(frame)
        assert np.max(es.samples) == pytest.approx(1.0, abs=1e-12)
        assert es.label is SignalLabel.ENVELOPE

    def test_even_in_sign(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal(400)
        frame = SampledSignal(x, RATE, SignalLabel.PCG)
        flipped = frame.with_samples(-x)
        assert np.array_equal(energy_spectrum(frame).samples,
                              energy_spectrum(flipped).samples)


class TestNrmse:

    def test_identical_tracks_zero(self):
        b = np.array([1.0, 2.0, 3.0])
        assert nrmse_wes_vs_es(b, b) == 0.0

    def test_doubled_track_is_one(self):
        b = np.array([1.0, 2.0, 3.0])
        assert nrmse_wes_vs_es(2.0 * b, b) == 1.0

    def test_zero_track_is_one(self):
        b = np.array([1.0, 2.0, 3.0])
        assert nrmse_wes_vs_es(np.zeros(3), b) == 1.0

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(33)
        a = rng.standard_normal(500) ** 2
        b = rng.standard_normal(500) ** 2
        base = nrmse_wes_vs_es(a, b)
        for k in (1e-6, 3.7, 1e6):
            assert nrmse_wes_vs_es(k * a, k * b) == pytest.approx(
                base, rel=1e-12)

    def test_zero_reference_raises(self):
        with pytest.raises(UndefinedNormalizerError):
            nrmse_wes_vs_es(np.ones(4), np.zeros(4))

    def test_length_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            nrmse_wes_vs_es(np.ones(4), np.ones(5))

    def test_accepts_signals(self):
        sig = SampledSignal(np.array([1.0, 2.0]), RATE, SignalLabel.ENVELOPE)
        assert nrmse_wes_vs_es(sig, sig) == 0.0


def forced_segmentation(times):
    peaks = tuple(PeakEvent(time_s=t, height=1.0, label=lab)
                  for t, lab in zip(times, [PeakLabel.S1, PeakLabel.S2] * len(times)))
    return CycleSegmentation(peaks=peaks, t_sys=0.3, t_dias=0.5, t_rs1=0.03,
                             t_ds1=0.03, t_rd2=0.03, t_dd2=0.03,
                             n_cycles=len(times) // 2)


class TestSnrFrame:

    def _sliced(self, snr_db, seed=2):
        # events kept interior so every burst is covered by a window
        spec = SynthSpec(hr_bpm=75.0, duration_s=8.6, jitter_ms=0.0,
                         snr_db=snr_db, seed=seed)
        sig, _ = generate_pcg(spec)
        return SampledSignal(sig.samples[800:17200], sig.rate_hz,
                             SignalLabel.PCG)

    def test_twenty_db_recovered(self):
        frame = self._sliced(20.0)
        seg = hr_pipeline(frame).segmentation
        result = snr_frame(normalize_max_abs(frame), seg)
        assert abs(result.snr_db - 20.0) <= 2.0
        assert not result.saturated

    def test_denoising_improves_snr(self):
        frame = self._sliced(20.0, seed=5)
        pipeline = hr_pipeline(frame)
        raw = snr_frame(normalize_max_abs(frame), pipeline.segmentation)
        denoised = snr_frame(pipeline.normalized, pipeline.segmentation)
        assert denoised.snr_db > raw.snr_db + 1.0

    def test_noiseless_saturates_at_cap(self):
        t = np.arange(4000) / RATE
        x = np.zeros_like(t)
        centers = (0.5, 0.9, 1.3, 1.7)
        for c in centers:
            # 8 ms sigma keeps the full 6-sigma support inside the window
            x += np.cos(2 * np.pi * 60 * (t - c)) * np.exp(
                -0.5 * ((t - c) / 0.008) ** 2)
        frame = SampledSignal(x, RATE, SignalLabel.PCG)
        result = snr_frame(frame, forced_segmentation(centers))
        assert result.snr_db == 60.0
        assert result.saturated

    def test_pure_noise_near_zero_db(self):
        rng = np.random.default_rng(34)
        frame = SampledSignal(rng.standard_normal(8000), RATE, SignalLabel.PCG)
        seg = forced_segmentation([0.5, 0.9, 1.7, 2.1, 2.9, 3.3])
        result = snr_frame(frame, seg)
        assert abs(result.snr_db) < 1.0

    def test_full_coverage_raises(self):
        frame = SampledSignal(np.ones(400), RATE, SignalLabel.PCG)
        seg = forced_segmentation([0.05, 0.15])
        with pytest.raises(DegenerateCoverageError):
            snr_frame(frame, seg)

    def test_no_coverage_raises(self):
        frame = SampledSignal(np.ones(400), RATE, SignalLabel.PCG)
        seg = forced_segmentation([50.0, 51.0])
        with pytest.raises(DegenerateCoverageError):
            snr_frame(frame, seg)

    def test_silent_frame_raises(self):
        frame = SampledSignal(np.zeros(4000), RATE, SignalLabel.PCG)
        seg = forced_segmentation([0.5, 0.9])
        with pytest.raises(DegenerateSignalError):
            snr_frame(frame, seg)


class TestFrameAndSubjectQuality:

    def test_frame_quality_fields(self):
        spec = SynthSpec(hr_bpm=75.0, duration_s=4.0, jitter_ms=0.0,
                         snr_db=25.0, seed=3)
        sig, _ = generate_pcg(spec)
        result = hr_pipeline(sig)
        fq = frame_quality(result.normalized, result.segmentation)
        assert set(fq.nrmse) == {"morlet", "morse", "bump"}
        for value in fq.nrmse.values():
            assert 0.0 < value < 1.2
        assert fq.band_hz[0] < fq.band_hz[1]
        assert np.isfinite(fq.snr.snr_db)

    def test_aggregate_union_and_means(self):
        fq1 = FrameQuality(band_hz=(10.0, 200.0),
                           nrmse={"morlet": 0.6, "morse": 0.7},
                           snr=SnrResult(18.0))
        fq2 = FrameQuality(band_hz=(8.0, 250.0),
                           nrmse={"morlet": 0.8, "morse": 0.9},
                           snr=SnrResult(22.0))
        report = aggregate_quality([fq1, fq2])
        assert report.freq_range_hz == (8.0, 250.0)
        assert report.nrmse["morlet"] == pytest.approx(0.7)
        assert report.nrmse["morse"] == pytest.approx(0.8)
        assert report.snr_db == (22.0, 18.0, 20.0)
        assert report.per_frame_snr == (18.0, 22.0)

    def test_aggregate_empty_raises(self):
        with pytest.raises(InvalidInputError):
            aggregate_quality([])
