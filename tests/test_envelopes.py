"""Envelope detector contracts: Hilbert, Shannon energy, WES, smoothing."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import signal as sps

from pcgkit import (
    EnvelopeMethod,
    SampledSignal,
    SynthSpec,
    WaveletKind,
    compute_envelope,
    envelopes,
    find_envelope_peaks,
    generate_pcg,
    hilbert_envelope,
    normalize_max_abs,
    shannon_energy_envelope,
    smooth,
    wes_envelope,
)

RATE = 2000.0


def gaussian_burst(t, center_s, freq_hz, sigma_s, amp=1.0):
    return amp * np.cos(2 * np.pi * freq_hz * (t - center_s)) * np.exp(
        -0.5 * ((t - center_s) / sigma_s) ** 2)


class TestHilbertEnvelope:

    def test_pure_tone_interior_is_unity(self, tone):
        env = hilbert_envelope(tone(10.0, duration_s=1.0))
        interior = env.samples[100:-100]
        assert np.all(np.abs(interior - 1.0) < 0.01)

    def test_zero_frame_gives_zero_envelope(self):
        frame = SampledSignal(np.zeros(400), RATE)
        env = hilbert_envelope(frame)
        assert np.all(env.samples == 0.0)

    def test_am_tone_tracks_modulator(self):
        # carrier well above modulator rate so the analytic magnitude
        # recovers the modulation law in the interior
        t = np.arange(int(2.0 * RATE)) / RATE
        a = 0.5 + 0.3 * np.sin(2 * np.pi * 2.0 * t)
        x = a * np.cos(2 * np.pi * 100.0 * t)
        env = hilbert_envelope(SampledSignal(x, RATE))
        interior = slice(200, -200)
        assert np.all(np.abs(env.samples[interior] - a[interior]) < 0.02)

    def test_dominates_rectified_input(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2048)
        env = hilbert_envelope(SampledSignal(x, RATE))
        assert np.all(env.samples >= np.abs(x) - 1e-12)

    def test_negation_invariance_exact(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(1024)
        e_pos = hilbert_envelope(SampledSignal(x, RATE))
        e_neg = hilbert_envelope(SampledSignal(-x, RATE))
        assert np.array_equal(e_pos.samples, e_neg.samples)

    def test_result_metadata(self, tone):
        frame = tone(25.0)
        env = hilbert_envelope(frame)
        assert isinstance(env, SampledSignal)
        assert env.rate_hz == RATE
        assert len(env) == len(frame)


    @pytest.mark.parametrize("n", [1, 2, 3, 760, 7999, 8000])
    def test_equals_scipy_hilbert(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        env = hilbert_envelope(SampledSignal(x, RATE))
        assert np.array_equal(env.samples, np.abs(sps.hilbert(x)))


class TestShannonEnergyEnvelope:

    def test_zero_maps_to_zero(self):
        frame = SampledSignal(np.zeros(64), RATE)
        env = shannon_energy_envelope(frame)
        assert np.all(env.samples == 0.0)

    def test_full_scale_maps_to_epsilon_zero(self):
        frame = SampledSignal(np.array([1.0, -1.0, 0.0, 1.0]), RATE)
        env = shannon_energy_envelope(frame)
        # -log(1 + eps) is a hair negative and gets clipped
        assert np.all(env.samples >= 0.0)
        assert np.all(np.abs(env.samples[[0, 1, 3]]) < 1e-11)

    def test_maximum_at_inverse_sqrt_e(self):
        x_star = math.exp(-0.5)
        frame = SampledSignal(np.array([x_star, 0.2, -x_star]), RATE)
        env = shannon_energy_envelope(frame)
        assert abs(env.samples[0] - 1.0 / math.e) < 1e-9
        assert abs(env.samples[2] - 1.0 / math.e) < 1e-9

    def test_even_in_input_sign(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, 512)
        e_pos = shannon_energy_envelope(SampledSignal(x, RATE))
        e_neg = shannon_energy_envelope(SampledSignal(-x, RATE))
        assert np.array_equal(e_pos.samples, e_neg.samples)

    def test_nonnegative_on_normalized_input(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1.0, 1.0, 2048)
        x[100] = 1.0
        env = shannon_energy_envelope(SampledSignal(x, RATE))
        assert np.all(env.samples >= 0.0)
        assert np.all(np.isfinite(env.samples))

    # zero or far from the subnormal range, so that scaling by 2**k and
    # dividing 2**k * x by its peak 2**k * p are exact
    samples = st.one_of(st.just(0.0), st.floats(1e-3, 1e3),
                        st.floats(-1e3, -1e-3))

    @settings(max_examples=300, deadline=None)
    @given(x=st.lists(samples, min_size=1, max_size=64),
           k=st.integers(-20, 20))
    def test_frame_above_unit_peak_is_divided_by_it(self, x, k):
        x = np.ldexp(x, k)
        peak = np.max(np.abs(x))
        assume(peak > 1)
        env = shannon_energy_envelope(SampledSignal(x, RATE)).samples
        unit = shannon_energy_envelope(SampledSignal(x / peak, RATE)).samples
        assert np.array_equal(env, unit)

    def test_tolerates_roundoff_above_one(self):
        frame = SampledSignal(np.array([1.0 + 1e-10, 0.0]), RATE)
        env = shannon_energy_envelope(frame)
        assert np.all(env.samples >= 0.0)


class TestWesEnvelope:

    def test_zero_frame_exactly_zero(self):
        frame = SampledSignal(np.zeros(1024), RATE)
        env = wes_envelope(frame)
        assert np.all(env.samples == 0.0)

    def test_two_bursts_localized_after_smoothing(self):
        centers = (0.7, 1.4)
        t = np.arange(int(2.0 * RATE)) / RATE
        x = sum(gaussian_burst(t, c, 60.0, 0.012) for c in centers)
        frame = SampledSignal(x, RATE)
        env = normalize_max_abs(smooth(wes_envelope(frame)))
        peaks = find_envelope_peaks(env)
        assert len(peaks) == 2
        for peak, center in zip(peaks, centers):
            assert abs(peak.time_s - center) < 0.010

    def test_quadratic_amplitude_scaling(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(1400)
        base = wes_envelope(SampledSignal(x, RATE))
        scaled = wes_envelope(SampledSignal(5.0 * x, RATE))
        assert np.allclose(scaled.samples, 25.0 * base.samples, rtol=1e-9,
                           atol=1e-12)

    def test_accepts_explicit_kind(self, tone):
        env = wes_envelope(tone(40.0), kind=WaveletKind.BUMP)
        assert np.max(env.samples) > 0


class TestSmooth:

    def _envelope(self, values):
        return SampledSignal(values, RATE)

    def test_constant_unchanged(self):
        env = self._envelope(np.full(4000, 0.7))
        out = smooth(env)
        assert np.all(np.abs(out.samples - 0.7) < 1e-6)

    def test_ripple_attenuated(self):
        t = np.arange(int(2.0 * RATE)) / RATE
        ripple = 0.1 * np.sin(2 * np.pi * 200.0 * t)
        out = smooth(self._envelope(0.5 + ripple))
        interior = slice(200, -200)
        residual = out.samples[interior] - 0.5
        rms_in = np.sqrt(np.mean(ripple[interior] ** 2))
        rms_out = np.sqrt(np.mean(residual ** 2))
        assert rms_out < 0.01 * rms_in

    def test_low_cutoff_widens_but_keeps_bursts_apart(self, monkeypatch):
        # 8 Hz is reported to degrade timing estimates; the two bumps
        # must still resolve, just wider than at the default cutoff
        t = np.arange(int(1.5 * RATE)) / RATE
        sigma = 0.060 / 2.355
        bumps = (np.exp(-0.5 * ((t - 0.5) / sigma) ** 2)
                 + np.exp(-0.5 * ((t - 0.8) / sigma) ** 2))
        assert envelopes.SMOOTHING_CUTOFF_HZ == 20.0
        at_20 = normalize_max_abs(smooth(self._envelope(bumps)))
        monkeypatch.setattr(envelopes, "SMOOTHING_CUTOFF_HZ", 8.0)
        at_8 = normalize_max_abs(smooth(self._envelope(bumps)))
        peaks_8 = find_envelope_peaks(at_8)
        peaks_20 = find_envelope_peaks(at_20)
        assert len(peaks_8) == 2
        assert len(peaks_20) == 2

        def half_width(env):
            return int(np.sum(env.samples > 0.5 * np.max(env.samples)))

        assert half_width(at_8) > half_width(at_20)

    def test_clips_filter_undershoot(self):
        values = np.zeros(2000)
        values[900:1100] = 1.0
        out = smooth(self._envelope(values))
        assert np.all(out.samples >= 0.0)


def interior_cycles_frame():
    """Four complete cycles at 60 bpm with no event on a frame edge."""
    spec = SynthSpec(hr_bpm=60.0, duration_s=4.8, jitter_ms=0.0, snr_db=None)
    sig, _ = generate_pcg(spec)
    return SampledSignal(sig.samples[800:8800], sig.rate_hz)


class TestMethodInvariants:

    @pytest.mark.parametrize("method", list(EnvelopeMethod))
    def test_two_peaks_per_cycle(self, method):
        frame = normalize_max_abs(interior_cycles_frame())
        env = compute_envelope(frame, method)
        peaks = find_envelope_peaks(env)
        assert len(peaks) == 8

    @pytest.mark.parametrize("method", list(EnvelopeMethod))
    def test_periodic_input_periodic_envelope(self, method):
        frame = normalize_max_abs(interior_cycles_frame())
        env = compute_envelope(frame, method)
        period = int(round(1.0 * RATE))
        a, b = 500, len(env.samples) - period - 500
        drift = np.abs(env.samples[a:b] - env.samples[a + period:b + period])
        assert np.max(drift) < 0.02

    def test_compute_envelope_normalizes_and_smooths(self):
        frame = normalize_max_abs(interior_cycles_frame())
        env = compute_envelope(frame, "shannon")
        assert abs(np.max(env.samples) - 1.0) < 1e-12
        smoothed = smooth(shannon_energy_envelope(frame))
        assert np.array_equal(env.samples,
                              normalize_max_abs(smoothed).samples)

    def test_compute_envelope_passes_zero_frame_unscaled(self):
        env = compute_envelope(SampledSignal(np.zeros(4000), RATE), "hilbert")
        assert env.rate_hz == RATE
        assert np.all(env.samples == 0.0)
