"""Synthetic PCG/ECG generation and its closed-form ground truth."""

import dataclasses
import math
import re

import numpy as np
import pytest

from pcgkit import (
    CohortRanges,
    PcgKitError,
    SynthSpec,
    default_cohort_coefficients,
    generate_cohort,
    generate_ecg,
    generate_pcg,
    hilbert_envelope,
    predict_dbp,
    predict_sbp,
    true_features,
)
from pcgkit.core import MAX_SAMPLES
from pcgkit.synth import MAX_SNR_DB, _add_burst

K15 = math.sqrt(2.0 * math.log(1.0 / 0.15))


def clean_spec(**kw):
    base = dict(hr_bpm=60.0, duration_s=10.0, jitter_ms=0.0, snr_db=None)
    base.update(kw)
    return SynthSpec(**base)


class TestSpecValidation:

    def test_defaults_accepted(self):
        spec = SynthSpec()
        assert (spec.hr_bpm, spec.t_sys_s, spec.jitter_ms, spec.snr_db,
                spec.duration_s, spec.rate_hz, spec.seed) == (
            75.0, 0.3, 0.0, None, 10.0, 2000.0, 0)

    def test_bounds_themselves_accepted(self):
        SynthSpec(hr_bpm=20.0)
        SynthSpec(hr_bpm=240.0, t_sys_s=0.1)
        SynthSpec(s2_rel_amp=1.0)
        # exactly MAX_SAMPLES samples: 16384 s at 1024 Hz
        SynthSpec(duration_s=MAX_SAMPLES / 1024.0, rate_hz=1024.0)

    @pytest.mark.parametrize("hr", [19.0, 241.0])
    def test_rate_bounds(self, hr):
        with pytest.raises(PcgKitError, match="outside 20..240"):
            SynthSpec(hr_bpm=hr)

    def test_systole_must_fit_in_cycle(self):
        # 75 bpm cycle is 0.8 s
        with pytest.raises(PcgKitError, match="t_sys_s 0.85 must be inside"):
            SynthSpec(hr_bpm=75.0, t_sys_s=0.85)
        with pytest.raises(PcgKitError, match="t_sys_s 0.0 must be inside"):
            SynthSpec(t_sys_s=0.0)
        with pytest.raises(PcgKitError, match="t_sys_s 1.0 must be inside"):
            SynthSpec(hr_bpm=60.0, t_sys_s=1.0)

    @pytest.mark.parametrize("offset", [math.nan, 1e9, -5.0, 0.8])
    def test_pr_offset_must_fit_in_cycle(self, offset):
        # 75 bpm cycle is 0.8 s
        with pytest.raises(PcgKitError, match=f"pr_offset_s {offset} must be"):
            SynthSpec(pr_offset_s=offset)

    def test_zero_pr_offset_accepted(self):
        assert SynthSpec(pr_offset_s=0.0).pr_offset_s == 0.0

    def test_relative_amplitude_range(self):
        with pytest.raises(PcgKitError, match="s2_rel_amp must be in"):
            SynthSpec(s2_rel_amp=0.0)
        with pytest.raises(PcgKitError, match="s2_rel_amp must be in"):
            SynthSpec(s2_rel_amp=1.2)

    def test_positive_parameters(self):
        with pytest.raises(PcgKitError, match="duration_s must be positive"):
            SynthSpec(duration_s=0.0)
        with pytest.raises(PcgKitError, match="s1_sigma_ms must be positive"):
            SynthSpec(s1_sigma_ms=-1.0)

    @pytest.mark.parametrize("jitter", [-1.0, math.nan, math.inf])
    def test_jitter_must_be_finite_and_non_negative(self, jitter):
        # a negative or NaN jitter read as none, an infinite one dropped
        # every event
        with pytest.raises(PcgKitError, match=re.escape(
                f"jitter_ms must be finite and >= 0, got {jitter}")):
            SynthSpec(jitter_ms=jitter)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(PcgKitError, match=re.escape(
                f"seed must be a non-negative integer, got {seed!r}")):
            SynthSpec(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert SynthSpec(seed=np.int64(3)).seed == 3

    @pytest.mark.parametrize("name", [
        "s1_freq_hz", "s2_freq_hz", "s1_sigma_ms", "s2_sigma_ms",
        "s1_decay_ratio", "s2_decay_ratio", "duration_s", "rate_hz",
        "ecg_rate_hz"])
    def test_positive_parameters_finite(self, name):
        # an infinite duration or rate would never finish the event loop
        with pytest.raises(PcgKitError, match=name):
            SynthSpec(**{name: math.inf})

    @pytest.mark.parametrize("fields, name", [
        ({"duration_s": 1e9}, "rate_hz"),
        ({"duration_s": 8400.0}, "rate_hz"),
        ({"rate_hz": 1e12}, "rate_hz"),
        ({"duration_s": 8000.0, "ecg_rate_hz": 2500.0}, "ecg_rate_hz"),
    ])
    def test_sample_count_bounded(self, fields, name):
        # a huge finite duration would lay out its cycles one at a time
        with pytest.raises(PcgKitError,
                           match=f"duration_s .* at {name} .* more than "
                                 f"{MAX_SAMPLES} samples"):
            SynthSpec(**fields)

    def test_longest_accepted_spec(self):
        # 8000 s is 1.6e7 PCG samples at 2000 Hz, under 2**24
        SynthSpec(duration_s=8000.0)

    @pytest.mark.parametrize("snr_db", [
        1e300, 3100.0, 300.5, -300.5, -3300.0, -1e300, math.inf, -math.inf,
        math.nan])
    def test_snr_bounded(self, snr_db):
        # 1e300 and 3100 overflowed 10 ** (snr_db / 10); -1e300 and -3300
        # underflowed it to zero and divided by it
        with pytest.raises(PcgKitError, match="snr_db"):
            SynthSpec(snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [-MAX_SNR_DB, MAX_SNR_DB])
    def test_snr_range_ends_generate(self, snr_db):
        spec = SynthSpec(snr_db=snr_db, duration_s=2.0)
        for generate in (generate_pcg, generate_ecg):
            signal, _ = generate(spec)
            assert np.all(np.isfinite(signal.samples))


class TestEventPlacement:

    def test_one_hz_grid_is_exact(self):
        _, truth = generate_pcg(clean_spec())
        assert truth.s1_times == tuple(float(k) for k in range(10))
        assert truth.s2_times == tuple(k + 0.3 for k in range(10))
        assert truth.t_sys == 0.3
        assert truth.t_dias == 0.7
        assert truth.hr_bpm == 60.0

    def test_jitter_moves_events_but_keeps_the_grid(self):
        _, truth = generate_pcg(clean_spec(jitter_ms=15.0, seed=7))
        deviations = [t - round(t) for t in truth.s1_times]
        assert any(d != 0.0 for d in deviations)
        assert max(abs(d) for d in deviations) < 0.1

    def test_events_confined_to_duration(self):
        _, truth = generate_pcg(clean_spec(jitter_ms=25.0, seed=3))
        for t in truth.s1_times + truth.s2_times:
            assert 0.0 <= t < 10.0

    def test_event_at_the_end_is_outside(self):
        # 4.0 + 0.3 rounds to 4.3 exactly: that S2 lies at duration_s
        _, truth = generate_pcg(clean_spec(duration_s=4.3))
        assert truth.s1_times == (0.0, 1.0, 2.0, 3.0, 4.0)
        assert truth.s2_times == tuple(k + 0.3 for k in range(4))

    @pytest.mark.parametrize("seed", range(6))
    def test_no_cycle_starts_at_duration(self, seed):
        # a cycle starting at 4.0 s would add an S1 for a negative jitter
        _, truth = generate_pcg(clean_spec(duration_s=4.0, jitter_ms=5.0,
                                           seed=seed))
        assert max(truth.s1_times) < 3.5

    def test_zero_jitter_draws_nothing_before_the_noise(self):
        clean, _ = generate_pcg(clean_spec())
        noisy, _ = generate_pcg(clean_spec(snr_db=10.0))
        first = np.random.default_rng(0).standard_normal(len(clean.samples))
        assert np.corrcoef(noisy.samples - clean.samples, first)[0, 1] > 0.999


class TestPcgWaveform:

    def test_burst_centers_hit_nominal_amplitude(self):
        # supports never overlap here, so center samples are exact
        sig, _ = generate_pcg(clean_spec())
        assert sig.samples[2000] == 1.0
        assert sig.samples[600] == 0.6

    def test_burst_support_is_six_sigma_of_the_wider_side(self):
        # binary-exact times: sigma 1/128 s and a 1.5 decay ratio give a
        # 0.0703125 s support, 72 samples at 1024 Hz, either side
        x = np.zeros(256)
        _add_burst(x, 1024.0, 0.125, 50.0, 1.0, 1 / 128, 1.5)
        assert np.flatnonzero(x).tolist() == list(range(56, 201))

    def test_signal_metadata(self):
        sig, _ = generate_pcg(clean_spec())
        assert sig.rate_hz == 2000.0
        assert len(sig.samples) == 20000

    def test_seed_determinism(self):
        a, _ = generate_pcg(clean_spec(snr_db=15.0, seed=9))
        b, _ = generate_pcg(clean_spec(snr_db=15.0, seed=9))
        c, _ = generate_pcg(clean_spec(snr_db=15.0, seed=10))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_noise_calibrated_to_event_windows(self):
        # the added noise should carry P_events / 10^(snr/10) power
        clean, truth = generate_pcg(clean_spec())
        noisy, _ = generate_pcg(clean_spec(snr_db=10.0))
        noise = noisy.samples - clean.samples
        t = np.arange(len(noise)) / 2000.0
        mask = np.zeros(len(noise), dtype=bool)
        for tc in truth.s1_times + truth.s2_times:
            mask |= np.abs(t - tc) <= 0.050
        expected = float(np.mean(clean.samples[mask] ** 2)) / 10.0
        assert abs(float(np.var(noise)) / expected - 1.0) < 0.05


class TestTrueFeatures:

    def test_closed_form_values(self):
        f = true_features(clean_spec())
        assert f.t_sys == 0.3
        assert f.t_dias == pytest.approx(0.7, abs=1e-12)
        assert f.t_rs1 == pytest.approx(0.012 * K15, abs=1e-15)
        assert f.t_ds1 == f.t_rs1
        assert f.t_rd2 == pytest.approx(0.010 * K15, abs=1e-15)
        assert f.hr_pcg == 60.0

    def test_decay_ratio_scales_decay_side_only(self):
        f = true_features(clean_spec(s1_decay_ratio=1.4, s2_decay_ratio=0.8))
        assert f.t_ds1 == pytest.approx(f.t_rs1 * 1.4, rel=1e-12)
        assert f.t_dd2 == pytest.approx(f.t_rd2 * 0.8, rel=1e-12)

    def test_crossings_match_the_generated_envelope(self):
        # the unsmoothed analytic envelope of a burst is its Gaussian
        # window, so it should read ~15% of peak at the feature offsets
        spec = clean_spec()
        sig, _ = generate_pcg(spec)
        env = hilbert_envelope(sig).samples
        f = true_features(spec)
        for center, offset in ((3.0, f.t_rs1), (3.3, f.t_rd2)):
            peak = env[int(center * 2000)]
            for sign in (-1.0, 1.0):
                idx = int(round((center + sign * offset) * 2000))
                assert env[idx] / peak == pytest.approx(0.15, abs=0.01)


class TestEcg:

    def test_r_times_lead_s1_by_offset(self):
        sig, r_times = generate_ecg(clean_spec())
        # the R belonging to the S1 at t=0 would land before zero
        assert r_times == tuple(float(k) - 0.04 for k in range(1, 10))
        assert sig.rate_hz == 190.0
        assert len(sig.samples) == 1900

    def test_wander_fills_quiet_stretches(self):
        sig, r_times = generate_ecg(clean_spec())
        t = np.arange(len(sig.samples)) / sig.rate_hz
        far = np.ones(len(t), dtype=bool)
        for r in r_times:
            far &= np.abs(t - r) > 0.1
        quiet = sig.samples[far]
        assert float(np.max(np.abs(quiet))) <= 0.16
        assert float(np.max(np.abs(quiet))) > 0.1

    def test_r_at_time_zero_is_kept(self):
        # S1 at 0, 1 and 2 s; an R before time zero is dropped
        _, r_times = generate_ecg(clean_spec(pr_offset_s=0.0, duration_s=3.0))
        assert r_times == (0.0, 1.0, 2.0)
        _, r_times = generate_ecg(clean_spec(pr_offset_s=0.5, duration_s=3.0))
        assert r_times == (0.5, 1.5)

    def test_spike_support_stops_short_of_six_widths(self):
        # at 120 bpm one sample lies exactly 6 spike widths from an R
        sig, r_times = generate_ecg(clean_spec(hr_bpm=120.0, t_sys_s=0.2,
                                               duration_s=3.0))
        t = np.arange(len(sig.samples)) / sig.rate_hz
        ties = [k for r in r_times
                for k in np.flatnonzero(np.abs((t - r) / 0.010) == 6)]
        assert ties
        wander = 0.15 * np.sin(2 * np.pi * 0.3 * t[ties] + 0.5)
        assert np.allclose(sig.samples[ties], wander, rtol=0, atol=1e-12)

    def test_spikes_rise_above_wander(self):
        sig, _ = generate_ecg(clean_spec())
        assert float(np.max(sig.samples)) > 0.8

    def test_seed_determinism_with_noise(self):
        a, _ = generate_ecg(clean_spec(snr_db=20.0, seed=4))
        b, _ = generate_ecg(clean_spec(snr_db=20.0, seed=4))
        assert np.array_equal(a.samples, b.samples)


class TestCohort:

    def test_size_and_ids(self):
        cohort = generate_cohort(seed=5)
        assert len(cohort) == 15
        ids = [s.subject_id for s in cohort]
        assert ids[0] == "s01" and ids[-1] == "s15"
        assert len(set(ids)) == 15

    def test_pressures_plausible_and_ordered(self):
        for subject in generate_cohort(seed=5):
            assert 90.0 < subject.sbp_ref < 140.0
            assert 55.0 < subject.dbp_ref < 95.0
            assert subject.sbp_ref > subject.dbp_ref

    def test_noiseless_targets_equal_the_model(self):
        coeffs = default_cohort_coefficients()
        for subject in generate_cohort(seed=5):
            assert subject.sbp_ref == predict_sbp(subject.features, coeffs)
            assert subject.dbp_ref == predict_dbp(subject.features, coeffs)
            assert subject.features == true_features(subject.spec)

    def test_parameters_respect_ranges(self):
        ranges = CohortRanges()
        for subject in generate_cohort(seed=8):
            spec = subject.spec
            for name in ("hr_bpm", "t_sys_s", "s1_sigma_ms", "s2_sigma_ms",
                         "s1_decay_ratio", "s2_decay_ratio", "s2_rel_amp"):
                lo, hi = getattr(ranges, name)
                assert lo <= getattr(spec, name) <= hi

    def test_target_noise_perturbs_only_targets(self):
        coeffs = default_cohort_coefficients()
        noisy = generate_cohort(seed=5, sbp_noise_sd=6.0, dbp_noise_sd=5.0)
        sbp_resid = [s.sbp_ref - predict_sbp(s.features, coeffs) for s in noisy]
        dbp_resid = [s.dbp_ref - predict_dbp(s.features, coeffs) for s in noisy]
        assert any(r != 0.0 for r in sbp_resid)
        assert 2.0 < float(np.std(sbp_resid)) < 12.0
        assert 1.5 < float(np.std(dbp_resid)) < 10.0

    def test_small_target_noise_is_centered(self):
        coeffs = default_cohort_coefficients()
        noisy = generate_cohort(n_subjects=40, seed=5, sbp_noise_sd=0.01,
                                dbp_noise_sd=0.01)
        for side, predict in (("sbp_ref", predict_sbp),
                              ("dbp_ref", predict_dbp)):
            resid = [getattr(s, side) - predict(s.features, coeffs)
                     for s in noisy]
            assert all(r != 0.0 for r in resid)
            assert abs(float(np.mean(resid))) < 0.01

    def test_given_coefficients_set_the_targets(self):
        coeffs = default_cohort_coefficients()
        shifted = dataclasses.replace(coeffs, c1=coeffs.c1 + 50.0)
        for subject in generate_cohort(n_subjects=3, coeffs=shifted):
            assert subject.sbp_ref == predict_sbp(subject.features, shifted)

    def test_default_arguments(self):
        # the synth command falls back on these for a flag it is not given
        assert generate_cohort() == generate_cohort(
            n_subjects=15, seed=0, duration_s=60.0, jitter_ms=2.0,
            snr_db=25.0)

    def test_seed_determinism(self):
        assert generate_cohort(seed=6) == generate_cohort(seed=6)
        assert generate_cohort(seed=6) != generate_cohort(seed=7)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(n_subjects=0), "n_subjects"),
        (dict(n_subjects=-3), "n_subjects"),
        (dict(seed=-1), "seed"),
        (dict(sbp_noise_sd=-1.0), "sbp_noise_sd"),
        (dict(dbp_noise_sd=math.nan), "dbp_noise_sd"),
        (dict(jitter_ms=-0.5), "jitter_ms"),
        (dict(ranges=CohortRanges(hr_bpm=(90.0, 60.0))), "ranges.hr_bpm"),
        (dict(ranges=CohortRanges(s2_rel_amp=(0.5, math.inf))),
         "ranges.s2_rel_amp"),
    ])
    def test_out_of_domain_arguments_refused(self, kwargs, name):
        with pytest.raises(PcgKitError, match=name):
            generate_cohort(**kwargs)

    def test_domain_edges_accepted(self):
        cohort = generate_cohort(n_subjects=1, seed=0, sbp_noise_sd=0.0,
                                 dbp_noise_sd=0.0, jitter_ms=0.0,
                                 ranges=CohortRanges(hr_bpm=(70.0, 70.0)),
                                 duration_s=2.0)
        assert [s.spec.hr_bpm for s in cohort] == [70.0]
