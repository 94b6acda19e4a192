"""Band estimation, energy tracks, NRMSE, and SNR."""

import gc
import os
import threading
import time
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcgkit import (
    CohortRanges,
    CycleSegmentation,
    DegenerateSignalError,
    EnvelopeMethod,
    FrameQuality,
    PcgKitError,
    PeakEvent,
    PeakLabel,
    SampledSignal,
    StageError,
    SynthSpec,
    TooShortError,
    WaveletKind,
    aggregate_quality,
    energy_spectrum,
    fft_band,
    frame_qualities,
    generate_pcg,
    hr_pipeline,
    normalize_max_abs,
    nrmse_wes_vs_es,
    segment_frames,
    snr_frame,
    wes,
)
from pcgkit import quality, wavelets
from pcgkit.quality import peak_windows

RATE = 2000.0


def tone_frame(freqs, duration_s=1.0, rate_hz=RATE):
    t = np.arange(int(duration_s * rate_hz)) / rate_hz
    x = sum(np.cos(2 * np.pi * f * t) for f in freqs)
    return SampledSignal(x, rate_hz)


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

    def test_256_samples_suffice(self):
        frame = tone_frame([125.0], duration_s=256 / RATE)
        with pytest.raises(TooShortError):
            fft_band(frame.with_samples(frame.samples[:255]))
        low, high = fft_band(frame)
        assert low <= 125.0 <= high

    def test_band_is_scale_free(self):
        # the threshold is relative, so a faint frame gives the same band
        frame = tone_frame([100.0])
        assert fft_band(frame.with_samples(frame.samples * 1e-6)) == \
            fft_band(frame)

    def test_zero_spectrum_raises(self):
        frame = SampledSignal(np.zeros(512), RATE)
        with pytest.raises(DegenerateSignalError):
            fft_band(frame)


class TestEnergySpectrum:

    def test_zero_to_zero(self):
        frame = SampledSignal(np.zeros(300), RATE)
        assert np.all(energy_spectrum(frame).samples == 0.0)

    def test_normalized_frame_gives_unit_max(self):
        frame = tone_frame([50.0])
        es = energy_spectrum(frame)
        assert np.max(es.samples) == pytest.approx(1.0, abs=1e-12)
        assert es.rate_hz == frame.rate_hz

    def test_even_in_sign(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal(400)
        frame = SampledSignal(x, RATE)
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
        with pytest.raises(PcgKitError,
                           match="reference track has zero energy"):
            nrmse_wes_vs_es(np.ones(4), np.zeros(4))

    def test_length_mismatch_raises(self):
        with pytest.raises(PcgKitError, match="length mismatch"):
            nrmse_wes_vs_es(np.ones(4), np.ones(5))


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
        return SampledSignal(sig.samples[800:17200], sig.rate_hz)

    def test_twenty_db_recovered(self):
        frame = self._sliced(20.0)
        seg = hr_pipeline(frame).segmentation
        snr_db = snr_frame(normalize_max_abs(frame), seg)
        assert abs(snr_db - 20.0) <= 2.0

    def test_denoising_improves_snr(self):
        frame = self._sliced(20.0, seed=5)
        pipeline = hr_pipeline(frame)
        raw = snr_frame(normalize_max_abs(frame), pipeline.segmentation)
        denoised = snr_frame(pipeline.normalized, pipeline.segmentation)
        assert denoised > raw + 1.0

    def test_noiseless_saturates_at_cap(self):
        t = np.arange(4000) / RATE
        x = np.zeros_like(t)
        centers = (0.5, 0.9, 1.3, 1.7)
        for c in centers:
            # 8 ms sigma keeps the full 6-sigma support inside the window
            x += np.cos(2 * np.pi * 60 * (t - c)) * np.exp(
                -0.5 * ((t - c) / 0.008) ** 2)
        frame = SampledSignal(x, RATE)
        assert snr_frame(frame, forced_segmentation(centers)) == 60.0

    @pytest.mark.parametrize("inside, outside, expected", [
        (1.0, 0.0, 60.0),  # no noise at all
        (0.0, 1.0, -60.0),  # no signal at all
        (1.0, 1.0 / np.sqrt(1.5e6), 60.0),  # 61.8 dB, above the cap
        (1e-4, 1.0, -60.0),  # -80 dB, below the floor
        (1.0, 1.0 / np.sqrt(8e5), 10 * np.log10(8e5)),  # 59.0 dB
        (np.sqrt(1.5e-6), 1.0, 10 * np.log10(1.5e-6)),  # -58.2 dB
        (1.0, 0.1, 20.0),
    ])
    def test_levels_clamped_at_sixty_db(self, inside, outside, expected):
        centers = [0.5, 1.5]
        windows = peak_windows(4000, RATE, centers)
        frame = SampledSignal(np.where(windows, inside, outside), RATE)
        snr_db = snr_frame(frame, forced_segmentation(centers))
        assert snr_db == pytest.approx(expected, abs=1e-9)

    def test_pure_noise_near_zero_db(self):
        rng = np.random.default_rng(34)
        frame = SampledSignal(rng.standard_normal(8000), RATE)
        seg = forced_segmentation([0.5, 0.9, 1.7, 2.1, 2.9, 3.3])
        assert abs(snr_frame(frame, seg)) < 1.0

    def test_full_coverage_raises(self):
        frame = SampledSignal(np.ones(400), RATE)
        seg = forced_segmentation([0.05, 0.15])
        with pytest.raises(PcgKitError,
                           match="peak windows cover the whole frame"):
            snr_frame(frame, seg)

    def test_no_coverage_raises(self):
        frame = SampledSignal(np.ones(400), RATE)
        seg = forced_segmentation([50.0, 51.0])
        with pytest.raises(PcgKitError,
                           match="no samples fall inside peak windows"):
            snr_frame(frame, seg)

    def test_silent_frame_raises(self):
        frame = SampledSignal(np.zeros(4000), RATE)
        seg = forced_segmentation([0.5, 0.9])
        with pytest.raises(DegenerateSignalError):
            snr_frame(frame, seg)


class TestFrameAndSubjectQuality:

    def test_frame_quality_fields(self):
        spec = SynthSpec(hr_bpm=75.0, duration_s=4.0, jitter_ms=0.0,
                         snr_db=25.0, seed=3)
        sig, _ = generate_pcg(spec)
        result = hr_pipeline(sig)
        fq, = frame_qualities([(result.normalized, result.segmentation)])
        assert set(fq.nrmse) == {"morlet", "morse", "bump"}
        for value in fq.nrmse.values():
            assert 0.0 < value < 1.2
        assert fq.band_hz[0] < fq.band_hz[1]
        assert np.isfinite(fq.snr_db)

    def test_aggregate_union_and_means(self):
        fq1 = FrameQuality(band_hz=(10.0, 200.0),
                           nrmse={"morlet": 0.6, "morse": 0.7},
                           snr_db=18.0)
        fq2 = FrameQuality(band_hz=(8.0, 250.0),
                           nrmse={"morlet": 0.8, "morse": 0.9},
                           snr_db=22.0)
        report = aggregate_quality([fq1, fq2])
        assert report.freq_range_hz == (8.0, 250.0)
        assert report.nrmse["morlet"] == pytest.approx(0.7)
        assert report.nrmse["morse"] == pytest.approx(0.8)
        assert report.snr_db == (22.0, 18.0, 20.0)
        assert report.per_frame_snr == (18.0, 22.0)

    def test_aggregate_of_one_frame_is_that_frame(self):
        fq = FrameQuality(band_hz=(10.0, 200.0), nrmse={"morlet": 0.6},
                          snr_db=18.0)
        report = aggregate_quality([fq])
        assert (report.freq_range_hz, report.nrmse, report.snr_db) == (
            (10.0, 200.0), {"morlet": 0.6}, (18.0, 18.0, 18.0))

    def test_aggregate_empty_raises(self):
        with pytest.raises(PcgKitError,
                           match="no frame qualities to aggregate"):
            aggregate_quality([])


def direct_quality(frame, seg):
    """One frame's measures in declaration order, each called directly:
    the reference ``frame_qualities`` must reproduce exactly."""
    band = fft_band(frame)
    es = energy_spectrum(frame).samples
    es_n = es / np.sqrt(np.sum(es ** 2))
    nrmse = {}
    for kind in WaveletKind:
        track = wes(frame, kind).samples
        nrmse[kind.value] = nrmse_wes_vs_es(
            track / np.sqrt(np.sum(track ** 2)), es_n)
    return FrameQuality(band, nrmse, snr_frame(frame, seg))


def measured(items, held, held_n, workers, again=False):
    """``frame_qualities`` of ``items`` from a fresh bank, holding the
    ``held`` bank of ``held_n`` samples if any, with ``workers`` usable
    CPUs (this process's count if None); with ``again``, each frame comes
    with a callable giving a copy."""
    if again:
        items = [item if isinstance(item, PcgKitError) else
                 (*item, lambda frame=item[0]: frame.with_samples(
                     frame.samples.copy())) for item in items]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavelets, "_held", None)
        if workers is not None:
            mp.setattr(quality, "_usable_cpus", lambda: workers)
        if held is not None:
            wavelets.hold_bank(held, RATE, held_n)
        return frame_qualities(iter(items))


def assert_each_measured_directly(items, got):
    """``got`` is, item by item, the prior error or ``direct_quality``'s
    result or error."""
    assert len(got) == len(items)
    for item, result in zip(items, got):
        if isinstance(item, PcgKitError):
            assert result is item
            continue
        try:
            expected = direct_quality(*item)
        except PcgKitError as exc:
            assert type(result) is type(exc)
            assert str(result) == str(exc)
        else:
            assert result == expected
            assert list(result.nrmse) == [k.value for k in WaveletKind]


def noise_item(n, seed, times):
    """``n`` samples of seeded noise, segmented at ``times``."""
    x = np.random.default_rng(seed).standard_normal(n)
    return SampledSignal(x, RATE), forced_segmentation(times)


# a frame that failed before, or noise of a drawn length whose peak windows
# fall inside it or, for the SNR, nowhere
drawn_items = st.lists(st.one_of(
    st.builds(PcgKitError, st.just("failed before")),
    st.builds(noise_item, st.integers(200, 1200), st.integers(0, 2 ** 32 - 1),
              st.sampled_from([[0.05, 0.08], [50.0, 51.0]]))), max_size=5)


class TestUsableCpus:
    """``frame_qualities`` runs one thread per CPU this process may use."""

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity call on this platform")
    def test_follows_this_threads_affinity(self):
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            assert quality._usable_cpus() == 1
        finally:
            os.sched_setaffinity(0, cpus)
        assert quality._usable_cpus() == len(cpus)

    @pytest.mark.parametrize("count, usable", [(3, 3), (None, 1)])
    def test_without_affinity_every_cpu_or_one(self, count, usable,
                                               monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert quality._usable_cpus() == usable


class TestFrameQualities:
    """Many frames, one wavelet family at a time over all of them."""

    @pytest.fixture(scope="class")
    def items(self):
        rng = np.random.default_rng(21)

        def noise(n):
            return SampledSignal(rng.standard_normal(n), RATE)

        seg = forced_segmentation([0.1, 0.3])
        return [
            (noise(1000), seg),
            PcgKitError("failed before"),
            (noise(200), seg),  # too short for the band
            (noise(777), seg),  # another length, so another bank
            (noise(400), forced_segmentation([50.0, 51.0])),  # no SNR window
            (noise(1000), seg),
        ]

    @pytest.fixture
    def cwt_kinds(self, monkeypatch):
        kinds = []
        real_cwt = wavelets.cwt

        def counting(s, kind, **kwargs):
            kinds.append(kind)
            return real_cwt(s, kind, **kwargs)

        monkeypatch.setattr(wavelets, "cwt", counting)
        return kinds

    @pytest.mark.parametrize("workers", [None, 3])
    @pytest.mark.parametrize("held", [None, *WaveletKind],
                             ids=lambda k: getattr(k, "value", k))
    def test_equals_each_frame_measured_directly(self, items, held,
                                                 workers):
        assert_each_measured_directly(
            items, measured(items, held, 1000, workers))

    @settings(max_examples=25, deadline=None)
    @given(items=drawn_items, workers=st.sampled_from([None, 2]),
           again=st.booleans(), held_n=st.integers(200, 1200))
    def test_drawn_frames_equal_each_measured_directly(self, items, workers,
                                                       again, held_n):
        # a stale Morlet bank of a drawn length is held beforehand
        assert_each_measured_directly(items, measured(
            items, WaveletKind.MORLET, held_n, workers, again))

    def test_first_family_starts_before_frames_run_out(self, items,
                                                       monkeypatch):
        # the generator waits for the first cwt before its second frame,
        # so a loop that took every frame first fails here after 10 s
        started = threading.Event()
        real_cwt = wavelets.cwt

        def signalling(s, kind, **kwargs):
            started.set()
            return real_cwt(s, kind, **kwargs)

        monkeypatch.setattr(wavelets, "cwt", signalling)
        monkeypatch.setattr(quality, "_usable_cpus", lambda: 2)
        waited = []

        def frames():
            yield items[0]
            waited.append(started.wait(10.0))
            yield items[-1]

        got = frame_qualities(frames())
        assert waited == [True]
        assert_each_measured_directly([items[0], items[-1]], got)

    def test_each_family_holds_its_bank_before_its_first_wes(
            self, items, cwt_kinds, monkeypatch):
        # the families run in declaration order, whichever bank is held;
        # it is of another length, so every family builds its bank on
        # this thread for the first frame still measured (1000), then
        # measures the four frames that reach the wavelets
        real_hold = quality.hold_bank

        def holding(kind, rate_hz, n_sig):
            cwt_kinds.append(("hold", kind, threading.current_thread(),
                              rate_hz, n_sig))
            return real_hold(kind, rate_hz, n_sig)

        monkeypatch.setattr(quality, "hold_bank", holding)
        monkeypatch.setattr(quality, "_usable_cpus", lambda: 2)
        wavelets.hold_bank(WaveletKind.MORSE, RATE, 777)
        frame_qualities(items)
        main = threading.main_thread()
        assert cwt_kinds == [
            event for kind in WaveletKind
            for event in [("hold", kind, main, RATE, 1000)] + [kind] * 4]

    def test_later_families_measure_the_frame_again_gives(self, items,
                                                          monkeypatch):
        # between families no first-pass frame is kept: each later family
        # asks again() for the frames still measured, in frame order
        firsts, asked = [], []

        def frames():
            for i, item in enumerate(items):
                if isinstance(item, PcgKitError):
                    yield item
                    continue
                frame = item[0].with_samples(item[0].samples.copy())
                firsts.append(weakref.ref(frame))

                def again(i=i):
                    gc.collect()
                    asked.append((i, sum(r() is not None for r in firsts)))
                    return items[i][0]

                yield frame, item[1], again

        monkeypatch.setattr(quality, "_usable_cpus", lambda: 2)
        got = frame_qualities(frames())
        assert asked == [(i, 0) for i in (0, 3, 4, 5)] * 2
        assert_each_measured_directly(items, got)

    def test_pool_threads_drop_their_cwt_workspaces(self, items,
                                                    monkeypatch):
        # each workspace lives in its pool thread's local storage, so it
        # is freed by the time frame_qualities has joined the threads
        made = []
        real_fft = wavelets._fft_of_real

        def recording(x, n, out):
            made.append((threading.current_thread(), weakref.ref(out.base)))
            return real_fft(x, n, out)

        monkeypatch.setattr(wavelets, "_fft_of_real", recording)
        monkeypatch.setattr(quality, "_usable_cpus", lambda: 2)
        frame_qualities(items)
        assert len(made) == 4 * 3
        assert threading.current_thread() not in {t for t, _ in made}
        assert [ref() for _, ref in made] == [None] * len(made)

    def test_error_of_again_is_that_frames_error(self, items):
        # it comes before a failed SNR, and the other frames go on
        failure = PcgKitError("recording changed")
        asked = []

        def again(i):
            asked.append(i)
            if i == 4:
                raise failure
            return items[i][0]

        got = frame_qualities(
            item if isinstance(item, PcgKitError)
            else (*item, lambda i=i: again(i)) for i, item in enumerate(items))
        assert got[4] is failure
        assert asked == [0, 3, 4, 5, 0, 3, 5]
        assert_each_measured_directly(items[:4] + items[5:],
                                      got[:4] + got[5:])

    @pytest.mark.parametrize("failing", [*WaveletKind])
    def test_first_failing_family_wins_over_the_snr(self, items, failing,
                                                    cwt_kinds, monkeypatch):
        # the 400-sample frame's SNR fails too; the family's error is first
        # and the frame skips the families after it (its wes raises before
        # its cwt)
        real_wes = quality.wes

        def failing_wes(frame, kind):
            if kind is failing and len(frame.samples) == 400:
                raise PcgKitError(f"{kind.value} failed")
            return real_wes(frame, kind)

        monkeypatch.setattr(quality, "wes", failing_wes)
        got = frame_qualities(items)
        assert type(got[4]) is PcgKitError
        assert str(got[4]) == f"{failing.value} failed"
        later = list(WaveletKind)[list(WaveletKind).index(failing) + 1:]
        assert len(cwt_kinds) == 4 * 3 - 1 - len(later)
        assert_each_measured_directly(items[:4] + items[5:],
                                      got[:4] + got[5:])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_submits_at_most_twice_the_workers_ahead(self, workers,
                                                     monkeypatch):
        # before frame k is taken, the first k - 2 * workers + 1 frames
        # have finished; a pass that took its whole input at once would
        # take all ten frames before the first slow wes returned
        real_wes = quality.wes
        finished = []

        def slow(frame, kind):
            time.sleep(0.02)
            track = real_wes(frame, kind)
            if kind is WaveletKind.MORLET:
                finished.append(frame)
            return track

        monkeypatch.setattr(quality, "wes", slow)
        rng = np.random.default_rng(8)
        seg = forced_segmentation([0.1, 0.3])
        taken = []

        def frames():
            for k in range(10):
                taken.append((k, len(finished)))
                yield SampledSignal(rng.standard_normal(600), RATE), seg

        monkeypatch.setattr(quality, "_usable_cpus", lambda: workers)
        got = frame_qualities(frames())
        assert all(isinstance(q, FrameQuality) for q in got)
        assert all(done >= k - 2 * workers + 1 for k, done in taken)
        assert any(done == k - 2 * workers + 1 for k, done in taken)

    def test_one_frame_gives_its_first_error(self, cwt_kinds):
        frame = SampledSignal(np.ones(400), RATE)
        got, = frame_qualities([(frame, forced_segmentation([50.0, 51.0]))])
        assert type(got) is PcgKitError
        assert str(got) == "no samples fall inside peak windows"
        assert len(cwt_kinds) == 3
        got, = frame_qualities([(SampledSignal(np.ones(200), RATE),
                                 forced_segmentation([0.05]))])
        assert type(got) is TooShortError
        assert len(cwt_kinds) == 3


def cohort_specs():
    """4 s specs with each :class:`CohortRanges` field drawn inside its
    range, 10-30 dB of noise and 0-4 ms of jitter."""
    ranges = CohortRanges()
    return st.builds(
        SynthSpec,
        **{f.name: st.floats(*getattr(ranges, f.name))
           for f in fields(ranges)},
        snr_db=st.floats(10.0, 30.0), jitter_ms=st.floats(0.0, 4.0),
        duration_s=st.just(4.0), seed=st.integers(0, 2 ** 31 - 1))


def pipeline_outcome(frame, method):
    """Peak indices and labels plus bpm, or the failing stage and cause."""
    try:
        r = hr_pipeline(frame, method, wavelet_kind=WaveletKind.MORLET)
    except StageError as exc:
        return exc.stage, repr(exc.cause)
    return [(p.index, p.label) for p in r.segmentation.peaks], r.hr.bpm


class TestRoundingStability:
    """A frame moved by a rounding keeps its peaks, labels and bpm, and its
    quality floats move by far less than 1e-9: on the README cohort they
    moved by at most 1.2e-12, so a rounding change in an FFT path shows
    here before it shows in a golden."""

    @settings(max_examples=15, derandomize=True, deadline=None)
    @given(spec=cohort_specs())
    def test_a_perturbed_frame_gives_the_same_results(self, spec):
        frame, = segment_frames(generate_pcg(spec)[0], 4.0)
        rng = np.random.default_rng(spec.seed)
        nudged = frame.with_samples(
            frame.samples * (1 + 1e-12 * rng.standard_normal(len(frame))))
        for method in (EnvelopeMethod.SHANNON, EnvelopeMethod.HILBERT,
                       EnvelopeMethod.WES):
            assert (pipeline_outcome(nudged, method)
                    == pipeline_outcome(frame, method)), method
        results = [hr_pipeline(f) for f in (frame, nudged)]
        want, got = frame_qualities(
            [(r.normalized, r.segmentation) for r in results])
        assert isinstance(want, FrameQuality), want
        assert got.band_hz == want.band_hz
        for kind in WaveletKind:
            assert got.nrmse[kind.value] == pytest.approx(
                want.nrmse[kind.value], rel=1e-9, abs=0.0), kind
        assert got.snr_db == pytest.approx(want.snr_db, rel=1e-9, abs=0.0)
