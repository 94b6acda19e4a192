"""Peak detection, S1/S2 labeling, and cycle-timing fixtures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks

from pcgkit import (
    CycleSegmentation,
    PcgKitError,
    PeakEvent,
    PeakLabel,
    RiseDecayTimes,
    SampledSignal,
    SynthSpec,
    compute_envelope,
    cycle_intervals,
    detect_peaks,
    find_envelope_peaks,
    generate_pcg,
    label_s1_s2,
    normalize_max_abs,
    rise_decay_times,
    segment,
    segmentation,
)


def envelope_of(values, rate_hz):
    return SampledSignal(np.asarray(values, dtype=float), rate_hz)


def peaks_under(envelope, height_frac, distance_s):
    """``find_envelope_peaks`` with the module's peak rules set to these."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segmentation, "PEAK_HEIGHT_FRAC", height_frac)
        mp.setattr(segmentation, "PEAK_DISTANCE_S", distance_s)
        return find_envelope_peaks(envelope)


def peaks_at(times, labels=None):
    labels = labels or [PeakLabel.UNLABELED] * len(times)
    return [PeakEvent(time_s=t, height=1.0, label=lab)
            for t, lab in zip(times, labels)]


def triangle(y, peak_idx, half_width, height=1.0):
    """Symmetric linear ramp up to ``height`` and back, written in place.

    Computed as (hw - |k|) / hw so the 15% sample equals the float
    literal 0.15 exactly (times height).
    """
    for k in range(-half_width, half_width + 1):
        y[peak_idx + k] = max(y[peak_idx + k],
                              height * (half_width - abs(k)) / half_width)


def ten_cycle_frame():
    """Ten complete cycles at 75 bpm, no event on a frame edge."""
    spec = SynthSpec(hr_bpm=75.0, duration_s=8.6, jitter_ms=0.0, snr_db=None)
    sig, _ = generate_pcg(spec)
    return SampledSignal(sig.samples[800:17200], sig.rate_hz)


class TestFindEnvelopePeaks:

    def test_height_floor_fixture(self):
        env = envelope_of([0, 1, 0, 0.1, 0, 0.9, 0], 10.0)
        peaks = find_envelope_peaks(env)
        assert [p.index for p in peaks] == [1, 5]
        assert peaks[0].time_s == pytest.approx(0.1)
        assert peaks[1].time_s == pytest.approx(0.5)

    def test_distance_rule_keeps_one_of_two_close_peaks(self):
        y = np.zeros(40)
        y[10] = 1.0
        y[15] = 1.0
        peaks = find_envelope_peaks(envelope_of(y, 100.0))
        # 0.05 s apart at a 0.125 s floor; the tie keeps the earlier one
        assert [p.index for p in peaks] == [10]

    def test_distance_rule_keeps_taller_peak(self):
        y = np.zeros(40)
        y[10] = 0.8
        y[15] = 1.0
        peaks = find_envelope_peaks(envelope_of(y, 100.0))
        assert [p.index for p in peaks] == [15]

    def test_distance_rule_keeps_peaks_exactly_the_spacing_apart(self):
        # 10 samples at 80 Hz are 0.125 s: a shorter peak between two
        # taller ones, exactly that far from each, is kept
        y = np.zeros(40)
        y[5], y[15], y[25] = 1.0, 0.8, 0.9
        peaks = find_envelope_peaks(envelope_of(y, 80.0))
        assert [p.index for p in peaks] == [5, 15, 25]

    def test_plateau_reports_center_sample(self):
        env = envelope_of([0, 0.2, 1, 1, 1, 0.2, 0], 10.0)
        peaks = find_envelope_peaks(env)
        assert [p.index for p in peaks] == [3]

    def test_endpoints_never_peaks(self):
        env = envelope_of([1, 0.2, 0.9, 0.2, 1], 10.0)
        peaks = find_envelope_peaks(env)
        assert [p.index for p in peaks] == [2]

    # zero, a few repeated heights (ties, plateaus, samples on the 15%
    # floor) and values far from the subnormal range, so that scaling by
    # 2**k is exact
    heights = st.one_of(st.sampled_from([0.0, 0.15, 0.5, 1.0, 3.0]),
                        st.floats(1e-3, 1e3))

    @settings(max_examples=300, deadline=None)
    @given(y=st.lists(heights, min_size=1, max_size=120),
           k=st.integers(-20, 20))
    def test_any_scale_gives_the_same_peaks(self, y, k):
        base = find_envelope_peaks(envelope_of(y, 40.0))
        scaled = find_envelope_peaks(envelope_of(np.ldexp(y, k), 40.0))
        assert [p.index for p in scaled] == [p.index for p in base]
        assert [p.height for p in scaled] == [
            math.ldexp(p.height, k) for p in base]

    def test_synthetic_ten_cycles_give_twenty_peaks(self):
        frame = normalize_max_abs(ten_cycle_frame())
        env = compute_envelope(frame, "shannon")
        peaks = detect_peaks(env)
        assert len(peaks) == 20


def reference_strict_local_maxima(y):
    """A hand-written maxima scan, independent of numpy and scipy.

    Local maxima; a plateau reports its center sample and frame
    endpoints are never maxima.
    """
    idx = []
    n = len(y)
    i = 1
    while i < n - 1:
        if y[i] > y[i - 1]:
            j = i
            while j + 1 < n and y[j + 1] == y[i]:
                j += 1
            if j < n - 1 and y[j + 1] < y[i]:
                idx.append((i + j) // 2)
            i = j + 1
        else:
            i += 1
    return idx


def reference_peak_indices(y, rate, min_height_frac, min_distance_s):
    floor = min_height_frac * float(np.max(y))
    cand = [i for i in reference_strict_local_maxima(y) if y[i] >= floor]
    kept = []
    for i in sorted(cand, key=lambda i: (-y[i], i)):
        if all(abs(i - j) >= min_distance_s * rate for j in kept):
            kept.append(i)
    return sorted(kept)


class TestFindEnvelopePeaksAgainstReference:
    """``find_envelope_peaks`` against a hand-written scan and rules."""

    # values in k/4 make plateaus, ties and floor hits common
    quantised = st.lists(st.integers(0, 4), min_size=1, max_size=300).map(
        lambda ks: np.array(ks) / 4.0)
    continuous = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300).map(
        np.array)

    @settings(max_examples=300, deadline=None)
    @given(y=st.one_of(quantised, continuous),
           # exact quarters put the floor on a quantised value (">=")
           min_height_frac=st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]),
                                     st.floats(0.0, 1.0)),
           min_distance_s=st.floats(0.0, 0.5),
           rate=st.sampled_from([10.0, 100.0, 2000.0]))
    def test_same_indices_as_reference(self, y, min_height_frac,
                                       min_distance_s, rate):
        peaks = peaks_under(envelope_of(y, rate), min_height_frac,
                            min_distance_s)
        assert [p.index for p in peaks] == reference_peak_indices(
            y, rate, min_height_frac, min_distance_s)
        for p in peaks:
            assert type(p.index) is int
            assert p.height == y[p.index]
            assert p.time_s == p.index / rate


def runs_of(levels, denominator):
    """Arrays of repeated levels: plateaus of 1-5 equal samples."""
    return st.lists(st.tuples(st.integers(*levels), st.integers(1, 5)),
                    min_size=1, max_size=80).map(lambda runs: np.repeat(
                        [v / denominator for v, _ in runs],
                        [k for _, k in runs]))


class TestCandidatesAgainstFindPeaks:
    """With no spacing rule, the peaks are ``find_peaks(y, height=)``."""

    @settings(max_examples=300, deadline=None)
    @given(y=st.one_of(runs_of((0, 4), 4.0),
                       TestFindEnvelopePeaksAgainstReference.quantised,
                       TestFindEnvelopePeaksAgainstReference.continuous),
           min_height_frac=st.one_of(st.sampled_from([0.25, 0.5, 1.0]),
                                     st.floats(0.0, 1.0)))
    def test_same_indices_as_find_peaks(self, y, min_height_frac):
        peaks = peaks_under(envelope_of(y, 100.0), min_height_frac, 0.0)
        floor = min_height_frac * float(np.max(y))
        assert [p.index for p in peaks] == \
            find_peaks(y, height=floor)[0].tolist()


class TestDetectPeaks:

    def test_fewer_than_three_peaks_raises(self):
        env = envelope_of([0, 1, 0, 0.9, 0], 10.0)
        with pytest.raises(PcgKitError,
                           match="only 2 peaks survive detection"):
            detect_peaks(env)

    def test_three_peaks_pass(self):
        env = envelope_of([0, 1, 0, 0.9, 0, 0.8, 0], 10.0)
        assert len(detect_peaks(env)) == 3


class TestLabelS1S2:

    def test_short_first_gap_starts_on_s1(self):
        labeled = label_s1_s2(peaks_at([0.0, 0.30, 0.80, 1.10]))
        assert [p.label for p in labeled] == [
            PeakLabel.S1, PeakLabel.S2, PeakLabel.S1, PeakLabel.S2]

    def test_long_first_gap_starts_on_s2(self):
        labeled = label_s1_s2(peaks_at([0.0, 0.50, 0.80, 1.30]))
        assert [p.label for p in labeled] == [
            PeakLabel.S2, PeakLabel.S1, PeakLabel.S2, PeakLabel.S1]

    def test_equal_gaps_tie_break_to_s1(self):
        labeled = label_s1_s2(peaks_at([0.0, 0.4, 0.8]))
        assert labeled[0].label is PeakLabel.S1

    def test_alternation_is_strict(self):
        labeled = label_s1_s2(peaks_at([0.0, 0.3, 0.8, 1.1, 1.6, 1.9, 2.4]))
        for a, b in zip(labeled, labeled[1:]):
            assert a.label is not b.label

    def test_label_counts_differ_by_at_most_one(self):
        for n in (3, 4, 5, 6):
            labeled = label_s1_s2(peaks_at([0.3 * k for k in range(n)]))
            n_s1 = sum(p.label is PeakLabel.S1 for p in labeled)
            n_s2 = sum(p.label is PeakLabel.S2 for p in labeled)
            assert abs(n_s1 - n_s2) <= 1

    def test_too_few_peaks_raises(self):
        with pytest.raises(PcgKitError, match="labeling needs >= 3 peaks"):
            label_s1_s2(peaks_at([0.0, 0.3]))


class TestCycleIntervals:

    def test_exact_arithmetic_fixture(self):
        times = [0.0, 0.3, 0.8, 1.1, 1.6, 1.9]
        labels = [PeakLabel.S1, PeakLabel.S2] * 3
        t_sys, t_dias, n = cycle_intervals(peaks_at(times, labels))
        assert t_sys == pytest.approx(0.3, abs=1e-12)
        assert t_dias == pytest.approx(0.5, abs=1e-12)
        assert n == 3

    def test_jittered_events_average_to_generator_mean(self):
        spec = SynthSpec(hr_bpm=75.0, duration_s=30.0, jitter_ms=10.0, seed=11)
        _, truth = generate_pcg(spec)
        events = sorted(
            [(t, PeakLabel.S1) for t in truth.s1_times]
            + [(t, PeakLabel.S2) for t in truth.s2_times])
        labeled = peaks_at([t for t, _ in events], [l for _, l in events])
        t_sys, t_dias, _ = cycle_intervals(labeled)
        assert abs(t_sys - spec.t_sys_s) < 0.010
        assert abs(t_dias - (60.0 / spec.hr_bpm - spec.t_sys_s)) < 0.010

    def test_single_peak_raises(self):
        with pytest.raises(PcgKitError, match="S2->S1 pair, got 0 and 0"):
            cycle_intervals(peaks_at([0.5], [PeakLabel.S1]))

    def test_missing_diastolic_pair_raises(self):
        with pytest.raises(PcgKitError, match="S2->S1 pair, got 1 and 0"):
            cycle_intervals(peaks_at([0.0, 0.3], [PeakLabel.S1, PeakLabel.S2]))

    def test_missing_systolic_pair_raises(self):
        with pytest.raises(PcgKitError, match="S2->S1 pair, got 0 and 1"):
            cycle_intervals(peaks_at([0.0, 0.5], [PeakLabel.S2, PeakLabel.S1]))

    def test_pairs_of_one_label_count_in_neither(self):
        # S1->S1 and S2->S2 gaps (0.1 s each) are no interval
        times = [0.0, 0.1, 0.4, 0.5, 1.0]
        labels = [PeakLabel.S1, PeakLabel.S1, PeakLabel.S2, PeakLabel.S2,
                  PeakLabel.S1]
        t_sys, t_dias, n = cycle_intervals(peaks_at(times, labels))
        assert (t_sys, t_dias, n) == (pytest.approx(0.3, abs=1e-12),
                                      pytest.approx(0.5, abs=1e-12), 1)


class TestRiseDecayTimes:

    def test_constructed_without_a_count_skips_none(self):
        assert RiseDecayTimes(0.1, 0.2, 0.3, 0.4).n_skipped == 0

    def test_peak_without_a_sample_index_is_placed_by_its_time(self):
        # built without ``index`` (-1), the S1 peak is found at its time,
        # and the S2 rise search behind it starts at the frame start
        rate = 1000.0
        y = np.zeros(400)
        triangle(y, 100, 40)
        triangle(y, 300, 40)
        labeled = [PeakEvent(time_s=0.100, height=1.0, label=PeakLabel.S1),
                   PeakEvent(time_s=0.300, height=1.0, label=PeakLabel.S2,
                             index=300)]
        assert labeled[0].index == -1
        rd = rise_decay_times(envelope_of(y, rate), labeled)
        for value in (rd.t_rs1, rd.t_ds1, rd.t_rd2, rd.t_dd2):
            assert value == pytest.approx(0.034, abs=1e-12)
        assert rd.n_skipped == 0

    def test_triangular_peak_crossing_times(self):
        # 40 ms half-width ramps at 1000 Hz cross 15% of peak height
        # 34 samples before and after the apex
        rate = 1000.0
        y = np.zeros(400)
        triangle(y, 100, 40)
        triangle(y, 300, 40)
        labeled = [
            PeakEvent(time_s=0.100, height=1.0, label=PeakLabel.S1, index=100),
            PeakEvent(time_s=0.300, height=1.0, label=PeakLabel.S2, index=300),
        ]
        rd = rise_decay_times(envelope_of(y, rate), labeled)
        for value in (rd.t_rs1, rd.t_ds1, rd.t_rd2, rd.t_dd2):
            assert value == pytest.approx(0.034, abs=1e-12)
        assert rd.n_skipped == 0

    def test_baseline_is_relative_to_each_peaks_height(self):
        rate = 1000.0
        y = np.zeros(400)
        triangle(y, 100, 40, height=1.0)
        triangle(y, 300, 40, height=0.5)
        labeled = [
            PeakEvent(time_s=0.100, height=1.0, label=PeakLabel.S1, index=100),
            PeakEvent(time_s=0.300, height=0.5, label=PeakLabel.S2, index=300),
        ]
        rd = rise_decay_times(envelope_of(y, rate), labeled)
        assert rd.t_rd2 == pytest.approx(0.034, abs=1e-12)
        assert rd.t_dd2 == pytest.approx(0.034, abs=1e-12)

    def test_gaussian_burst_is_symmetric(self):
        rate = 2000.0
        t = np.arange(2000) / rate
        y = (np.exp(-0.5 * ((t - 0.3) / 0.015) ** 2)
             + np.exp(-0.5 * ((t - 0.7) / 0.015) ** 2))
        labeled = [
            PeakEvent(time_s=0.3, height=1.0, label=PeakLabel.S1, index=600),
            PeakEvent(time_s=0.7, height=1.0, label=PeakLabel.S2, index=1400),
        ]
        rd = rise_decay_times(envelope_of(y, rate), labeled)
        assert abs(rd.t_rs1 - rd.t_ds1) < 0.001
        assert abs(rd.t_rd2 - rd.t_dd2) < 0.001

    def test_impulse_gives_one_sample_period(self):
        rate = 500.0
        y = np.zeros(100)
        y[30] = 1.0
        y[70] = 1.0
        labeled = [
            PeakEvent(time_s=30 / rate, height=1.0, label=PeakLabel.S1, index=30),
            PeakEvent(time_s=70 / rate, height=1.0, label=PeakLabel.S2, index=70),
        ]
        rd = rise_decay_times(envelope_of(y, rate), labeled)
        for value in (rd.t_rs1, rd.t_ds1, rd.t_rd2, rd.t_dd2):
            assert value == pytest.approx(1.0 / rate, abs=1e-15)

    def test_truncated_support_warns_and_skips(self):
        rate = 1000.0
        y = np.zeros(500)
        y[0] = 0.5  # first peak rises out of the frame edge
        triangle(y, 1, 1)
        triangle(y, 200, 40)
        triangle(y, 350, 40)
        y[0] = 0.5
        labeled = [
            PeakEvent(time_s=0.001, height=y[1], label=PeakLabel.S1, index=1),
            PeakEvent(time_s=0.200, height=1.0, label=PeakLabel.S2, index=200),
            PeakEvent(time_s=0.350, height=1.0, label=PeakLabel.S1, index=350),
        ]
        with pytest.warns(RuntimeWarning):
            rd = rise_decay_times(envelope_of(y, rate), labeled)
        assert rd.n_skipped == 1
        assert rd.t_rs1 == pytest.approx(0.034, abs=1e-12)

    def test_searches_stop_at_the_neighbouring_peaks(self):
        # the envelope stays at half height between the first two peaks
        # and between the last two, so the searches there end truncated
        # at the neighbour, not at a crossing beyond it
        rate = 1000.0
        y = np.zeros(1200)
        for idx in range(100, 1200, 200):
            triangle(y, idx, 40)
        for a, b in ((100, 300), (900, 1100)):
            y[a + 1:b] = np.maximum(y[a + 1:b], 0.5)
        labeled = [PeakEvent(time_s=i / rate, height=1.0, label=lab, index=i)
                   for i, lab in zip(range(100, 1200, 200),
                                     [PeakLabel.S1, PeakLabel.S2] * 3)]
        with pytest.warns(RuntimeWarning) as caught:
            rd = rise_decay_times(envelope_of(y, rate), labeled)
        assert rd.n_skipped == 4
        for value in (rd.t_rs1, rd.t_ds1, rd.t_rd2, rd.t_dd2):
            assert value == pytest.approx(0.034, abs=1e-12)
        # each warning names the line that called rise_decay_times
        assert {w.filename for w in caught} == {__file__}

    def test_no_usable_peak_for_a_label_raises(self):
        rate = 1000.0
        y = np.zeros(300)
        y[0] = 0.5
        triangle(y, 1, 1)
        y[0] = 0.5
        triangle(y, 200, 40)
        labeled = [
            PeakEvent(time_s=0.001, height=y[1], label=PeakLabel.S1, index=1),
            PeakEvent(time_s=0.200, height=1.0, label=PeakLabel.S2, index=200),
        ]
        with pytest.warns(RuntimeWarning):
            with pytest.raises(PcgKitError, match="no usable S1 peak"):
                rise_decay_times(envelope_of(y, rate), labeled)


def crossing_backward_by_loop(y, peak_idx, level, stop_idx):
    """The sample-by-sample form of ``_crossing_backward``: the oracle."""
    for i in range(peak_idx - 1, stop_idx, -1):
        if y[i] <= level:
            return i
    return None


def crossing_forward_by_loop(y, peak_idx, level, stop_idx):
    for i in range(peak_idx + 1, stop_idx):
        if y[i] <= level:
            return i
    return None


class TestCrossingsAgainstLoop:
    """The vectorised crossing searches return the loop's indices."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_same_index_or_none(self, data):
        # few distinct levels make long plateaus and exact level hits
        steps = data.draw(st.lists(st.integers(0, 3), min_size=1,
                                   max_size=60))
        y = np.array(steps, dtype=float) / 3
        peak = data.draw(st.integers(0, len(y) - 1), label="peak")
        # neighbouring peaks, or -1 and len(y) at the frame edges; a next
        # peak without a sample index stops the forward search at -1
        lo = data.draw(st.integers(-1, peak), label="lo")
        hi = data.draw(st.one_of(st.just(-1), st.integers(peak, len(y))),
                       label="hi")
        level = data.draw(st.sampled_from([*np.unique(y), 0.5, -1.0]),
                          label="level")
        back = segmentation._crossing_backward(y, peak, level, lo)
        fwd = segmentation._crossing_forward(y, peak, level, hi)
        assert back == crossing_backward_by_loop(y, peak, level, lo)
        assert fwd == crossing_forward_by_loop(y, peak, level, hi)
        assert back is None or type(back) is int
        assert fwd is None or type(fwd) is int

    def test_truncated_support_is_none(self):
        y = np.array([0.0, 1.0, 1.0, 0.5, 1.0, 0.0])
        # the frame edge and the next peak cut both searches off
        assert segmentation._crossing_backward(y, 2, 0.2, 0) is None
        assert segmentation._crossing_forward(y, 2, 0.2, 4) is None
        assert segmentation._crossing_backward(y, 2, 0.5, -1) == 0
        assert segmentation._crossing_forward(y, 2, 0.5, 6) == 3


class TestSegmentChain:

    def _synthetic_envelope(self, rate=1000.0, shift=0):
        y = np.zeros(2500 + shift)
        for center in (200, 500, 1200, 1500, 2200):
            triangle(y, center + shift, 40)
        return envelope_of(y, rate)

    def test_full_chain_on_triangle_train(self):
        seg = segment(self._synthetic_envelope())
        assert isinstance(seg, CycleSegmentation)
        assert seg.n_cycles == 2
        assert seg.t_sys == pytest.approx(0.3, abs=1e-9)
        assert seg.t_dias == pytest.approx(0.7, abs=1e-9)
        labels = [p.label for p in seg.peaks]
        assert labels == [PeakLabel.S1, PeakLabel.S2, PeakLabel.S1,
                          PeakLabel.S2, PeakLabel.S1]

    def test_time_shift_moves_peaks_not_intervals(self):
        base = segment(self._synthetic_envelope())
        shifted = segment(self._synthetic_envelope(shift=130))
        for a, b in zip(base.peaks, shifted.peaks):
            assert b.time_s - a.time_s == pytest.approx(0.130, abs=1e-3)
        for name in ("t_sys", "t_dias", "t_rs1", "t_ds1", "t_rd2", "t_dd2"):
            assert getattr(shifted, name) == pytest.approx(
                getattr(base, name), abs=1e-3)

    def test_raw_amplitude_scaling_leaves_peaks_unchanged(self):
        frame = ten_cycle_frame()
        scaled = frame.with_samples(frame.samples * 7.3)
        peaks_a = detect_peaks(compute_envelope(normalize_max_abs(frame), "shannon"))
        peaks_b = detect_peaks(compute_envelope(normalize_max_abs(scaled), "shannon"))
        assert [p.index for p in peaks_a] == [p.index for p in peaks_b]

    def test_synth_frame_label_counts_and_cycle_sum(self):
        frame = normalize_max_abs(ten_cycle_frame())
        seg = segment(compute_envelope(frame, "shannon"))
        s1_times = [p.time_s for p in seg.peaks if p.label is PeakLabel.S1]
        s2_times = [p.time_s for p in seg.peaks if p.label is PeakLabel.S2]
        assert abs(len(s1_times) - len(s2_times)) <= 1
        mean_cycle = float(np.mean(np.diff(s1_times)))
        assert seg.t_sys + seg.t_dias == pytest.approx(
            mean_cycle, abs=1.0 / frame.rate_hz)
        # generator used 75 bpm with a 0.3 s systole
        assert seg.t_sys == pytest.approx(0.3, abs=0.015)
        assert seg.t_dias == pytest.approx(0.5, abs=0.015)
