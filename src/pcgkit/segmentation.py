"""Envelope peak detection, S1/S2 labeling, and cycle timing features.

The rules are deliberately small and exact: local maxima (plateau
centres included) with a relative height floor, greedy tall-first
distance suppression, a first-gap labeling decision, and
threshold-crossing rise/decay times.
Everything downstream (heart rate, blood-pressure features) consumes the
:class:`CycleSegmentation` produced here.
"""

import bisect
import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PcgKitError

__all__ = [
    "PeakLabel", "PeakEvent", "RiseDecayTimes", "CycleSegmentation",
    "find_envelope_peaks", "detect_peaks", "label_s1_s2",
    "cycle_intervals", "rise_decay_times", "segment",
]

# Peak floor (fraction of the envelope maximum), least peak spacing, and
# the rise/decay baseline (fraction of each peak's own height).
PEAK_HEIGHT_FRAC = 0.15
PEAK_DISTANCE_S = 0.125
BASELINE_FRAC = 0.15


class PeakLabel(enum.Enum):
    S1 = "S1"
    S2 = "S2"
    UNLABELED = "unlabeled"


@dataclass(frozen=True)
class PeakEvent:
    """One detected envelope peak.

    ``time_s`` is measured from the frame start; ``index`` is the sample
    position inside the frame.
    """

    time_s: float
    height: float
    label: PeakLabel = PeakLabel.UNLABELED
    index: int = -1


@dataclass(frozen=True)
class RiseDecayTimes:
    """Averaged threshold-crossing times around S1 and S2 peaks."""

    t_rs1: float
    t_ds1: float
    t_rd2: float
    t_dd2: float
    n_skipped: int = 0


@dataclass(frozen=True)
class CycleSegmentation:
    """Labeled peaks plus every per-cycle timing quantity."""

    peaks: tuple
    t_sys: float
    t_dias: float
    t_rs1: float
    t_ds1: float
    t_rd2: float
    t_dd2: float
    n_cycles: int


def _local_maxima(y):
    """Indices of the local maxima of ``y``, plateau centres included.

    A maximum is a run of equal samples with a lower sample on each side;
    it reports its centre sample, rounded down. A run touching either end
    of ``y`` lacks a neighbour and is never a maximum. These are the
    candidates of ``scipy.signal.find_peaks``.
    """
    step = np.diff(y)
    ends = (step != 0).nonzero()[0]  # last sample of every run but the last
    # run k + 1 spans ends[k] + 1..ends[k + 1]; a rise into it and a fall
    # out of it make it a maximum
    rise = (step > 0)[ends]
    up = (rise[:-1] & ~rise[1:]).nonzero()[0]
    return (ends[up] + 1 + ends[up + 1]) // 2


def find_envelope_peaks(envelope):
    """Apply the raw peak rules and return every surviving peak.

    Rules: local maxima at or above ``PEAK_HEIGHT_FRAC`` of the envelope
    maximum (so the envelope may come at any scale), then greedy
    suppression that keeps the taller of any two peaks closer than
    ``PEAK_DISTANCE_S`` (ties keep the earlier). A run of
    equal samples with a lower sample on each side is a maximum too and
    reports its center sample; frame endpoints are never peaks
    since they lack one neighbor. The candidates before suppression are
    those of ``scipy.signal.find_peaks(y, height=floor)``, found here with
    ``np.diff`` over runs of equal samples. No minimum-count requirement;
    see :func:`detect_peaks` for the usable-frame contract.

    Returns
    -------
    list of PeakEvent
        Sorted by time, all UNLABELED.
    """
    y = envelope.samples
    rate = envelope.rate_hz
    floor = PEAK_HEIGHT_FRAC * float(y.max())
    cand = _local_maxima(y)
    height = y[cand]
    tall = height >= floor
    cand, height = cand[tall].tolist(), height[tall].tolist()
    # tall-first greedy suppression; equal heights keep the earlier peak.
    # ``kept`` stays sorted, so only the two kept peaks beside ``i`` can
    # be closer to it than the least spacing.
    min_gap = PEAK_DISTANCE_S * rate
    kept = []
    for _, i in sorted(zip([-h for h in height], cand)):
        k = bisect.bisect(kept, i)
        if ((k == 0 or i - kept[k - 1] >= min_gap)
                and (k == len(kept) or kept[k] - i >= min_gap)):
            kept.insert(k, i)
    return [PeakEvent(i / rate, float(y[i]), index=i) for i in kept]


def detect_peaks(envelope):
    """Peak detection for segmentation; a usable frame needs 3 peaks.

    Raises
    ------
    PcgKitError
        If fewer than 3 peaks survive the rules, since labeling and
        interval work are impossible below that.
    """
    peaks = find_envelope_peaks(envelope)
    if len(peaks) < 3:
        raise PcgKitError(
            f"only {len(peaks)} peaks survive detection; need >= 3")
    return peaks


def label_s1_s2(peaks):
    """Assign alternating S1/S2 labels from the first-gap comparison.

    A shorter first gap than second gap means the frame starts on an S1
    (systole is the shorter interval at rest); otherwise it starts on an
    S2. Exact equality labels S1 first.
    """
    if len(peaks) < 3:
        raise PcgKitError(
            f"labeling needs >= 3 peaks, got {len(peaks)}")
    times = [p.time_s for p in peaks]
    first_is_s1 = (times[1] - times[0]) <= (times[2] - times[1])
    labels = (PeakLabel.S1, PeakLabel.S2) if first_is_s1 else (PeakLabel.S2, PeakLabel.S1)
    return [PeakEvent(p.time_s, p.height, labels[k % 2], p.index)
            for k, p in enumerate(peaks)]


def cycle_intervals(labeled):
    """Mean systolic and diastolic intervals from a labeled peak list.

    ``t_sys`` averages S1-to-next-S2 gaps, ``t_dias`` averages S2-to-next-S1
    gaps, and ``n_cycles`` counts the former.

    Returns
    -------
    (float, float, int)
        ``(t_sys, t_dias, n_cycles)``.

    Raises
    ------
    PcgKitError
        If either interval kind has no complete pair.
    """
    sys_gaps = []
    dias_gaps = []
    for a, b in zip(labeled, labeled[1:]):
        if a.label is PeakLabel.S1 and b.label is PeakLabel.S2:
            sys_gaps.append(b.time_s - a.time_s)
        elif a.label is PeakLabel.S2 and b.label is PeakLabel.S1:
            dias_gaps.append(b.time_s - a.time_s)
    if not sys_gaps or not dias_gaps:
        raise PcgKitError(
            f"need at least one S1->S2 and one S2->S1 pair, "
            f"got {len(sys_gaps)} and {len(dias_gaps)}")
    return float(np.mean(sys_gaps)), float(np.mean(dias_gaps)), len(sys_gaps)


def _crossing_backward(y, peak_idx, level, stop_idx):
    """Last sample at or below level strictly between ``stop_idx`` and the
    peak, or None if truncated (``stop_idx`` is -1 at the frame start)."""
    start = stop_idx + 1
    hits = (y[start:peak_idx] <= level).nonzero()[0]
    return start + int(hits[-1]) if hits.size else None


def _crossing_forward(y, peak_idx, level, stop_idx):
    """First sample at or below level strictly between the peak and
    ``stop_idx``, or None if truncated (``stop_idx`` is ``len(y)`` at the
    frame end, and -1, which ends the search at once, after a next peak
    without a sample index)."""
    start = peak_idx + 1
    hits = (y[start:max(stop_idx, start)] <= level).nonzero()[0]
    return start + int(hits[0]) if hits.size else None


def rise_decay_times(envelope, labeled):
    """Average rise and decay times of S1 and S2 envelope peaks.

    For each peak the baseline is ``BASELINE_FRAC`` of that peak's own
    height. Rise time runs from the last preceding sample at or below the
    baseline to the peak; decay time from the peak to the first following
    such sample. Searches stop at the neighboring peaks; a peak whose
    crossing is cut off there (or by the frame edge) is skipped and
    counted.

    Returns
    -------
    RiseDecayTimes

    Raises
    ------
    PcgKitError
        If no S1 or no S2 peak yields a complete rise/decay pair.
    """
    y = envelope.samples
    rate = envelope.rate_hz
    per_label = {PeakLabel.S1: ([], []), PeakLabel.S2: ([], [])}
    skipped = 0
    for k, p in enumerate(labeled):
        if p.label not in per_label:
            continue
        idx = p.index if p.index >= 0 else int(round(p.time_s * rate))
        level = BASELINE_FRAC * p.height
        lo = labeled[k - 1].index if k > 0 else -1
        hi = labeled[k + 1].index if k + 1 < len(labeled) else len(y)
        back = _crossing_backward(y, idx, level, lo)
        fwd = _crossing_forward(y, idx, level, hi)
        if back is None or fwd is None:
            warnings.warn(
                f"peak at {p.time_s:.3f} s has truncated support, skipped",
                RuntimeWarning, stacklevel=2)
            skipped += 1
            continue
        rises, decays = per_label[p.label]
        rises.append((idx - back) / rate)
        decays.append((fwd - idx) / rate)
    for label, (rises, _) in per_label.items():
        if not rises:
            raise PcgKitError(
                f"no usable {label.value} peak for rise/decay timing")
    s1_r, s1_d = per_label[PeakLabel.S1]
    s2_r, s2_d = per_label[PeakLabel.S2]
    return RiseDecayTimes(
        t_rs1=float(np.mean(s1_r)), t_ds1=float(np.mean(s1_d)),
        t_rd2=float(np.mean(s2_r)), t_dd2=float(np.mean(s2_d)),
        n_skipped=skipped)


def segment(envelope):
    """Full segmentation of one smoothed envelope.

    Chains peak detection, labeling, interval averaging, and rise/decay
    timing into a :class:`CycleSegmentation`, at the module's fixed
    peak floor, spacing and baseline.
    """
    labeled = label_s1_s2(detect_peaks(envelope))
    t_sys, t_dias, n_cycles = cycle_intervals(labeled)
    rd = rise_decay_times(envelope, labeled)
    return CycleSegmentation(
        peaks=tuple(labeled), t_sys=t_sys, t_dias=t_dias,
        t_rs1=rd.t_rs1, t_ds1=rd.t_ds1, t_rd2=rd.t_rd2, t_dd2=rd.t_dd2,
        n_cycles=n_cycles)
