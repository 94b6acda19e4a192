"""Heart-rate estimation from ECG reference frames and PCG segmentations.

Two interval-to-rate conversions are first class citizens because they
disagree: the verbatim average of the two interval reciprocals
(EQ7_VERBATIM) roughly doubles the physiologic rate for typical interval
splits, while the cycle-period form (CYCLE_PERIOD, the default) treats
one systole plus one diastole as a full beat. Their ratio is the exact
algebraic factor ``(t_sys + t_dias)**2 / (2 * t_sys * t_dias)``.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .core import SampledSignal, detrend, normalize_max_abs
from .envelopes import EnvelopeMethod, compute_envelope
from .errors import DegenerateSignalError, PcgKitError, StageError
from .segmentation import CycleSegmentation, _local_maxima, segment
from .wavelets import WaveletKind, dwt_denoise_db4

__all__ = [
    "HrFormula", "HrEstimate", "PipelineResult",
    "hr_from_ecg_frame", "hr_from_pcg", "hr_pipeline",
]

HR_MIN_BPM = 20.0
HR_MAX_BPM = 240.0
# Least topographic prominence of an R-peak, on the frame that
# hr_from_ecg_frame detrends and scales to unit peak.
ECG_PROMINENCE = 0.8


class HrFormula(enum.Enum):
    EQ7_VERBATIM = "eq7"
    CYCLE_PERIOD = "cycle"


@dataclass(frozen=True)
class HrEstimate:
    """One heart-rate value with its acceptance flags."""

    bpm: float
    flags: tuple = ()

    @property
    def accepted(self):
        """True when the estimate carries no flag."""
        return not self.flags


def _range_flags(bpm):
    return ("out_of_range",) if not HR_MIN_BPM <= bpm <= HR_MAX_BPM else ()


def _r_peaks(x):
    """Local maxima of ``x`` with prominence at least ``ECG_PROMINENCE``.

    ``scipy.signal.find_peaks(x, prominence=ECG_PROMINENCE)``: a peak's
    base on each side is the lowest sample between it and the nearest
    higher sample (or the frame edge), and its prominence is its height
    over the higher of the two bases. No prominence exceeds
    ``x[p] - min(x)``, so that bound drops most maxima before any search.
    """
    peaks = _local_maxima(x)
    peaks = peaks[x[peaks] - x.min() >= ECG_PROMINENCE]
    kept = []
    for p in peaks.tolist():
        height = x[p]
        higher = np.flatnonzero(x[:p] > height)
        left = x[higher[-1] + 1 if len(higher) else 0:p + 1].min()
        higher = np.flatnonzero(x[p:] > height)
        right = x[p:p + higher[0] if len(higher) else len(x)].min()
        if height - max(left, right) >= ECG_PROMINENCE:
            kept.append(p)
    return kept


def hr_from_ecg_frame(frame):
    """Reference heart rate from R-peak spacing in a raw ECG frame.

    The frame may come at any scale: it is detrended and max-abs
    normalized first. R-peaks are local maxima with topographic
    prominence at least ``ECG_PROMINENCE`` on that frame, the peaks
    ``scipy.signal.find_peaks(x, prominence=ECG_PROMINENCE)`` gives; the
    rate is ``60 * rate_hz / mean(sample gaps)``.

    Raises
    ------
    DegenerateSignalError
        If the detrended frame is all zeros.
    PcgKitError
        If fewer than 2 R-peaks are found.
    """
    x = normalize_max_abs(detrend(frame)).samples
    locs = _r_peaks(x)
    if len(locs) < 2:
        raise PcgKitError(
            f"found {len(locs)} R-peaks, need >= 2")
    mean_gap = float(np.mean(np.diff(locs)))
    bpm = 60.0 * frame.rate_hz / mean_gap
    return HrEstimate(bpm, _range_flags(bpm))


def hr_from_pcg(seg, formula=HrFormula.CYCLE_PERIOD):
    """Heart rate from the mean systolic and diastolic intervals.

    EQ7_VERBATIM computes ``(1/t_sys + 1/t_dias) * 60 / 2``; CYCLE_PERIOD
    computes ``60 / (t_sys + t_dias)``.

    Raises
    ------
    PcgKitError
        If either interval is non-positive.
    """
    formula = HrFormula(formula)
    if not (seg.t_sys > 0 and seg.t_dias > 0):
        raise PcgKitError(
            f"intervals must be positive, got t_sys={seg.t_sys}, "
            f"t_dias={seg.t_dias}")
    if formula is HrFormula.EQ7_VERBATIM:
        bpm = (1.0 / seg.t_sys + 1.0 / seg.t_dias) * 30.0
    else:
        bpm = 60.0 / (seg.t_sys + seg.t_dias)
    return HrEstimate(bpm, _range_flags(bpm))


@dataclass(frozen=True)
class PipelineResult:
    """HR estimate plus every intermediate product for inspection."""

    hr: HrEstimate
    denoised: SampledSignal
    normalized: SampledSignal
    envelope: SampledSignal
    segmentation: CycleSegmentation


def _denoise_normalize(pcg_frame):
    """``(denoised, normalized)``: the frame db4-denoised, then scaled to
    unit peak, or left unscaled if it is all zero."""
    denoised = dwt_denoise_db4(pcg_frame)
    try:
        return denoised, normalize_max_abs(denoised)
    except DegenerateSignalError:
        return denoised, denoised


def hr_pipeline(pcg_frame, method=EnvelopeMethod.SHANNON,
                formula=HrFormula.CYCLE_PERIOD,
                wavelet_kind=WaveletKind.MORLET):
    """Full heart-rate chain on one raw PCG frame.

    Stages: db4 denoise, max-abs normalize, envelope extraction by
    ``method`` (``wavelet_kind`` picks the WES wavelet),
    20 Hz zero-phase smoothing with renormalization, peak segmentation,
    and rate conversion by ``formula``. The other settings are constants
    of the stage modules. Any toolkit error raised inside a stage is
    rethrown as a :class:`StageError` naming that stage. An all-zero frame
    passes the normalize stage unscaled and fails at segmentation, which
    is the informative failure.

    Returns
    -------
    PipelineResult
    """
    def run(stage, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PcgKitError as exc:
            raise StageError(stage, exc) from exc

    denoised, normalized = run("denoise", _denoise_normalize, pcg_frame)
    envelope = run("envelope", compute_envelope, normalized, method,
                   kind=wavelet_kind)
    seg = run("segmentation", segment, envelope)
    hr = run("hr", hr_from_pcg, seg, formula)
    return PipelineResult(hr, denoised, normalized, envelope, seg)
