"""Signal-quality measurements for recorded or synthetic PCG frames.

Covers the occupied frequency band, the sample energy spectrum, the
normalized error between each wavelet family's energy track and the
sample energy track, and a burst-versus-background SNR. Each measure has
one fixed setting: a 5% band threshold, the 64-step 500..10 Hz wavelet
scale ladder and a +-50 ms peak window. Frame-level results aggregate
into a per-subject :class:`QualityReport`. Every transform runs on
``numpy.fft``, so no measure loads scipy. :func:`frame_qualities` runs
the wavelet measures on threads it creates, one per usable CPU.
"""

import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignalError, PcgKitError, TooShortError
from .wavelets import WaveletKind, hold_bank, wes

__all__ = [
    "fft_band", "energy_spectrum", "nrmse_wes_vs_es", "snr_frame",
    "FrameQuality", "frame_qualities", "QualityReport",
    "aggregate_quality",
]

SNR_CAP_DB = 60.0
# Share of the non-DC spectral peak that counts as occupied band.
BAND_REL_THRESHOLD = 0.05
# Half-width of the signal window around each labeled peak, in seconds.
SNR_WINDOW_S = 0.05


def fft_band(frame):
    """Occupied frequency band of a frame.

    The Hann-windowed magnitude spectrum (zero-padded to the next power
    of two) is thresholded at ``BAND_REL_THRESHOLD`` of its non-DC peak;
    the band is the lowest and highest surviving frequency.

    Returns
    -------
    (float, float)
        ``(low_hz, high_hz)``.
    """
    x = frame.samples
    if len(x) < 256:
        raise TooShortError(f"band estimate needs >= 256 samples, got {len(x)}")
    nfft = 1 << int(math.ceil(math.log2(len(x))))
    mag = np.abs(np.fft.rfft(x * np.hanning(len(x)), nfft))
    freqs = np.fft.rfftfreq(nfft, 1.0 / frame.rate_hz)
    mag[0] = 0.0  # DC excluded from both peak and band
    peak = mag.max()
    if peak <= 0:
        raise DegenerateSignalError("spectrum is identically zero")
    above = np.nonzero(mag >= BAND_REL_THRESHOLD * peak)[0]
    return float(freqs[above[0]]), float(freqs[above[-1]])


def energy_spectrum(frame):
    """Pointwise squared amplitude, as a signal at the frame rate."""
    return frame.with_samples(frame.samples ** 2)


def nrmse_wes_vs_es(wes_track, es_track):
    """Normalized RMSE between two energy tracks.

    ``sqrt(sum((a - b)**2) / sum(b**2))`` with the second argument the
    reference. Both arguments are arrays.

    Raises
    ------
    PcgKitError
        If the reference has zero energy.
    """
    a = np.asarray(wes_track, dtype=np.float64)
    b = np.asarray(es_track, dtype=np.float64)
    if len(a) != len(b):
        raise PcgKitError(f"length mismatch: {len(a)} vs {len(b)}")
    ref_energy = float(np.sum(b * b))
    if ref_energy == 0.0:
        raise PcgKitError("reference track has zero energy")
    return float(np.sqrt(np.sum((a - b) ** 2) / ref_energy))


def peak_windows(n, rate_hz, times_s):
    """Mask of the ``n`` samples within ``SNR_WINDOW_S`` of any event time."""
    t = np.arange(n) / rate_hz
    mask = np.zeros(n, dtype=bool)
    for tc in times_s:
        mask |= np.abs(t - tc) <= SNR_WINDOW_S
    return mask


def snr_frame(frame, seg):
    """Burst-versus-background SNR of a segmented frame.

    Signal power is the mean squared amplitude within ``SNR_WINDOW_S`` of
    each labeled peak; noise power is the mean over everything else. The
    ratio in dB is clamped to +-60 dB, because a noiseless denominator is
    otherwise unbounded.

    Returns
    -------
    float
        SNR in dB.

    Raises
    ------
    PcgKitError
        If the peak windows cover the entire frame.
    """
    x = frame.samples
    mask = peak_windows(len(x), frame.rate_hz, [p.time_s for p in seg.peaks])
    if not mask.any():
        raise PcgKitError("no samples fall inside peak windows")
    if mask.all():
        raise PcgKitError("peak windows cover the whole frame")
    p_signal = float(np.mean(x[mask] ** 2))
    p_noise = float(np.mean(x[~mask] ** 2))
    if p_signal == 0.0 and p_noise == 0.0:
        raise DegenerateSignalError("frame is silent")
    cap = 10 ** (SNR_CAP_DB / 10.0)
    if p_noise == 0.0 or p_signal / p_noise > cap:
        return SNR_CAP_DB
    if p_signal == 0.0 or p_signal / p_noise < 1.0 / cap:
        return -SNR_CAP_DB
    return 10.0 * math.log10(p_signal / p_noise)


@dataclass(frozen=True)
class FrameQuality:
    """Quality measurements of one frame."""

    band_hz: tuple
    nrmse: dict  # wavelet family name -> value
    snr_db: float


@dataclass
class _Measures:
    """A frame's values between families, and ``again``: the frame or a
    callable giving it anew. ``snr_db`` may be the error the SNR raised."""

    again: object
    band_hz: tuple
    snr_db: object
    nrmse: dict


def _take(item):
    """``(state, frame, seg)``: a frame's state and the frame to measure,
    with its segmentation on the first pass, or the frame's error."""
    try:
        if isinstance(item, _Measures):
            again = item.again
            return item, again() if callable(again) else again, None
        if not isinstance(item, PcgKitError):
            frame, seg, *again = item
            band = fft_band(frame)
            return _Measures((again or [frame])[0], band, None, {}), frame, seg
    except PcgKitError as exc:
        item = exc.with_traceback(None)
    return item, None, None


def _step(kind, st, frame, seg):
    """``st`` with its ``kind`` error, and its SNR if ``seg`` is given, or
    the first error, whose traceback would keep the frame alive."""
    try:
        es = energy_spectrum(frame).samples
        track = wes(frame, kind).samples
        st.nrmse[kind] = nrmse_wes_vs_es(track / np.sqrt(np.sum(track ** 2)),
                                         es / np.sqrt(np.sum(es ** 2)))
        if seg is not None:
            st.snr_db = snr_frame(frame, seg)
    except PcgKitError as exc:
        if kind not in st.nrmse:
            return exc.with_traceback(None)
        st.snr_db = exc.with_traceback(None)
    return st


def _usable_cpus():
    """CPUs this process may run on (frame_qualities' thread count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pass(kind, pending, pool, workers):
    """``pending``'s states after ``kind`` on ``pool``, with at most
    ``2 * workers`` frames submitted ahead of the oldest one."""
    states, window, held = [], deque(), None
    for st, frame, seg in pending:
        if isinstance(st, _Measures):
            # held in this thread before the first submit: when a worker
            # built the bank, peak RSS read 0.3-0.5 MB higher
            held = held or hold_bank(kind, frame.rate_hz, len(frame.samples))
            window.append(len(states))
            st = pool.submit(_step, kind, st, frame, seg)
        states.append(st)
        if len(window) == 2 * workers:
            i = window.popleft()
            states[i] = states[i].result()
    for i in window:
        states[i] = states[i].result()
    return states


def frame_qualities(frames):
    """Band, per-wavelet energy-track error, and SNR for each frame.

    ``frames`` yields, per frame, the :class:`PcgKitError` of a frame that
    failed before, a ``(frame, seg)`` pair, or a ``(frame, seg, again)``
    triple; the result lists, in frame order, each frame's
    :class:`FrameQuality` or the first error of :func:`fft_band`,
    :func:`wes` for each :class:`WaveletKind`, and :func:`snr_frame`, in
    that order. Both energy tracks are normalized to unit total energy,
    so the error is a pure shape mismatch, free of the methods' gains.

    The families run one at a time over all the frames, in declaration
    order, on one thread per usable CPU. Before a family's first ``wes``,
    the calling thread builds the bank of its first frame still measured,
    so frames of one length build each bank once. The first family and
    the SNR run as ``frames`` yields each frame. No samples are kept
    between families: a later family measures what ``again()`` gives, or
    the frame itself without ``again``, and an error ``again()`` raises
    is that frame's.
    """
    from concurrent.futures import ThreadPoolExecutor

    workers = _usable_cpus()
    states = frames
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for kind in WaveletKind:
            states = _pass(kind, map(_take, states), pool, workers)
    return [st if isinstance(st, PcgKitError) else _finish(st)
            for st in states]


def _finish(st):
    """The frame's :class:`FrameQuality`, or the error its SNR raised."""
    if isinstance(st.snr_db, PcgKitError):
        return st.snr_db
    nrmse = {kind.value: st.nrmse[kind] for kind in WaveletKind}
    return FrameQuality(st.band_hz, nrmse, st.snr_db)


@dataclass(frozen=True)
class QualityReport:
    """Subject-level aggregation of frame quality measurements."""

    freq_range_hz: tuple
    nrmse: dict  # wavelet family name -> mean over frames
    snr_db: tuple  # (max, min, avg)
    per_frame_snr: tuple


def aggregate_quality(frame_qualities):
    """Combine frame measurements into one subject report.

    The band is the union of frame bands; energy-track errors average
    across frames; SNR reports the frame maximum, minimum, and mean.
    """
    if not frame_qualities:
        raise PcgKitError("no frame qualities to aggregate")
    lows = [fq.band_hz[0] for fq in frame_qualities]
    highs = [fq.band_hz[1] for fq in frame_qualities]
    families = list(frame_qualities[0].nrmse)
    nrmse = {fam: float(np.mean([fq.nrmse[fam] for fq in frame_qualities]))
             for fam in families}
    snrs = [fq.snr_db for fq in frame_qualities]
    return QualityReport(
        freq_range_hz=(float(min(lows)), float(max(highs))),
        nrmse=nrmse,
        snr_db=(float(max(snrs)), float(min(snrs)), float(np.mean(snrs))),
        per_frame_snr=tuple(float(v) for v in snrs))
