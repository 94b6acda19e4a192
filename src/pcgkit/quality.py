"""Signal-quality measurements for recorded or synthetic PCG frames.

Covers the occupied frequency band, the sample energy spectrum, the
normalized error between each wavelet family's energy track and the
sample energy track, and a burst-versus-background SNR. Each measure has
one fixed setting: a 5% band threshold, the 64-step 500..10 Hz wavelet
scale ladder and a +-50 ms peak window. Frame-level results aggregate
into a per-subject :class:`QualityReport`. Every transform runs on
``numpy.fft``, so no measure loads scipy.
"""

import math
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from .errors import DegenerateSignalError, PcgKitError, TooShortError
from .wavelets import WaveletKind, held_kind, hold_bank, wes

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
    """A frame's measures so far; ``nrmse`` maps each family to its error."""

    frame: object
    seg: object
    band_hz: tuple
    es_n: np.ndarray
    nrmse: dict


def _begin(item):
    """The frame's band and unit-energy sample energy track, or the error."""
    if isinstance(item, PcgKitError):
        return item
    frame, seg = item
    try:
        band = fft_band(frame)
    except PcgKitError as exc:
        return exc
    es = energy_spectrum(frame).samples
    return _Measures(frame, seg, band, es / np.sqrt(np.sum(es ** 2)), {})


def _step(kind, st):
    """``st`` with its ``kind`` energy-track error, or the first error."""
    if isinstance(st, PcgKitError):
        return st
    try:
        track = wes(st.frame, kind).samples
        st.nrmse[kind] = nrmse_wes_vs_es(track / np.sqrt(np.sum(track ** 2)),
                                         st.es_n)
    except PcgKitError as exc:
        return exc
    return st


def frame_qualities(frames, executor=None):
    """Band, per-wavelet energy-track error, and SNR for each frame.

    ``frames`` yields ``(frame, seg)`` pairs, or the :class:`PcgKitError`
    of a frame that failed before; the result lists, in frame order, each
    frame's :class:`FrameQuality` or the first error a measure raised.
    The measures run in one order: :func:`fft_band`, then :func:`wes` for
    every :class:`WaveletKind`, then :func:`snr_frame`, and a frame that
    fails one skips the rest. The wavelet and sample energy tracks are each
    normalized to unit total energy before comparison, making the error a
    pure shape mismatch independent of the methods' arbitrary gains.

    Each family is one ``map`` over all the frames, on ``executor`` (in
    this thread without one), the family whose bank is held first, so one
    kernel bank serves each. Before its first ``wes``, the bank of the
    first frame still measured is built and held, its row blocks spread
    over the executor; a frame of another length builds its bank inside
    its own ``wes``. ``Executor.map`` takes its input at once, so the first
    family's ``wes`` calls start as ``frames`` yields each frame. A build
    waits for the previous family's ``map`` to end: an executor serves one
    call at a time, and a build spread over it while another call's
    ``wes`` tasks wait in its queue could wait behind them forever.
    """
    mapper = map if executor is None else executor.map
    held = held_kind()
    states = map(_begin, frames)
    for kind in sorted(WaveletKind, key=lambda k: k is not held):
        states, head = iter(states), []
        for st in states:
            head.append(st)
            if isinstance(st, _Measures):
                hold_bank(kind, st.frame.rate_hz, len(st.frame.samples),
                          mapper)
                break
        states = list(mapper(partial(_step, kind), chain(head, states)))
    return [st if isinstance(st, PcgKitError) else _finish(st)
            for st in states]


def _finish(st):
    """The frame's :class:`FrameQuality`, or the error its SNR raised."""
    try:
        snr = snr_frame(st.frame, st.seg)
    except PcgKitError as exc:
        return exc
    nrmse = {kind.value: st.nrmse[kind] for kind in WaveletKind}
    return FrameQuality(st.band_hz, nrmse, snr)


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
