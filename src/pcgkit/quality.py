"""Signal-quality measurements for recorded or synthetic PCG frames.

Covers the occupied frequency band, a short-time spectrogram, mel-cepstral
coefficients, the sample energy spectrum, the normalized error between
wavelet and sample energy tracks, and a burst-versus-background SNR.
Frame-level results aggregate into a per-subject :class:`QualityReport`.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, rfft, rfftfreq

from .core import SampledSignal, SignalLabel
from .errors import (
    ConfigError,
    DegenerateCoverageError,
    DegenerateSignalError,
    InvalidInputError,
    TooShortError,
    UndefinedNormalizerError,
)
from .wavelets import ScaleGrid, WaveletKind, wes

__all__ = [
    "fft_band", "spectrogram_stft", "mel_filterbank", "mfcc",
    "energy_spectrum", "nrmse_wes_vs_es", "SnrResult", "snr_frame",
    "FrameQuality", "frame_quality", "QualityReport", "aggregate_quality",
]

SNR_CAP_DB = 60.0


def _samples_of(x):
    return x.samples if isinstance(x, SampledSignal) else np.asarray(x, dtype=np.float64)


def fft_band(frame, rel_threshold=0.05):
    """Occupied frequency band of a frame.

    The Hann-windowed magnitude spectrum (zero-padded to the next power
    of two) is thresholded at ``rel_threshold`` of its non-DC peak; the
    band is the lowest and highest surviving frequency.

    Returns
    -------
    (float, float)
        ``(low_hz, high_hz)``.
    """
    x = frame.samples
    if len(x) < 256:
        raise TooShortError(f"band estimate needs >= 256 samples, got {len(x)}")
    nfft = 1 << int(math.ceil(math.log2(len(x))))
    mag = np.abs(rfft(x * np.hanning(len(x)), nfft))
    freqs = rfftfreq(nfft, 1.0 / frame.rate_hz)
    mag[0] = 0.0  # DC excluded from both peak and band
    peak = mag.max()
    if peak <= 0:
        raise DegenerateSignalError("spectrum is identically zero")
    above = np.nonzero(mag >= rel_threshold * peak)[0]
    return float(freqs[above[0]]), float(freqs[above[-1]])


@dataclass(frozen=True)
class Spectrogram:
    """STFT magnitudes with axes and the scaling needed for power sums.

    ``magnitude[i, j]`` is the unscaled ``|rfft|`` of column j at frequency
    bin i; divide squared magnitudes by ``window_power`` for a
    Parseval-consistent per-column power spectrum.
    """

    magnitude: np.ndarray
    freqs_hz: np.ndarray
    times_s: np.ndarray
    window_power: float


def spectrogram_stft(frame, window_len=256, overlap=0.5):
    """Short-time magnitude spectrogram with a periodic Hann window.

    Column count is exactly ``floor((N - window_len) / hop) + 1`` with
    ``hop = window_len * (1 - overlap)``; no padding is added.
    """
    x = frame.samples
    if len(x) < window_len:
        raise TooShortError(
            f"spectrogram needs >= {window_len} samples, got {len(x)}")
    hop = int(round(window_len * (1.0 - overlap)))
    if hop < 1:
        raise ConfigError(f"overlap {overlap} leaves no hop")
    # periodic Hann: one period of the cosine, no repeated endpoint
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(window_len) / window_len)
    segs = np.lib.stride_tricks.sliding_window_view(x, window_len)[::hop]
    cols = np.abs(rfft(segs * win, axis=1)).T
    freqs = rfftfreq(window_len, 1.0 / frame.rate_hz)
    times = frame.start_time_s + (np.arange(len(segs)) * hop + window_len / 2) / frame.rate_hz
    return Spectrogram(cols, freqs, times, float(np.sum(win ** 2)))


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=float) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=float) / 2595.0) - 1.0)


def mel_filterbank(n_filters, n_bins, rate_hz):
    """Triangular filters on a mel-spaced grid from 0 to Nyquist.

    Returns an ``(n_filters, n_bins)`` weight matrix for rfft bins.
    """
    nyq = rate_hz / 2.0
    mel_points = np.linspace(0.0, _hz_to_mel(nyq), n_filters + 2)
    hz_points = _mel_to_hz(mel_points)
    bin_freqs = np.linspace(0.0, nyq, n_bins)
    bank = np.zeros((n_filters, n_bins))
    for m in range(n_filters):
        f_lo, f_c, f_hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - f_lo) / (f_c - f_lo)
        falling = (f_hi - bin_freqs) / (f_hi - f_c)
        bank[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


def mfcc(frame, n_filters=26, n_coeffs=13, window_len=256, overlap=0.5,
         log_floor=1e-10):
    """Mel-frequency cepstral coefficients per spectrogram column.

    Filter energies are floored at ``log_floor`` before the log, and an
    orthonormal DCT-II compacts each column; the first ``n_coeffs``
    coefficients are kept.

    Returns
    -------
    ndarray, shape (n_coeffs, n_columns)
    """
    if n_coeffs > n_filters:
        raise ConfigError(
            f"n_coeffs {n_coeffs} cannot exceed n_filters {n_filters}")
    spec = spectrogram_stft(frame, window_len, overlap)
    power = spec.magnitude ** 2
    bank = mel_filterbank(n_filters, power.shape[0], frame.rate_hz)
    energies = np.maximum(bank @ power, log_floor)
    cepstra = dct(np.log(energies), type=2, norm="ortho", axis=0)
    return cepstra[:n_coeffs]


def energy_spectrum(frame):
    """Pointwise squared amplitude, as an envelope-labeled signal."""
    return SampledSignal(frame.samples ** 2, frame.rate_hz,
                         SignalLabel.ENVELOPE, frame.start_time_s,
                         dict(frame.meta))


def nrmse_wes_vs_es(wes_track, es_track):
    """Normalized RMSE between two energy tracks.

    ``sqrt(sum((a - b)**2) / sum(b**2))`` with the second argument the
    reference. Both arguments may be signals or arrays.

    Raises
    ------
    UndefinedNormalizerError
        If the reference has zero energy.
    """
    a = _samples_of(wes_track)
    b = _samples_of(es_track)
    if len(a) != len(b):
        raise InvalidInputError(f"length mismatch: {len(a)} vs {len(b)}")
    ref_energy = float(np.sum(b * b))
    if ref_energy == 0.0:
        raise UndefinedNormalizerError("reference track has zero energy")
    return float(np.sqrt(np.sum((a - b) ** 2) / ref_energy))


@dataclass(frozen=True)
class SnrResult:
    """SNR in dB plus whether the value hit the +-60 dB clamp."""

    snr_db: float
    saturated: bool = False


def snr_frame(frame, seg, window_ms=50.0):
    """Burst-versus-background SNR of a segmented frame.

    Signal power is the mean squared amplitude within ``window_ms`` of
    each labeled peak; noise power is the mean over everything else. The
    ratio is clamped to +-60 dB, with a saturation flag, because a
    noiseless denominator is otherwise unbounded.

    Raises
    ------
    DegenerateCoverageError
        If the peak windows cover the entire frame.
    """
    x = frame.samples
    t = np.arange(len(x)) / frame.rate_hz
    mask = np.zeros(len(x), dtype=bool)
    half = window_ms / 1000.0
    for p in seg.peaks:
        mask |= np.abs(t - p.time_s) <= half
    if not mask.any():
        raise DegenerateCoverageError("no samples fall inside peak windows")
    if mask.all():
        raise DegenerateCoverageError("peak windows cover the whole frame")
    p_signal = float(np.mean(x[mask] ** 2))
    p_noise = float(np.mean(x[~mask] ** 2))
    if p_signal == 0.0 and p_noise == 0.0:
        raise DegenerateSignalError("frame is silent")
    cap = 10 ** (SNR_CAP_DB / 10.0)
    if p_noise == 0.0 or p_signal / p_noise > cap:
        return SnrResult(SNR_CAP_DB, saturated=True)
    if p_signal == 0.0 or p_signal / p_noise < 1.0 / cap:
        return SnrResult(-SNR_CAP_DB, saturated=True)
    return SnrResult(10.0 * math.log10(p_signal / p_noise), saturated=False)


_DEFAULT_KINDS = tuple(getattr(WaveletKind, f)() for f in WaveletKind.FAMILIES)


@dataclass(frozen=True)
class FrameQuality:
    """Quality measurements of one frame."""

    band_hz: tuple
    nrmse: dict  # wavelet family name -> value
    snr: SnrResult


def frame_quality(frame, seg, kinds=_DEFAULT_KINDS, rel_threshold=0.05,
                  window_ms=50.0, grid_lo_hz=10.0, grid_hi_hz=500.0,
                  n_scales=64):
    """Band, per-wavelet energy-track error, and SNR for one frame.

    The wavelet and sample energy tracks are each normalized to unit
    total energy before comparison, making the error a pure shape
    mismatch independent of the methods' arbitrary gains.
    """
    band = fft_band(frame, rel_threshold)
    es = energy_spectrum(frame).samples
    es_n = es / np.sqrt(np.sum(es ** 2))
    nrmse = {}
    for kind in kinds:
        grid = ScaleGrid.log_spaced(kind, frame.rate_hz, grid_lo_hz,
                                    grid_hi_hz, n_scales)
        track = wes(frame, kind, grid).samples
        track_n = track / np.sqrt(np.sum(track ** 2))
        nrmse[kind.family] = nrmse_wes_vs_es(track_n, es_n)
    return FrameQuality(band, nrmse, snr_frame(frame, seg, window_ms))


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
        raise InvalidInputError("no frame qualities to aggregate")
    lows = [fq.band_hz[0] for fq in frame_qualities]
    highs = [fq.band_hz[1] for fq in frame_qualities]
    families = list(frame_qualities[0].nrmse)
    nrmse = {fam: float(np.mean([fq.nrmse[fam] for fq in frame_qualities]))
             for fam in families}
    snrs = [fq.snr.snr_db for fq in frame_qualities]
    return QualityReport(
        freq_range_hz=(float(min(lows)), float(max(highs))),
        nrmse=nrmse,
        snr_db=(float(max(snrs)), float(min(snrs)), float(np.mean(snrs))),
        per_frame_snr=tuple(float(v) for v in snrs))
