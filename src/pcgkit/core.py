"""Waveform container and the shared signal-conditioning primitives.

A :class:`SampledSignal` is samples plus a rate and nothing else: raw
recordings, frames and envelopes are all plain signals, and every
downstream module consumes them. Operations here are pure, and the type
enforces it: a signal's samples are read-only. So frames are views of
their recording, processed in parallel without locking or copying.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateSignalError, PcgKitError, TooShortError

__all__ = [
    "SampledSignal", "detrend", "normalize_max_abs", "resample_rational",
    "segment_frames", "butterworth_lowpass_zero_phase",
]

# Most samples a signal made here may hold (2.3 h at 2000 Hz): synthesis
# and resampling refuse a longer result before allocating it.
MAX_SAMPLES = 2 ** 24
# The rate every PCG is analysed at; synth writes at it by default.
PCG_RATE_HZ = 2000.0

# Single-pass order of the zero-phase Butterworth lowpass.
LOWPASS_ORDER = 4
# Grid points a lowpass plan evaluates at a time; bounds its scratch memory.
_PLAN_CHUNK = 2 ** 15
# Input samples a resampling step reads at a time; bounds its scratch memory.
_RESAMPLE_CHUNK = 2 ** 16

@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled real-valued waveform.

    Parameters
    ----------
    samples : ndarray
        Amplitude values as float64, checked finite in one ``np.isfinite``
        scan; held as a read-only view, the caller's array left writable.
    rate_hz : float
        Sampling rate, finite and strictly positive.
    """

    samples: np.ndarray
    rate_hz: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise PcgKitError(f"samples must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise PcgKitError("samples must be non-empty")
        # not a sum-first test: a finite array whose sum overflows would
        # pass it only after a RuntimeWarning
        if not np.isfinite(arr).all():
            raise PcgKitError("samples contain non-finite values")
        if not (self.rate_hz > 0 and math.isfinite(self.rate_hz)):
            raise PcgKitError(
                f"rate_hz must be finite and > 0, got {self.rate_hz}")
        arr = arr.view()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self):
        return len(self.samples)

    @property
    def duration_s(self):
        return len(self.samples) / self.rate_hz

    def with_samples(self, samples):
        """Copy of this signal with new samples at the same rate."""
        return SampledSignal(samples, self.rate_hz)


def detrend(s):
    """Remove the least-squares straight line from a signal.

    The fitted line absorbs both mean and linear drift, so the output has
    zero mean and zero best-fit slope.

    Parameters
    ----------
    s : SampledSignal

    Returns
    -------
    SampledSignal
        Same length and rate, trend removed.
    """
    x = s.samples
    n = len(x)
    t = np.arange(n, dtype=np.float64)
    t -= t.mean()
    denom = np.dot(t, t)
    slope = np.dot(t, x) / denom if denom > 0 else 0.0
    fitted = x.mean() + slope * t
    return s.with_samples(x - fitted)


def normalize_max_abs(s):
    """Scale a signal so its maximum absolute amplitude is 1.

    Raises
    ------
    DegenerateSignalError
        If the signal is identically zero.
    """
    x = s.samples
    peak = float(max(x.max(), -x.min()))
    if peak == 0.0:
        raise DegenerateSignalError("cannot normalize an all-zero signal")
    return s.with_samples(x / peak)


def _antialias_fir(up, down, rate_in):
    """Kaiser lowpass for polyphase resampling.

    Band edges sit on the limiting Nyquist (the smaller of source and
    target), with the stopband edge at 0.9 of it: cutoff 0.75, transition
    width 0.3, 60 dB design. That leaves the 0.9 contract point deep in
    the stopband and keeps passband ripple well under 1%.

    ``scipy.signal.kaiserord`` and ``firwin`` on numpy: about
    ``24 * max(up, down)`` taps, each within a few 1e-16 of the peak tap
    of scipy's design (``np.i0`` against ``scipy.special.i0``).
    """
    rate_up = rate_in * up
    f_lim = min(rate_in, rate_in * up / down) / 2.0
    width = 0.3 * f_lim
    cutoff = 0.75 * f_lim
    atten = 60.0
    numtaps = math.ceil(
        (atten - 7.95) / 2.285 / (np.pi * (width / (rate_up / 2.0))) + 1)
    numtaps |= 1  # force odd length for a symmetric (type I) filter
    c = cutoff / (rate_up / 2.0)
    h = c * np.sinc(c * (np.arange(numtaps) - 0.5 * (numtaps - 1)))
    h *= np.kaiser(numtaps, 0.1102 * (atten - 8.7))
    return h / h.sum()


def resample_rational(s, target_rate_hz):
    """Resample to a new rate by rational-factor polyphase filtering.

    Parameters
    ----------
    s : SampledSignal
    target_rate_hz : float
        Must relate to the source rate by a fraction with denominator
        at most 10000.

    Returns
    -------
    SampledSignal
        Signal at ``target_rate_hz``. Content above 0.9 of the new
        Nyquist is attenuated by at least 40 dB; content below 0.6 of
        the limiting Nyquist passes within 1% amplitude. Bit for bit
        ``scipy.signal.resample_poly(x, up, down, window=h)`` on the
        same taps, whose order of summation it keeps; beside the output
        it holds the taps and one chunk of ``_RESAMPLE_CHUNK`` samples.

    Raises
    ------
    PcgKitError
        If the rate ratio has no small rational representation, or the
        result would exceed ``max(len(s), MAX_SAMPLES)`` samples.
    """
    if not (target_rate_hz > 0 and math.isfinite(target_rate_hz)):
        raise PcgKitError(
            f"target_rate_hz must be > 0 and finite, got {target_rate_hz}")
    ratio = target_rate_hz / s.rate_hz
    frac = Fraction(ratio).limit_denominator(10_000)
    if frac.numerator <= 0 or abs(float(frac) - ratio) > 1e-9 * ratio:
        raise PcgKitError(
            f"rate ratio {ratio} not representable with denominator <= 10000")
    up, down = frac.numerator, frac.denominator
    n = len(s.samples)
    n_out = -(-n * up // down)  # ceil(n * up / down), the output length
    if n_out > max(n, MAX_SAMPLES):
        raise PcgKitError(
            f"resampling {n} samples from {s.rate_hz:g} Hz to "
            f"{target_rate_hz:g} Hz gives {n_out} samples, more than "
            f"{MAX_SAMPLES}")
    if up == down:
        return SampledSignal(s.samples, float(target_rate_hz))
    h = _antialias_fir(up, down, s.rate_hz) * up
    half = (len(h) - 1) // 2
    per_phase = -(-len(h) // up)
    # row r: the taps of phase r, oldest input sample first
    taps = np.pad(h, (0, per_phase * up - len(h))).reshape(per_phase, up)
    taps = np.ascontiguousarray(taps.T[:, ::-1])
    x, out = s.samples, np.empty(n_out)
    step = up * (_RESAMPLE_CHUNK // down)  # down <= 10000: 6 rows or more
    for i0 in range(0, n_out, step):
        i1 = min(i0 + step, n_out)
        # the chunk's input, zero past either end, stored last sample
        # first: numpy hands no product through negative strides to BLAS,
        # so it sums each output in upfirdn's order, oldest sample first
        lo = (i0 * down + half) // up - per_phase + 1
        hi = ((i1 - 1) * down + half) // up + 1
        buf = np.zeros(hi - lo)
        a, b = max(lo, 0), min(hi, n)
        buf[hi - b:hi - a] = x[a:b][::-1]
        windows = np.lib.stride_tricks.sliding_window_view(buf, per_phase)
        # outputs i0 + c, i0 + c + up, ... share one phase and step
        # through the input by down
        for c in range(min(up, i1 - i0)):
            pos = (i0 + c) * down + half  # on the input upsampled by up
            dest = out[i0 + c:i1:up]
            rows = windows[hi - 1 - pos // up::-down][:len(dest), ::-1]
            dest[:] = rows @ taps[pos % up]
    return SampledSignal(out, float(target_rate_hz))


def segment_frames(s, frame_len_s):
    """Split a signal into consecutive non-overlapping frames.

    A trailing partial frame is discarded. Frames are read-only views of
    the signal's samples, so framing copies nothing.

    Returns
    -------
    list of SampledSignal

    Raises
    ------
    PcgKitError
        If a frame would be shorter than 2 samples or its length in
        samples is not finite.
    TooShortError
        If the signal is shorter than one frame.
    """
    frame_samples = frame_len_s * s.rate_hz
    if not math.isfinite(frame_samples):
        raise PcgKitError(
            f"frame of {frame_len_s} s at {s.rate_hz} Hz has no finite "
            f"sample count")
    frame_len = int(round(frame_samples))
    if frame_len < 2:
        raise PcgKitError("frame shorter than 2 samples")
    if len(s.samples) < frame_len:
        raise TooShortError(
            f"signal of {s.duration_s:.3f} s shorter than one "
            f"{frame_len_s:.3f} s frame")
    return [s.with_samples(s.samples[start:start + frame_len])
            for start in range(0, len(s.samples) - frame_len + 1, frame_len)]


def _butter_lowpass_sos(cutoff_hz, rate_hz):
    """Order-``LOWPASS_ORDER`` Butterworth lowpass as second-order sections.

    The steps of ``scipy.signal.butter(..., output="sos")``: analog
    prototype poles, tangent prewarp, bilinear transform, then one section
    per conjugate pole pair with the pair nearest the unit circle last and
    the gain on the first section. Every zero lies at -1, so each section's
    numerator is ``(1, 2, 1)``.
    """
    order = LOWPASS_ORDER
    warped = 4.0 * np.tan(np.pi * (cutoff_hz / (rate_hz / 2.0)) / 2.0)
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    p = -np.exp(1j * np.pi * m / (2 * order)) * warped
    gain = warped ** order * np.real(1.0 / np.prod(4.0 - p))
    p = (4.0 + p) / (4.0 - p)
    p = p[m < 0]  # one of each pair, even if its imaginary part rounds to 0
    p = p[np.argsort(-np.abs(1.0 - np.abs(p)))]
    sos = np.zeros((len(p), 6))
    sos[:, :4] = (1.0, 2.0, 1.0, 1.0)
    sos[:, 4] = -2.0 * p.real
    sos[:, 5] = p.real ** 2 + p.imag ** 2
    sos[0, :3] *= gain
    return sos


def _next_fast_len(n, real=False):
    """Smallest fast FFT length >= ``n``: 2*3*5*7*11-smooth for a complex
    transform, 2*3*5-smooth for a real one.

    This is ``scipy.fft.next_fast_len(n, real)``.
    """
    m = n
    while True:
        k = m
        for p in (2, 3, 5) if real else (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


@functools.lru_cache(maxsize=8)
def _lowpass_plan(cutoff_hz, rate_hz, n):
    """``(gain, spectrum, nfft)`` of one pass over ``n`` samples: the DC
    gain and the sections' read-only frequency response
    ``prod (b0 + z (b1 + z b2)) / (1 + z (a1 + z a2))`` at
    ``z = exp(-2 pi i k / nfft)``, ``k <= nfft / 2``, evaluated in
    ``np.longdouble`` ``_PLAN_CHUNK`` points at a time and rounded once to
    complex128. That is the FFT of the impulse response folded every
    ``nfft`` samples, so ``nfft`` spans ``n`` plus the ``decay`` samples the
    slowest pole pair takes to fall to eps, and what folds onto the output
    is below a float64 rounding. A ``decay`` over ``MAX_SAMPLES`` (a cutoff
    below about 1.8e-6 of Nyquist) raises :class:`PcgKitError`
    before the grid exists.

    A concurrent miss may build the plan twice; the copies are equal, so
    no lock guards the cache.
    """
    sos = _butter_lowpass_sos(cutoff_hz, rate_hz)
    radius = math.sqrt(sos[:, 5].max())  # a2 is a pole pair's squared radius
    eps = np.finfo(np.float64).eps
    decay = (math.ceil(math.log(eps) / math.log(radius)) if radius < 1
             else math.inf)
    if decay > MAX_SAMPLES:
        raise PcgKitError(
            f"cutoff {cutoff_hz} Hz at {rate_hz} Hz: the lowpass takes more "
            f"than {MAX_SAMPLES} samples to decay")
    nfft = _next_fast_len(n + decay - 1, real=True)
    step = -2j * np.arccos(np.longdouble(-1)) / nfft
    spectrum = np.empty(nfft // 2 + 1, dtype=np.complex128)
    for start in range(0, len(spectrum), _PLAN_CHUNK):
        z = np.exp(np.arange(start, min(start + _PLAN_CHUNK, len(spectrum)))
                   * step)
        response = np.ones_like(z)
        for b0, b1, b2, _, a1, a2 in sos.astype(np.longdouble):
            response *= (b0 + z * (b1 + z * b2)) / (1 + z * (a1 + z * a2))
        spectrum[start:start + len(z)] = response
    spectrum.flags.writeable = False
    return float(spectrum[0].real), spectrum, nfft


def butterworth_lowpass_zero_phase(s, cutoff_hz):
    """Lowpass filter with no phase distortion.

    Applies a 4th-order Butterworth filter forward and backward, giving
    the squared magnitude response of a single pass and exactly zero
    phase. Edges are handled by reflective padding of at least three
    times the impulse settle length, so short frames do not ring at their
    boundaries.

    This is ``scipy.signal.sosfiltfilt(sos, x, padtype="even", padlen)``
    with the sections of ``scipy.signal.butter``, computed in numpy alone.
    A pass started in the steady state of its first sample ``y[0]`` is
    ``y[0] G`` plus the sections run from rest over ``y - y[0]``, with
    ``G`` their DC gain, so each pass is one real FFT of ``y - y[0]``
    times the sections' frequency response, cached per cutoff, rate and
    length (:func:`_lowpass_plan`). The response is evaluated in
    ``np.longdouble`` and rounded once to complex128; where that is the
    80-bit x87 type, as on x86-64, it keeps 11 bits more than float64.
    The tests hold the result to 1e-12 of the output peak from an
    extended-precision run of the sections, also on frames shorter than
    one period of a cutoff below 0.015 of Nyquist, where the output peak
    falls to 1e-5 of the input's and ``sosfiltfilt`` is 2e-11 of it off.

    Parameters
    ----------
    s : SampledSignal
    cutoff_hz : float
        Must lie strictly inside (0, Nyquist).

    Raises
    ------
    PcgKitError
        If the cutoff is not inside (0, Nyquist), or is below about
        1.8e-6 of Nyquist (see :func:`_lowpass_plan`).
    """
    nyq = s.rate_hz / 2.0
    if not 0 < cutoff_hz < nyq:
        raise PcgKitError(
            f"cutoff {cutoff_hz} Hz outside (0, {nyq}) for rate {s.rate_hz}")
    x = s.samples
    # past len(x) the pad is the whole signal anyway; the cap keeps a tiny
    # cutoff's ratio from overflowing before the plan refuses it
    settle = math.ceil(min(s.rate_hz / cutoff_hz, len(x))) * LOWPASS_ORDER
    padlen = min(len(x) - 1, 3 * settle)
    n = len(x) + 2 * padlen
    gain, spectrum, nfft = _lowpass_plan(cutoff_hz, s.rate_hz, n)
    # one buffer holds the even extension (mirrored about each end sample)
    # and then each pass's output: a pass reads its input into ``freq``
    # before its inverse transform overwrites it
    out = np.empty(nfft)
    y = np.concatenate((x[padlen:0:-1], x, x[-2:-padlen - 2:-1]),
                       out=out[:n])
    freq = np.empty(nfft // 2 + 1, dtype=np.complex128)
    # the forward pass, then the same pass over its reversed output
    for _ in range(2):
        level = y[0]
        y -= level
        np.fft.rfft(y, nfft, out=freq)
        freq *= spectrum
        np.fft.irfft(freq, nfft, out=out)
        y = out[n - 1::-1]
        y += level * gain
    return s.with_samples(y[padlen:n - padlen])
