"""Waveform container and the shared signal-conditioning primitives.

A :class:`SampledSignal` is samples plus a rate and nothing else: raw
recordings, frames and envelopes are all plain signals, and every
downstream module consumes them. Operations here are pure: they return
new signals and never mutate their inputs, so frames can be processed in
parallel without locking.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateSignalError,
    InvalidCutoffError,
    InvalidInputError,
    TooShortError,
    UnsupportedRatioError,
)

__all__ = [
    "SampledSignal", "detrend", "normalize_max_abs", "resample_rational",
    "segment_frames", "butterworth_lowpass_zero_phase",
]

# Most samples a signal made here may hold (2.3 h at 2000 Hz): synthesis
# and resampling refuse a longer result before allocating it.
MAX_SAMPLES = 2 ** 24

# Single-pass order of the zero-phase Butterworth lowpass.
LOWPASS_ORDER = 4

# Samples per block of the blocked second-order section solve.
IIR_BLOCK = 32

# numpy's OpenBLAS runs a matrix product with M*N*K at most this on the
# calling thread and a larger one on its own thread pool. Frames run in
# threads of their own, so every product here is split to stay under it.
_BLAS_SERIAL_MNK = 2 ** 18


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled real-valued waveform.

    Parameters
    ----------
    samples : ndarray
        Amplitude values, converted to float64 and validated finite.
    rate_hz : float
        Sampling rate, finite and strictly positive.
    """

    samples: np.ndarray
    rate_hz: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise InvalidInputError(f"samples must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise InvalidInputError("samples must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("samples contain non-finite values")
        if not (self.rate_hz > 0 and math.isfinite(self.rate_hz)):
            raise InvalidInputError(
                f"rate_hz must be finite and > 0, got {self.rate_hz}")
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
    peak = float(np.max(np.abs(s.samples)))
    if peak == 0.0:
        raise DegenerateSignalError("cannot normalize an all-zero signal")
    return s.with_samples(s.samples / peak)


def _antialias_fir(up, down, rate_in):
    """Kaiser lowpass for polyphase resampling.

    Band edges sit on the limiting Nyquist (the smaller of source and
    target), with the stopband edge at 0.9 of it: cutoff 0.75, transition
    width 0.3, 60 dB design. That leaves the 0.9 contract point deep in
    the stopband and keeps passband ripple well under 1%.
    """
    rate_up = rate_in * up
    f_lim = min(rate_in, rate_in * up / down) / 2.0
    width = 0.3 * f_lim
    cutoff = 0.75 * f_lim
    from scipy import signal as sps  # loaded only to resample

    numtaps, beta = sps.kaiserord(60.0, width / (rate_up / 2.0))
    numtaps |= 1  # force odd length for a symmetric (type I) filter
    return sps.firwin(numtaps, cutoff, window=("kaiser", beta), fs=rate_up)


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
        the limiting Nyquist passes within 1% amplitude.

    Raises
    ------
    UnsupportedRatioError
        If the rate ratio has no small rational representation, or the
        result would exceed ``max(len(s), MAX_SAMPLES)`` samples.
    """
    if not target_rate_hz > 0:
        raise InvalidInputError(f"target_rate_hz must be > 0, got {target_rate_hz}")
    ratio = target_rate_hz / s.rate_hz
    frac = Fraction(ratio).limit_denominator(10_000)
    if frac.numerator <= 0 or abs(float(frac) - ratio) > 1e-9 * ratio:
        raise UnsupportedRatioError(
            f"rate ratio {ratio} not representable with denominator <= 10000")
    up, down = frac.numerator, frac.denominator
    n = len(s.samples)
    n_out = -(-n * up // down)  # ceil(n * up / down), the output length
    if n_out > max(n, MAX_SAMPLES):
        raise UnsupportedRatioError(
            f"resampling {n} samples from {s.rate_hz:g} Hz to "
            f"{target_rate_hz:g} Hz gives {n_out} samples, more than "
            f"{MAX_SAMPLES}")
    if up == down:
        return SampledSignal(s.samples, float(target_rate_hz))
    from scipy import signal as sps  # loaded only to resample

    h = _antialias_fir(up, down, s.rate_hz)
    out = sps.resample_poly(s.samples, up, down, window=h)
    return SampledSignal(out, float(target_rate_hz))


def segment_frames(s, frame_len_s):
    """Split a signal into consecutive non-overlapping frames.

    A trailing partial frame is discarded. Frames are independent signals
    of their own; nothing ties them back to the recording.

    Returns
    -------
    list of SampledSignal

    Raises
    ------
    InvalidInputError
        If a frame would be shorter than 2 samples or its length in
        samples is not finite.
    TooShortError
        If the signal is shorter than one frame.
    """
    frame_samples = frame_len_s * s.rate_hz
    if not math.isfinite(frame_samples):
        raise InvalidInputError(
            f"frame of {frame_len_s} s at {s.rate_hz} Hz has no finite "
            f"sample count")
    frame_len = int(round(frame_samples))
    if frame_len < 2:
        raise InvalidInputError("frame shorter than 2 samples")
    if len(s.samples) < frame_len:
        raise TooShortError(
            f"signal of {s.duration_s:.3f} s shorter than one "
            f"{frame_len_s:.3f} s frame")
    return [s.with_samples(s.samples[start:start + frame_len].copy())
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
    p = p[p.imag > 0]
    p = p[np.argsort(-np.abs(1.0 - np.abs(p)))]
    sos = np.zeros((len(p), 6))
    sos[:, :4] = (1.0, 2.0, 1.0, 1.0)
    sos[:, 4] = -2.0 * p.real
    sos[:, 5] = p.real ** 2 + p.imag ** 2
    sos[0, :3] *= gain
    return sos


def _sos_steady_state(sos):
    """Per-section initial state of a unit step's steady state.

    ``scipy.signal.sosfilt_zi``: each section's ``lfilter_zi`` scaled by
    the DC gain of the sections before it.
    """
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for k, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        zi[k] = scale * np.linalg.solve([[1.0 + a1, -1.0], [a2, 1.0]],
                                        [b1 - a1 * b0, b2 - a2 * b0])
        scale *= (b0 + b1 + b2) / (1.0 + a1 + a2)
    return zi


def _matmul_serial(a, b):
    """``a @ b``, in row chunks small enough for one OpenBLAS thread."""
    out = np.empty((len(a), b.shape[1]))
    step = max(1, _BLAS_SERIAL_MNK // b.size)
    for i in range(0, len(a), step):
        np.matmul(a[i:i + step], b, out=out[i:i + step])
    return out


def _read_only_float64(a):
    a = a.astype(np.float64)
    a.flags.writeable = False
    return a


def _section_levels(a1, a2):
    """Block operators of ``y[n] + a1 y[n-1] + a2 y[n-2] = r[n]``.

    One ``(toeplitz_t, homog, carry_t)`` per level of :func:`_blocked_solve`:
    the transposed ``IIR_BLOCK``-square lower-triangular Toeplitz matrix of
    the impulse response ``h``; the responses ``(h[1:], -a2 h[:-1])`` to a
    unit ``y[-1]`` and a unit ``y[-2]``; and ``(M - tr(M) I)^T`` for the
    2x2 map ``M`` from one block's end state to the next's, or None where
    ``M`` vanishes. The next level's section has ``a1 = -tr(M)`` and
    ``a2 = det(M) = a2**IIR_BLOCK``: its poles are this level's raised to
    the block length. Built in ``np.longdouble``; entries below eps**2 of
    the largest ``|h|`` are set to zero, since they add nothing to a
    float64 sum and, in deeper levels, would make subnormal products.
    """
    b = IIR_BLOCK
    tiny = np.finfo(np.float64).eps ** 2
    lag = np.arange(b) - np.arange(b)[:, None]
    a1, a2 = np.longdouble(a1), np.longdouble(a2)
    levels = []
    while True:
        h = np.empty(b + 1, dtype=np.longdouble)
        h[:2] = 1, -a1
        for k in range(2, b + 1):
            h[k] = -a1 * h[k - 1] - a2 * h[k - 2]
        homog = np.array([h[1:], -a2 * h[:-1]])
        floor = tiny * np.max(np.abs(h))
        h[np.abs(h) < floor] = 0
        homog[np.abs(homog) < floor] = 0
        m = homog[:, :-3:-1].T  # rows: the y[B-1] and y[B-2] responses
        trace = m[0, 0] + m[1, 1]
        # the carry vanishes, or only a sequence longer than 2**63 samples
        # would need it (poles within 1e-16 of the unit circle get here)
        deep = not m.any() or b ** (len(levels) + 1) >= 2 ** 63
        levels.append((
            _read_only_float64(np.where(lag >= 0, h[np.maximum(lag, 0)], 0)),
            _read_only_float64(homog),
            None if deep else _read_only_float64((m - trace * np.eye(2)).T)))
        if deep:
            return tuple(levels)
        a1, a2 = -trace, a2 ** b
        a1 = a1 if abs(a1) >= tiny else np.longdouble(0)
        a2 = a2 if abs(a2) >= tiny else np.longdouble(0)


def _blocked_solve(r, levels):
    """Solve ``y[n] + a1 y[n-1] + a2 y[n-2] = r[n]`` from rest, per row.

    ``r`` holds one sequence per row. Each is cut into blocks of
    ``IIR_BLOCK`` samples, and one matrix product gives every block's
    zero-state response. The two end samples of each block then follow
    ``s[k] = e[k] + M s[k-1]``, and each of them is itself a second-order
    recursion, so the next level of ``levels`` solves it the same way.
    Each block's homogeneous part, from the end state of the block
    before it, is added with one ``(nb, 2) @ (2, B)`` product.
    """
    toeplitz_t, homog, carry_t = levels[0]
    rows, n = r.shape
    if n <= IIR_BLOCK:
        return _matmul_serial(r, toeplitz_t[:n, :n])
    nb = -(-n // IIR_BLOCK)
    if n % IIR_BLOCK:
        blocks = np.zeros((rows * nb, IIR_BLOCK))
        blocks.reshape(rows, nb * IIR_BLOCK)[:, :n] = r
    else:
        blocks = r.reshape(rows * nb, IIR_BLOCK)
    y = _matmul_serial(blocks, toeplitz_t)
    ends = y[:, :-3:-1]
    if carry_t is None:
        states = ends.copy()
    else:
        force = ends.copy()
        force[1:] += _matmul_serial(ends[:-1], carry_t)
        force[::nb] = ends[::nb]  # each row starts from rest
        states = _blocked_solve(force.T.reshape(2 * rows, nb), levels[1:])
        states = states.reshape(2, rows * nb).T
    states[nb - 1::nb] = 0  # a row's last state starts no block
    y[1:] += _matmul_serial(states[:-1], homog)
    return y.reshape(rows, nb * IIR_BLOCK)[:, :n]


def _solve_section(rhs, a1, a2, levels):
    """One section's recursion by the blocked solve plus one refinement."""
    y = _blocked_solve(rhs[None], levels)[0]
    fit = y.copy()
    fit[1:] += a1 * y[:-1]
    fit[2:] += a2 * y[:-2]
    np.subtract(rhs, fit, out=fit)
    y += _blocked_solve(fit[None], levels)[0]
    return y


@functools.lru_cache(maxsize=8)
def _lowpass_plan(cutoff_hz, rate_hz):
    """``(sos, zi, levels)`` of one cutoff and rate, shared and read-only.

    A concurrent miss may build the plan twice; it is small and the
    copies are equal, so no lock guards the cache.
    """
    sos = _butter_lowpass_sos(cutoff_hz, rate_hz)
    zi = _sos_steady_state(sos)
    sos.flags.writeable = zi.flags.writeable = False
    return sos, zi, tuple(_section_levels(a1, a2) for a1, a2 in sos[:, 4:])


def butterworth_lowpass_zero_phase(s, cutoff_hz):
    """Lowpass filter with no phase distortion.

    Applies a 4th-order Butterworth filter forward and backward, giving
    the squared magnitude response of a single pass and exactly zero
    phase. Edges are handled by reflective padding of at least three
    times the impulse settle length, so short frames do not ring at their
    boundaries.

    This is ``scipy.signal.sosfiltfilt(sos, x, padtype="even", padlen)``
    with the sections of ``scipy.signal.butter``, computed in numpy alone.
    Each pass of a section ``y[n] + a1 y[n-1] + a2 y[n-2] = (b * x)[n]``,
    started in its steady state for the first sample, is solved in blocks
    of ``IIR_BLOCK`` samples (:func:`_blocked_solve`): products with the
    Toeplitz block of the section's impulse response give each block's
    zero-state response, the block-end states are carried across blocks,
    and one product adds each block's homogeneous part. The sections,
    steady states and block operators are built once per cutoff and rate.
    One step of iterative refinement follows each solve: the residual
    ``rhs - (y + a1 y[n-1] + a2 y[n-2])``, taken elementwise, is solved
    the same way and added. It keeps the carry's rounding from growing
    through poles near the unit circle.

    Every matrix product is cut into row chunks of at most 2**18
    multiply-adds (M*N*K), the size up to which numpy's OpenBLAS runs a
    product on the calling thread. Above it OpenBLAS uses its own thread
    pool, which only contends with the frame threads of ``quality``, and
    ``OPENBLAS_NUM_THREADS`` has no effect once numpy has loaded.

    The tests check the result against ``sosfiltfilt`` to within 1e-12
    of the output peak. On frames shorter than one period of a cutoff
    below 0.015 of Nyquist the output peak can fall to 1e-5 of the
    input's, and float64 sections lose that many digits. There the tests
    hold the filter to 1e-11 of the peak from an extended-precision run
    of the same sections. In 4e4 random such frames the 99.9th
    percentile of the error was 2.4e-12 of the peak here, 2.3e-12 for
    LAPACK's banded solve and 2.8e-12 for ``sosfiltfilt``; without the
    refinement it was 3.6e-12, and 2.9e-11 on the frame where the refined
    solve was 6.8e-12. Two of those frames were over 1e-11 here (at most
    3.5e-11), one for the banded solve and two for ``sosfiltfilt``. Even
    with each section solved exactly and rounded to float64, the worst
    of them is 3.0e-11 off: the rounding between sections sets that
    floor.

    Parameters
    ----------
    s : SampledSignal
    cutoff_hz : float
        Must lie strictly inside (0, Nyquist).

    Raises
    ------
    InvalidCutoffError
        If the cutoff is not inside (0, Nyquist).
    """
    nyq = s.rate_hz / 2.0
    if not 0 < cutoff_hz < nyq:
        raise InvalidCutoffError(
            f"cutoff {cutoff_hz} Hz outside (0, {nyq}) for rate {s.rate_hz}")
    sos, zi, solvers = _lowpass_plan(cutoff_hz, s.rate_hz)
    x = s.samples
    settle = int(math.ceil(s.rate_hz / cutoff_hz)) * LOWPASS_ORDER
    padlen = min(len(x) - 1, 3 * settle)
    # even extension: mirror about each end sample
    ext = np.concatenate((x[padlen:0:-1], x, x[-2:-padlen - 2:-1]))
    n = len(ext)

    def one_pass(y):
        y0 = y[0]
        for b, z, (a1, a2), levels in zip(sos[:, :3], zi, sos[:, 4:],
                                          solvers):
            rhs = np.convolve(y, b)[:n]
            rhs[:2] += z[:n] * y0
            y = _solve_section(rhs, a1, a2, levels)
        return y

    out = one_pass(one_pass(ext)[::-1])[::-1]
    return s.with_samples(out[padlen:n - padlen])
