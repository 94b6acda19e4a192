"""Discrete and continuous wavelet machinery.

Two independent halves:

* an 8-tap Daubechies (db4) discrete transform used only for denoising,
  implemented directly so the analysis/synthesis pair is guaranteed to
  reconstruct perfectly at zero threshold;
* continuous transforms for three analytic mother wavelets of fixed shape
  (Morlet, generalized Morse, Bump) on one scale ladder, 64 log-spaced
  pseudo-frequencies from 500 Hz down to 10 Hz, plus the wavelet energy
  spectrum built on them.

CWT rows are computed by FFT convolution (Torrence & Compo 1998) on
``numpy.fft``, at the smallest 2*3*5*7*11-smooth length that holds the
frame and the widest kernel, against the FFT-domain kernel bank of that
(wavelet, rate, frame length). One bank is held at a time, as a tuple
never written once published. A call that needs another bank drops the
held one and builds the new one under a lock, in the calling thread and
in its own anonymous mapping: it copies in time-domain kernels sampled
for that build, transforms them with one in-place FFT and drops them.
Calls that miss together wait for one build, and a call still reading a
replaced bank keeps it until it returns. ``hold_bank`` builds ahead of
use, so a caller that runs one family at a time over all its frames
builds each family's bank once. ``cwt`` streams the bank through the
inverse FFT in blocks of ``CWT_BLOCK_ROWS`` rows and hands each cropped
row, in ladder order, to its ``each_row`` callback: no call allocates
the 64-row matrix. ``wes`` adds each row's squared magnitude into its
track. The block and the signal's spectrum live in one workspace per
thread, which ``cwt`` takes for its whole call and reuses from call to
call; a thread keeps it until it exits or a call needs another shape.
So ``cwt`` and ``wes`` may run on several threads at once, and a
callback may call them again, for any bank: the nested call finds no
workspace in its thread and makes its own.
"""

import enum
import math
import mmap
import threading

import numpy as np

from .core import _next_fast_len
from .errors import PcgKitError, TooShortError

__all__ = ["WaveletKind", "cwt", "dwt_denoise_db4", "sample_wavelet", "wes"]

# Mother wavelet shapes: Morlet centre frequency (radians per unit time),
# generalized Morse gamma and beta, Bump centre mu and half-width sigma.
MORLET_OMEGA0 = 6.0
MORSE_GAMMA = 3.0
MORSE_BETA = 20.0
BUMP_MU = 5.0
BUMP_SIGMA = 0.6

# db4 denoising depth, and each detail band's soft threshold as a fraction
# of that band's largest coefficient magnitude.
DENOISE_LEVELS = 8
DENOISE_THRESHOLD = 0.15

# db4 reconstruction lowpass (scaling) coefficients, ascending index.
_REC_LO = np.array([
    0.23037781330885523,
    0.7148465705525415,
    0.6308807679295904,
    -0.02798376941698385,
    -0.18703481171888114,
    0.030841381835986965,
    0.032883011666982945,
    -0.010597401784997278,
])
_FILT_LEN = len(_REC_LO)
_DEC_LO = _REC_LO[::-1].copy()
_DEC_HI = np.array([(-1.0) ** k * _REC_LO[k] for k in range(_FILT_LEN)])
_REC_HI = _DEC_HI[::-1].copy()

# Kernel-bank rows multiplied and inverse-transformed together in ``cwt``:
# enough to batch each inverse FFT, few enough that each thread's
# workspace stays a small fraction of the full bank (1.7 MB for Bump's
# 4 s frame at 2 kHz).
CWT_BLOCK_ROWS = 4


def _dwt_step(x):
    """One analysis level with symmetric (half-point) boundary extension."""
    pad = _FILT_LEN - 1
    ext = np.concatenate([x[:pad][::-1], x, x[-pad:][::-1]])
    approx = np.correlate(ext, _REC_LO, "valid")[1::2]
    detail = np.correlate(ext, _REC_HI, "valid")[1::2]
    return approx, detail


def _idwt_step(approx, detail, out_len):
    """One synthesis level; crop offset matches the analysis extension."""
    up = np.zeros((2, 2 * len(approx)))
    up[0, ::2] = approx
    up[1, ::2] = detail
    y = np.correlate(up[0], _DEC_LO, "full")
    y += np.correlate(up[1], _DEC_HI, "full")
    off = _FILT_LEN - 2
    return y[off:off + out_len]


def dwt_denoise_db4(s, levels=DENOISE_LEVELS,
                    threshold_frac=DENOISE_THRESHOLD):
    """Denoise by soft-thresholding db4 detail coefficients.

    The signal is decomposed ``levels`` deep; each detail band is soft
    thresholded at ``threshold_frac`` times that band's own maximum
    coefficient magnitude, which makes the rule scale-aware. The final
    approximation band is left untouched. With ``threshold_frac = 0`` the
    round trip is an identity to within accumulated rounding.

    All detail bands are thresholded in one pass over their concatenated
    coefficients: ``np.maximum.reduceat`` gives each band's peak and
    ``np.repeat`` spreads its threshold over the band. Each filter step is
    one ``np.correlate`` with the reversed filter; as each step's input
    (>= 21 samples, 14 in synthesis) outlasts the 8 taps, it equals, bit
    for bit, ``np.convolve`` steps with one threshold per band.

    Parameters
    ----------
    s : SampledSignal
    levels : int
        Decomposition depth; the signal must hold at least
        ``max(2**levels, 7)`` samples. Seven is the extension each level
        mirrors on either side, and each level keeps ``(L + 7) // 2 >= 7``
        of its input's ``L >= 7`` samples.
    threshold_frac : float
        Relative threshold in [0, 1).

    Returns
    -------
    SampledSignal

    Raises
    ------
    TooShortError
        If the signal is too short for the requested depth.
    """
    if levels < 1:
        raise PcgKitError(f"levels must be >= 1, got {levels}")
    if not 0 <= threshold_frac < 1:
        raise PcgKitError(
            f"threshold_frac must be in [0, 1), got {threshold_frac}")
    x = s.samples
    need = max(2 ** levels, _FILT_LEN - 1)
    if len(x) < need:
        raise TooShortError(
            f"{len(x)} samples cannot support {levels} levels "
            f"(need >= {need})")
    details = []
    lengths = []
    approx = x
    for _ in range(levels):
        lengths.append(len(approx))
        approx, detail = _dwt_step(approx)
        details.append(detail)
    # every band thresholded in one pass over one coefficient array; the
    # bands and their signs are dropped as soon as they are read, since
    # each band is a view that holds twice its size of filter output
    sizes = [len(d) for d in details]
    ends = np.cumsum(sizes)
    coeffs = np.concatenate(details)
    del details
    shrunk = np.abs(coeffs)
    tau = threshold_frac * np.maximum.reduceat(shrunk, ends - sizes)
    shrunk -= np.repeat(tau, sizes)
    np.maximum(shrunk, 0.0, out=shrunk)
    shrunk *= np.sign(coeffs, out=coeffs)
    del coeffs
    for end, size, out_len in zip(ends[::-1].tolist(), sizes[::-1],
                                  reversed(lengths)):
        approx = _idwt_step(approx, shrunk[end - size:end], out_len)
    return s.with_samples(approx)


class WaveletKind(enum.Enum):
    """Analytic mother wavelet family, each with one fixed shape.

    Morlet has centre frequency ``MORLET_OMEGA0``; generalized Morse has
    ``MORSE_GAMMA`` and ``MORSE_BETA``; Bump has ``BUMP_MU`` and
    ``BUMP_SIGMA``.
    """

    MORLET = "morlet"
    MORSE = "morse"
    BUMP = "bump"

    @property
    def center_freq_cycles(self):
        """Peak response frequency of the unit-scale wavelet, in cycles."""
        if self is WaveletKind.MORLET:
            return MORLET_OMEGA0 / (2 * math.pi)
        if self is WaveletKind.MORSE:
            return (MORSE_BETA / MORSE_GAMMA) ** (1.0 / MORSE_GAMMA) / (2 * math.pi)
        return BUMP_MU / (2 * math.pi)


def _scale_ladder(kind, rate_hz):
    """Scales of the 64-step pseudo-frequency ladder from 500 Hz to 10 Hz.

    ``scale = center_freq_cycles * rate_hz / freq`` for log-spaced
    frequencies in descending order, so the scales ascend.
    """
    return kind.center_freq_cycles * rate_hz / np.geomspace(500.0, 10.0, 64)


def _morse_freq_response(omega):
    """Generalized Morse spectrum, peak-normalized to 2, zero for omega <= 0."""
    gamma, beta = MORSE_GAMMA, MORSE_BETA
    peak = (beta / gamma) ** (1.0 / gamma)
    out = np.zeros_like(omega)
    pos = omega > 0
    log_resp = beta * np.log(omega[pos] / peak) - (omega[pos] ** gamma - peak ** gamma)
    out[pos] = 2.0 * np.exp(log_resp)
    return out


def _bump_freq_response(omega):
    """Bump spectrum: compactly supported on (mu - sigma, mu + sigma)."""
    u = (omega - BUMP_MU) / BUMP_SIGMA
    out = np.zeros_like(omega)
    inside = np.abs(u) < 1
    out[inside] = 2.0 * np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def sample_wavelet(kind, scale):
    """Sample the scaled mother wavelet on the integer lattice.

    Returns
    -------
    ndarray
        Complex samples ``psi(m / scale) / sqrt(scale)`` for
        ``m in [-half, half]``: an odd count centred on ``m = 0``, whose
        support radius is ``half = len // 2`` samples. Morlet is
        evaluated in closed form; Morse and Bump are sampled in
        frequency, inverted over a radius of 40 natural time units, then
        trimmed to where the magnitude exceeds 1e-8 of its peak. For Bump
        that trim never fires: its kernel still holds 0.1-0.5% of its
        peak at that radius (all 64 ladder scales at 2000 Hz), so it is
        cut off there, not trimmed.
    """
    if kind is WaveletKind.MORLET:
        half = int(math.ceil(8.0 * scale))
        t = np.arange(-half, half + 1) / scale
        psi = np.pi ** -0.25 * np.exp(1j * MORLET_OMEGA0 * t) * np.exp(-0.5 * t * t)
        return psi / np.sqrt(scale)
    radius = 40.0  # natural time units; generous for both spectra
    half = int(math.ceil(radius * scale))
    nfft = int(2 ** math.ceil(math.log2(2 * half + 2)))
    omega = 2 * np.pi * np.arange(nfft) / nfft * scale
    if kind is WaveletKind.MORSE:
        spec = _morse_freq_response(omega)
    else:
        spec = _bump_freq_response(omega)
    psi = np.fft.ifft(spec) * scale
    psi = np.concatenate([psi[-half:], psi[:half + 1]])
    w = psi / np.sqrt(scale)
    mag = np.abs(w)
    keep = np.nonzero(mag >= 1e-8 * mag.max())[0]
    r = max(half - keep[0], keep[-1] - half)
    return w[half - r:half + r + 1]


def _fft_of_real(x, n, out):
    """Full ``n``-point spectrum of a real array, from its real FFT.

    numpy's complex ``fft`` of a real array rounds differently from
    ``scipy.fft.fft``, which transforms real input by its real FFT. This
    does the same: ``rfft`` writes the half spectrum into the complex
    length-``n`` array ``out`` and its conjugate mirror fills the rest,
    so ``out``, which is returned, equals scipy's result bit for bit.
    """
    half = n // 2 + 1
    np.fft.rfft(x, n, out=out[:half])
    np.conjugate(out[(n - 1) // 2:0:-1], out=out[half:])
    return out


def _kernels(kind, rate_hz):
    """Conjugated, time-reversed kernels of the ladder and their centres.

    ``(kernels, offsets)``: the read-only rows a bank transforms, and each
    row's centre ``len // 2``. Sampled anew for each bank build and
    dropped once the bank is filled (0.8-3.3 MB per family at 2000 Hz).
    """
    kernels = []
    for sc in _scale_ladder(kind, rate_hz):
        w = np.conj(sample_wavelet(kind, sc))[::-1]
        w.flags.writeable = False
        kernels.append(w)
    offsets = np.array([len(w) // 2 for w in kernels])
    offsets.flags.writeable = False
    return tuple(kernels), offsets


# The held bank as ``hold_bank`` returns it; swapped only under the lock.
_held = None
_held_lock = threading.Lock()

# Each thread's ``cwt`` workspace as its attribute ``work``, absent while
# a call of that thread has it.
_spare = threading.local()


def _pages(rows, length):
    """A zeroed complex ``(rows, length)`` array in its own anonymous
    mapping, whose pages go back to the system as soon as it is dropped."""
    return np.frombuffer(mmap.mmap(-1, rows * length * 16),
                         complex).reshape(rows, length)


def hold_bank(kind, rate_hz, n_sig):
    """The held bank for these arguments, built first if another is held.

    Returns ``(key, bank_h, offsets)``: ``(kind, rate_hz, n_sig)``, the
    read-only FFT-domain bank and each row's centre. On a miss the held
    bank is dropped and the new one built under one lock, in the calling
    thread, so calls that miss together wait for one build. The build
    copies the zero-padded kernels into the bank's mapping and transforms
    it with one in-place FFT.
    """
    global _held
    key = (kind, rate_hz, n_sig)
    held = _held  # read once: another thread may swap it at any time
    if held is not None and held[0] == key:
        return held
    del held  # a reference here would keep the old bank alive
    with _held_lock:
        if _held is not None and _held[0] == key:
            return _held
        _held = None
        kernels, offsets = _kernels(kind, rate_hz)
        length = _next_fast_len(n_sig + 2 * int(offsets.max()))
        bank = _pages(len(kernels), length)
        for row, w in zip(bank, kernels):
            row[:len(w)] = w
        np.fft.fft(bank, axis=1, out=bank)
        bank.flags.writeable = False
        _held = (key, bank, offsets)
        return _held


def cwt(s, kind, *, each_row):
    """Continuous wavelet transform of a signal over the scale ladder.

    Each row is the convolution of the signal with the conjugated,
    time-reversed sampled wavelet at that scale (energy-preserving
    1/sqrt(scale) normalization), zero-padded at the frame boundaries.
    Rows are computed ``CWT_BLOCK_ROWS`` at a time, each equal to the
    row of one full-bank transform, and streamed to ``each_row``; none
    is kept. The call keeps the bank :func:`hold_bank` gives it until it
    returns, even if it is replaced; a call that finds another bank held
    builds its own in its thread.

    The block and the signal's spectrum share one complex workspace of
    ``min(CWT_BLOCK_ROWS, 64) + 1`` rows of the bank length, its last
    row the spectrum. The call takes its thread's workspace for its
    whole duration and leaves it for the thread's next call, allocating
    a new one only when the thread has none of that shape. A call made
    from ``each_row`` finds none and allocates its own. A thread holds
    one workspace until it exits: the pool threads of
    ``frame_qualities`` drop theirs when it shuts its pool down, while
    the main thread keeps one (1.7 MB at most for 4 s frames at 2 kHz)
    after ``hr --method wes``.

    Parameters
    ----------
    s : SampledSignal
    kind : WaveletKind
    each_row : callable
        Called as ``each_row(i, row)`` for ``i = 0 .. 63`` in ladder
        order, from 500 Hz down to 10 Hz, with ``row`` the complex
        ``i``-th row of length ``len(s)`` as a view into the workspace,
        valid only during that call. The call holds only the workspace
        and its bank.
    """
    n = len(s.samples)
    _, bank_h, offsets = hold_bank(kind, s.rate_hz, n)
    n_rows = len(offsets)
    shape = (min(CWT_BLOCK_ROWS, n_rows) + 1, bank_h.shape[1])
    work = _spare.__dict__.pop("work", None)
    if work is None or work.shape != shape:
        del work  # one of another shape is dropped before allocating
        work = np.empty(shape, dtype=complex)
    try:
        spectrum = _fft_of_real(s.samples, shape[1], work[-1])
        for b0 in range(0, n_rows, CWT_BLOCK_ROWS):
            offs = offsets[b0:b0 + CWT_BLOCK_ROWS]
            block = work[:len(offs)]
            np.multiply(spectrum, bank_h[b0:b0 + len(offs)], out=block)
            np.fft.ifft(block, axis=1, out=block)
            for j, off in enumerate(offs):
                each_row(b0 + j, block[j, off:off + n])
    finally:
        _spare.work = work


def wes(s, kind):
    """Wavelet energy spectrum: per-sample energy summed across scales.

    ``WES[n] = (1/N) * sum_k |CWT[k, n]|**2`` with N the frame length.
    Nonnegative, same length and rate as the input. ``cwt`` hands over
    each row in ladder order and its squared magnitude is added into the
    track in place, so the call holds the workspace of ``cwt`` and two
    length-N tracks, never the 64-row matrix; a thread's second call
    allocates only the tracks.
    """
    n = len(s.samples)
    track = np.zeros(n)
    mag = np.empty(n)

    def add_energy(_, row):
        np.abs(row, out=mag)
        np.square(mag, out=mag)
        np.add(track, mag, out=track)

    cwt(s, kind, each_row=add_energy)
    return s.with_samples(track / n)
