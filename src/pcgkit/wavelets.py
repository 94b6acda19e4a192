"""Discrete and continuous wavelet machinery.

Two independent halves:

* an 8-tap Daubechies (db4) discrete transform used only for denoising,
  implemented directly so the analysis/synthesis pair is guaranteed to
  reconstruct perfectly at zero threshold;
* continuous transforms for three analytic mother wavelets (Morlet,
  generalized Morse, Bump) plus the wavelet energy spectrum built on them.

CWT rows are computed by FFT convolution (Torrence & Compo 1998) against a
kernel bank cached per (wavelet, grid, frame length): repeated equal-length
frames sample and transform the kernels once. The bank is streamed through
the inverse FFT in blocks of ``CWT_BLOCK_ROWS`` rows, so a call holds one
small complex buffer rather than several full-bank temporaries. The cached
banks are read-only and every buffer is local to its call, so ``cwt`` and
``wes`` may run on several threads at once.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import fft, ifft, next_fast_len

from .errors import DecompositionDepthError, InvalidGridError, InvalidInputError

__all__ = [
    "WaveletKind", "ScaleGrid", "cwt", "dwt_denoise_db4",
    "sample_wavelet", "wes",
]

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
# enough to batch each inverse FFT, few enough that the block buffer stays
# a small fraction of the full bank.
CWT_BLOCK_ROWS = 8


def _dwt_step(x):
    """One analysis level with symmetric (half-point) boundary extension."""
    pad = _FILT_LEN - 1
    ext = np.concatenate([x[:pad][::-1], x, x[-pad:][::-1]])
    approx = np.convolve(ext, _DEC_LO, mode="valid")[1::2]
    detail = np.convolve(ext, _DEC_HI, mode="valid")[1::2]
    return approx, detail


def _idwt_step(approx, detail, out_len):
    """One synthesis level; crop offset matches the analysis extension."""
    up_a = np.zeros(2 * len(approx))
    up_d = np.zeros(2 * len(detail))
    up_a[::2] = approx
    up_d[::2] = detail
    y = np.convolve(up_a, _REC_LO) + np.convolve(up_d, _REC_HI)
    off = _FILT_LEN - 2
    return y[off:off + out_len]


def dwt_denoise_db4(s, levels=8, threshold_frac=0.15):
    """Denoise by soft-thresholding db4 detail coefficients.

    The signal is decomposed ``levels`` deep; each detail band is soft
    thresholded at ``threshold_frac`` times that band's own maximum
    coefficient magnitude, which makes the rule scale-aware. The final
    approximation band is left untouched. With ``threshold_frac = 0`` the
    round trip is an identity to within accumulated rounding.

    Parameters
    ----------
    s : SampledSignal
    levels : int
        Decomposition depth; the signal must hold at least ``2**levels``
        samples.
    threshold_frac : float
        Relative threshold in [0, 1).

    Returns
    -------
    SampledSignal

    Raises
    ------
    DecompositionDepthError
        If the signal is too short for the requested depth.
    """
    if levels < 1:
        raise InvalidInputError(f"levels must be >= 1, got {levels}")
    if not 0 <= threshold_frac < 1:
        raise InvalidInputError(
            f"threshold_frac must be in [0, 1), got {threshold_frac}")
    x = s.samples
    if len(x) < 2 ** levels:
        raise DecompositionDepthError(
            f"{len(x)} samples cannot support {levels} levels "
            f"(need >= {2 ** levels})")
    details = []
    lengths = []
    approx = x
    for _ in range(levels):
        lengths.append(len(approx))
        approx, detail = _dwt_step(approx)
        details.append(detail)
    for detail in details:
        peak = np.max(np.abs(detail)) if len(detail) else 0.0
        tau = threshold_frac * peak
        np.copyto(detail, np.sign(detail) * np.maximum(np.abs(detail) - tau, 0.0))
    for detail, out_len in zip(reversed(details), reversed(lengths)):
        approx = _idwt_step(approx, detail, out_len)
    return s.with_samples(approx)


@dataclass(frozen=True)
class WaveletKind:
    """Analytic mother wavelet family with its shape parameters.

    Use the constructors; parameter meaning differs per family.
    """

    family: str
    params: tuple

    # each family name is also the name of its constructor below
    FAMILIES = ("morlet", "morse", "bump")

    def __post_init__(self):
        if self.family not in self.FAMILIES:
            raise InvalidInputError(f"unknown wavelet family {self.family!r}")
        if any(not p > 0 for p in self.params):
            raise InvalidInputError("wavelet shape parameters must be positive")

    @classmethod
    def morlet(cls, center_freq_param=6.0):
        return cls("morlet", (float(center_freq_param),))

    @classmethod
    def morse(cls, gamma=3.0, beta=20.0):
        return cls("morse", (float(gamma), float(beta)))

    @classmethod
    def bump(cls, mu=5.0, sigma=0.6):
        return cls("bump", (float(mu), float(sigma)))

    @property
    def center_freq_cycles(self):
        """Peak response frequency of the unit-scale wavelet, in cycles."""
        if self.family == "morlet":
            return self.params[0] / (2 * math.pi)
        if self.family == "morse":
            gamma, beta = self.params
            return (beta / gamma) ** (1.0 / gamma) / (2 * math.pi)
        mu, _ = self.params
        return mu / (2 * math.pi)


@dataclass(frozen=True)
class ScaleGrid:
    """Matched scale / pseudo-frequency ladder, ordered by descending frequency.

    ``scales[i] = center_freq_cycles * rate_hz / pseudo_freqs_hz[i]``, so
    ascending scales correspond to descending frequencies.
    """

    scales: tuple
    pseudo_freqs_hz: tuple

    def __post_init__(self):
        if len(self.scales) == 0:
            raise InvalidGridError("scale grid is empty")
        if len(self.scales) != len(self.pseudo_freqs_hz):
            raise InvalidGridError("scales and pseudo-frequencies differ in length")
        sc = np.asarray(self.scales)
        fr = np.asarray(self.pseudo_freqs_hz)
        if np.any(sc <= 0) or np.any(fr <= 0):
            raise InvalidGridError("scales and frequencies must be positive")
        if len(sc) > 1 and (np.any(np.diff(sc) <= 0) or np.any(np.diff(fr) >= 0)):
            raise InvalidGridError(
                "grid must be strictly ascending in scale, descending in frequency")

    def __len__(self):
        return len(self.scales)

    @classmethod
    def log_spaced(cls, kind, rate_hz, f_lo_hz=10.0, f_hi_hz=500.0, n_scales=64):
        """Logarithmic pseudo-frequency ladder from ``f_hi_hz`` down to ``f_lo_hz``."""
        if not 0 < f_lo_hz < f_hi_hz:
            raise InvalidGridError("need 0 < f_lo_hz < f_hi_hz")
        if n_scales < 2:
            raise InvalidGridError(f"need at least 2 scales, got {n_scales}")
        freqs = np.geomspace(f_hi_hz, f_lo_hz, int(n_scales))
        scales = kind.center_freq_cycles * rate_hz / freqs
        return cls(tuple(scales.tolist()), tuple(freqs.tolist()))


def _morse_freq_response(omega, gamma, beta):
    """Generalized Morse spectrum, peak-normalized to 2, zero for omega <= 0."""
    omega = np.asarray(omega, dtype=float)
    peak = (beta / gamma) ** (1.0 / gamma)
    out = np.zeros_like(omega)
    pos = omega > 0
    log_resp = beta * np.log(omega[pos] / peak) - (omega[pos] ** gamma - peak ** gamma)
    out[pos] = 2.0 * np.exp(log_resp)
    return out


def _bump_freq_response(omega, mu, sigma):
    """Bump spectrum: compactly supported on (mu - sigma, mu + sigma)."""
    omega = np.asarray(omega, dtype=float)
    u = (omega - mu) / sigma
    out = np.zeros_like(omega)
    inside = np.abs(u) < 1
    out[inside] = 2.0 * np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def sample_wavelet(kind, scale):
    """Sample the scaled mother wavelet on the integer lattice.

    Returns
    -------
    (ndarray, int)
        Complex samples ``psi(m / scale) / sqrt(scale)`` for
        ``m in [-half, half]``, and ``half`` itself (the support radius
        in samples). Morlet is evaluated in closed form; Morse and Bump
        are sampled in frequency and inverted, then trimmed to where the
        magnitude exceeds 1e-8 of its peak.
    """
    if kind.family == "morlet":
        omega0 = kind.params[0]
        half = int(math.ceil(8.0 * scale))
        t = np.arange(-half, half + 1) / scale
        psi = np.pi ** -0.25 * np.exp(1j * omega0 * t) * np.exp(-0.5 * t * t)
        return psi / np.sqrt(scale), half
    radius = 40.0  # natural time units; generous for both spectra
    half = int(math.ceil(radius * scale))
    nfft = int(2 ** math.ceil(math.log2(2 * half + 2)))
    omega = 2 * np.pi * np.arange(nfft) / nfft * scale
    if kind.family == "morse":
        spec = _morse_freq_response(omega, *kind.params)
    else:
        spec = _bump_freq_response(omega, *kind.params)
    psi = np.fft.ifft(spec) * scale
    psi = np.concatenate([psi[-half:], psi[:half + 1]])
    w = psi / np.sqrt(scale)
    mag = np.abs(w)
    keep = np.nonzero(mag >= 1e-8 * mag.max())[0]
    r = max(half - keep[0], keep[-1] - half)
    return w[half - r:half + r + 1], r


@functools.lru_cache(maxsize=8)
def _kernel_bank(kind, grid, n_sig):
    """FFT-domain ``(bank_h, offsets, length)``, shared and read-only."""
    kernels = [sample_wavelet(kind, sc) for sc in grid.scales]
    offsets = np.array([half for _, half in kernels])
    length = next_fast_len(n_sig + 2 * int(offsets.max()))
    bank_h = np.empty((len(kernels), length), dtype=complex)
    for i, (w, _) in enumerate(kernels):
        bank_h[i] = fft(np.conj(w)[::-1], length)
    bank_h.flags.writeable = offsets.flags.writeable = False
    return bank_h, offsets, length


def cwt(s, kind, grid):
    """Continuous wavelet transform of a signal over a scale grid.

    Each row is the convolution of the signal with the conjugated,
    time-reversed sampled wavelet at that scale (energy-preserving
    1/sqrt(scale) normalization), zero-padded at the frame boundaries.
    Rows are computed ``CWT_BLOCK_ROWS`` at a time in a buffer local to
    the call, each equal to the row of one full-bank transform. The shared
    kernel bank is only read, so concurrent calls are safe.

    Parameters
    ----------
    s : SampledSignal
    kind : WaveletKind
    grid : ScaleGrid

    Returns
    -------
    ndarray
        Complex matrix of shape ``(len(grid), len(s))``; row order
        follows the grid (descending pseudo-frequency).
    """
    bank_h, offsets, length = _kernel_bank(kind, grid, len(s.samples))
    spectrum = fft(s.samples, length)
    n = len(s.samples)
    out = np.empty((len(grid), n), dtype=complex)
    buf = np.empty((min(CWT_BLOCK_ROWS, len(grid)), length), dtype=complex)
    for b0 in range(0, len(grid), CWT_BLOCK_ROWS):
        offs = offsets[b0:b0 + CWT_BLOCK_ROWS]
        block = buf[:len(offs)]
        np.multiply(spectrum, bank_h[b0:b0 + len(offs)], out=block)
        rows = ifft(block, axis=1, overwrite_x=True)
        for j, off in enumerate(offs):
            out[b0 + j] = rows[j, off:off + n]
    return out


def wes(s, kind, grid):
    """Wavelet energy spectrum: per-sample energy summed across scales.

    ``WES[n] = (1/N) * sum_k |CWT[k, n]|**2`` with N the frame length.
    Nonnegative, same length and rate as the input.
    """
    power = np.abs(cwt(s, kind, grid))
    np.square(power, out=power)
    track = np.sum(power, axis=0) / len(s.samples)
    return s.with_samples(track)
