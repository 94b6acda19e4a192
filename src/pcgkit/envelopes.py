"""Amplitude envelope detectors for heart-sound localization.

Three detectors turn a frame into a nonnegative envelope, itself a plain
:class:`SampledSignal` at the frame rate: analytic-signal magnitude,
Shannon energy, and the wavelet energy spectrum. :func:`compute_envelope`
follows the detector with :func:`smooth` (20 Hz zero-phase lowpass) and a
max renormalization, so that ``result.envelope`` has the same documented
scale whatever the method. The peak floor of segmentation does not need
it: that floor is a fraction of the envelope's own maximum.
"""

import enum

import numpy as np

from .core import butterworth_lowpass_zero_phase
from .wavelets import WaveletKind, wes

__all__ = [
    "EnvelopeMethod", "compute_envelope", "hilbert_envelope",
    "shannon_energy_envelope", "smooth", "wes_envelope",
]

SHANNON_EPS = 1e-12
# Envelope smoothing cutoff: in a broad stable region, well above the
# ~8 Hz where adjacent S1/S2 peaks start to merge.
SMOOTHING_CUTOFF_HZ = 20.0


class EnvelopeMethod(enum.Enum):
    HILBERT = "hilbert"
    SHANNON = "shannon"
    WES = "wes"


def hilbert_envelope(frame):
    """Instantaneous amplitude via the analytic signal.

    The quadrature component comes from the frequency-domain construction
    (negative frequencies zeroed, positive doubled), so the result
    dominates the rectified input pointwise. The steps are those of
    ``scipy.signal.hilbert``, on ``numpy.fft``: the positive half comes
    from ``rfft``, as ``scipy.fft`` computes a real input's spectrum, and
    the tests check that the two are equal bit for bit.

    Parameters
    ----------
    frame : SampledSignal

    Returns
    -------
    SampledSignal
    """
    n = len(frame.samples)
    spectrum = np.fft.rfft(frame.samples)
    spectrum[1:(n + 1) // 2] *= 2.0  # positive frequencies; Nyquist kept
    # the negative frequencies are the zeros that ifft pads up to n
    return frame.with_samples(np.abs(np.fft.ifft(spectrum, n)))


def shannon_energy_envelope(frame):
    """Shannon energy ``-x**2 * log(x**2 + eps)`` of a frame.

    Emphasizes mid-amplitude content and suppresses both the noise floor
    and the (rare) full-scale samples. The transform is nonnegative only
    for ``|x| <= 1``, so a frame whose peak exceeds 1 is divided by that
    peak first; any other frame is used as it is. Tiny negative values
    produced at exactly ``|x| = 1`` by the stabilizing epsilon are clipped
    to zero.
    """
    x = frame.samples
    peak = max(x.max(), -x.min())
    if peak > 1:
        x = x / peak
    sq = x * x
    e = sq + SHANNON_EPS
    np.log(e, out=e)
    e *= sq
    np.negative(e, out=e)
    np.maximum(e, 0.0, out=e)
    return frame.with_samples(e)


def wes_envelope(frame, kind=WaveletKind.MORLET):
    """Wavelet-energy-spectrum envelope over the 64-step 500..10 Hz ladder.

    Parameters
    ----------
    frame : SampledSignal
    kind : WaveletKind
    """
    return wes(frame, kind)


def smooth(envelope):
    """Zero-phase 4th-order lowpass an envelope, clipping undershoot to zero.

    The clip is a new array, as signals are read-only. The cutoff is
    ``SMOOTHING_CUTOFF_HZ``. Well below it (around 8 Hz) adjacent S1/S2
    peaks start to merge and timing-based estimates degrade.
    """
    filtered = butterworth_lowpass_zero_phase(envelope, SMOOTHING_CUTOFF_HZ)
    return filtered.with_samples(np.maximum(filtered.samples, 0.0))


def compute_envelope(frame, method, kind=WaveletKind.MORLET):
    """Detector dispatch plus the standard smooth-then-renormalize chain.

    The envelope is smoothed at ``SMOOTHING_CUTOFF_HZ`` and rescaled to a
    maximum of 1; an all-zero envelope passes through unscaled. Only the
    WES detector reads ``kind``.
    """
    method = EnvelopeMethod(method)
    if method is EnvelopeMethod.HILBERT:
        env = hilbert_envelope(frame)
    elif method is EnvelopeMethod.SHANNON:
        env = shannon_energy_envelope(frame)
    else:
        env = wes_envelope(frame, kind=kind)
    env = smooth(env)
    peak = float(env.samples.max())
    return env.with_samples(env.samples / peak) if peak > 0 else env
