"""Batch phonocardiogram analysis toolkit.

Heart-sound denoising, envelope extraction, S1/S2 segmentation,
heart-rate estimation, semi-empirical blood-pressure regression, and
signal-quality reporting for recorded or synthesized PCG/ECG pairs.

Each module's ``__all__`` is its public API; the package re-exports all
of them.
"""

__version__ = "0.1.0"

from . import (bp, core, envelopes, errors, evaluation, hr, io, quality,
               segmentation, synth, wavelets)
from .bp import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .envelopes import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .evaluation import *  # noqa: F401,F403
from .hr import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .quality import *  # noqa: F401,F403
from .segmentation import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403
from .wavelets import *  # noqa: F401,F403

__all__ = ["__version__"] + [
    name for module in (bp, core, envelopes, errors, evaluation, hr, io,
                        quality, segmentation, synth, wavelets)
    for name in module.__all__]
