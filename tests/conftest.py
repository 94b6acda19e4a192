import numpy as np
import pytest

from pcgkit import SampledSignal


@pytest.fixture
def tone():
    def make(freq_hz, duration_s=1.0, rate_hz=2000.0, amp=1.0):
        n = int(round(duration_s * rate_hz))
        t = np.arange(n) / rate_hz
        return SampledSignal(amp * np.cos(2 * np.pi * freq_hz * t), rate_hz)
    return make
