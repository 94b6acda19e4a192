import weakref

import numpy as np
import pytest

from pcgkit import SampledSignal, wavelets


@pytest.fixture
def tone():
    def make(freq_hz, duration_s=1.0, rate_hz=2000.0, amp=1.0):
        n = int(round(duration_s * rate_hz))
        t = np.arange(n) / rate_hz
        return SampledSignal(amp * np.cos(2 * np.pi * freq_hz * t), rate_hz)
    return make


@pytest.fixture
def bank_maps(monkeypatch):
    """``(maps, alive)``: a weak reference to each kernel bank's mapping
    built in the test, and how many earlier ones were alive as each was
    made."""
    maps, alive = [], []
    real_pages = wavelets._pages

    def tracking(rows, length):
        alive.append(sum(ref() is not None for ref in maps))
        bank = real_pages(rows, length)
        maps.append(weakref.ref(bank.base.base.obj))
        return bank

    monkeypatch.setattr(wavelets, "_pages", tracking)
    return maps, alive
