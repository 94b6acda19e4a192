import functools
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.fft import fft, ifft, next_fast_len

from pcgkit import SampledSignal, WaveletKind, cwt, dwt_denoise_db4, wes
from pcgkit.errors import PcgKitError, TooShortError
from pcgkit import core, wavelets
from pcgkit.wavelets import _DEC_HI, _DEC_LO, _REC_HI, _REC_LO, sample_wavelet

RATE = 2000.0

ALL_KINDS = list(WaveletKind)


def pseudo_freqs(kind, rate=RATE):
    """Pseudo-frequency of each row of the scale ladder."""
    return kind.center_freq_cycles * rate / wavelets._scale_ladder(kind, rate)


@functools.lru_cache(maxsize=None)
def ladder_kernels(kind, rate=RATE):
    return tuple(sample_wavelet(kind, sc)
                 for sc in wavelets._scale_ladder(kind, rate))


def per_row_bank(kind, n, rate=RATE):
    """``(bank_h, offsets, length)``, one ``fft`` per kernel row.

    The bank ``cwt`` built row by row before it held one bank built by
    one in-place fft; that build must reproduce it exactly.
    """
    kernels = ladder_kernels(kind, rate)
    offsets = [len(w) // 2 for w in kernels]
    length = next_fast_len(n + 2 * max(offsets))
    bank_h = np.array([np.fft.fft(np.conj(w)[::-1], length) for w in kernels])
    return bank_h, offsets, length


def full_matrix_cwt(s, kind):
    """Reference CWT: the whole kernel bank in one product and one ifft.

    This is the transform ``cwt`` computed before it streamed the bank in
    row blocks; the blocked form must reproduce it exactly.
    """
    bank_h, offsets, length = per_row_bank(kind, len(s.samples), s.rate_hz)
    spectrum = fft(s.samples, length)
    rows = ifft(spectrum[None, :] * bank_h, axis=1)
    n = len(s.samples)
    out = np.empty((len(offsets), n), dtype=complex)
    for i, off in enumerate(offsets):
        out[i] = rows[i, off:off + n]
    return out


def fresh_bank(monkeypatch):
    """Hold no bank for the test's duration, so ``cwt`` builds one."""
    monkeypatch.setattr(wavelets, "_held", None)


def counting_sampler(monkeypatch):
    """Scales ``sample_wavelet`` is called with from now on, in a list."""
    calls = []

    def counting(kind, scale):
        calls.append(scale)
        return sample_wavelet(kind, scale)

    monkeypatch.setattr(wavelets, "sample_wavelet", counting)
    return calls


def streamed_rows(s, kind):
    """The rows ``cwt`` streams, checked to arrive in ladder order, stacked.

    Each row is copied, since ``cwt`` lends it only for its callback.
    """
    seen = []
    cwt(s, kind, each_row=lambda i, row: seen.append((i, row.copy())))
    assert [i for i, _ in seen] == list(range(64))
    return np.array([row for _, row in seen])


def burst_frame(centers_s=(1.0, 2.0), freq=60.0, sigma=0.012, duration=3.0,
                rate=RATE):
    t = np.arange(int(duration * rate)) / rate
    x = np.zeros_like(t)
    for c in centers_s:
        x += np.cos(2 * np.pi * freq * (t - c)) * np.exp(-0.5 * ((t - c) / sigma) ** 2)
    return SampledSignal(x, rate)


class TestDb4Filters:
    def test_lowpass_sums_to_sqrt2(self):
        assert abs(sum(_REC_LO) - np.sqrt(2)) < 1e-12

    def test_orthonormal(self):
        assert abs(np.dot(_REC_LO, _REC_LO) - 1.0) < 1e-12
        assert abs(np.dot(_REC_HI, _REC_HI) - 1.0) < 1e-12
        # analysis highpass is orthogonal to the lowpass
        assert abs(np.dot(_DEC_LO, _DEC_HI)) < 1e-12


class TestDenoise:
    def test_perfect_reconstruction_at_zero_threshold(self):
        rng = np.random.default_rng(11)
        s = SampledSignal(rng.normal(size=4096), RATE)
        out = dwt_denoise_db4(s, levels=8, threshold_frac=0.0)
        assert len(out) == len(s)
        assert np.max(np.abs(out.samples - s.samples)) < 1e-8

    def test_improves_snr_on_noisy_bursts(self):
        # one representative seed; the acceptance suite runs the
        # 50-seed median version of this check
        from dataclasses import replace

        from pcgkit.synth import SynthSpec, generate_pcg

        spec = SynthSpec(hr_bpm=60.0, s1_freq_hz=50.0, duration_s=10.0,
                         jitter_ms=0.0, snr_db=None, seed=5)
        clean, _ = generate_pcg(spec)
        noisy, _ = generate_pcg(replace(spec, snr_db=10.0))
        out = dwt_denoise_db4(noisy, levels=8, threshold_frac=0.15)
        c = clean.samples

        def snr_vs_clean(x):
            return 10 * np.log10(np.sum(c**2) / np.sum((x - c) ** 2))

        assert snr_vs_clean(out.samples) - snr_vs_clean(noisy.samples) >= 3.0

    def test_energy_never_grows(self):
        rng = np.random.default_rng(6)
        s = SampledSignal(rng.normal(size=2048), RATE)
        out = dwt_denoise_db4(s, levels=6, threshold_frac=0.3)
        assert np.sum(out.samples**2) <= np.sum(s.samples**2) + 1e-9

    def test_too_short_for_levels(self):
        s = SampledSignal(np.ones(100), RATE)
        with pytest.raises(TooShortError, match="cannot support 8 levels"):
            dwt_denoise_db4(s, levels=8)

    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("n", range(2, 7))
    def test_shorter_than_the_extension_raises(self, n, levels):
        """Each level mirrors 7 samples on either side, so fewer than 7
        would return garbage (``[1.3, 1.3]`` came back ``[0.275, -0.089]``
        at zero threshold)."""
        s = SampledSignal(np.full(n, 1.3), RATE)
        with pytest.raises(TooShortError,
                           match=r"cannot support \d levels \(need >= 7\)"):
            dwt_denoise_db4(s, levels=levels, threshold_frac=0.0)

    @pytest.mark.parametrize("n, levels", [
        (n, levels) for levels in (1, 2, 3) for n in range(7, 14)
        if n >= 2 ** levels])
    def test_zero_threshold_identity_on_short_inputs(self, n, levels):
        """From 7 samples on, the round trip is the identity: to a few
        float64 roundings on a constant, and on noise to the 1e-11 that
        the db4 taps' own rounding allows on a 4 s frame."""
        c = np.full(n, 1.3)
        out = dwt_denoise_db4(SampledSignal(c, RATE), levels=levels,
                              threshold_frac=0.0)
        np.testing.assert_allclose(out.samples, c, rtol=0, atol=1e-12)
        x = np.random.default_rng(n).normal(size=n)
        out = dwt_denoise_db4(SampledSignal(x, RATE), levels=levels,
                              threshold_frac=0.0)
        np.testing.assert_allclose(out.samples, x, rtol=0, atol=1e-10)

    def test_threshold_frac_range(self):
        s = SampledSignal(np.ones(512), RATE)
        with pytest.raises(PcgKitError, match="threshold_frac must be in"):
            dwt_denoise_db4(s, levels=2, threshold_frac=1.0)


def denoise_band_by_band(x, levels, threshold_frac):
    """The db4 denoise as ``np.convolve`` steps and one threshold per band.

    Each detail band is soft thresholded on its own, at
    ``threshold_frac`` of its own largest magnitude (0 for a band of
    zeros), and every filter step is ``np.convolve`` with the
    decomposition or reconstruction filter as written.
    """
    pad = len(_REC_LO) - 1
    details, lengths, approx = [], [], x
    for _ in range(levels):
        lengths.append(len(approx))
        ext = np.concatenate([approx[:pad][::-1], approx,
                              approx[-pad:][::-1]])
        details.append(np.convolve(ext, _DEC_HI, mode="valid")[1::2])
        approx = np.convolve(ext, _DEC_LO, mode="valid")[1::2]
    for detail in details:
        tau = threshold_frac * np.max(np.abs(detail))
        np.copyto(detail, np.sign(detail)
                  * np.maximum(np.abs(detail) - tau, 0.0))
    for detail, out_len in zip(reversed(details), reversed(lengths)):
        up_a = np.zeros(2 * len(approx))
        up_d = np.zeros(2 * len(detail))
        up_a[::2] = approx
        up_d[::2] = detail
        y = np.convolve(up_a, _REC_LO) + np.convolve(up_d, _REC_HI)
        approx = y[pad - 1:pad - 1 + out_len]
    return approx


class TestDenoiseAgainstBandLoop:
    """``dwt_denoise_db4`` thresholds every band in one pass and filters
    with ``np.correlate``; its output feeds ``quality``'s ``nrmse``, so it
    must equal the band-by-band form bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), levels=st.integers(1, 8),
           threshold_frac=st.floats(0.0, 1.0, exclude_max=True),
           shape=st.sampled_from(["noise", "constant", "zero"]),
           seed=st.integers(0, 2**32 - 1))
    # a 4 s frame at the pipeline's settings; and bands of zeros, whose
    # peak of 0 gives a threshold of 0
    @example(data=None, levels=8, threshold_frac=0.15, shape="noise",
             seed=4)
    @example(data=None, levels=8, threshold_frac=0.15, shape="constant",
             seed=0)
    @example(data=None, levels=3, threshold_frac=0.5, shape="zero", seed=0)
    def test_equal_bit_for_bit(self, data, levels, threshold_frac, shape,
                               seed):
        n = (8000 if data is None
             else data.draw(st.integers(max(2 ** levels, 7), 20000),
                            label="n"))
        rng = np.random.default_rng(seed)
        if shape == "noise":
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6)
        elif shape == "constant":
            x = np.full(n, rng.uniform(-5, 5))
        else:
            x = np.zeros(n)
        got = dwt_denoise_db4(SampledSignal(x, RATE), levels, threshold_frac)
        assert np.array_equal(got.samples,
                              denoise_band_by_band(x, levels, threshold_frac))


class TestWaveletKinds:
    def test_center_frequencies(self):
        # analytic values: omega0/2pi, (beta/gamma)^(1/gamma)/2pi, mu/2pi
        assert abs(WaveletKind.MORLET.center_freq_cycles
                   - 0.954929658551372) < 1e-12
        assert abs(WaveletKind.MORSE.center_freq_cycles
                   - 0.29954107124796653) < 1e-12
        assert abs(WaveletKind.BUMP.center_freq_cycles
                   - 0.7957747154594768) < 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_kernel_energy_invariant_across_scales(self, kind):
        # the 1/sqrt(scale) convention keeps kernel energy scale-free
        energies = []
        for scale in (4.0, 16.0, 64.0):
            w = sample_wavelet(kind, scale)
            assert len(w) % 2 == 1
            energies.append(float(np.sum(np.abs(w) ** 2)))
        assert np.allclose(energies, energies[0], rtol=0.01)

    def test_morlet_kernel_is_unit_energy(self):
        # closed-form Morlet is L2-normalized, a known absolute anchor
        w = sample_wavelet(WaveletKind.MORLET, 16.0)
        assert abs(np.sum(np.abs(w) ** 2) - 1.0) < 0.01

    def test_names_are_the_report_keys(self):
        assert [k.value for k in WaveletKind] == ["morlet", "morse", "bump"]

    def test_spectra_peak_at_two(self):
        morse_peak = (wavelets.MORSE_BETA / wavelets.MORSE_GAMMA) ** (
            1.0 / wavelets.MORSE_GAMMA)
        omega = np.linspace(0.01, 12.0, 4001)
        for response, peak in [(wavelets._morse_freq_response, morse_peak),
                               (wavelets._bump_freq_response,
                                wavelets.BUMP_MU)]:
            assert response(np.array([peak]))[0] == 2.0
            assert response(omega).max() <= 2.0

    @pytest.mark.parametrize("kind", [WaveletKind.MORSE, WaveletKind.BUMP],
                             ids=lambda k: k.value)
    def test_sampled_in_frequency_without_warnings(self, kind):
        # the frequency grid starts at omega = 0, where Morse's log is not
        # taken, and Bump's is zero outside its open support
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = sample_wavelet(kind, 16.0)
        assert np.all(np.isfinite(w))


class TestScaleGrid:
    def test_log_spacing_and_bounds(self):
        for kind in WaveletKind:
            scales = wavelets._scale_ladder(kind, RATE)
            assert len(scales) == 64
            assert np.all(np.diff(scales) > 0)
            freqs = pseudo_freqs(kind)
            assert abs(freqs[0] - 500.0) < 1e-9
            assert abs(freqs[-1] - 10.0) < 1e-9
            ratios = freqs[:-1] / freqs[1:]
            assert np.allclose(ratios, ratios[0], rtol=1e-9)


class TestCwt:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_tone_ridge_at_matching_frequency(self, kind, tone):
        s = tone(40.0, 2.0, RATE)
        coeffs = streamed_rows(s, kind)
        assert coeffs.shape == (64, len(s))
        interior = np.abs(coeffs[:, 1000:-1000])
        ridge = int(np.argmax(interior.mean(axis=1)))
        freqs = pseudo_freqs(kind)
        target = int(np.argmin(np.abs(freqs - 40.0)))
        assert abs(ridge - target) <= 1

    def test_zero_signal_zero_matrix(self):
        kind = WaveletKind.MORLET
        s = SampledSignal(np.zeros(1000), RATE)
        assert np.all(streamed_rows(s, kind) == 0)

    def test_linearity_in_amplitude(self, tone):
        kind = WaveletKind.MORLET
        x = tone(60.0, 1.0, RATE)
        a = streamed_rows(x, kind)
        b = streamed_rows(x.with_samples(3.0 * x.samples), kind)
        assert np.max(np.abs(b - 3.0 * a)) < 1e-12 * np.max(np.abs(a)) * 3 + 1e-12

    def test_additivity(self, tone):
        kind = WaveletKind.MORSE
        x = tone(50.0, 0.5, RATE)
        y = tone(120.0, 0.5, RATE)
        both = x.with_samples(x.samples + y.samples)
        lhs = streamed_rows(both, kind)
        rhs = streamed_rows(x, kind) + streamed_rows(y, kind)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_kernels_sampled_once_per_build(self, monkeypatch):
        # one build serves every call on its bank; each switch of kind,
        # length or rate builds a bank from kernels sampled for it alone
        calls = counting_sampler(monkeypatch)
        fresh_bank(monkeypatch)
        kind = WaveletKind.MORSE
        rng = np.random.default_rng(3)
        rows = []
        for _ in range(2):
            s = SampledSignal(rng.standard_normal(777), RATE)
            rows.append((s, streamed_rows(s, kind)))
        assert len(calls) == 64
        _, bank_h, offsets = wavelets.hold_bank(kind, RATE, 777)
        assert not bank_h.flags.writeable and not offsets.flags.writeable
        fresh_bank(monkeypatch)
        for s, coeffs in rows:
            assert np.array_equal(streamed_rows(s, kind), coeffs)
        assert len(calls) == 128
        for kind, n in [(WaveletKind.MORSE, 1500), (WaveletKind.BUMP, 777),
                        (WaveletKind.MORSE, 777), (WaveletKind.BUMP, 1500)]:
            s = SampledSignal(rng.standard_normal(n), RATE)
            assert np.array_equal(streamed_rows(s, kind),
                                  full_matrix_cwt(s, kind))
        assert len(calls) == 384
        s = SampledSignal(rng.standard_normal(777), 1000.0)
        streamed_rows(s, WaveletKind.MORSE)
        assert len(calls) == 448


class TestFftHelpers:
    def test_next_fast_len_equals_scipy(self):
        # every n to 3000, a sample around the 4 s bank lengths, and the
        # bank lengths of a 4 s frame at 2000 Hz (Morlet, Morse, Bump)
        for n in [*range(1, 3000), *range(8000, 21000, 13),
                  11088, 10935, 20736]:
            assert core._next_fast_len(n) == next_fast_len(n), n
            assert (core._next_fast_len(n, real=True)
                    == next_fast_len(n, real=True)), n

    def test_bank_lengths_of_a_4_s_frame(self, monkeypatch):
        fresh_bank(monkeypatch)
        lengths = [wavelets.hold_bank(kind, RATE, 8000)[1].shape[1]
                   for kind in ALL_KINDS]
        assert lengths == [11088, 10935, 20736]

    # even and odd n, each equal to and longer than the input
    @pytest.mark.parametrize("n_x, n", [(1, 1), (2, 2), (3, 3), (8000, 8000),
                                        (777, 777), (777, 2000), (777, 2001),
                                        (8000, 11088), (8000, 10935)])
    def test_fft_of_real_equals_scipy(self, n_x, n):
        # written into the last row of a workspace left full of NaN, as
        # cwt reuses one, so every entry must be written
        x = np.random.default_rng(n_x + n).standard_normal(n_x)
        work = np.full((2, n), np.nan, dtype=complex)
        out = work[-1]
        assert wavelets._fft_of_real(x, n, out) is out
        assert np.array_equal(out, fft(x, n))
        assert np.isnan(work[0]).all()


class TestBlockedCwt:
    @pytest.mark.parametrize("n", [300, 777, 8000])
    # rows per block over the 64-row ladder: 4 (the default), 8 and 64
    # fill every block; 13 leaves a partial last block of 12 rows
    @pytest.mark.parametrize("block_rows", [64, 13, 8, 4])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_equals_full_matrix_oracle(self, kind, block_rows, n,
                                       monkeypatch):
        monkeypatch.setattr(wavelets, "CWT_BLOCK_ROWS", block_rows)
        s = SampledSignal(np.random.default_rng(n + block_rows).standard_normal(n),
                          RATE)
        oracle = full_matrix_cwt(s, kind)
        assert np.array_equal(streamed_rows(s, kind), oracle)
        expected = np.sum(np.abs(oracle) ** 2, axis=0) / n
        assert np.array_equal(wes(s, kind).samples, expected)

    # frames from one sample up, most shorter than the widest kernel of
    # every family (3057, 2905 and 12735 samples at 2 kHz), and any block
    # size from one row to the whole ladder
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4000), kind=st.sampled_from(ALL_KINDS),
           block_rows=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1, kind=WaveletKind.BUMP, block_rows=64, seed=0)
    @example(n=3057, kind=WaveletKind.MORLET, block_rows=7, seed=1)
    def test_streamed_rows_and_wes_equal_full_matrix(self, n, kind,
                                                     block_rows, seed):
        s = SampledSignal(np.random.default_rng(seed).standard_normal(n),
                          RATE)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wavelets, "CWT_BLOCK_ROWS", block_rows)
            rows = streamed_rows(s, kind)
            track = wes(s, kind).samples
        assert np.array_equal(rows, full_matrix_cwt(s, kind))
        # summed in ladder order; np.sum(..., axis=0) pairs the terms
        # differently when n == 1
        energy = np.zeros(n)
        for row in rows:
            energy += np.abs(row) ** 2
        assert np.array_equal(track, energy / n)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_each_row_gets_the_matrix_rows_in_order(self, kind):
        s = SampledSignal(np.random.default_rng(7).standard_normal(777), RATE)
        matrix = full_matrix_cwt(s, kind)
        seen = []

        def keep(i, row):
            seen.append((i, row.copy()))  # row is valid only during the call

        assert cwt(s, kind, each_row=keep) is None
        assert [i for i, _ in seen] == list(range(len(matrix)))
        for i, row in seen:
            assert np.array_equal(row, matrix[i])

    def test_peak_memory_of_a_bump_frame(self):
        # a 4 s frame at 2 kHz has the widest bank of the three families;
        # the full-bank product, ifft output and crop copy peaked at 40.8 MB
        kind = WaveletKind.BUMP
        s = SampledSignal(np.random.default_rng(8).standard_normal(8000), RATE)

        def drop(i, row):
            pass

        cwt(s, kind, each_row=drop)  # make its kernel bank the held one
        tracemalloc.start()
        try:
            cwt(s, kind, each_row=drop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_concurrent_calls_match_serial(self, monkeypatch):
        # more threads than cores and a short switch interval, starting from
        # no held bank, so threads race to build it on two lengths and three
        # kinds and interleave their block loops; 64 = 12 * 5 + 4 rows
        # leaves a partial block
        monkeypatch.setattr(wavelets, "CWT_BLOCK_ROWS", 5)
        rng = np.random.default_rng(4)
        kinds_and_lengths = [
            *((WaveletKind.MORSE, n) for n in (777, 777, 1500, 1500, 777,
                                               1500)),
            (WaveletKind.BUMP, 777), (WaveletKind.MORLET, 1500)]
        inputs = [(kind, SampledSignal(rng.standard_normal(n), RATE))
                  for kind, n in kinds_and_lengths]
        fresh_bank(monkeypatch)
        results = [None] * len(inputs)

        def work(i):
            kind, s = inputs[i]
            for _ in range(5):
                results[i] = streamed_rows(s, kind)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for (kind, s), got in zip(inputs, results):
            assert np.array_equal(got, full_matrix_cwt(s, kind))

    def test_each_row_may_call_wes_for_another_family(self):
        # the callback's wes needs another bank than the one this call
        # reads; it is built beside the read one instead of waiting for it
        s = SampledSignal(np.random.default_rng(10).standard_normal(777),
                          RATE)
        rows, inner = [], []

        def nested(i, row):
            rows.append(row.copy())
            if i in (0, 63):
                inner.append(wes(s, WaveletKind.BUMP).samples)

        thread = threading.Thread(
            target=cwt, args=(s, WaveletKind.MORSE), kwargs={
                "each_row": nested}, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert np.array_equal(np.array(rows),
                              full_matrix_cwt(s, WaveletKind.MORSE))
        expected = np.sum(np.abs(full_matrix_cwt(s, WaveletKind.BUMP)) ** 2,
                          axis=0) / 777
        assert len(inner) == 2
        for track in inner:
            assert np.array_equal(track, expected)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_each_row_may_call_cwt_and_wes_for_the_same_family(self, kind):
        # the nested calls use the same bank length as the outer one, in
        # the same thread, on another signal; had they shared the outer
        # call's workspace, they would overwrite its block and spectrum
        rng = np.random.default_rng(15)
        s, t = (SampledSignal(rng.standard_normal(777), RATE)
                for _ in range(2))
        matrix = full_matrix_cwt(t, kind)
        # leaves this thread a workspace of the shape every call here needs
        assert np.array_equal(streamed_rows(t, kind), matrix)
        rows, inner_rows, inner_tracks = [], [], []

        def nested(i, row):
            rows.append(row.copy())
            if i in (0, 30, 63):
                inner_rows.append(streamed_rows(t, kind))
                inner_tracks.append(wes(t, kind).samples)

        cwt(s, kind, each_row=nested)
        assert np.array_equal(np.array(rows), full_matrix_cwt(s, kind))
        expected = np.sum(np.abs(matrix) ** 2, axis=0) / 777
        assert len(inner_rows) == len(inner_tracks) == 3
        for got_rows, track in zip(inner_rows, inner_tracks):
            assert np.array_equal(got_rows, matrix)
            assert np.array_equal(track, expected)

    def test_a_thread_reuses_one_workspace_of_its_block_shape(
            self, monkeypatch):
        # block rows plus the spectrum's row, of the bank length; kept
        # between calls of one shape, replaced when the block size or the
        # bank length changes, and kept by a call whose callback raises
        kind = WaveletKind.MORSE
        rng = np.random.default_rng(16)
        short, long = (SampledSignal(rng.standard_normal(n), RATE)
                       for n in (777, 1500))

        def work_after(s):
            assert np.array_equal(streamed_rows(s, kind),
                                  full_matrix_cwt(s, kind))
            return wavelets._spare.work

        length = wavelets.hold_bank(kind, RATE, 777)[1].shape[1]
        first = work_after(short)
        assert first.shape == (wavelets.CWT_BLOCK_ROWS + 1, length)
        assert work_after(short) is first
        for block_rows, rows in [(64, 65), (100, 65), (7, 8), (4, 5)]:
            monkeypatch.setattr(wavelets, "CWT_BLOCK_ROWS", block_rows)
            assert work_after(short).shape == (rows, length)
        assert work_after(long).shape[1] != length
        held = work_after(long)

        def fail(i, row):
            raise RuntimeError(i)

        with pytest.raises(RuntimeError):
            cwt(long, kind, each_row=fail)
        assert wavelets._spare.work is held


class TestWes:
    def test_threads_missing_together_build_one_bank(self, monkeypatch,
                                                     bank_maps):
        # the threads start together from an empty bank and kernel cache on
        # one frame length; one build serves them all
        calls = counting_sampler(monkeypatch)
        fresh_bank(monkeypatch)
        builds, _ = bank_maps
        kind = WaveletKind.BUMP
        s = SampledSignal(np.random.default_rng(5).standard_normal(8000), RATE)
        n_threads = 4
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads

        def work(i):
            barrier.wait(timeout=60)
            results[i] = wes(s, kind).samples

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 64
        assert len(builds) == 1
        assert wavelets.hold_bank(kind, RATE, 8000)[0] == (kind, RATE, 8000)
        for got in results:
            assert np.array_equal(got, results[0])

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_peak_memory_adds_no_matrix_to_cwt(self, kind):
        # wes takes each row from the cwt workspace, so it never holds
        # the (64, 8000) complex matrix, 7.8 MiB on its own; and a thread's
        # second call reuses the workspace its first call left (for Bump,
        # 5 rows of its widest bank, 1.6 MiB), so its peak is the length-n
        # tracks, 0.19 MiB
        s = SampledSignal(np.random.default_rng(9).standard_normal(8000), RATE)
        wes(s, kind)  # make its kernel bank the held one and its workspace
        tracemalloc.start()
        try:
            wes(s, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 * 2 ** 20

    def test_calls_cwt_once(self, monkeypatch):
        calls = []
        real_cwt = wavelets.cwt

        def counting(*args, **kwargs):
            calls.append(args)
            return real_cwt(*args, **kwargs)

        monkeypatch.setattr(wavelets, "cwt", counting)
        s = SampledSignal(np.random.default_rng(6).standard_normal(777), RATE)
        for kind in ALL_KINDS:
            wes(s, kind)
        assert len(calls) == len(ALL_KINDS)

    def test_zero_signal(self):
        kind = WaveletKind.MORLET
        s = SampledSignal(np.zeros(800), RATE)
        out = wes(s, kind)
        assert np.all(out.samples == 0)
        assert out.rate_hz == RATE
        assert len(out) == 800

    def test_quadratic_scaling(self, tone):
        kind = WaveletKind.MORLET
        x = tone(60.0, 0.5, RATE)
        a = wes(x, kind).samples
        b = wes(x.with_samples(2.0 * x.samples), kind).samples
        assert np.allclose(b, 4.0 * a, rtol=1e-9, atol=1e-15)

    def test_two_bursts_two_peaks_at_centers(self):
        kind = WaveletKind.MORLET
        s = burst_frame(centers_s=(1.0, 2.0))
        track = wes(s, kind).samples
        floor = 0.15 * track.max()
        above = track >= floor
        # count local maxima above the floor
        peaks = [i for i in range(1, len(track) - 1)
                 if above[i] and track[i] > track[i - 1] and track[i] >= track[i + 1]]
        assert len(peaks) == 2
        times = np.array(peaks) / RATE
        assert abs(times[0] - 1.0) < 0.010
        assert abs(times[1] - 2.0) < 0.010

    def test_silence_region_stays_quiet(self):
        kind = WaveletKind.MORLET
        s = burst_frame(centers_s=(2.5,), duration=3.0)
        track = wes(s, kind).samples
        # first second is silence, far outside any wavelet support
        assert track[: int(1.0 * RATE)].max() < 1e-6 * track.max()


class TestHeldBank:
    """One kernel bank at a time, swapped whole and never written."""

    @pytest.mark.parametrize("n", [777, 8000])
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_refill_equals_per_row_fft(self, kind, n, monkeypatch):
        # all 64 zero-padded rows in one in-place fft, against one fft
        # per row
        expected, offsets, length = per_row_bank(kind, n)
        fresh_bank(monkeypatch)
        key, bank_h, offs = wavelets.hold_bank(kind, RATE, n)
        assert key == (kind, RATE, n)
        assert bank_h.shape == (64, length)
        assert list(offs) == offsets
        assert np.array_equal(bank_h, expected)

    def test_one_bank_held_and_a_replaced_one_released(self, monkeypatch,
                                                        bank_maps):
        # 4 s frames at 2 kHz: Morlet's bank is 11.4 MB, Morse's 11.2 MB
        # and Bump's 21.2 MB, each in its own mapping; the one a build
        # replaces is read by no call, so it is unmapped before the build
        fresh_bank(monkeypatch)
        maps, alive = bank_maps
        assert wavelets._held is None
        keys = [(WaveletKind.BUMP, 8000), (WaveletKind.MORLET, 8000),
                (WaveletKind.BUMP, 8001), (WaveletKind.MORSE, 8000)]
        for i, (kind, n) in enumerate(keys):
            held = wavelets.hold_bank(kind, RATE, n)
            assert held[0] == (kind, RATE, n)
            assert wavelets._held is held
            assert wavelets.hold_bank(kind, RATE, n) is held
            assert [ref() is not None for ref in maps] == [False] * i + [True]
            del held
        assert alive == [0] * len(keys)
        assert np.array_equal(wavelets.hold_bank(WaveletKind.MORSE, RATE,
                                                 8000)[1],
                              per_row_bank(WaveletKind.MORSE, 8000)[0])

    def test_a_reader_keeps_its_bank_while_another_kind_is_held(
            self, monkeypatch, bank_maps):
        # a cwt call paused in its callback while another thread holds
        # another kind reads on from its own bank, which lives until the
        # call returns
        fresh_bank(monkeypatch)
        maps, _ = bank_maps
        s = SampledSignal(np.random.default_rng(14).standard_normal(777),
                          RATE)
        paused, resume = threading.Event(), threading.Event()
        rows = []

        def pause(i, row):
            rows.append(row.copy())
            if i == 0:
                paused.set()
                resume.wait(timeout=60)

        reader = threading.Thread(target=cwt, args=(s, WaveletKind.MORSE),
                                  kwargs={"each_row": pause}, daemon=True)
        reader.start()
        try:
            assert paused.wait(timeout=60)
            holder = threading.Thread(target=wavelets.hold_bank,
                                      args=(WaveletKind.BUMP, RATE, 777))
            holder.start()
            holder.join(timeout=60)
            assert not holder.is_alive()
            assert wavelets._held[0] == (WaveletKind.BUMP, RATE, 777)
            assert [ref() is not None for ref in maps] == [True, True]
        finally:
            resume.set()
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert maps[0]() is None
        assert np.array_equal(np.array(rows),
                              full_matrix_cwt(s, WaveletKind.MORSE))

    def test_alternating_kinds_match_full_matrix(self, monkeypatch):
        # more threads than cores, each switching kind on every call, with
        # a short switch interval: a build that overwrote a bank while
        # another thread streamed it would change that thread's track
        fresh_bank(monkeypatch)
        rng = np.random.default_rng(12)
        signals = [SampledSignal(rng.standard_normal(n), RATE)
                   for n in (777, 1500, 777)]
        expected = {}
        for i, s in enumerate(signals):
            for kind in ALL_KINDS:
                energy = np.zeros(len(s.samples))
                for row in full_matrix_cwt(s, kind):
                    energy += np.abs(row) ** 2
                expected[i, kind] = energy / len(s.samples)
        n_threads = 6
        mismatches = []
        done = [0] * n_threads

        def work(t):
            for step in range(6):
                i = (t + step) % len(signals)
                kind = ALL_KINDS[(t + step) % len(ALL_KINDS)]
                if not np.array_equal(wes(signals[i], kind).samples,
                                      expected[i, kind]):
                    mismatches.append((t, step))
                done[t] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,))
                       for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert done == [6] * n_threads
        assert mismatches == []
