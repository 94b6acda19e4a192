"""Acceptance gate: one test per numbered release criterion.

Each test checks a full criterion at its stated tolerance and, on
success, prints a single ``criterion NN: PASS`` line with the measured
margin (visible under ``pytest -s`` and in captured output). A failure
shows up as the usual pytest FAILED line for that criterion.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from pcgkit import (
    BpCoefficients,
    CycleSegmentation,
    EnvelopeMethod,
    HrFormula,
    PcgFeatureVector,
    SampledSignal,
    SynthSpec,
    UnitConvention,
    bland_altman,
    detect_peaks,
    detrend,
    dwt_denoise_db4,
    find_envelope_peaks,
    fit_multiple_regression,
    frame_qualities,
    generate_cohort,
    generate_ecg,
    generate_pcg,
    hilbert_envelope,
    hr_from_ecg_frame,
    hr_from_pcg,
    hr_pipeline,
    label_s1_s2,
    loocv_subjectwise,
    normalize_max_abs,
    nrmse_wes_vs_es,
    pearson_r,
    predict_dbp,
    predict_sbp,
    shannon_energy_envelope,
    wes_envelope,
)
from pcgkit.cli import main

RATE = 2000.0
METHODS = (EnvelopeMethod.HILBERT, EnvelopeMethod.SHANNON, EnvelopeMethod.WES)


def report(n, detail):
    print(f"criterion {n:02d}: PASS ({detail})")


def seg_with(t_sys, t_dias):
    return CycleSegmentation(peaks=(), t_sys=t_sys, t_dias=t_dias,
                             t_rs1=0.03, t_ds1=0.03, t_rd2=0.03, t_dd2=0.03,
                             n_cycles=3)


def envelope_of(values, rate_hz):
    return SampledSignal(np.asarray(values, dtype=float), rate_hz)


def test_criterion_01_reference_intercepts():
    zero = PcgFeatureVector(t_sys=0.0, t_dias=0.0, t_rs1=0.0, t_ds1=0.0,
                            t_rd2=0.0, t_dd2=0.0, hr_pcg=0.0)
    # the checked-in coefficient file that bp predict's goldens read
    path = Path(__file__).resolve().parent / "golden_inputs" / "bp_coeffs.json"
    coeffs = BpCoefficients.from_json_dict(
        json.loads(path.read_text())["coefficients"])
    sbp = predict_sbp(zero, coeffs)
    dbp = predict_dbp(zero, coeffs)
    assert abs(sbp - 95.0) < 1e-12
    assert abs(dbp - 65.0) < 1e-12
    report(1, f"zero-feature predictions {sbp}/{dbp} mmHg")


def test_criterion_02_hr_recovery_and_runtime():
    worst_clean = worst_noisy = 0.0
    for i, bpm in enumerate((50.0, 75.0, 100.0, 140.0)):
        t_sys = 0.3 if bpm <= 100.0 else 0.25
        for snr in (None, 20.0):
            spec = SynthSpec(hr_bpm=bpm, t_sys_s=t_sys, duration_s=12.0,
                             jitter_ms=0.0, snr_db=snr, seed=i)
            sig, _ = generate_pcg(spec)
            for method in METHODS:
                result = hr_pipeline(sig, method=method,
                                     formula=HrFormula.CYCLE_PERIOD)
                err = abs(result.hr.bpm - bpm)
                if snr is None:
                    worst_clean = max(worst_clean, err)
                    assert err <= 1.0, (bpm, method, result.hr.bpm)
                else:
                    worst_noisy = max(worst_noisy, err)
                    assert err <= 2.0, (bpm, snr, method, result.hr.bpm)
    long_spec = SynthSpec(hr_bpm=75.0, duration_s=60.0, jitter_ms=2.0,
                          snr_db=20.0, seed=1)
    long_sig, _ = generate_pcg(long_spec)
    slowest = 0.0
    for method in METHODS:
        t0 = time.perf_counter()
        hr_pipeline(long_sig, method=method)
        slowest = max(slowest, time.perf_counter() - t0)
    assert slowest < 5.0
    report(2, f"worst error {worst_clean:.3f}/{worst_noisy:.3f} bpm, "
              f"60 s recording in {slowest:.2f} s")


def test_criterion_03_formula_ratio_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        t_sys = float(rng.uniform(0.05, 2.0))
        t_dias = float(rng.uniform(0.05, 2.0))
        seg = seg_with(t_sys, t_dias)
        eq7 = hr_from_pcg(seg, formula=HrFormula.EQ7_VERBATIM).bpm
        cyc = hr_from_pcg(seg, formula=HrFormula.CYCLE_PERIOD).bpm
        expected = (t_sys + t_dias) ** 2 / (2.0 * t_sys * t_dias)
        rel = abs(eq7 / cyc - expected) / expected
        worst = max(worst, rel)
        assert rel < 1e-9
    report(3, f"worst relative deviation {worst:.2e} over 1000 pairs")


def test_criterion_04_ecg_reference_across_seeds():
    worst = 0.0
    for seed in range(100):
        spec = SynthSpec(hr_bpm=72.0, duration_s=15.0, jitter_ms=0.0,
                         snr_db=20.0, seed=seed)
        sig, _ = generate_ecg(spec)
        est = hr_from_ecg_frame(normalize_max_abs(detrend(sig)))
        worst = max(worst, abs(est.bpm - 72.0))
        assert abs(est.bpm - 72.0) <= 1.0, seed
    report(4, f"worst error {worst:.4f} bpm over 100 seeds")


def test_criterion_05_envelope_anchors():
    t = np.arange(int(RATE)) / RATE
    tone = SampledSignal(np.cos(2 * np.pi * 100.0 * t), RATE)
    interior = hilbert_envelope(tone).samples[200:-200]
    assert np.all(np.abs(interior - 1.0) < 0.01)

    x = np.zeros(100)
    x[50] = math.exp(-0.5)
    env = shannon_energy_envelope(SampledSignal(x, RATE))
    assert abs(env.samples[50] - 1.0 / math.e) < 1e-9

    zero = SampledSignal(np.zeros(2048), RATE)
    assert np.all(wes_envelope(zero).samples == 0.0)
    report(5, "tone/Shannon-max/zero anchors hold")


def test_criterion_06_denoising():
    rng = np.random.default_rng(9)
    sig = SampledSignal(rng.standard_normal(4096), RATE)
    recon = dwt_denoise_db4(sig, levels=8, threshold_frac=0.0)
    pr_err = float(np.max(np.abs(recon.samples - sig.samples)))
    assert pr_err < 1e-8

    gains = []
    for seed in range(50):
        clean_spec = SynthSpec(hr_bpm=60.0, s1_freq_hz=50.0, duration_s=10.0,
                               jitter_ms=0.0, snr_db=None, seed=seed)
        clean, _ = generate_pcg(clean_spec)
        noisy, _ = generate_pcg(replace(clean_spec, snr_db=10.0))
        denoised = dwt_denoise_db4(noisy, levels=8, threshold_frac=0.15)

        def snr_db(x):
            return 10.0 * np.log10(np.sum(clean.samples ** 2) /
                                   np.sum((x - clean.samples) ** 2))

        gains.append(snr_db(denoised.samples) - snr_db(noisy.samples))
    median_gain = float(np.median(gains))
    assert median_gain >= 3.0
    report(6, f"reconstruction error {pr_err:.1e}, "
              f"median gain {median_gain:.2f} dB")


def test_criterion_07_nrmse_algebra_and_ordering():
    rng = np.random.default_rng(13)
    b = rng.uniform(0.1, 1.0, 512)
    assert nrmse_wes_vs_es(b, b) == 0.0
    assert nrmse_wes_vs_es(2.0 * b, b) == 1.0
    assert nrmse_wes_vs_es(np.zeros_like(b), b) == 1.0
    a = rng.uniform(0.1, 1.0, 512)
    base = nrmse_wes_vs_es(a, b)
    for k in (1e-6, 3.7, 1e6):
        assert abs(nrmse_wes_vs_es(k * a, k * b) - base) < 1e-12

    frames = []
    for subject in generate_cohort(n_subjects=50, duration_s=6.0,
                                   jitter_ms=2.0, snr_db=25.0, seed=7):
        sig, _ = generate_pcg(subject.spec)
        frame = SampledSignal(sig.samples[:int(4.0 * sig.rate_hz)],
                              sig.rate_hz)
        result = hr_pipeline(frame)
        frames.append((result.normalized, result.segmentation))
    qualities = frame_qualities(frames)
    assert len(qualities) == 50
    ordered = sum(fq.nrmse["morlet"] <= fq.nrmse["morse"] <= fq.nrmse["bump"]
                  for fq in qualities)
    assert ordered >= 40
    report(7, f"algebra exact, ordering on {ordered}/50 subjects")


def test_criterion_08_regression_and_loocv():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 10))
    beta = rng.uniform(-5.0, 5.0, 10)
    fit = fit_multiple_regression(X, X @ beta)
    recovery = float(np.max(np.abs(fit.coeffs - beta)))
    assert recovery < 1e-8
    assert fit.rank == 10

    cohort = generate_cohort(n_subjects=15, sbp_noise_sd=0.0,
                             dbp_noise_sd=0.0, seed=3)
    labeled = [(s.features, s.sbp_ref, s.dbp_ref) for s in cohort]
    loocv = loocv_subjectwise(labeled, UnitConvention.SECONDS)
    assert loocv.sbp_mae < 1e-6
    assert loocv.dbp_mae < 1e-6

    # a rank-deficient design is fitted at minimum norm and reported
    X_def = X.copy()
    X_def[:, 4] = X_def[:, 2]
    fit_def = fit_multiple_regression(X_def, X_def @ beta)
    assert fit_def.rank == 9
    assert fit_def.condition_number == math.inf
    report(8, f"recovery {recovery:.1e}, LOOCV MAE "
              f"{loocv.sbp_mae:.1e}/{loocv.dbp_mae:.1e} mmHg")


def test_criterion_09_agreement_statistics():
    ref = np.arange(90.0, 126.0, 4.0)
    rep, _, _ = bland_altman(ref + 7.5, ref)
    assert rep.bias_mean == 7.5
    assert rep.bias_sd == 0.0

    rng = np.random.default_rng(31)
    ref_n = rng.uniform(80.0, 160.0, size=500)
    pred_n = ref_n + rng.standard_normal(500) * 3.0
    coverage, _, _ = bland_altman(pred_n, ref_n)
    assert abs(coverage.within_loa_frac - 0.95) <= 0.02

    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    base = pearson_r(x, y)
    assert abs(pearson_r(3.5 * x - 12.0, 0.01 * y + 400.0) - base) < 1e-12
    report(9, f"offset exact, LoA coverage "
              f"{coverage.within_loa_frac:.3f}, correlation affine-stable")


def test_criterion_10_end_to_end_reproducibility(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    dataset = tmp_path / "cohort15"
    assert main(["synth", "--out", str(dataset), "--subjects", "15",
                 "--seed", "4", "--duration", "12"]) == 0
    payloads = {}
    for run in ("a", "b"):
        cwd = tmp_path / run
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["hr", str(dataset), "--out", "out"]) == 0
        assert main(["quality", str(dataset), "--out", "out"]) == 0
        assert main(["bp", "fit", str(dataset), "--out", "out"]) == 0
        assert main(["bp", "predict", str(dataset),
                     "--coeffs", "out/bp_coefficients.json",
                     "--out", "out"]) == 0
        assert main(["bp", "loocv", str(dataset), "--out", "out"]) == 0
        payloads[run] = {p.name: p.read_bytes()
                         for p in (cwd / "out").glob("*.json")}
    elapsed = time.perf_counter() - t0
    assert sorted(payloads["a"]) == sorted(payloads["b"])
    assert len(payloads["a"]) == 5
    for name in payloads["a"]:
        assert payloads["a"][name] == payloads["b"][name], name
    assert elapsed < 60.0
    report(10, f"{len(payloads['a'])} JSON artifacts bit-identical, "
               f"{elapsed:.1f} s for both runs")


def test_criterion_11_segmentation_rules():
    # 15% height floor: the 0.1 bump is excluded, 0.9 and 1.0 survive
    env = envelope_of([0.0, 1.0, 0.0, 0.1, 0.0, 0.9, 0.0], 10.0)
    assert [p.index for p in find_envelope_peaks(env)] == [1, 5]

    # 0.125 s spacing: closer keeps only the taller, exactly at the
    # limit keeps both
    close = envelope_of([0.0, 0.8, 0.0, 0.0, 1.0, 0.0, 0.0], 40.0)
    assert [p.index for p in find_envelope_peaks(close)] == [4]
    apart = envelope_of([0.0, 0.8, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0], 40.0)
    assert [p.index for p in find_envelope_peaks(apart)] == [1, 6]

    # first-gap labeling on triangle trains, both phases and the tie
    def train(centers, rate_hz=200.0, n=520):
        y = np.zeros(n)
        for c in centers:
            idx = int(round(c * rate_hz))
            for k in range(-8, 9):
                y[idx + k] = max(y[idx + k], (8 - abs(k)) / 8)
        return envelope_of(y, rate_hz)

    s1_first = label_s1_s2(detect_peaks(train([0.4, 0.7, 1.4, 1.7, 2.4])))
    assert [p.label.value for p in s1_first] == ["S1", "S2", "S1", "S2", "S1"]
    s2_first = label_s1_s2(detect_peaks(train([0.4, 1.1, 1.4, 2.1, 2.4])))
    assert [p.label.value for p in s2_first] == ["S2", "S1", "S2", "S1", "S2"]
    tie = label_s1_s2(detect_peaks(train([0.5, 1.0, 1.5, 2.0])))
    assert [p.label.value for p in tie] == ["S1", "S2", "S1", "S2"]
    report(11, "height, spacing, and labeling fixtures exact")
