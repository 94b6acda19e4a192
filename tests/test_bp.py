"""Pressure regression: evaluation, fitting, LOOCV, feature averaging.

The hand-oracle constants below are term-by-term decimal sums over the
checked-in coefficient file ``golden_inputs/bp_coeffs.json``, worked out
independently of the implementation.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcgkit import (
    BpCoefficients,
    CycleSegmentation,
    HrEstimate,
    PcgFeatureVector,
    PcgKitError,
    UnitConvention,
    design_row_dbp,
    design_row_sbp,
    extract_subject_features,
    fit_multiple_regression,
    generate_cohort,
    loocv_subjectwise,
    predict_dbp,
    predict_pair,
    predict_sbp,
)
from pcgkit.bp import fit_coefficients

FEATURES = PcgFeatureVector(t_sys=0.3, t_dias=0.5, t_rs1=0.04, t_ds1=0.05,
                            t_rd2=0.045, t_dd2=0.055, hr_pcg=72.0)
ZERO_FEATURES = PcgFeatureVector(t_sys=0.0, t_dias=0.0, t_rs1=0.0, t_ds1=0.0,
                                 t_rd2=0.0, t_dd2=0.0, hr_pcg=0.0)

COEFFS_FILE = (Path(__file__).resolve().parent / "golden_inputs"
               / "bp_coeffs.json")
SBP_FILE_ORACLE = 103.2178
DBP_FILE_ORACLE = 77.38555
SBP_SIMPLE_ORACLE = 36723.1829
DBP_SIMPLE_ORACLE = 36724.96975


def file_coeffs():
    """The checked-in set that the goldens and the CLI tests read."""
    return BpCoefficients.from_json_dict(
        json.loads(COEFFS_FILE.read_text())["coefficients"])


def simple_coeffs():
    """Both sides set to 1..10 so every term is exercised."""
    values = {name: float(k + 1) for k, name in enumerate(
        ("c1", "sigma_sys", "sigma_rs1", "sigma_ds1", "sigma_s1",
         "sigma_s_hr", "sigma_s_hr2", "sigma_sys2", "sigma_s12",
         "sigma_rds1"))}
    values.update({name: float(k + 1) for k, name in enumerate(
        ("c2", "alpha_dias", "alpha_rd2", "alpha_dd2", "alpha_s2",
         "alpha_d_hr", "alpha_d_hr2", "alpha_dias2", "alpha_s22",
         "alpha_rdd2"))})
    return BpCoefficients(**values)


def intercept_only(sbp, dbp):
    zeros = {name: 0.0 for name in (
        "sigma_sys", "sigma_rs1", "sigma_ds1", "sigma_s1", "sigma_s_hr",
        "sigma_s_hr2", "sigma_sys2", "sigma_s12", "sigma_rds1",
        "alpha_dias", "alpha_rd2", "alpha_dd2", "alpha_s2", "alpha_d_hr",
        "alpha_d_hr2", "alpha_dias2", "alpha_s22", "alpha_rdd2")}
    return BpCoefficients(c1=sbp, c2=dbp, **zeros)


class TestPcgFeatureVector:

    def test_sum_identities(self):
        assert FEATURES.t_s1 == pytest.approx(0.09, abs=1e-15)
        assert FEATURES.t_s2 == pytest.approx(0.1, abs=1e-15)

    def test_rejects_negative_feature(self):
        with pytest.raises(PcgKitError,
                           match="t_sys must be nonnegative and finite"):
            PcgFeatureVector(t_sys=-0.1, t_dias=0.5, t_rs1=0.04, t_ds1=0.05,
                             t_rd2=0.045, t_dd2=0.055, hr_pcg=72.0)

    def test_rejects_nonfinite_feature(self):
        with pytest.raises(PcgKitError,
                           match="t_sys must be nonnegative and finite"):
            PcgFeatureVector(t_sys=float("nan"), t_dias=0.5, t_rs1=0.04,
                             t_ds1=0.05, t_rd2=0.045, t_dd2=0.055,
                             hr_pcg=72.0)

    def test_zero_vector_is_expressible(self):
        assert ZERO_FEATURES.t_s1 == 0.0


class TestReferenceCoefficients:
    """The checked-in coefficient file and the JSON form it is read from."""

    def test_intercepts(self):
        ref = file_coeffs()
        assert ref.c1 == 95.0
        assert ref.c2 == 65.0

    def test_spot_values(self):
        ref = file_coeffs()
        assert ref.sigma_rs1 == 60.0
        assert ref.sigma_ds1 == 55.0
        assert ref.sigma_s_hr2 == -0.0008
        assert ref.alpha_s22 == 40.0
        assert ref.alpha_rdd2 == -30.0
        assert ref.unit_convention is UnitConvention.SECONDS

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=20, max_size=20),
           st.sampled_from(UnitConvention))
    def test_json_round_trip(self, values, convention):
        coeffs = BpCoefficients(*values, unit_convention=convention)
        text = json.dumps(coeffs.to_json_dict())
        again = BpCoefficients.from_json_dict(json.loads(text))
        assert again == coeffs
        assert again.unit_convention is convention

    def test_rejects_nonfinite(self):
        with pytest.raises(PcgKitError, match="coefficient c1 is not finite"):
            intercept_only(float("inf"), 80.0)

    def test_json_unknown_keys_rejected(self):
        d = dict(file_coeffs().to_json_dict(),
                 sigma_sys_typo=5.0, c3=1.0)
        with pytest.raises(PcgKitError,
                           match="unknown coefficient entries: c3, "
                                 "sigma_sys_typo"):
            BpCoefficients.from_json_dict(d)

    @pytest.mark.parametrize("value", [True, False])
    def test_json_boolean_rejected(self, value):
        # float(True) is 1.0; a JSON boolean is not a coefficient
        d = dict(file_coeffs().to_json_dict(), c1=value)
        with pytest.raises(PcgKitError, match="c1 must be a number"):
            BpCoefficients.from_json_dict(d)

    @pytest.mark.parametrize("value", ["1.5", "nan", None, [1.5]])
    def test_json_non_number_rejected(self, value):
        # float("1.5") is 1.5; a JSON string is not a coefficient either
        d = dict(file_coeffs().to_json_dict(), c1=value)
        with pytest.raises(PcgKitError, match="c1 must be a number"):
            BpCoefficients.from_json_dict(d)


class TestPredict:

    def test_zero_features_return_intercepts(self):
        ref = file_coeffs()
        assert abs(predict_sbp(ZERO_FEATURES, ref) - 95.0) < 1e-12
        assert abs(predict_dbp(ZERO_FEATURES, ref) - 65.0) < 1e-12

    def test_table_coefficients_hand_oracle(self):
        ref = file_coeffs()
        assert predict_sbp(FEATURES, ref) == pytest.approx(
            SBP_FILE_ORACLE, abs=1e-9)
        assert predict_dbp(FEATURES, ref) == pytest.approx(
            DBP_FILE_ORACLE, abs=1e-9)

    def test_simple_coefficients_hand_oracle(self):
        c = simple_coeffs()
        assert predict_sbp(FEATURES, c) == pytest.approx(
            SBP_SIMPLE_ORACLE, abs=1e-9)
        assert predict_dbp(FEATURES, c) == pytest.approx(
            DBP_SIMPLE_ORACLE, abs=1e-9)

    def test_linear_in_coefficients(self):
        a = file_coeffs()
        b = simple_coeffs()
        summed_fields = {f: getattr(a, f) + getattr(b, f)
                         for f in a.to_json_dict() if f != "unit_convention"}
        summed = BpCoefficients(**summed_fields)
        assert predict_sbp(FEATURES, summed) == pytest.approx(
            predict_sbp(FEATURES, a) + predict_sbp(FEATURES, b), rel=1e-12)
        assert predict_dbp(FEATURES, summed) == pytest.approx(
            predict_dbp(FEATURES, a) + predict_dbp(FEATURES, b), rel=1e-12)

    def test_nonfinite_evaluation_raises(self):
        huge = PcgFeatureVector(t_sys=0.3, t_dias=0.5, t_rs1=0.04,
                                t_ds1=0.05, t_rd2=0.045, t_dd2=0.055,
                                hr_pcg=1e200)
        with pytest.raises(PcgKitError,
                           match="SBP evaluated to a non-finite value"):
            predict_sbp(huge, file_coeffs())

    def test_pair_flags_implausible_values(self):
        pred = predict_pair(ZERO_FEATURES, intercept_only(0.0, 0.0))
        assert "sbp_implausible" in pred.flags
        assert "dbp_implausible" in pred.flags

    def test_pair_accepts_plausible_values(self):
        pred = predict_pair(FEATURES, intercept_only(120.0, 80.0))
        assert pred.sbp == pytest.approx(120.0)
        assert pred.dbp == pytest.approx(80.0)
        assert pred.flags == ()

    @pytest.mark.parametrize("sbp, dbp, flags", [
        (60.0, 30.0, ()), (220.0, 140.0, ()),
        (59.0, 80.0, ("sbp_implausible",)),
        (225.0, 80.0, ("sbp_implausible",)),
        (120.0, 27.5, ("dbp_implausible",)),
        (120.0, 141.0, ("dbp_implausible",)),
        (220.5, 80.0, ("sbp_implausible",))])
    def test_pair_plausible_bounds_are_inclusive(self, sbp, dbp, flags):
        pred = predict_pair(FEATURES, intercept_only(sbp, dbp))
        assert (pred.sbp, pred.dbp) == (sbp, dbp)
        assert pred.flags == flags


class TestUnitConvention:

    def test_design_rows_scale_times_only(self):
        row_s = design_row_sbp(FEATURES, "ms")
        assert row_s[1] == pytest.approx(300.0)
        assert row_s[5] == pytest.approx(72.0)  # HR never rescaled
        assert row_s[7] == pytest.approx(300.0 ** 2)
        row_d = design_row_dbp(FEATURES, UnitConvention.MILLISECONDS)
        assert row_d[1] == pytest.approx(500.0)
        assert row_d[9] == pytest.approx(45.0 * 55.0)


class TestFitMultipleRegression:

    def test_full_rank_noiseless_recovery(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((12, 10))
        beta = rng.standard_normal(10)
        fit = fit_multiple_regression(X, X @ beta)
        assert np.max(np.abs(fit.coeffs - beta)) < 1e-8
        assert fit.rank == 10
        assert fit.residual_rms < 1e-8
        assert fit.condition_number == pytest.approx(np.linalg.cond(X),
                                                     rel=1e-12)

    def test_square_design_accepted(self):
        rng = np.random.default_rng(27)
        X = rng.standard_normal((10, 10))  # as many rows as columns
        beta = rng.standard_normal(10)
        fit = fit_multiple_regression(X, X @ beta)
        assert np.max(np.abs(fit.coeffs - beta)) < 1e-8

    def test_rank_tolerance_scales_with_the_largest_singular_value(self):
        # singular values 1e6, eight 1s and 1e-9: the last is under the
        # tolerance 1e6 * 12 * eps, though far above 12 * eps
        rng = np.random.default_rng(28)
        u, _ = np.linalg.qr(rng.standard_normal((12, 10)))
        v, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        X = u @ np.diag([1e6] + [1.0] * 8 + [1e-9]) @ v.T
        fit = fit_multiple_regression(X, X @ np.ones(10))
        assert fit.rank == 9
        assert fit.condition_number == math.inf

    def test_zero_design_has_rank_zero(self):
        fit = fit_multiple_regression(np.zeros((12, 10)), np.ones(12))
        assert (fit.rank, fit.condition_number) == (0, math.inf)
        assert np.all(fit.coeffs == 0.0)

    def test_min_norm_solution_reaches_row_space_targets(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((12, 10))
        X[:, 4] = X[:, 2]
        y = X @ rng.standard_normal(10)
        fit = fit_multiple_regression(X, y)
        assert np.max(np.abs(X @ fit.coeffs - y)) < 1e-8
        assert fit.rank == 9
        assert fit.condition_number == math.inf

    def test_residual_matches_noise_theory(self):
        # E[RSS] = sigma^2 (n - p), so residual RMS -> sigma sqrt((n-p)/n)
        rng = np.random.default_rng(24)
        n, p, sigma = 40, 10, 2.0
        ratios = []
        for _ in range(100):
            X = rng.standard_normal((n, p))
            y = X @ rng.standard_normal(p) + sigma * rng.standard_normal(n)
            fit = fit_multiple_regression(X, y)
            ratios.append(fit.residual_rms / (sigma * np.sqrt((n - p) / n)))
        assert abs(np.mean(ratios) - 1.0) < 0.2

    def test_ridge_handles_rank_deficiency_and_shrinks(self):
        rng = np.random.default_rng(25)
        X = rng.standard_normal((12, 10))
        X[:, 4] = X[:, 2]
        y = rng.standard_normal(12)
        fit = fit_multiple_regression(X, y, ridge_lambda=1.0)
        assert np.all(np.isfinite(fit.coeffs))
        X_full = rng.standard_normal((20, 10))
        y_full = rng.standard_normal(20)
        ols = fit_multiple_regression(X_full, y_full)
        ridge = fit_multiple_regression(X_full, y_full, ridge_lambda=100.0)
        assert np.linalg.norm(ridge.coeffs) < np.linalg.norm(ols.coeffs)

    def test_input_validation(self):
        rng = np.random.default_rng(26)
        with pytest.raises(PcgKitError, match="need rows >= columns"):
            fit_multiple_regression(rng.standard_normal((5, 10)),
                                    rng.standard_normal(5))
        for X, y in ((rng.standard_normal((12, 10)), rng.standard_normal(11)),
                     (rng.standard_normal(12), rng.standard_normal(12)),
                     (rng.standard_normal((12, 10)),
                      rng.standard_normal((12, 1)))):
            with pytest.raises(PcgKitError,
                               match=r"X must be \(n, p\) and y \(n,\)"):
                fit_multiple_regression(X, y)
        X = rng.standard_normal((12, 10))
        y = rng.standard_normal(12)
        X_nan, y_nan = X.copy(), y.copy()
        X_nan[0, 0] = y_nan[0] = np.nan
        for args in ((X_nan, y), (X, y_nan)):
            with pytest.raises(PcgKitError, match="design matrix and "
                                                  "targets must be finite"):
                fit_multiple_regression(*args)


def cohort_dataset(seed=3, sbp_noise_sd=0.0, dbp_noise_sd=0.0):
    cohort = generate_cohort(n_subjects=15, seed=seed,
                             sbp_noise_sd=sbp_noise_sd,
                             dbp_noise_sd=dbp_noise_sd)
    return [(cs.features, cs.sbp_ref, cs.dbp_ref) for cs in cohort]


class TestFitCoefficients:

    def test_noiseless_cohort_fitted_exactly_by_default(self):
        data = cohort_dataset()
        coeffs, fit_s, fit_d = fit_coefficients(data)
        assert coeffs.unit_convention is UnitConvention.SECONDS
        assert fit_s.residual_rms < 1e-8 and fit_d.residual_rms < 1e-8
        for features, sbp, dbp in data:
            assert predict_sbp(features, coeffs) == pytest.approx(sbp,
                                                                  abs=1e-6)
            assert predict_dbp(features, coeffs) == pytest.approx(dbp,
                                                                  abs=1e-6)


class TestLoocv:

    def test_noiseless_cohort_recovered_exactly(self):
        report = loocv_subjectwise(cohort_dataset())
        assert report.sbp_mae < 1e-6
        assert report.dbp_mae < 1e-6
        assert report.sbp_rmse < 1e-6
        assert len(report.predictions) == 15

    def test_ordering_invariance(self):
        data = cohort_dataset(seed=4)
        fwd = loocv_subjectwise(data)
        rev = loocv_subjectwise(list(reversed(data)))
        n = len(data)
        for i, sbp_f, dbp_f, _, _ in fwd.predictions:
            j = n - 1 - i
            _, sbp_r, dbp_r, _, _ = rev.predictions[j]
            assert sbp_r == pytest.approx(sbp_f, abs=1e-9)
            assert dbp_r == pytest.approx(dbp_f, abs=1e-9)
        assert rev.sbp_mae == pytest.approx(fwd.sbp_mae, abs=1e-9)

    def test_noisy_cohort_out_of_sample_worse(self):
        report = loocv_subjectwise(cohort_dataset(seed=5, sbp_noise_sd=6.0,
                                                  dbp_noise_sd=5.0))
        assert report.sbp_rmse > report.insample_sbp_rmse
        assert report.dbp_rmse > report.insample_dbp_rmse

    def test_too_few_subjects_raises(self):
        with pytest.raises(PcgKitError, match="fitting needs >= 12 subjects"):
            loocv_subjectwise(cohort_dataset()[:11])


def frame(t_sys=0.3, hr_bpm=72.0):
    seg = CycleSegmentation(peaks=(), t_sys=t_sys, t_dias=0.5, t_rs1=0.04,
                            t_ds1=0.05, t_rd2=0.045, t_dd2=0.055, n_cycles=4)
    est = HrEstimate(hr_bpm)
    return seg, est


class TestExtractSubjectFeatures:

    def test_identical_frames_equal_single_frame(self):
        result = extract_subject_features([frame(), frame(), frame()])
        assert result.features.t_sys == pytest.approx(0.3)
        assert result.features.hr_pcg == pytest.approx(72.0)
        assert result.n_used == 3
        assert result.n_excluded == 0

    def test_two_frames_average(self):
        result = extract_subject_features([frame(t_sys=0.30),
                                           frame(t_sys=0.32)])
        assert result.features.t_sys == pytest.approx(0.31, abs=1e-12)

    def test_drifting_rate_averages(self):
        frames = [frame(hr_bpm=60.0 + 2.0 * k) for k in range(4)]
        result = extract_subject_features(frames)
        assert abs(result.features.hr_pcg - 63.0) <= 1.0

    def test_rejected_frames_are_counted(self):
        seg, _ = frame()
        bad_hr = (seg, HrEstimate(300.0, flags=("out_of_range",)))
        bad_seg = (CycleSegmentation(peaks=(), t_sys=0.0, t_dias=0.5,
                                     t_rs1=0.04, t_ds1=0.05, t_rd2=0.045,
                                     t_dd2=0.055, n_cycles=1),
                   HrEstimate(72.0))
        result = extract_subject_features([frame(), bad_hr, bad_seg])
        assert result.n_used == 1
        assert result.n_excluded == 2

    def test_any_flagged_frame_stays_out_of_the_average(self):
        seg, _ = frame(t_sys=0.40)
        flagged = (seg, HrEstimate(72.0, flags=("period_mismatch",)))
        result = extract_subject_features([frame(t_sys=0.30), flagged])
        assert (result.n_used, result.n_excluded) == (1, 1)
        assert result.features.t_sys == 0.30

    def test_no_valid_frames_raises(self):
        seg, _ = frame()
        bad = (seg, HrEstimate(300.0, flags=("out_of_range",)))
        with pytest.raises(PcgKitError,
                           match="frames failed the validity screen"):
            extract_subject_features([bad, bad])
