"""Agreement statistics: correlation, error metrics, Bland-Altman.

Numeric oracles below were computed by hand (fractions, then float) and
frozen; none came from running the functions under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pcgkit import (
    PcgKitError,
    UndefinedCorrelationError,
    bland_altman,
    error_metrics,
    pearson_r,
    subject_aggregate,
)

# three-pair fixture: pred - ref = (2, -2, 1)
REF = (100.0, 110.0, 120.0)
PRED = (102.0, 108.0, 121.0)
MAE = 5.0 / 3.0
RMSE = math.sqrt(3.0)
BIAS = 1.0 / 3.0
BIAS_SD = 2.081665999466133  # sqrt(13/3)
LOA_LOW = -3.7467320256202874
LOA_HIGH = 4.413398692286954


class TestPearson:

    def test_exact_linear_is_one(self):
        x = np.arange(10, dtype=float)
        assert pearson_r(x, 2.0 * x + 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        x = np.arange(10, dtype=float)
        assert pearson_r(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_half_correlation_fixture(self):
        # cov = 0.5 * sx * sy for (1,2,3) against (1,3,2)
        r = pearson_r((1.0, 2.0, 3.0), (1.0, 3.0, 2.0))
        assert abs(r - 0.5) < 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(40)
        y = rng.standard_normal(40)
        base = pearson_r(x, y)
        assert abs(pearson_r(3.5 * x - 12.0, y) - base) < 1e-12
        assert abs(pearson_r(x, 0.01 * y + 400.0) - base) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(25)
        y = rng.standard_normal(25)
        assert pearson_r(x, y) == pearson_r(y, x)

    def test_zero_variance_raises(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson_r((5.0, 5.0, 5.0), (1.0, 2.0, 3.0))
        with pytest.raises(UndefinedCorrelationError):
            pearson_r((1.0, 2.0, 3.0), (7.0, 7.0, 7.0))

    def test_single_pair_raises(self):
        with pytest.raises(PcgKitError, match="need at least 2 pairs"):
            pearson_r((1.0,), (2.0,))

    def test_length_mismatch_raises(self):
        with pytest.raises(PcgKitError, match="equal-length"):
            pearson_r((1.0, 2.0), (1.0, 2.0, 3.0))

    def test_either_side_must_be_one_dimensional(self):
        column, row = [[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0]
        for x, y in ((column, row), (row, column)):
            with pytest.raises(PcgKitError, match="equal-length 1-D"):
                pearson_r(x, y)


class TestErrorMetrics:

    def test_hand_oracle(self):
        em = error_metrics(PRED, REF)
        assert abs(em.mae - MAE) < 1e-12
        assert abs(em.rmse - RMSE) < 1e-12
        assert abs(em.bias_mean - BIAS) < 1e-12
        assert abs(em.bias_sd - BIAS_SD) < 1e-12

    def test_identical_inputs_are_zero(self):
        em = error_metrics(REF, REF)
        assert em.mae == 0.0
        assert em.rmse == 0.0
        assert em.bias_mean == 0.0
        assert em.bias_sd == 0.0

    def test_constant_offset(self):
        ref = np.linspace(80.0, 140.0, 9)
        em = error_metrics(ref + 5.0, ref)
        assert em.bias_mean == pytest.approx(5.0, abs=1e-12)
        assert em.bias_sd == 0.0
        assert em.mae == pytest.approx(5.0, abs=1e-12)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(21)
        ref = rng.uniform(80.0, 140.0, size=60)
        pred = ref + rng.standard_normal(60) * 4.0
        em = error_metrics(pred, ref)
        assert em.rmse >= em.mae

    def test_length_mismatch_raises(self):
        with pytest.raises(PcgKitError, match="equal-length"):
            error_metrics((1.0, 2.0, 3.0), (1.0, 2.0))

    def test_two_pairs_suffice(self):
        em = error_metrics((1.0, 3.0), (0.0, 0.0))
        assert (em.mae, em.bias_mean) == (2.0, 2.0)
        assert em.rmse == pytest.approx(np.sqrt(5.0))
        assert em.bias_sd == pytest.approx(np.sqrt(2.0))


class TestSubjectAggregate:

    def test_subject_first_not_frame_first(self):
        # frame-weighted mean would be 14/3; subject-first gives 6
        cohort, per_subject = subject_aggregate({"a": [1.0, 3.0], "b": [10.0]})
        assert cohort == pytest.approx(6.0, abs=1e-12)
        assert per_subject == {"a": 2.0, "b": 10.0}

    def test_single_subject_passthrough(self):
        cohort, per_subject = subject_aggregate({"s": [4.0, 6.0, 8.0]})
        assert cohort == pytest.approx(6.0, abs=1e-12)
        assert per_subject["s"] == pytest.approx(6.0, abs=1e-12)

    def test_empty_mapping_raises(self):
        with pytest.raises(PcgKitError, match="no subjects to aggregate"):
            subject_aggregate({})

    # bounded so that no sum of up to 50 values overflows to inf or nan;
    # 8 or more subjects reach numpy's pairwise summation
    @given(st.lists(st.floats(min_value=-1e306, max_value=1e306),
                    min_size=1, max_size=50))
    def test_one_value_per_subject_is_exact(self, floats):
        # cmd_hr aggregates one value per subject; its report bytes rely on
        # this being exact, not approximate
        values = {f"s{i:02d}": v for i, v in enumerate(floats)}
        cohort, per_subject = subject_aggregate(
            {s: [v] for s, v in values.items()})
        assert per_subject == values
        assert cohort == float(np.mean(list(values.values())))

    def test_subject_with_no_frames_raises(self):
        with pytest.raises(PcgKitError, match="subject b has no values"):
            subject_aggregate({"a": [1.0], "b": []})


class TestBlandAltman:

    def test_hand_oracle(self):
        report, means, diffs = bland_altman(PRED, REF)
        assert abs(report.bias_mean - BIAS) < 1e-12
        assert abs(report.bias_sd - BIAS_SD) < 1e-12
        assert abs(report.loa_low - LOA_LOW) < 1e-12
        assert abs(report.loa_high - LOA_HIGH) < 1e-12
        assert abs(report.pearson_r - 0.9781174678527766) < 1e-12
        assert report.n == 3
        assert np.array_equal(means, [101.0, 109.0, 120.5])
        assert np.array_equal(diffs, [2.0, -2.0, 1.0])

    def test_constant_offset_collapses_limits(self):
        ref = np.linspace(90.0, 130.0, 7)
        report, _, diffs = bland_altman(ref + 5.0, ref)
        assert report.bias_mean == pytest.approx(5.0, abs=1e-12)
        assert report.bias_sd == 0.0
        assert report.loa_low == report.loa_high == report.bias_mean
        assert report.within_loa_frac == 1.0
        assert np.all(diffs == 5.0)

    def test_gaussian_coverage_near_95(self):
        rng = np.random.default_rng(31)
        ref = rng.uniform(80.0, 160.0, size=500)
        pred = ref + rng.standard_normal(500) * 3.0
        report, _, _ = bland_altman(pred, ref)
        assert abs(report.within_loa_frac - 0.95) <= 0.02

    def test_constant_reference_reports_none_correlation(self):
        report, _, _ = bland_altman((4.0, 5.0, 6.0), (5.0, 5.0, 5.0))
        assert report.pearson_r is None
        assert report.bias_mean == 0.0
        assert report.bias_sd == pytest.approx(1.0, abs=1e-12)

    def test_fewer_than_three_pairs_raises(self):
        with pytest.raises(PcgKitError, match="need at least 3 pairs"):
            bland_altman((1.0, 2.0), (1.0, 2.0))

