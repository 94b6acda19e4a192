"""Agreement statistics between paired estimates and references.

Pearson correlation, frame-wise error metrics, subject-first cohort
aggregation, and Bland-Altman limits of agreement. All quantities use the
sample (n-1) standard deviation so results are deterministic and
comparable across runs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PcgKitError, UndefinedCorrelationError

__all__ = [
    "pearson_r", "ErrorMetrics", "error_metrics", "subject_aggregate",
    "AgreementReport", "bland_altman",
]

# Fewest pairs an agreement analysis (and the hr report's block) needs.
MIN_AGREEMENT_PAIRS = 3


def _pair(x, y, min_n):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise PcgKitError("inputs must be equal-length 1-D sequences")
    if len(x) < min_n:
        raise PcgKitError(f"need at least {min_n} pairs, got {len(x)}")
    return x, y


def pearson_r(x, y):
    """Sample Pearson correlation coefficient.

    Raises
    ------
    UndefinedCorrelationError
        If either sequence has zero variance.
    """
    x, y = _pair(x, y, 2)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.dot(dx, dx))
    sy = np.sqrt(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("zero variance input")
    return float(np.dot(dx, dy) / (sx * sy))


@dataclass(frozen=True)
class ErrorMetrics:
    mae: float
    rmse: float
    bias_mean: float
    bias_sd: float


def error_metrics(pred, ref):
    """MAE, RMSE, mean bias, and sample SD of ``pred - ref``."""
    pred, ref = _pair(pred, ref, 2)
    d = pred - ref
    return ErrorMetrics(
        mae=float(np.mean(np.abs(d))),
        rmse=float(np.sqrt(np.mean(d ** 2))),
        bias_mean=float(np.mean(d)),
        bias_sd=float(np.std(d, ddof=1)))


def subject_aggregate(values_by_subject):
    """Subject-first cohort mean of a per-frame metric.

    Each subject's frame values are averaged first and the cohort value
    is the unweighted mean of those subject means, so a subject with many
    frames cannot dominate.

    Parameters
    ----------
    values_by_subject : mapping of subject id -> sequence of values

    Returns
    -------
    (float, dict)
        Cohort mean and the per-subject means.
    """
    if not values_by_subject:
        raise PcgKitError("no subjects to aggregate")
    subject_means = {}
    for subject, values in values_by_subject.items():
        values = np.asarray(values, dtype=np.float64)
        if len(values) == 0:
            raise PcgKitError(f"subject {subject} has no values")
        subject_means[subject] = float(values.mean())
    cohort = float(np.mean(list(subject_means.values())))
    return cohort, subject_means


@dataclass(frozen=True)
class AgreementReport:
    """Correlation, errors, and limits of agreement for paired data.

    ``pearson_r`` is None when either side has zero variance.
    """

    pearson_r: float
    mae: float
    rmse: float
    bias_mean: float
    bias_sd: float
    loa_low: float
    loa_high: float
    within_loa_frac: float
    n: int


def bland_altman(pred, ref):
    """Agreement analysis of paired measurements.

    Returns
    -------
    (AgreementReport, ndarray, ndarray)
        The report plus the scatter series: per-pair means and
        differences, for plotting difference against magnitude.
    """
    pred, ref = _pair(pred, ref, MIN_AGREEMENT_PAIRS)
    diffs = pred - ref
    means = (pred + ref) / 2.0
    em = error_metrics(pred, ref)
    loa_low = em.bias_mean - 1.96 * em.bias_sd
    loa_high = em.bias_mean + 1.96 * em.bias_sd
    within = float(np.mean((diffs >= loa_low) & (diffs <= loa_high)))
    try:
        r = pearson_r(pred, ref)
    except UndefinedCorrelationError:
        r = None
    report = AgreementReport(
        pearson_r=r, mae=em.mae, rmse=em.rmse, bias_mean=em.bias_mean,
        bias_sd=em.bias_sd, loa_low=loa_low, loa_high=loa_high,
        within_loa_frac=within, n=len(pred))
    return report, means, diffs

