"""Semi-empirical blood-pressure regression on PCG timing features.

Both pressures are affine in ten coefficients over an expanded feature
row (linear terms, heart rate and its square, two squared durations, one
duration interaction). There is no built-in coefficient set: one is
fitted to labeled subjects, and subject-wise leave-one-out
cross-validation measures how such a fit does out of sample.

Time features are handled under an explicit unit convention (seconds by
default, milliseconds optional). Coefficient values only make sense under
the convention they were fitted under, so a coefficient set carries it.
"""

import enum
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import PcgKitError
from .evaluation import error_metrics
from .io import is_json_number

__all__ = [
    "UnitConvention", "PcgFeatureVector", "BpCoefficients", "BpPrediction",
    "FitResult", "LoocvReport", "SubjectFeatures", "design_row_sbp",
    "design_row_dbp", "predict_sbp", "predict_dbp", "predict_pair",
    "fit_multiple_regression", "loocv_subjectwise",
    "extract_subject_features",
]

SBP_PLAUSIBLE = (60.0, 220.0)
DBP_PLAUSIBLE = (30.0, 140.0)
N_COEFFS_PER_SIDE = 10


class UnitConvention(enum.Enum):
    SECONDS = "s"
    MILLISECONDS = "ms"


@dataclass(frozen=True)
class PcgFeatureVector:
    """The eight averaged timing features plus PCG heart rate, in seconds.

    ``t_s1`` and ``t_s2`` are derived, so the sum identities hold by
    construction.
    """

    t_sys: float
    t_dias: float
    t_rs1: float
    t_ds1: float
    t_rd2: float
    t_dd2: float
    hr_pcg: float

    def __post_init__(self):
        # Zero is allowed so the intercept-only evaluation is expressible;
        # upstream extraction screens out non-positive measured durations.
        for f in dataclass_fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v) or v < 0:
                raise PcgKitError(
                    f"feature {f.name} must be nonnegative and finite, got {v}")

    @property
    def t_s1(self):
        return self.t_rs1 + self.t_ds1

    @property
    def t_s2(self):
        return self.t_rd2 + self.t_dd2


# The six measured durations, in field order (hr_pcg comes last).
_DURATIONS = tuple(f.name for f in dataclass_fields(PcgFeatureVector))[:-1]


@dataclass(frozen=True)
class BpCoefficients:
    """Twenty regression coefficients plus the unit convention they assume.

    The SBP side comes first, then the DBP side, each in design-row term
    order.
    """

    c1: float
    sigma_sys: float
    sigma_rs1: float
    sigma_ds1: float
    sigma_s1: float
    sigma_s_hr: float
    sigma_s_hr2: float
    sigma_sys2: float
    sigma_s12: float
    sigma_rds1: float
    c2: float
    alpha_dias: float
    alpha_rd2: float
    alpha_dd2: float
    alpha_s2: float
    alpha_d_hr: float
    alpha_d_hr2: float
    alpha_dias2: float
    alpha_s22: float
    alpha_rdd2: float
    unit_convention: UnitConvention = UnitConvention.SECONDS

    def __post_init__(self):
        for name in _SBP_FIELDS + _DBP_FIELDS:
            if not np.isfinite(getattr(self, name)):
                raise PcgKitError(f"coefficient {name} is not finite")

    def sbp_vector(self):
        return np.array([getattr(self, f) for f in _SBP_FIELDS])

    def dbp_vector(self):
        return np.array([getattr(self, f) for f in _DBP_FIELDS])

    def to_json_dict(self):
        d = {f: getattr(self, f) for f in _SBP_FIELDS + _DBP_FIELDS}
        d["unit_convention"] = self.unit_convention.value
        return d

    @classmethod
    def from_json_dict(cls, d):
        """Inverse of :meth:`to_json_dict`; a key it does not write is refused.

        Raises
        ------
        PcgKitError
            If an entry is missing, not a number, or unknown.
        """
        def number(f):
            # float() would pass True as 1.0 and "1.5" as 1.5
            if not is_json_number(d[f]):
                raise TypeError(f"{f} must be a number, got {d[f]!r}")
            return float(d[f])

        try:
            kwargs = {f: number(f) for f in _SBP_FIELDS + _DBP_FIELDS}
            convention = UnitConvention(d["unit_convention"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PcgKitError(
                f"coefficient entry missing or invalid: {exc}") from None
        unknown = sorted(set(d) - set(_FIELD_NAMES))
        if unknown:
            raise PcgKitError(
                f"unknown coefficient entries: {', '.join(unknown)}")
        return cls(unit_convention=convention, **kwargs)


# The coefficient fields, then unit_convention.
_FIELD_NAMES = tuple(f.name for f in dataclass_fields(BpCoefficients))
_SBP_FIELDS = _FIELD_NAMES[:N_COEFFS_PER_SIDE]
_DBP_FIELDS = _FIELD_NAMES[N_COEFFS_PER_SIDE:2 * N_COEFFS_PER_SIDE]


def _design_row(unit_convention, hr, *times):
    """Ten terms of one side; ``times`` are its interval, rise, decay, sound."""
    ms = UnitConvention(unit_convention) is UnitConvention.MILLISECONDS
    k = 1000.0 if ms else 1.0
    t, t_r, t_d, t_sound = (k * v for v in times)
    return np.array([1.0, t, t_r, t_d, t_sound, hr, hr * hr,
                     t * t, t_sound * t_sound, t_r * t_d])


def design_row_sbp(f, unit_convention=UnitConvention.SECONDS):
    """Expanded systolic-side regression row for one feature vector."""
    return _design_row(unit_convention, f.hr_pcg,
                       f.t_sys, f.t_rs1, f.t_ds1, f.t_s1)


def design_row_dbp(f, unit_convention=UnitConvention.SECONDS):
    """Expanded diastolic-side regression row for one feature vector."""
    return _design_row(unit_convention, f.hr_pcg,
                       f.t_dias, f.t_rd2, f.t_dd2, f.t_s2)


def _checked(value, what):
    if not np.isfinite(value):
        raise PcgKitError(f"{what} evaluated to a non-finite value")
    return float(value)


def predict_sbp(f, coeffs):
    """Systolic pressure in mmHg for one feature vector."""
    row = design_row_sbp(f, coeffs.unit_convention)
    return _checked(row @ coeffs.sbp_vector(), "SBP")


def predict_dbp(f, coeffs):
    """Diastolic pressure in mmHg for one feature vector."""
    row = design_row_dbp(f, coeffs.unit_convention)
    return _checked(row @ coeffs.dbp_vector(), "DBP")


@dataclass(frozen=True)
class BpPrediction:
    """Paired pressure estimate with plausibility flags."""

    sbp: float
    dbp: float
    flags: tuple = ()


def predict_pair(f, coeffs):
    sbp = predict_sbp(f, coeffs)
    dbp = predict_dbp(f, coeffs)
    flags = []
    if not SBP_PLAUSIBLE[0] <= sbp <= SBP_PLAUSIBLE[1]:
        flags.append("sbp_implausible")
    if not DBP_PLAUSIBLE[0] <= dbp <= DBP_PLAUSIBLE[1]:
        flags.append("dbp_implausible")
    return BpPrediction(sbp, dbp, tuple(flags))


@dataclass(frozen=True)
class FitResult:
    """Least-squares solution with conditioning diagnostics."""

    coeffs: np.ndarray
    residual_rms: float
    condition_number: float
    rank: int


def fit_multiple_regression(X, y, ridge_lambda=0.0):
    """Ordinary (or ridge) least squares via orthogonal decomposition.

    Parameters
    ----------
    X : ndarray, shape (n, p)
        Expanded design matrix, n >= p, all entries finite.
    y : ndarray, shape (n,)
        Targets in mmHg.
    ridge_lambda : float
        Tikhonov strength; 0 gives plain least squares.

    A rank-deficient design gets the minimum-norm least-squares solution,
    which still reproduces every target reachable from the row space, as
    cross-validation on structurally collinear features needs. Its
    ``rank`` and ``condition_number`` (infinite) report the deficiency.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != len(y):
        raise PcgKitError("X must be (n, p) and y (n,) with matching n")
    n, p = X.shape
    if n < p:
        raise PcgKitError(f"need rows >= columns, got {n} x {p}")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise PcgKitError("design matrix and targets must be finite")
    sv = np.linalg.svd(X, compute_uv=False)
    tol = sv[0] * max(n, p) * np.finfo(np.float64).eps
    rank = int(np.sum(sv > tol))
    cond = float(sv[0] / sv[-1]) if sv[-1] > tol else float("inf")
    if ridge_lambda > 0:
        X_aug = np.vstack([X, np.sqrt(ridge_lambda) * np.eye(p)])
        y_aug = np.concatenate([y, np.zeros(p)])
        beta = np.linalg.lstsq(X_aug, y_aug, rcond=None)[0]
    else:
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
    residual_rms = float(np.sqrt(np.mean((X @ beta - y) ** 2)))
    return FitResult(beta, residual_rms, cond, rank)


def _design(dataset, unit_convention):
    """``(X_sbp, X_dbp, y_sbp, y_dbp)`` for nonempty labeled rows."""
    features, sbp, dbp = zip(*dataset)
    return (np.array([design_row_sbp(f, unit_convention) for f in features]),
            np.array([design_row_dbp(f, unit_convention) for f in features]),
            np.array(sbp, dtype=np.float64), np.array(dbp, dtype=np.float64))


def fit_coefficients(dataset, unit_convention=UnitConvention.SECONDS,
                     ridge_lambda=0.0):
    """Fit both pressure models on ``(features, sbp_ref, dbp_ref)`` rows.

    Returns the :class:`BpCoefficients` under ``unit_convention``, then
    the SBP and the DBP :class:`FitResult`. A rank-deficient design gets
    the minimum-norm solution. Raises a PcgKitError with fewer than 12
    rows (10 coefficients per side plus 2).
    """
    minimum = N_COEFFS_PER_SIDE + 2
    if len(dataset) < minimum:
        raise PcgKitError(
            f"fitting needs >= {minimum} subjects with references, "
            f"got {len(dataset)}")
    X_sbp, X_dbp, y_sbp, y_dbp = _design(dataset, unit_convention)
    fit_s = fit_multiple_regression(X_sbp, y_sbp, ridge_lambda)
    fit_d = fit_multiple_regression(X_dbp, y_dbp, ridge_lambda)
    coeffs = BpCoefficients(*fit_s.coeffs, *fit_d.coeffs,
                            unit_convention=UnitConvention(unit_convention))
    return coeffs, fit_s, fit_d


@dataclass(frozen=True)
class LoocvReport:
    """Out-of-sample errors from subject-wise leave-one-out fitting."""

    sbp_mae: float
    sbp_rmse: float
    dbp_mae: float
    dbp_rmse: float
    insample_sbp_rmse: float
    insample_dbp_rmse: float
    predictions: tuple  # (index, predicted sbp, predicted dbp, ref sbp, ref dbp)


def loocv_subjectwise(dataset, unit_convention=UnitConvention.SECONDS,
                      ridge_lambda=0.0):
    """Leave-one-subject-out cross-validation of both pressure models.

    Parameters
    ----------
    dataset : sequence of (PcgFeatureVector, sbp_ref, dbp_ref)
    unit_convention : UnitConvention
        Convention for the design rows.
    ridge_lambda : float
        Passed to each fold's fit.

    Returns
    -------
    LoocvReport

    Raises
    ------
    PcgKitError
        As :func:`fit_coefficients`, whose full fit gives the in-sample
        errors.
    """
    _, full_s, full_d = fit_coefficients(dataset, unit_convention,
                                         ridge_lambda)
    X_sbp, X_dbp, y_sbp, y_dbp = _design(dataset, unit_convention)
    n = len(dataset)
    preds = []
    for i in range(n):
        keep = np.arange(n) != i
        fit_s = fit_multiple_regression(X_sbp[keep], y_sbp[keep],
                                        ridge_lambda)
        fit_d = fit_multiple_regression(X_dbp[keep], y_dbp[keep],
                                        ridge_lambda)
        preds.append((i, float(X_sbp[i] @ fit_s.coeffs),
                      float(X_dbp[i] @ fit_d.coeffs),
                      float(y_sbp[i]), float(y_dbp[i])))
    _, pred_s, pred_d, ref_s, ref_d = zip(*preds)
    err_s, err_d = error_metrics(pred_s, ref_s), error_metrics(pred_d, ref_d)
    return LoocvReport(
        sbp_mae=err_s.mae, sbp_rmse=err_s.rmse,
        dbp_mae=err_d.mae, dbp_rmse=err_d.rmse,
        insample_sbp_rmse=full_s.residual_rms,
        insample_dbp_rmse=full_d.residual_rms,
        predictions=tuple(preds))


@dataclass(frozen=True)
class SubjectFeatures:
    """Per-subject feature average plus how many frames contributed."""

    features: PcgFeatureVector
    n_used: int
    n_excluded: int


def extract_subject_features(per_frame):
    """Average per-frame timing features into one subject vector.

    Parameters
    ----------
    per_frame : sequence of (CycleSegmentation, HrEstimate)
        Frames whose heart rate fell outside the physiologic acceptance
        band, or whose intervals are non-positive, are excluded and
        counted rather than averaged in.

    Raises
    ------
    PcgKitError
        If no frame survives the validity screen.
    """
    rows = []
    excluded = 0
    for seg, hr in per_frame:
        durations = tuple(getattr(seg, n) for n in _DURATIONS)
        if not hr.accepted or any(d <= 0 for d in durations):
            excluded += 1
            continue
        rows.append(durations + (hr.bpm,))
    if not rows:
        raise PcgKitError(
            f"all {excluded} frames failed the validity screen")
    features = PcgFeatureVector(*np.mean(np.array(rows, dtype=np.float64),
                                         axis=0))
    return SubjectFeatures(features, len(rows), excluded)
