"""Synthetic PCG/ECG generator with exact ground truth.

Heart sounds are Gaussian-windowed sinusoid bursts (optionally with
different rise and decay widths), the ECG is a train of narrow biphasic
spikes over slow baseline wander, and every timing quantity the analysis
pipeline is supposed to recover is available in closed form. Fixed seeds
give bit-identical output, so emitted fixtures double as regression
anchors.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .bp import BpCoefficients, PcgFeatureVector, predict_dbp, predict_sbp
from .core import MAX_SAMPLES, PCG_RATE_HZ, SampledSignal
from .errors import PcgKitError
from .hr import HR_MAX_BPM, HR_MIN_BPM
from .quality import peak_windows
from .segmentation import BASELINE_FRAC

__all__ = [
    "SynthSpec", "PcgGroundTruth", "true_features", "generate_pcg",
    "generate_ecg", "default_cohort_coefficients", "CohortRanges",
    "CohortSubject", "generate_cohort",
]

# Rise/decay of a Gaussian burst in units of sigma, at the segmentation
# baseline, so analytic truth and measurement line up.
_K15 = math.sqrt(2.0 * math.log(1.0 / BASELINE_FRAC))
# Largest signal-to-noise magnitude a spec may ask for, in dB. The noise
# scale is 10 ** (snr_db / 10), which overflows past about +3080 dB and
# underflows to zero below about -3230 dB.
MAX_SNR_DB = 300.0


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters for one synthetic subject.

    ``s*_decay_ratio`` widens (or narrows) the decay side of each burst
    relative to its rise side, which decorrelates rise and decay features
    across a cohort. ``snr_db = None`` means noiseless; otherwise it is
    finite and within ``MAX_SNR_DB`` of 0. ``jitter_ms`` is finite and
    non-negative, and ``seed`` a non-negative integer.
    """

    hr_bpm: float = 75.0
    t_sys_s: float = 0.3
    s1_freq_hz: float = 60.0
    s2_freq_hz: float = 90.0
    s1_sigma_ms: float = 12.0
    s2_sigma_ms: float = 10.0
    s1_decay_ratio: float = 1.0
    s2_decay_ratio: float = 1.0
    s2_rel_amp: float = 0.6
    jitter_ms: float = 0.0
    snr_db: float = None
    duration_s: float = 10.0
    rate_hz: float = PCG_RATE_HZ
    ecg_rate_hz: float = 190.0
    pr_offset_s: float = 0.040
    seed: int = 0

    def __post_init__(self):
        if not HR_MIN_BPM <= self.hr_bpm <= HR_MAX_BPM:
            raise PcgKitError(f"hr_bpm {self.hr_bpm} outside "
                              f"{HR_MIN_BPM:g}..{HR_MAX_BPM:g}")
        if not 0 < self.t_sys_s < 60.0 / self.hr_bpm:
            raise PcgKitError(
                f"t_sys_s {self.t_sys_s} must be inside (0, one cycle)")
        if not 0 <= self.pr_offset_s < 60.0 / self.hr_bpm:
            raise PcgKitError(
                f"pr_offset_s {self.pr_offset_s} must be inside [0, one cycle)")
        if not 0 < self.s2_rel_amp <= 1:
            raise PcgKitError("s2_rel_amp must be in (0, 1]")
        for name in ("s1_freq_hz", "s2_freq_hz", "s1_sigma_ms", "s2_sigma_ms",
                     "s1_decay_ratio", "s2_decay_ratio", "duration_s",
                     "rate_hz", "ecg_rate_hz"):
            if not 0 < getattr(self, name) < math.inf:
                raise PcgKitError(f"{name} must be positive and finite")
        if not 0 <= self.jitter_ms < math.inf:
            raise PcgKitError(
                f"jitter_ms must be finite and >= 0, got {self.jitter_ms}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise PcgKitError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if self.snr_db is not None and not abs(self.snr_db) <= MAX_SNR_DB:
            raise PcgKitError(
                f"snr_db must be None or within +-{MAX_SNR_DB:g} dB, "
                f"got {self.snr_db}")
        for name in ("rate_hz", "ecg_rate_hz"):
            if self.duration_s * getattr(self, name) > MAX_SAMPLES:
                raise PcgKitError(
                    f"duration_s {self.duration_s:g} at {name} "
                    f"{getattr(self, name):g} needs more than {MAX_SAMPLES} "
                    f"samples")


@dataclass(frozen=True)
class PcgGroundTruth:
    """Event times and nominal intervals behind a generated PCG."""

    s1_times: tuple
    s2_times: tuple
    t_sys: float
    t_dias: float
    hr_bpm: float


def true_features(spec):
    """Closed-form timing features implied by a spec.

    Burst envelope crossings at ``BASELINE_FRAC`` of peak height give
    rise and decay times of ``sigma * sqrt(2 ln(1/frac))`` per side.
    """
    period = 60.0 / spec.hr_bpm
    rs1 = spec.s1_sigma_ms / 1000.0 * _K15
    rd2 = spec.s2_sigma_ms / 1000.0 * _K15
    return PcgFeatureVector(
        t_sys=spec.t_sys_s,
        t_dias=period - spec.t_sys_s,
        t_rs1=rs1,
        t_ds1=rs1 * spec.s1_decay_ratio,
        t_rd2=rd2,
        t_dd2=rd2 * spec.s2_decay_ratio,
        hr_pcg=spec.hr_bpm)


def _event_times(spec, rng):
    """Jittered S1/S2 center times; draw order is fixed for determinism."""
    period = 60.0 / spec.hr_bpm
    jitter_s = spec.jitter_ms / 1000.0
    s1, s2 = [], []
    cycle_start = 0.0
    while cycle_start < spec.duration_s:
        j1 = rng.normal(0.0, jitter_s) if jitter_s > 0 else 0.0
        j2 = rng.normal(0.0, jitter_s) if jitter_s > 0 else 0.0
        t1 = cycle_start + j1
        t2 = cycle_start + spec.t_sys_s + j2
        if 0 <= t1 < spec.duration_s:
            s1.append(t1)
        if 0 <= t2 < spec.duration_s:
            s2.append(t2)
        cycle_start += period
    return s1, s2


def _add_burst(x, rate, center_s, freq, amp, sigma_s, decay_ratio):
    """Accumulate one windowed sinusoid in place, on a local slice."""
    width = 6.0 * sigma_s * max(1.0, decay_ratio)
    lo = max(0, int(math.floor((center_s - width) * rate)))
    hi = min(len(x), int(math.ceil((center_s + width) * rate)) + 1)
    if lo >= hi:
        return
    t = np.arange(lo, hi) / rate - center_s
    sigma = np.where(t < 0, sigma_s, sigma_s * decay_ratio)
    x[lo:hi] += amp * np.cos(2 * np.pi * freq * t) * np.exp(-0.5 * (t / sigma) ** 2)


def generate_pcg(spec):
    """Synthesize one PCG recording.

    Returns
    -------
    (SampledSignal, PcgGroundTruth)
        Noise, when requested, is white Gaussian scaled so the power
        ratio between the ``quality.peak_windows`` of the events and the
        rest matches ``spec.snr_db``.
    """
    rng = np.random.default_rng(spec.seed)
    s1_times, s2_times = _event_times(spec, rng)
    n = int(round(spec.duration_s * spec.rate_hz))
    x = np.zeros(n)
    for tc in s1_times:
        _add_burst(x, spec.rate_hz, tc, spec.s1_freq_hz, 1.0,
                   spec.s1_sigma_ms / 1000.0, spec.s1_decay_ratio)
    for tc in s2_times:
        _add_burst(x, spec.rate_hz, tc, spec.s2_freq_hz, spec.s2_rel_amp,
                   spec.s2_sigma_ms / 1000.0, spec.s2_decay_ratio)
    if spec.snr_db is not None:
        mask = peak_windows(n, spec.rate_hz, s1_times + s2_times)
        # an empty mask means no event fell inside, so x is all zeros
        p_signal = float(np.mean(x[mask] ** 2)) if mask.any() else 0.0
        noise_sd = math.sqrt(p_signal / 10 ** (spec.snr_db / 10.0))
        x = x + rng.normal(0.0, noise_sd, n)
    period = 60.0 / spec.hr_bpm
    truth = PcgGroundTruth(tuple(s1_times), tuple(s2_times), spec.t_sys_s,
                           period - spec.t_sys_s, spec.hr_bpm)
    signal = SampledSignal(x, spec.rate_hz)
    return signal, truth


def generate_ecg(spec):
    """Synthesize the matching ECG.

    R spikes are second-derivative-of-Gaussian pulses placed
    ``spec.pr_offset_s`` before each S1 (an R preceding time zero is
    dropped), riding on a 0.3 Hz baseline wander sinusoid that exercises
    detrending. Noise, when requested, is scaled against the spike-train
    power.

    Returns
    -------
    (SampledSignal, tuple)
        The signal and the R-peak times actually placed.
    """
    rng = np.random.default_rng(spec.seed)
    s1_times, _ = _event_times(spec, rng)
    r_times = [t - spec.pr_offset_s for t in s1_times if t - spec.pr_offset_s >= 0]
    n = int(round(spec.duration_s * spec.ecg_rate_hz))
    t = np.arange(n) / spec.ecg_rate_hz
    spikes = np.zeros(n)
    width = 0.010  # QRS-like half-width in seconds
    for r in r_times:
        u = (t - r) / width
        local = np.abs(u) < 6
        spikes[local] += (1.0 - u[local] ** 2) * np.exp(-0.5 * u[local] ** 2)
    wander = 0.15 * np.sin(2 * np.pi * 0.3 * t + 0.5)
    x = spikes + wander
    if spec.snr_db is not None:
        p_spikes = float(np.mean(spikes ** 2))
        noise_sd = math.sqrt(p_spikes / 10 ** (spec.snr_db / 10.0))
        x = x + rng.normal(0.0, noise_sd, n)
    signal = SampledSignal(x, spec.ecg_rate_hz)
    return signal, tuple(r_times)


def default_cohort_coefficients():
    """Plausible resting-pressure coefficient set for cohort ground truth.

    Chosen so that, over the default sampling ranges, systolic targets
    land near 105..120 mmHg and diastolic near 68..80 mmHg with systolic
    strictly above diastolic.
    """
    return BpCoefficients(
        c1=100.0, sigma_sys=-40.0, sigma_rs1=60.0, sigma_ds1=55.0,
        sigma_s1=-20.0, sigma_s_hr=0.25, sigma_s_hr2=-8e-4,
        sigma_sys2=30.0, sigma_s12=50.0, sigma_rds1=-45.0,
        c2=60.0, alpha_dias=10.0, alpha_rd2=30.0, alpha_dd2=25.0,
        alpha_s2=-15.0, alpha_d_hr=0.12, alpha_d_hr2=-3e-4,
        alpha_dias2=-5.0, alpha_s22=40.0, alpha_rdd2=-30.0)


@dataclass(frozen=True)
class CohortRanges:
    """Uniform sampling ranges for per-subject spec parameters.

    Each field is named after the :class:`SynthSpec` field it samples.
    """

    hr_bpm: tuple = (55.0, 95.0)
    t_sys_s: tuple = (0.25, 0.36)
    s1_sigma_ms: tuple = (9.0, 14.0)
    s2_sigma_ms: tuple = (7.0, 12.0)
    s1_decay_ratio: tuple = (0.8, 1.4)
    s2_decay_ratio: tuple = (0.8, 1.4)
    s2_rel_amp: tuple = (0.4, 0.8)


@dataclass(frozen=True)
class CohortSubject:
    """One synthetic subject: spec, exact features, and pressure targets."""

    subject_id: str
    spec: SynthSpec
    features: PcgFeatureVector
    sbp_ref: float
    dbp_ref: float


def generate_cohort(n_subjects=15, ranges=None, coeffs=None,
                    sbp_noise_sd=0.0, dbp_noise_sd=0.0, seed=0,
                    duration_s=60.0, jitter_ms=2.0, snr_db=25.0):
    """Sample a cohort with feature-consistent pressure targets.

    Pressure references are the coefficient model evaluated on each
    subject's exact features plus optional Gaussian noise, so a zero
    noise cohort is perfectly explainable by the generating model. The
    audio-level jitter and noise do not perturb the targets.

    Returns
    -------
    list of CohortSubject

    Raises
    ------
    PcgKitError
        ``n_subjects`` below 1, a negative ``seed``, ``sbp_noise_sd``,
        ``dbp_noise_sd`` or ``jitter_ms``, or a range whose low end is
        above its high end or whose width is not finite; checked before
        anything is drawn.
    """
    ranges = ranges or CohortRanges()
    coeffs = coeffs or default_cohort_coefficients()
    if not n_subjects >= 1:
        raise PcgKitError(f"n_subjects must be >= 1, got {n_subjects}")
    for name, value in (("seed", seed), ("sbp_noise_sd", sbp_noise_sd),
                        ("dbp_noise_sd", dbp_noise_sd),
                        ("jitter_ms", jitter_ms)):
        if not value >= 0:
            raise PcgKitError(f"{name} must be >= 0, got {value}")
    for f in fields(ranges):
        low, high = getattr(ranges, f.name)
        if not 0 <= high - low < math.inf:
            raise PcgKitError(
                f"ranges.{f.name} must be finite with low <= high, "
                f"got {[low, high]}")
    rng = np.random.default_rng(seed)
    subjects = []
    for i in range(n_subjects):
        # one uniform draw per CohortRanges field, in field order
        spec = SynthSpec(
            **{f.name: float(rng.uniform(*getattr(ranges, f.name)))
               for f in fields(ranges)},
            jitter_ms=jitter_ms,
            snr_db=snr_db,
            duration_s=duration_s,
            seed=int(rng.integers(0, 2 ** 31)))
        features = true_features(spec)
        sbp = predict_sbp(features, coeffs) + (
            rng.normal(0.0, sbp_noise_sd) if sbp_noise_sd > 0 else 0.0)
        dbp = predict_dbp(features, coeffs) + (
            rng.normal(0.0, dbp_noise_sd) if dbp_noise_sd > 0 else 0.0)
        subjects.append(CohortSubject(
            subject_id=f"s{i + 1:02d}", spec=spec, features=features,
            sbp_ref=float(sbp), dbp_ref=float(dbp)))
    return subjects
