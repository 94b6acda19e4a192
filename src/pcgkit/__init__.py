"""Batch phonocardiogram analysis toolkit.

Heart-sound denoising, envelope extraction, S1/S2 segmentation,
heart-rate estimation, semi-empirical blood-pressure regression, and
signal-quality reporting for recorded or synthesized PCG/ECG pairs.
"""

__version__ = "0.1.0"

from .bp import (
    BpCoefficients,
    BpPrediction,
    FitResult,
    LoocvReport,
    PcgFeatureVector,
    SubjectFeatures,
    UnitConvention,
    design_row_dbp,
    design_row_sbp,
    extract_subject_features,
    fit_multiple_regression,
    loocv_subjectwise,
    predict_dbp,
    predict_pair,
    predict_sbp,
)
from .core import (
    FramePlan,
    SampledSignal,
    SignalLabel,
    butterworth_lowpass_zero_phase,
    detrend,
    normalize_max_abs,
    resample_rational,
    segment_frames,
)
from .envelopes import (
    Envelope,
    EnvelopeMethod,
    compute_envelope,
    hilbert_envelope,
    shannon_energy_envelope,
    smooth,
    wes_envelope,
)
from .errors import (
    ConfigError,
    ContractViolationError,
    DecompositionDepthError,
    DegenerateCoverageError,
    DegenerateSignalError,
    EmptyDataError,
    IngestError,
    InsufficientCyclesError,
    InsufficientDataError,
    InsufficientPeaksError,
    InvalidCutoffError,
    InvalidGridError,
    InvalidInputError,
    InvalidSegmentationError,
    MissingFileError,
    NoValidFramesError,
    NumericOverflowError,
    ParseError,
    PcgKitError,
    RankDeficiencyError,
    StageError,
    TooShortError,
    UndefinedCorrelationError,
    UndefinedNormalizerError,
    UnsupportedEncodingError,
    UnsupportedRatioError,
)
from .evaluation import (
    AgreementReport,
    BoxStats,
    ErrorMetrics,
    bland_altman,
    box_stats,
    error_metrics,
    pearson_r,
    subject_aggregate,
)
from .hr import (
    HrEstimate,
    HrFormula,
    HrSource,
    PipelineResult,
    hr_from_ecg_frame,
    hr_from_pcg,
    hr_pipeline,
)
from .io import (
    SubjectRecord,
    load_dataset,
    load_subject_dir,
    read_ecg_text,
    read_wav_pcm16,
    write_csv_series,
    write_ecg_text,
    write_json_report,
    write_subject_dir,
    write_wav_pcm16,
)
from .quality import (
    FrameQuality,
    QualityReport,
    SnrResult,
    aggregate_quality,
    energy_spectrum,
    fft_band,
    frame_quality,
    mel_filterbank,
    mfcc,
    nrmse_wes_vs_es,
    snr_frame,
    spectrogram_stft,
)
from .segmentation import (
    CycleSegmentation,
    PeakEvent,
    PeakLabel,
    RiseDecayTimes,
    cycle_intervals,
    detect_peaks,
    find_envelope_peaks,
    label_s1_s2,
    rise_decay_times,
    segment,
)
from .synth import (
    CohortRanges,
    CohortSubject,
    PcgGroundTruth,
    SynthSpec,
    default_cohort_coefficients,
    generate_cohort,
    generate_ecg,
    generate_pcg,
    true_features,
)
from .wavelets import (
    ScaleGrid,
    WaveletKind,
    cwt,
    dwt_denoise_db4,
    sample_wavelet,
    wes,
)

__all__ = [
    "__version__",
    # core
    "SampledSignal", "SignalLabel", "FramePlan", "detrend",
    "normalize_max_abs", "resample_rational", "segment_frames",
    "butterworth_lowpass_zero_phase",
    # wavelets
    "WaveletKind", "ScaleGrid", "cwt", "dwt_denoise_db4",
    "sample_wavelet", "wes",
    # envelopes
    "Envelope", "EnvelopeMethod", "compute_envelope", "hilbert_envelope",
    "shannon_energy_envelope", "smooth", "wes_envelope",
    # segmentation
    "PeakLabel", "PeakEvent", "RiseDecayTimes", "CycleSegmentation",
    "find_envelope_peaks", "detect_peaks", "label_s1_s2",
    "cycle_intervals", "rise_decay_times", "segment",
    # hr
    "HrSource", "HrFormula", "HrEstimate", "PipelineResult",
    "hr_from_ecg_frame", "hr_from_pcg", "hr_pipeline",
    # bp
    "UnitConvention", "PcgFeatureVector", "BpCoefficients", "BpPrediction",
    "FitResult", "LoocvReport", "SubjectFeatures", "design_row_sbp",
    "design_row_dbp", "predict_sbp", "predict_dbp", "predict_pair",
    "fit_multiple_regression", "loocv_subjectwise",
    "extract_subject_features",
    # quality
    "fft_band", "spectrogram_stft", "mel_filterbank", "mfcc",
    "energy_spectrum", "nrmse_wes_vs_es", "SnrResult", "snr_frame",
    "FrameQuality", "frame_quality", "QualityReport", "aggregate_quality",
    # evaluation
    "pearson_r", "ErrorMetrics", "error_metrics", "subject_aggregate",
    "AgreementReport", "bland_altman", "BoxStats", "box_stats",
    # synth
    "SynthSpec", "PcgGroundTruth", "true_features", "generate_pcg",
    "generate_ecg", "default_cohort_coefficients", "CohortRanges",
    "CohortSubject", "generate_cohort",
    # io
    "read_wav_pcm16", "write_wav_pcm16", "read_ecg_text", "write_ecg_text",
    "SubjectRecord", "load_subject_dir", "load_dataset",
    "write_subject_dir", "write_json_report", "write_csv_series",
    # errors
    "PcgKitError", "InvalidInputError", "DegenerateSignalError",
    "UnsupportedRatioError", "TooShortError", "InvalidCutoffError",
    "DecompositionDepthError", "InvalidGridError",
    "ContractViolationError", "InsufficientPeaksError",
    "InsufficientCyclesError", "InsufficientDataError",
    "InvalidSegmentationError", "RankDeficiencyError", "NumericOverflowError",
    "UndefinedCorrelationError", "UndefinedNormalizerError",
    "DegenerateCoverageError", "NoValidFramesError", "StageError",
    "ConfigError", "IngestError", "MissingFileError",
    "UnsupportedEncodingError", "EmptyDataError", "ParseError",
]
