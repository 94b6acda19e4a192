"""Exception types shared across the toolkit.

Every error raised by library code derives from :class:`PcgKitError` so
callers can catch toolkit failures without masking programming errors.
Pipeline drivers additionally tag errors with the stage that raised them
(see :func:`pcgkit.hr.hr_pipeline`).
"""


class PcgKitError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(PcgKitError):
    """Input violates a documented precondition (empty, non-finite, ...)."""


class DegenerateSignalError(InvalidInputError):
    """Signal has no usable content, e.g. all-zero where a scale is needed."""


class UnsupportedRatioError(InvalidInputError):
    """Resampling ratio is not a small rational, or its result too long."""


class TooShortError(InvalidInputError):
    """Signal shorter than the minimum required for the operation."""


class InvalidCutoffError(InvalidInputError):
    """Filter cutoff outside (0, Nyquist)."""


class DecompositionDepthError(TooShortError):
    """Signal too short for the requested wavelet decomposition depth."""


class InsufficientPeaksError(PcgKitError):
    """Fewer envelope peaks than the minimum needed for segmentation."""


class InsufficientCyclesError(PcgKitError):
    """No complete S1/S2 cycle present in the labeled peak list."""


class InsufficientDataError(PcgKitError):
    """Dataset smaller than the documented minimum for the operation."""


class InvalidSegmentationError(PcgKitError):
    """Segmentation carries non-positive or inconsistent intervals."""


class NumericOverflowError(PcgKitError):
    """A model evaluation produced a non-finite value."""


class UndefinedCorrelationError(PcgKitError):
    """Correlation requested on a zero-variance sequence."""


class UndefinedNormalizerError(PcgKitError):
    """Reference series has zero energy, normalized error undefined."""


class DegenerateCoverageError(PcgKitError):
    """Event windows cover the whole frame, no background left to measure."""


class NoValidFramesError(PcgKitError):
    """Every frame of a subject failed analysis or the validity screen."""


class ConfigError(PcgKitError):
    """Invalid analysis configuration value."""


class IngestError(PcgKitError):
    """File-level ingestion failure."""


class MissingFileError(IngestError):
    """Referenced file does not exist."""


class UnsupportedEncodingError(IngestError):
    """Audio file is not 16-bit PCM WAV."""


class EmptyDataError(IngestError):
    """File exists but contains no samples."""


class ParseError(IngestError):
    """Text input could not be parsed.

    Attributes
    ----------
    line_no : int or None
        1-based line number of the offending line when known.
    """

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no


class StageError(PcgKitError):
    """Wraps an error raised inside a pipeline, tagged with the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


# Every class above is public.
__all__ = [name for name, value in list(globals().items())
           if isinstance(value, type) and issubclass(value, PcgKitError)]
