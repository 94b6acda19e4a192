"""Exception types shared across the toolkit.

Every error raised by library code derives from :class:`PcgKitError` so
callers can catch toolkit failures without masking programming errors.
The message says what went wrong; a subclass exists only where some code
catches it by type or reads its attributes, and any other failure is a
plain :class:`PcgKitError`.
"""


class PcgKitError(Exception):
    """Base class for all toolkit errors."""


class TooShortError(PcgKitError):
    """Signal shorter than the minimum required for the operation.

    ``hr`` catches it when a subject's ECG is too short to frame.
    """


class DegenerateSignalError(PcgKitError):
    """Signal has no usable content, e.g. all-zero where a scale is needed.

    :func:`pcgkit.hr.hr_pipeline` catches it at its normalize step.
    """


class UndefinedCorrelationError(PcgKitError):
    """Correlation requested on a zero-variance sequence.

    :func:`pcgkit.evaluation.bland_altman` catches it.
    """


class StageError(PcgKitError):
    """Wraps an error raised inside a pipeline, tagged with the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"{stage}: {cause}")
        self.stage = stage
        self.cause = cause


__all__ = ["PcgKitError", "TooShortError", "DegenerateSignalError",
           "UndefinedCorrelationError", "StageError"]
