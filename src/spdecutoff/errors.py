"""Exception types raised by the library.

Everything derives from :class:`SpdeCutoffError` so callers can catch one
base class at CLI boundaries.
"""


class SpdeCutoffError(Exception):
    """Base class for all library errors."""


class InvalidDomainError(SpdeCutoffError):
    """Box side lengths or mode counts are not positive."""


class GapOverflowError(InvalidDomainError):
    """A mode's damping gap sqrt|gamma^2/4 - lambda| is not finite."""


class InvalidTimeError(SpdeCutoffError):
    """A time argument is negative where only t >= 0 makes sense."""


class ZeroInitialDatumError(SpdeCutoffError):
    """An operation that needs a nonzero initial state received zero."""


class WrongCaseError(SpdeCutoffError):
    """Operation called on the wrong damping regime (overdamped helpers on
    purely oscillatory data, or vice versa)."""


class SubcriticalRouteError(WrongCaseError):
    """No overdamped content: use the oscillatory-window route instead of
    the single-leader profile route."""


class DegenerateNoiseError(SpdeCutoffError):
    """Noise parameters are internally inconsistent (e.g. compensation
    requested with no jump marks, or negative intensities)."""


class VarianceOverflowError(DegenerateNoiseError):
    """The heat equilibrium variance of mode ``index`` is not finite."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"mode {index}: {message}")


class MarkOutOfRangeError(SpdeCutoffError):
    """Multiplicative jump mark ``index`` has the wrong length or size."""

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(f"mark {index}: {message}")


class ScheduleRejectedError(SpdeCutoffError):
    """A small-noise renormalization schedule fails its admissibility
    conditions on the supplied grid."""


class ConfigError(SpdeCutoffError):
    """Experiment configuration failed validation.

    The message carries a JSON-pointer-style path to the offending field.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")
