"""Exception types shared across the toolkit."""


class LogSurfaceError(Exception):
    """Base class for every error raised by this package."""


class UnknownIdError(LogSurfaceError):
    """A curve or point id does not exist in the configuration."""


class UnknownTargetError(LogSurfaceError):
    """A blow-up target does not designate anything in the configuration."""


class BadCoefficientError(LogSurfaceError):
    """A boundary coefficient falls outside the closed interval [0, 1]."""


class InvalidStateError(LogSurfaceError):
    """A surface state violates its structural invariants."""


class NotNestedError(LogSurfaceError):
    """The two contracted sets are not nested."""


class NotLogTerminalError(LogSurfaceError):
    """An operation requiring a log terminal state was given something weaker."""


class NotNefError(LogSurfaceError):
    """An operation requiring a nef state was given one with a negative degree."""


class NotFloppingError(LogSurfaceError):
    """The named curve is not a flop-type contractible divisor here."""


class NotABlowdownError(LogSurfaceError):
    """The named curve does not admit a boundary blow-down here."""


class NotCrepantError(LogSurfaceError):
    """The nested pair of states is not crepant."""


class TheoremViolationError(LogSurfaceError):
    """An internally asserted consequence of the theory failed.

    Raised only when the implementation contradicts itself on input that
    passed its preconditions; it always indicates a bug, never a property
    of valid input.
    """


class StuckInPhase2Error(LogSurfaceError):
    """No blow-down candidate exists although the decomposition is unfinished."""


class NoAdmissibleTargetError(LogSurfaceError):
    """The template configuration offers no crepant blow-up target."""
