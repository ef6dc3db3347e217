"""Exception types raised across the package.

Every failure mode that callers are expected to handle has its own class so
that the backtest layer can record failures per cell and the CLI can report
the error name with a nonzero exit status.
"""

from __future__ import annotations


class WindVecmError(Exception):
    """Base class for all errors raised by windvecm."""


class InvalidInputError(WindVecmError):
    """An argument violates a documented precondition."""


class InsufficientDataError(WindVecmError):
    """Too few observations for the requested estimation."""


class InsufficientHistoryError(WindVecmError):
    """Forecast history shorter than the model lag order."""


class SingularDesignError(WindVecmError):
    """Regressor matrix is rank deficient / too ill-conditioned to solve.

    Carries the condition-number diagnostic of the offending design.
    """

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


class SingularMomentError(WindVecmError):
    """A product-moment matrix in the reduced-rank step is singular."""


class NonFiniteForecastError(WindVecmError):
    """A forecast recursion overflowed, produced NaN, or left the value bound."""


class InvalidRankError(WindVecmError):
    """Requested cointegrating rank outside [0, d]."""


class InsufficientRangeError(WindVecmError):
    """Feasible origin range smaller than the number of requested draws."""


class DegenerateVarianceError(WindVecmError):
    """Loss differential has zero variance (identical forecasters)."""


class InvalidSpecError(WindVecmError):
    """Simulation spec is explosive or internally inconsistent."""


class ParseError(WindVecmError):
    """Input file could not be parsed.

    Carries the 1-based line number where parsing failed, when known.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SchemaError(WindVecmError):
    """Parsed file disagrees with the expected schema (e.g. region count)."""


class NoOverlapError(WindVecmError):
    """Input series have no common coverage after cleaning."""
