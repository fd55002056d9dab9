"""Exception and warning types shared across the package.

Two error families matter for callers: :class:`ValidationError` covers bad
inputs or configuration caught before real work starts, and
:class:`ComputationError` covers failures on otherwise well-formed data.
The command line maps them to exit codes 1 and 2 respectively.
"""

from __future__ import annotations


class MarketStatesError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MarketStatesError):
    """Input data or configuration is invalid."""


class ComputationError(MarketStatesError):
    """A computation failed on otherwise valid inputs."""


class ParseError(ValidationError):
    """Structured parse failure with a 1-based row/column location."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        loc = ""
        if row is not None:
            loc = f" (row {row})" if column is None else f" (row {row}, column {column})"
        super().__init__(message + loc)


class MalformedDate(ParseError):
    """A cell expected to hold an ISO-8601 date could not be parsed."""


class NonPositivePrice(ParseError):
    """A price cell holds a value <= 0."""


class DuplicateTicker(ParseError):
    """The same ticker appears more than once."""


class DuplicateDate(ParseError):
    """The same date appears on more than one row."""


class NonMonotonicDates(ParseError):
    """Row dates are not strictly increasing."""


class EmptyUniverse(ValidationError):
    """No tickers survive filtering."""


class MissingValues(ValidationError):
    """An operation that requires gap-free data received missing entries."""


class UnmappedTicker(ValidationError):
    """Tickers absent from the sector file; lists every offender."""

    def __init__(self, tickers):
        self.tickers = tuple(tickers)
        super().__init__("tickers missing from sector map: " + ", ".join(self.tickers))


class ParameterRange(ValidationError):
    """A numeric parameter lies outside its admissible range."""


class DimensionMismatch(ValidationError):
    """Two matrices have incompatible dimensions or kinds."""


class InsufficientData(ValidationError):
    """Not enough observations for the requested operation."""


class InsufficientSequence(ValidationError):
    """State sequence too short for transition estimation."""


class InvalidRegime(ValidationError):
    """A synthetic regime specification cannot yield a valid correlation matrix."""


class DegenerateColumn(ComputationError):
    """A return column has zero variance inside a correlation window."""

    def __init__(self, ticker: str, start: int, end: int, epoch_index: int | None = None):
        self.ticker = ticker
        self.start = start
        self.end = end
        self.epoch_index = epoch_index
        where = f"rows [{start}, {end})"
        if epoch_index is not None:
            where += f", epoch {epoch_index}"
        super().__init__(f"zero-variance column {ticker!r} in window {where}")


class NonErgodic(ComputationError):
    """The chain has no equilibrium reached from the uniform start: it is
    periodic (an eigenvalue of modulus 1 other than 1), or its repeated
    squaring did not settle.

    Retrying with a small damping (mix the transition matrix with the
    uniform one, ``damping=1e-3``) resolves it.
    """


class SingletonSectorWarning(UserWarning):
    """A sector with a single member has no intra-sector pairs."""


class TieWarning(UserWarning):
    """Two clusters share the same mean average correlation."""


class DegradedRankWarning(UserWarning):
    """The embedding dimension exceeds the number of positive eigenvalues."""
