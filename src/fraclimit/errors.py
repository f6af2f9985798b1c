"""Exception types shared across the laboratory."""


class FracLimitError(Exception):
    """Base class for all package errors."""


class InvalidInput(FracLimitError, ValueError):
    """A parameter, grid, profile or request the laboratory cannot work with."""


class SolverFailure(FracLimitError):
    """A numerical step did not reach its documented accuracy or sign."""


class TailDivergence(SolverFailure):
    """A power-law tail fit or tail integral is not finite."""
