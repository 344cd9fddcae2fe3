"""Semantic exception hierarchy.

Callers can distinguish bad inputs (recoverable, exit code 1 in the CLI)
from numeric or verification failures (exit code 2).
"""


class EmapError(Exception):
    """Base class for all library errors."""


class InputError(EmapError, ValueError):
    """Inputs the library cannot use: shape mismatches, bad flags, parse errors,
    sizes beyond a documented limit, constraints no sample satisfies."""


class NumericError(EmapError, ArithmeticError):
    """Non-finite values, diverged training, solver non-convergence, or failed numeric verification."""


class UndefinedMetricError(InputError):
    """Metric undefined for the given inputs (e.g. AUC with a single class)."""
