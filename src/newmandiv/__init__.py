"""Checks that x^5 + a*x^2 + 1 (0 < a < 1) cannot divide a 0-1 polynomial
with a nonnegative cofactor, plus a small-degree scanner for the general
fair-factorization conjecture."""

__version__ = "0.1.0"


class CapacityError(ValueError):
    """An input exceeds a documented size cap (not a math error)."""
