"""Exception types shared across the library."""

from __future__ import annotations


class RtflabError(Exception):
    """Base class for all library errors."""


class DomainError(RtflabError, ValueError):
    """An argument lies outside the domain of a density or operator."""


class PoleError(RtflabError, ArithmeticError):
    """An evaluation point coincides with a pole; the value is not returned as inf."""


class RamifiedOverlapError(RtflabError, ValueError):
    """The support of an ideal meets the ramification locus of a character."""


class CapExceededError(RtflabError, ValueError):
    """An enumeration would exceed its configured size cap."""


class QuadratureError(RtflabError, ArithmeticError):
    """Adaptive quadrature failed to reach the requested tolerance.

    The partially converged result is attached as ``result``.
    """

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result
