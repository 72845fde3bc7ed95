"""Exception types raised by the fracctrl numerical routines."""

__all__ = [
    "DomainError", "FracctrlError", "InvalidOrder", "InvalidParams",
    "NonConvergence", "RankDeficient", "RankDeficientB", "SingularGramian",
    "SingularKernel",
]


class FracctrlError(Exception):
    """Base class for all fracctrl errors."""


class InvalidParams(FracctrlError, ValueError):
    """Mittag-Leffler parameters out of range (requires alpha > 0, beta > 0)."""


class InvalidOrder(FracctrlError, ValueError):
    """Fractional order outside the range supported by the operator."""


class DomainError(FracctrlError, ValueError):
    """Argument outside the domain of the function (e.g. t <= 0 where a
    singular power factor is undefined)."""


class NonConvergence(FracctrlError, RuntimeError):
    """A series or adaptive quadrature failed to meet its tolerance within
    the configured budget."""


class SingularKernel(FracctrlError, RuntimeError):
    """The Mittag-Leffler matrix is numerically singular at the requested
    time, so the inverse kernel does not exist there."""


class SingularGramian(FracctrlError, RuntimeError):
    """The controllability Gramian is numerically singular; the system is
    uncontrollable for practical purposes."""


class RankDeficient(FracctrlError, RuntimeError):
    """A rank condition required by the synthesis method does not hold."""


class RankDeficientB(RankDeficient):
    """The input matrix B has rank < n, so no right inverse exists."""
