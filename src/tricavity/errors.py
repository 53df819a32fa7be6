"""Exception types shared across the package."""


class TricavityError(Exception):
    """Base class for package-specific errors."""


class DegenerateState(TricavityError):
    """Raised when a parity-adapted state has (numerically) zero norm."""


class IndeterminateQ(TricavityError):
    """Raised when the Mandel-type parameter Q = Var(M)/<M> - 1 is 0/0."""


class NonConvergence(TricavityError):
    """Raised when the surface minimizer fails to converge.

    Carries the best candidate found so far in ``best`` (may be None).
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class CutoffNotConverged(TricavityError):
    """Raised by the cutoff schedule when no cutoff passes; ``delta`` is the last one's."""

    def __init__(self, message, delta=None):
        super().__init__(message)
        self.delta = delta


class TailTooLarge(TricavityError):
    """Raised when a truncated coherent state leaves too much weight above the cutoff."""


class NoTransitionFound(TricavityError):
    """Raised when a phase-boundary scan finds no normal/collective crossing."""
