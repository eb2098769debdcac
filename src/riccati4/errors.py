"""Exception hierarchy shared across the package."""


class SolverError(Exception):
    """Base class for every error raised by riccati4."""


# --- root solving / characteristic data ---------------------------------

class ComplexRoots(SolverError):
    """The quartic has roots with imaginary part beyond tolerance."""


class IllConditioned(SolverError):
    """Root polishing stalled above the residual tolerance."""


class RepeatedRealParts(SolverError):
    """Two characteristic roots closer than gap_tol; dichotomy unavailable."""


class ZeroRoot(SolverError):
    """A shifted root lies within gap_tol of zero; sign dichotomy fails."""


# --- quadrature / fixed point --------------------------------------------

class TailNotConvergent(SolverError):
    """Semi-infinite tail estimate did not fall below tolerance at the cap."""


class NonFinite(SolverError):
    """An integrand or iterate produced a non-finite value."""


class StepUnderflow(SolverError):
    """Adaptive integrator failed to advance (stiffness or blow-up)."""


class Diverged(SolverError):
    """Picard iterates left the admissible ball or deltas kept growing."""


class MaxIterExceeded(SolverError):
    """Fixed-point iteration hit the iteration cap before converging."""


# --- expression language ---------------------------------------------------

class ExpressionError(SolverError):
    """Base class for expression parsing/evaluation failures."""


class ExpressionSyntaxError(ExpressionError):
    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownIdentifier(ExpressionError):
    """An identifier other than t / exp / log / sin / cos / abs."""


class DomainError(ExpressionError):
    """Division by zero or log of a non-positive argument."""


class EvalOverflow(ExpressionError):
    """Evaluation overflowed the double range."""


# --- problem ingestion ------------------------------------------------------

class ConfigError(SolverError):
    """Base class for problem-file errors."""


class ParseError(ConfigError):
    """Config file is not syntactically valid."""


class ValidationError(ConfigError):
    """Config parsed but a field is missing, unknown, or out of range."""
