"""Exception types shared across the solvers, simulator, and CLI."""


class AoischedError(Exception):
    """Base class for all package errors."""


class ConvergenceError(AoischedError):
    """Relative value iteration did not reach the span tolerance within the sweep cap.

    Only the exact joint solver (``solve_exact``) raises it; the relaxed
    solver's policy iteration terminates finitely.
    """

    def __init__(self, message: str, iterations: int, span: float):
        super().__init__(f"{message} (iterations={iterations}, last span={span:.3e})")
        self.iterations = iterations
        self.span = span


class StateSpaceError(AoischedError):
    """Joint state space exceeds the exact-solver cap."""


class MultichainError(AoischedError):
    """A policy evaluation's Poisson system was singular or its solve missed the residual bound."""


class BracketError(AoischedError):
    """A price or mixing bracket is inconsistent (command rate not monotone beyond numerical noise)."""


class PolicyFileError(AoischedError):
    """A policy file is missing, malformed, or does not match the network."""


class SimulationError(AoischedError):
    """A simulated slot broke the per-slot budget or left the battery range."""
