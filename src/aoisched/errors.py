"""Exception types shared across the solvers, simulator, and CLI."""


class AoischedError(Exception):
    """Base class for all package errors."""


class ConvergenceError(AoischedError):
    """Relative value iteration did not reach the span tolerance within the sweep cap.

    Only the exact joint solver and the relaxed solver's multichain fallback
    run value iteration; the relaxed solver's policy iteration does not raise it.
    """

    def __init__(self, message: str, iterations: int, span: float):
        super().__init__(f"{message} (iterations={iterations}, last span={span:.3e})")
        self.iterations = iterations
        self.span = span


class StateSpaceError(AoischedError):
    """Joint state space exceeds the exact-solver cap."""


class MultichainError(AoischedError):
    """A policy-induced chain has more than one recurrent class reachable from the reference state."""


class BracketError(AoischedError):
    """Bisection bracket is inconsistent (command rate not monotone beyond numerical noise)."""


class PolicyFileError(AoischedError):
    """A policy file is missing, malformed, or does not match the network."""


class SimulationError(AoischedError):
    """A simulated slot broke the per-slot budget or left the battery range."""
