"""Relative value iteration on the lazy kernel, shared by the exact joint
solver and the per-sensor priced solver.

A per-sensor priced problem is the one-sensor joint problem with the command
cost raised by the price, so both solvers run this one iteration and differ
only in how they form the per-action slot costs and expectations.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError

DEFAULT_THETA = 1e-7  # span tolerance of the stopping rule
DEFAULT_MAX_ITER = 100_000

# Aperiodicity transformation weight: value iteration runs on the lazy kernel
# (1 - tau) I + tau P, which has the same average cost, the same optimal
# policies, and relative values scaled by 1/tau, but converges even when a
# policy-induced chain is periodic (e.g. deterministic dynamics at
# harvest_rate = 1 with all-ones request probabilities).
APERIODICITY_TAU = 0.7


def relative_value_iteration(
    backups: Sequence[tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]],
    ref,
    label: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, float]:
    """Synchronous sweeps until the span of the value change is below ``DEFAULT_THETA``.

    ``backups`` holds one (slot cost, expectation) pair per action in
    tie-break priority order; the expectation maps a value array to the
    expected next-slot value under that action, both shaped like the cost.
    ``ref`` indexes the reference state. Per-action Q arrays are formed one at
    a time, so at most two are alive at once.

    Returns the values (their entry at ``ref`` is the optimal average cost,
    within the span tolerance), the relative values on the untransformed
    optimality equation's scale, the greedy action index per state (the first
    minimum wins), the iteration count and the final span. Raises
    :class:`ConvergenceError` after ``DEFAULT_MAX_ITER`` sweeps.
    """
    tau = APERIODICITY_TAU
    values = np.zeros(backups[0][0].shape)
    rel = values - values[ref]
    span = np.inf
    for it in range(1, DEFAULT_MAX_ITER + 1):
        v_tmp = None
        for cost, expect in backups:
            q = cost + tau * expect(rel)
            v_tmp = q if v_tmp is None else np.minimum(v_tmp, q)
        v_tmp = v_tmp + (1.0 - tau) * rel
        diff = v_tmp - values
        span = float(diff.max() - diff.min())
        values = v_tmp
        rel = values - values[ref]
        if span < DEFAULT_THETA:
            break
    else:
        raise ConvergenceError(f"{label} did not converge", DEFAULT_MAX_ITER, span)

    best_q = None
    greedy = np.zeros(values.shape, dtype=np.int64)
    for a, (cost, expect) in enumerate(backups):
        q = cost + tau * expect(rel)
        if best_q is None:
            best_q = q
        else:
            better = q < best_q
            best_q = np.where(better, q, best_q)
            greedy[better] = a
    return values, tau * rel, greedy, it, span
