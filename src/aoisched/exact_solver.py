"""Exact solver: the joint MDP over the product state space with the per-slot
budget built into the action set, solved by synchronous relative value iteration.

Each sweep takes its expectations from :func:`model.expected_next`, which
averages out every sensor's request count once and then applies each joint
action's sparse (battery, age) kernels, so memory and per-sweep work are
linear in the joint state count. The joint state count is capped and larger
instances are directed to the relaxed solver.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConvergenceError, StateSpaceError
from .model import NetworkConfig, expected_next, sensor_model

__all__ = [
    "JOINT_STATE_CAP",
    "ACTION_COUNT_CAP",
    "JointPolicy",
    "RviaResult",
    "enumerate_budget_actions",
    "solve_exact",
]

log = logging.getLogger(__name__)

JOINT_STATE_CAP = 2_000_000
ACTION_COUNT_CAP = 1_000_000
DEFAULT_THETA = 1e-7  # span tolerance of the stopping rule
DEFAULT_MAX_ITER = 100_000
# An action displaces another only when that lowers its Q-value by more than
# this times max|h|, here and in the relaxed solver's policy iteration; 1e-9
# flips true near-ties of the paper instances and moves the bound.
IMPROVEMENT_TOL = 1e-12

# Aperiodicity transformation weight: value iteration runs on the lazy kernel
# (1 - tau) I + tau P, which has the same average cost, the same optimal
# policies, and relative values scaled by 1/tau, but converges even when a
# policy-induced chain is periodic (e.g. deterministic dynamics at
# harvest_rate = 1 with all-ones request probabilities).
APERIODICITY_TAU = 0.7


@dataclass(frozen=True, eq=False)
class JointPolicy:
    """Deterministic joint policy: per joint-state action bits, at most budget ones."""

    actions: np.ndarray  # (num_joint_states, K) int8
    budget: int
    state_sizes: tuple[int, ...]

    def __post_init__(self):
        acts = np.asarray(self.actions, dtype=np.int8)
        expected = int(np.prod(self.state_sizes))
        if acts.shape != (expected, len(self.state_sizes)):
            raise ValueError("joint policy table shape does not match the state space")
        if (acts.sum(axis=1) > self.budget).any():
            raise ValueError("joint policy violates the per-slot budget")
        acts.setflags(write=False)
        object.__setattr__(self, "actions", acts)

    @property
    def num_states(self) -> int:
        return self.actions.shape[0]

    @property
    def num_sensors(self) -> int:
        return self.actions.shape[1]


@dataclass(frozen=True, eq=False)
class RviaResult:
    """Converged joint value iteration output."""

    rel_values: np.ndarray
    avg_cost: float  # value at the reference state; error below the span tolerance
    iterations: int


def enumerate_budget_actions(num_sensors: int, budget: int) -> list[tuple[int, ...]]:
    """All action bit-tuples with at most ``budget`` ones, in argmin tie-break
    order: fewest commands first, then lowest commanded indices."""
    if not 1 <= budget <= num_sensors:
        raise ValueError("need 1 <= budget <= num_sensors")
    count = sum(math.comb(num_sensors, m) for m in range(budget + 1))
    if count > ACTION_COUNT_CAP:
        raise StateSpaceError(
            f"{count} joint actions exceed the cap of {ACTION_COUNT_CAP}; "
            "use the relaxed solver"
        )
    actions = []
    for m in range(budget + 1):
        for ones in combinations(range(num_sensors), m):
            bits = [0] * num_sensors
            for i in ones:
                bits[i] = 1
            actions.append(tuple(bits))
    return actions


def relative_value_iteration(
    costs: Sequence[np.ndarray],
    expectations: Callable[[np.ndarray], Iterator[np.ndarray]],
    ref,
    label: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Synchronous sweeps until the span of the value change is below ``DEFAULT_THETA``.

    ``costs`` holds one slot-cost array per action in tie-break priority
    order. ``expectations`` maps a value array shaped like the costs to an
    iterator over the expected next-slot values under each action, in the
    same order and in a shape that broadcasts against the cost; an iterator
    that forms them one at a time keeps at most two per-action arrays alive.
    ``ref`` indexes the reference state.

    Returns the values (their entry at ``ref`` is the optimal average cost,
    within the span tolerance), the relative values on the untransformed
    optimality equation's scale, the greedy action index per state (a later
    action replaces the best so far only when its Q-value is lower by more
    than ``IMPROVEMENT_TOL`` times max|h|, so ties go to the earlier action)
    and the iteration count. Raises :class:`ConvergenceError`, carrying the
    last span, after ``DEFAULT_MAX_ITER`` sweeps.
    """
    tau = APERIODICITY_TAU
    values = np.zeros(costs[0].shape)
    rel = values - values[ref]
    span = np.inf
    for it in range(1, DEFAULT_MAX_ITER + 1):
        v_tmp = None
        for cost, expected in zip(costs, expectations(rel)):
            q = cost + tau * expected
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
    tol = IMPROVEMENT_TOL * float(np.abs(rel).max())
    for a, (cost, expected) in enumerate(zip(costs, expectations(rel))):
        q = cost + tau * expected
        if best_q is None:
            best_q = q
        else:
            better = q < best_q - tol
            best_q = np.where(better, q, best_q)
            greedy[better] = a
    return values, tau * rel, greedy, it


def solve_exact(config: NetworkConfig) -> tuple[JointPolicy, RviaResult]:
    """Optimal joint policy by relative value iteration over the product space.

    The reference state puts every sensor at (requests=0, battery=0, age=1);
    the converged value there is the optimal average cost. Argmin ties go to
    the first action in priority order. Raises :class:`StateSpaceError` above
    the joint-state cap and :class:`ConvergenceError` if the span tolerance is
    not met.
    """
    models = [sensor_model(s, config.delta_max) for s in config.sensors]
    sizes = tuple(m.num_states for m in models)
    total = int(np.prod(sizes))
    if total > JOINT_STATE_CAP:
        raise StateSpaceError(
            f"joint state space has {total} states, above the cap of "
            f"{JOINT_STATE_CAP}; use the relaxed solver"
        )
    actions = enumerate_budget_actions(config.num_sensors, config.budget)
    # Axes (requests_1, x_1, ..., requests_K, x_K), x_k the (battery, age) index.
    shape = [n for m in models for n in (m.request_dist.size, m.num_states // m.request_dist.size)]
    norm = 1.0 / (config.num_users * config.num_sensors)

    def action_cost(bits: tuple[int, ...]) -> np.ndarray:
        cost = np.zeros(sizes)
        for k, (m, b) in enumerate(zip(models, bits)):
            reshape = [1] * len(sizes)
            reshape[k] = sizes[k]
            cost = cost + m.cost_vector(b).reshape(reshape)
        return (cost * norm).reshape(shape)

    ref = (0,) * len(shape)  # every sensor at (requests=0, battery=0, age=1)
    values, rel, greedy, iterations = relative_value_iteration(
        [action_cost(bits) for bits in actions],
        lambda values: expected_next(models, actions, values),
        ref,
        "joint value iteration",
    )
    log.debug("joint solve: %d states, %d actions, %d iterations", values.size, len(actions), iterations)

    table = np.asarray(actions, dtype=np.int8)[greedy.ravel()]
    policy = JointPolicy(actions=table, budget=config.budget, state_sizes=sizes)
    flat_rel = rel.ravel()
    flat_rel.setflags(write=False)
    result = RviaResult(
        rel_values=flat_rel,
        avg_cost=float(values[ref]),
        iterations=iterations,
    )
    return policy, result
