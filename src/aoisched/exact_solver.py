"""Exact solver: the joint MDP over the product state space with the per-slot
budget built into the action set, solved by synchronous relative value iteration.

Each backup takes its expectation from :func:`model.expected_next`, which
averages out every sensor's request count and applies its sparse (battery,
age) kernel, so memory and per-sweep work are linear in the joint state
count. The joint state count is capped and larger instances are directed to
the relaxed solver.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import StateSpaceError
from .model import NetworkConfig, expected_next, sensor_model
from .rvi import relative_value_iteration

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

    backups = [
        (action_cost(bits), lambda values, bits=bits: expected_next(models, bits, values))
        for bits in actions
    ]
    ref = (0,) * len(shape)  # every sensor at (requests=0, battery=0, age=1)
    values, rel, greedy, iterations = relative_value_iteration(
        backups, ref, "joint value iteration"
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
