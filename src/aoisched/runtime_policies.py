"""Executable per-slot decision rules.

Fleet policy objects with a batched ``decide`` used by the simulation engine:
the request-aware greedy rule, the mixed-table relaxed policy (optionally
truncated to the per-slot budget), and lookup into a solved joint table. Each
call decides one slot for every episode and sensor at once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exact_solver import JointPolicy
from .model import NetworkConfig, sensor_classes, sensor_model, state_index
from .relaxed_solver import MixedPolicy

__all__ = [
    "GreedyFleetPolicy",
    "RelaxedFleetPolicy",
    "ExactFleetPolicy",
    "class_policies",
    "build_relaxed_fleet_policy",
    "build_exact_fleet_policy",
]


class GreedyFleetPolicy:
    """Batched greedy rule for the simulation engine."""

    mixture_eta = None

    def __init__(self, budget: int, num_sensors: int):
        self.name = "greedy"
        self.budget = int(budget)
        self.num_sensors = int(num_sensors)
        # Combined sort key: age dominates, lower index wins ties.
        self._tiebreak = self.num_sensors - 1 - np.arange(self.num_sensors)

    def decide(self, requests, battery, age, mix_lower, episode_rngs):
        episodes, n = requests.shape
        eligible = requests >= 1
        if self.budget >= n:
            actions = eligible.astype(np.int8)
            return actions, actions.sum(axis=1, dtype=np.int64)
        key = np.where(eligible, age * n + self._tiebreak, -1)
        actions = np.zeros((episodes, n), dtype=np.int8)
        cut = n - self.budget
        for e in range(episodes):
            top = np.argpartition(key[e], cut)[cut:]
            actions[e, top[key[e, top] >= 0]] = 1
        return actions, actions.sum(axis=1, dtype=np.int64)


class RelaxedFleetPolicy:
    """Batched mixed-table policy, optionally truncated to the per-slot budget.

    ``budget=None`` runs the pure relaxed policy (the lower-bound mode, which
    may exceed the per-slot budget); otherwise overflowing proposal sets are
    down-selected uniformly using the episode's truncation stream.
    """

    def __init__(
        self,
        lower_flat: np.ndarray,
        upper_flat: np.ndarray,
        offsets: np.ndarray,
        capacities: np.ndarray,
        delta_max: int,
        eta: float,
        budget: int | None,
        name: str,
    ):
        self.name = name
        self.budget = budget
        self._lower = lower_flat
        self._upper = upper_flat
        self._offsets = offsets
        self._capacities = capacities
        self._delta_max = delta_max
        degenerate = np.array_equal(lower_flat, upper_flat)
        self.mixture_eta = None if degenerate else float(eta)

    def decide(self, requests, battery, age, mix_lower, episode_rngs):
        flat = self._offsets + state_index(
            requests, battery, age, self._capacities, self._delta_max
        )
        if self.mixture_eta is None:
            actions = self._lower[flat].copy()
        else:
            actions = np.where(mix_lower, self._lower[flat], self._upper[flat])
        proposals = actions.sum(axis=1, dtype=np.int64)
        if self.budget is not None:
            for e in np.flatnonzero(proposals > self.budget):
                members = np.flatnonzero(actions[e])
                keep = episode_rngs[e].choice(members, size=self.budget, replace=False)
                actions[e] = 0
                actions[e, keep] = 1
        return actions, proposals


class ExactFleetPolicy:
    """Batched lookup into a solved joint policy table."""

    mixture_eta = None

    def __init__(self, policy: JointPolicy, capacities: np.ndarray, delta_max: int):
        self.name = "exact"
        self.budget = policy.budget
        self._policy = policy
        self._capacities = capacities
        self._delta_max = delta_max

    def decide(self, requests, battery, age, mix_lower, episode_rngs):
        per_sensor = state_index(requests, battery, age, self._capacities, self._delta_max)
        joint = np.ravel_multi_index(tuple(per_sensor.T), self._policy.state_sizes)
        actions = self._policy.actions[joint]
        return actions, actions.sum(axis=1, dtype=np.int64)


def _capacities(network: NetworkConfig) -> np.ndarray:
    return np.array([s.battery_capacity for s in network.sensors], dtype=np.int64)


def class_policies(
    network: NetworkConfig, policies: Sequence[MixedPolicy]
) -> tuple[np.ndarray, tuple[MixedPolicy, ...]]:
    """Collapse per-sensor mixed tables to one table per sensor class.

    Returns the class index per sensor from :func:`sensor_classes` and the
    table of each class. Raises ``ValueError`` unless there is one policy per
    sensor, every table fits its sensor, eta is shared by the fleet, and
    sensors of one class carry the same tables.
    """
    if len(policies) != network.num_sensors:
        raise ValueError("need one mixed policy per sensor")
    if len({p.eta for p in policies}) != 1:
        raise ValueError("fleet mixing factor must be shared across sensors")
    classes, _, class_of = sensor_classes(network)
    first = np.unique(class_of, return_index=True)[1]
    per_class = tuple(policies[k] for k in first)
    for sensor, p in zip(classes, per_class):
        if p.num_states != sensor_model(sensor, network.delta_max).num_states:
            raise ValueError("mixed policy table size does not match the sensor")
    for k, c in enumerate(class_of):
        p, ref = policies[k], per_class[c]
        if p is not ref and not (
            np.array_equal(p.lower.actions, ref.lower.actions)
            and np.array_equal(p.upper.actions, ref.upper.actions)
        ):
            raise ValueError(
                f"sensors {first[c]} and {k} are identical but carry different tables"
            )
    return class_of, per_class


def build_relaxed_fleet_policy(
    network: NetworkConfig,
    policies: Sequence[MixedPolicy],
    truncate_to_budget: bool,
) -> RelaxedFleetPolicy:
    """Flatten the per-class mixed tables into one runtime policy object."""
    class_of, per_class = class_policies(network, policies)
    sizes = [p.num_states for p in per_class]
    class_offset = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    return RelaxedFleetPolicy(
        lower_flat=np.concatenate([p.lower.actions for p in per_class]),
        upper_flat=np.concatenate([p.upper.actions for p in per_class]),
        offsets=class_offset[class_of],
        capacities=_capacities(network),
        delta_max=network.delta_max,
        eta=per_class[0].eta,
        budget=network.budget if truncate_to_budget else None,
        name="rtt" if truncate_to_budget else "relaxed",
    )


def build_exact_fleet_policy(network: NetworkConfig, policy: JointPolicy) -> ExactFleetPolicy:
    sizes = [sensor_model(s, network.delta_max).num_states for s in network.sensors]
    if tuple(policy.state_sizes) != tuple(sizes) or policy.budget != network.budget:
        raise ValueError("joint policy table does not match the network")
    return ExactFleetPolicy(policy, _capacities(network), network.delta_max)
