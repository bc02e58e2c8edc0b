"""Executable per-slot decision rules.

Fleet policy objects with a batched ``decide`` used by the simulation engine:
the request-aware greedy rule, the mixed-table relaxed policy (optionally
truncated to the per-slot budget), and lookup into a solved joint table. Each
call decides one slot for every episode and sensor at once:
``decide(requests, x, age, mix_streams, trunc_streams)`` takes (episodes, K)
arrays of request counts, (battery, age) indices x = battery * delta_max +
age - 1 as :class:`model.SensorModel` numbers them, and ages, plus the
mixture and the truncation streams of the episodes
(:class:`simulator.UniformStreams`), and returns the (episodes, K) action
bits and each episode's proposal count before truncation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exact_solver import JointPolicy
from .model import NetworkConfig, sensor_classes, sensor_model
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

    def __init__(self, budget: int, num_sensors: int):
        self.name = "greedy"
        self.budget = int(budget)
        self.num_sensors = int(num_sensors)
        # Combined sort key: age dominates, lower index wins ties.
        self._tiebreak = self.num_sensors - 1 - np.arange(self.num_sensors)

    def decide(self, requests, x, age, mix_streams, trunc_streams):
        n = requests.shape[1]
        eligible = requests >= 1
        if self.budget >= n:
            actions = eligible.astype(np.int8)
            return actions, actions.sum(axis=1, dtype=np.int64)
        # Keys of eligible sensors are unique per row, so the top ``budget``
        # set is unique; ineligible entries (-1) that land in it are dropped.
        key = np.where(eligible, age * n + self._tiebreak, -1)
        top = np.argpartition(key, n - self.budget, axis=1)[:, n - self.budget:]
        rows = np.arange(requests.shape[0])[:, None]
        actions = np.zeros(requests.shape, dtype=np.int8)
        actions[rows, top] = key[rows, top] >= 0
        return actions, actions.sum(axis=1, dtype=np.int64)


def _truncate(actions, proposals, budget: int, trunc_streams) -> None:
    """Keep a uniformly random ``budget``-subset of the proposals in each
    overflowing row of ``actions``, in place.

    Each overflowing episode draws one uniform key per proposing sensor from
    its own truncation stream; the ``budget`` smallest keys of a row win.
    """
    over = np.flatnonzero(proposals > budget)
    if over.size == 0:
        return
    keys = np.full((over.size, actions.shape[1]), np.inf)
    rows, cols = np.nonzero(actions[over])
    keys[rows, cols] = trunc_streams.draw(over[rows])
    keep = np.argpartition(keys, budget - 1, axis=1)[:, :budget]
    actions[over] = 0
    actions[over[:, None], keep] = 1


class RelaxedFleetPolicy:
    """Batched mixed-table policy, optionally truncated to the per-slot budget.

    A sensor follows its lower table, except in the states where the lower and
    upper tables differ: there it draws one uniform from its episode's mixture
    stream and follows the upper table unless the draw is below eta.
    ``budget=None`` runs the pure relaxed policy (the lower-bound mode, which
    may exceed the per-slot budget); otherwise overflowing proposal sets are
    down-selected uniformly using the episode's truncation stream.
    """

    def __init__(
        self,
        lower_flat: np.ndarray,
        upper_flat: np.ndarray,
        offsets: np.ndarray,
        strides: np.ndarray,
        eta: float,
        budget: int | None,
        name: str,
    ):
        self.name = name
        self.budget = budget
        self._lower = lower_flat
        self._upper = upper_flat
        self._differs = lower_flat != upper_flat
        self._mixed = bool(self._differs.any())
        self._eta = float(eta)
        self._offsets = offsets
        self._strides = strides

    def decide(self, requests, x, age, mix_streams, trunc_streams):
        flat = self._offsets + requests * self._strides + x
        actions = self._lower.take(flat)
        if self._mixed:
            rows, cols = np.nonzero(self._differs.take(flat))
            if rows.size:
                upper = mix_streams.draw(rows) >= self._eta
                rows, cols = rows[upper], cols[upper]
                actions[rows, cols] = self._upper.take(flat[rows, cols])
        proposals = actions.sum(axis=1, dtype=np.int64)
        if self.budget is not None:
            _truncate(actions, proposals, self.budget, trunc_streams)
        return actions, proposals


class ExactFleetPolicy:
    """Batched lookup into a solved joint policy table."""

    def __init__(self, policy: JointPolicy, strides: np.ndarray):
        self.name = "exact"
        self.budget = policy.budget
        self._policy = policy
        self._strides = strides

    def decide(self, requests, x, age, mix_streams, trunc_streams):
        per_sensor = requests * self._strides + x
        joint = np.ravel_multi_index(tuple(per_sensor.T), self._policy.state_sizes)
        actions = self._policy.actions[joint]
        return actions, actions.sum(axis=1, dtype=np.int64)


def _strides(network: NetworkConfig) -> np.ndarray:
    """Per sensor, the (battery, age) states per request count: a table's row stride."""
    return np.array([(s.battery_capacity + 1) * network.delta_max for s in network.sensors],
                    dtype=np.intp)


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
        strides=_strides(network),
        eta=per_class[0].eta,
        budget=network.budget if truncate_to_budget else None,
        name="rtt" if truncate_to_budget else "relaxed",
    )


def build_exact_fleet_policy(network: NetworkConfig, policy: JointPolicy) -> ExactFleetPolicy:
    sizes = [sensor_model(s, network.delta_max).num_states for s in network.sensors]
    if tuple(policy.state_sizes) != tuple(sizes) or policy.budget != network.budget:
        raise ValueError("joint policy table does not match the network")
    return ExactFleetPolicy(policy, _strides(network))
