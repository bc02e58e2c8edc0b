"""Executable per-slot decision rules.

Fleet policy objects with a batched ``decide`` used by the simulation engine:
the request-aware greedy rule, the mixed-table relaxed policy (optionally
truncated to the per-slot budget), and lookup into a solved joint table. Each
call decides one slot for every episode and sensor at once:
``decide(requests, index, age, mix_streams, trunc_streams)`` takes (episodes,
K) arrays of request counts, fleet indices and ages, plus the mixture and the
truncation streams of the episodes (:class:`simulator.UniformStreams`), and
returns the (episodes, K) action bits and each episode's proposal count
before truncation. A sensor's fleet index is width * s for its state s in
the network's :func:`model.fleet_layout`; the relaxed policy's tables are
written by ``FleetLayout.table``, so a sensor's entry for r requests sits at
index + r. The exact policy's table covers the joint states that
:func:`model.joint_state_sizes` counts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .exact_solver import JointPolicy
from .model import (
    FleetLayout,
    NetworkConfig,
    fleet_layout,
    joint_state_sizes,
    sensor_classes,
    sensor_model,
)
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

    def decide(self, requests, index, age, mix_streams, trunc_streams):
        n = requests.shape[1]
        eligible = requests >= 1
        if self.budget >= n:
            actions = eligible.astype(np.int8)
            return actions, actions.sum(axis=1, dtype=np.int64)
        # Keys of eligible sensors are unique per row, so exactly ``budget`` of
        # them reach a row's ``budget``-th largest key; with fewer eligible that
        # cut is an ineligible entry's -1, and every eligible sensor passes.
        key = np.where(eligible, age * n + self._tiebreak, -1)
        cut = np.partition(key, n - self.budget, axis=1)[:, n - self.budget, None]
        actions = ((key >= cut) & eligible).view(np.int8)
        return actions, actions.sum(axis=1, dtype=np.int64)


def _truncate(actions, proposals, budget: int, trunc_streams) -> None:
    """Keep a uniformly random ``budget``-subset of the proposals in each
    overflowing row of ``actions``, in place.

    Each overflowing episode draws one uniform key per proposing sensor from
    its own truncation stream, in sensor order; the ``budget`` smallest keys
    of a row win and the other proposers are dropped.
    """
    over = proposals > budget
    if not over.any():
        return
    n = actions.shape[1]
    pos = actions.view(bool).ravel().nonzero()[0]
    rows = pos // n
    kept = over.take(rows)
    pos, rows = pos[kept], rows[kept]
    order = np.lexsort((trunc_streams.draw(rows), rows))
    # Sorting keeps each row's proposers together, so rows[j] is also the row
    # of sorted position j, and j less the row's first position is its rank.
    rank = np.arange(rows.size) - rows.searchsorted(rows)
    actions.ravel()[pos.take(order[rank >= budget])] = 0


class RelaxedFleetPolicy:
    """Batched mixed-table policy, optionally truncated to the per-slot budget.

    A sensor follows its lower table, except in the states where the lower and
    upper tables differ: there it draws one uniform from its episode's mixture
    stream and follows the upper table unless the draw is below eta.
    ``budget=None`` runs the pure relaxed policy (the lower-bound mode, which
    may exceed the per-slot budget), named ``relaxed``; otherwise overflowing
    proposal sets are down-selected uniformly using the episode's truncation
    stream, and the policy is ``rtt``.
    """

    def __init__(self, lower: np.ndarray, upper: np.ndarray, eta: float, budget: int | None):
        self.name = "relaxed" if budget is None else "rtt"
        self.budget = budget
        self._lower = lower
        self._upper = upper
        self._differs = lower != upper
        self._mixed = bool(self._differs.any())
        self._eta = float(eta)

    def decide(self, requests, index, age, mix_streams, trunc_streams):
        flat = index + requests
        actions = self._lower.take(flat)
        if self._mixed:
            pos = self._differs.take(flat).ravel().nonzero()[0]
            if pos.size:
                pos = pos[mix_streams.draw(pos // flat.shape[1]) >= self._eta]
                actions.ravel()[pos] = self._upper.take(flat.ravel().take(pos))
        proposals = actions.sum(axis=1, dtype=np.int64)
        if self.budget is not None:
            _truncate(actions, proposals, self.budget, trunc_streams)
        return actions, proposals


class ExactFleetPolicy:
    """Batched lookup into a solved joint policy table."""

    def __init__(self, policy: JointPolicy, layout: FleetLayout):
        self.name = "exact"
        self.budget = policy.budget
        self._policy = policy
        self._width = layout.width
        self._start = layout.start[layout.class_of]
        self._strides = np.diff(layout.start)[layout.class_of]  # (battery, age) states per sensor

    def decide(self, requests, index, age, mix_streams, trunc_streams):
        x = index // self._width - self._start
        joint = np.ravel_multi_index(tuple((requests * self._strides + x).T),
                                     self._policy.state_sizes)
        actions = self._policy.actions[joint]
        return actions, actions.sum(axis=1, dtype=np.int64)


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
    for k, (p, c) in enumerate(zip(policies, class_of.tolist())):
        ref = per_class[c]
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
    """Lay the per-class mixed tables out as :func:`model.fleet_layout` says, in
    one runtime policy object."""
    _, per_class = class_policies(network, policies)
    layout = fleet_layout(network)

    def table(tables):  # each class's table over (requests, x), one row per x
        return layout.table([t.reshape(-1, m.succ.shape[0]).T
                             for t, m in zip(tables, layout.models)])

    return RelaxedFleetPolicy(
        lower=table([p.lower.actions for p in per_class]),
        upper=table([p.upper.actions for p in per_class]),
        eta=per_class[0].eta,
        budget=network.budget if truncate_to_budget else None,
    )


def build_exact_fleet_policy(network: NetworkConfig, policy: JointPolicy) -> ExactFleetPolicy:
    if tuple(policy.state_sizes) != joint_state_sizes(network) or policy.budget != network.budget:
        raise ValueError("joint policy table does not match the network")
    return ExactFleetPolicy(policy, fleet_layout(network))
