"""Problem instances, state spaces, per-sensor dynamics, and the slot cost.

Every solver and the simulator consume the objects defined here. A per-sensor
state is the triple (requests, battery, age); states are indexed row-major
over (requests, battery, age) with age fastest, so policy tables serialize
deterministically. The request count redraws independently every slot, so
the dynamics are kept factorised: a request pmf and one integer successor
table over the (battery, age) states, built from :func:`slot_step`, never
the full kernel over (requests, battery, age). The simulator steps sensors
through that table; :func:`expected_next` is the expectation of the exact
solver's value iteration, and the relaxed solver builds each policy's
request-averaged chain from the same table. This module needs numpy only.
All objects are immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "SensorParams",
    "NetworkConfig",
    "SensorModel",
    "sensor_model",
    "sensor_classes",
    "FleetLayout",
    "fleet_layout",
    "joint_state_sizes",
    "request_pmf",
    "slot_step",
    "state_index",
    "expected_next",
]


@dataclass(frozen=True)
class SensorParams:
    """Static parameters of one sensor: harvesting, battery size, and demand."""

    harvest_rate: float
    battery_capacity: int
    request_probs: tuple[float, ...]

    def __post_init__(self):
        # Adding 0.0 turns -0.0 into 0.0, so equal sensors print alike.
        object.__setattr__(self, "harvest_rate", float(self.harvest_rate) + 0.0)
        object.__setattr__(self, "battery_capacity", int(self.battery_capacity))
        object.__setattr__(
            self, "request_probs", tuple(float(p) + 0.0 for p in self.request_probs)
        )
        # harvest_rate == 1 is allowed: it models a grid-powered sensor.
        if not 0.0 <= self.harvest_rate <= 1.0:
            raise ValueError(f"harvest_rate must be in [0, 1], got {self.harvest_rate}")
        if self.battery_capacity < 1:
            raise ValueError("battery_capacity must be >= 1")
        if not self.request_probs:
            raise ValueError("at least one user request probability is required")
        if any(not 0.0 <= p <= 1.0 for p in self.request_probs):
            raise ValueError("request probabilities must be in [0, 1]")

    @property
    def num_users(self) -> int:
        return len(self.request_probs)


@dataclass(frozen=True)
class NetworkConfig:
    """A full problem instance: sensor fleet, per-slot budget, and the age cap.

    Construction also groups identical sensors into classes, once per network;
    :func:`sensor_classes` returns that grouping, whose arrays are read-only.
    """

    num_sensors: int
    num_users: int
    budget: int
    delta_max: int
    sensors: tuple[SensorParams, ...]
    # The grouping that sensor_classes returns; not part of equality or hashing.
    _classes: tuple[SensorParams, ...] = field(init=False, compare=False, repr=False)
    _class_counts: np.ndarray = field(init=False, compare=False, repr=False)
    _class_of: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sensors", tuple(self.sensors))
        if self.num_sensors < 1:
            raise ValueError("num_sensors must be >= 1")
        if len(self.sensors) != self.num_sensors:
            raise ValueError("sensors list length must equal num_sensors")
        if not 1 <= self.budget <= self.num_sensors:
            raise ValueError("budget must satisfy 1 <= budget <= num_sensors")
        if self.delta_max < 2:
            raise ValueError("delta_max must be >= 2")
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        lookup: dict[SensorParams, int] = {}  # class per sensor, in order of first appearance
        class_of = []
        for k, s in enumerate(self.sensors):
            if s.num_users != self.num_users:
                raise ValueError(f"sensor {k} has {s.num_users} request probs, expected {self.num_users}")
            class_of.append(lookup.setdefault(s, len(lookup)))
        class_of = np.array(class_of, dtype=np.int64)
        counts = np.bincount(class_of, minlength=len(lookup)).astype(np.int64)
        for arr in (class_of, counts):
            arr.setflags(write=False)
        object.__setattr__(self, "_classes", tuple(lookup))
        object.__setattr__(self, "_class_counts", counts)
        object.__setattr__(self, "_class_of", class_of)

    @property
    def gamma(self) -> float:
        """Normalized per-slot budget: budget / num_sensors."""
        return self.budget / self.num_sensors


def slot_step(battery, age, command, harvested, capacity, delta_max):
    """The slot rule, elementwise: returns ``(sent, next_battery, next_age)``.

    A command transmits only from a nonempty battery; a delivered update resets
    the age to one, otherwise the age counts up to ``delta_max``. Harvested
    energy lands after the transmission and saturates at ``capacity``.
    """
    sent = (command == 1) & (battery >= 1)
    next_age = np.where(sent, 1, np.minimum(age + 1, delta_max))
    return sent, np.minimum(battery + harvested - sent, capacity), next_age


def state_index(requests, battery, age, capacity, delta_max):
    """Flat per-sensor state index, elementwise; broadcasts over per-sensor capacities."""
    return (requests * (capacity + 1) + battery) * delta_max + age - 1


def request_pmf(probs) -> np.ndarray:
    """Poisson-binomial PMF: the law of a sum of independent Bernoullis with
    success probabilities ``probs``.

    A sensor's per-slot request count is one, over its ``request_probs``.
    Computed by the exact O(n^2) convolution recurrence (Hong, *CSDA* 59,
    2013); entries sum to one to within 1e-12.
    """
    pmf = np.zeros(len(probs) + 1)
    pmf[0] = 1.0
    for p in probs:
        pmf[1:] = pmf[1:] * (1.0 - p) + pmf[:-1] * p
        pmf[0] *= 1.0 - p
    return pmf


class SensorModel:
    """Precomputed per-sensor MDP pieces: state coordinates, successor table, costs.

    States are laid out as :func:`state_index` numbers them. The request count
    redraws independently of the state and the action every slot, so each
    action's dynamics live on the (battery, age) states, indexed by
    x = battery * delta_max + age - 1: ``succ[x, a, e]`` is the successor of x
    under action bit a when e units are harvested, built once from
    :func:`slot_step`, and ``succ_prob[x, a, e]`` the probability of that
    branch. Where both branches reach one state, the harvest slot holds the
    merged probability ``rate + (1 - rate)`` and the other slot 0. Q_a, the
    kernel over x, has at most two successors per row; the transition over
    (requests, battery, age) is pmf(r') Q_a(x, x'), applied in that factorised
    form by :func:`expected_next` and never built. The simulator steps each
    sensor's index through the same table.
    """

    def __init__(self, sensor: SensorParams, delta_max: int):
        if delta_max < 2:
            raise ValueError("delta_max must be >= 2")
        self.sensor = sensor
        self.delta_max = int(delta_max)
        capacity, rate = sensor.battery_capacity, sensor.harvest_rate
        shape = (sensor.num_users + 1, capacity + 1, self.delta_max)
        self.num_states = math.prod(shape)
        self.requests_of, self.battery_of, age0 = np.unravel_index(
            np.arange(self.num_states), shape
        )
        self.age_of = age0 + 1
        self.request_dist = request_pmf(sensor.request_probs)
        # State (requests=0, battery=0, age=1); also its (battery, age) index.
        self.ref_index = 0

        n = shape[1] * shape[2]
        battery, age = self.battery_of[:n], self.age_of[:n]  # the requests=0 block
        self.succ = np.empty((n, 2, 2), dtype=np.intp)
        next_ages = []
        for a in (0, 1):
            for e in (0, 1):
                _, next_battery, next_age = slot_step(battery, age, a, e, capacity, self.delta_max)
                self.succ[:, a, e] = state_index(0, next_battery, next_age, capacity,
                                                 self.delta_max)
            next_ages.append(next_age)  # the age does not depend on the branch
        merged = self.succ[:, :, 1] == self.succ[:, :, 0]
        self.succ_prob = np.stack(
            [np.where(merged, 0.0, 1.0 - rate), np.where(merged, rate + (1.0 - rate), rate)],
            axis=2,
        )
        self._cost = tuple(
            (self.requests_of * np.tile(age, shape[0])).astype(np.float64) for age in next_ages
        )
        for arr in (self.age_of, self.battery_of, self.requests_of, self.request_dist,
                    self.succ, self.succ_prob, *self._cost):
            arr.setflags(write=False)

    def expect(self, action: int, values: np.ndarray, axis: int = 0) -> np.ndarray:
        """(Q_a values)(x) = E[values(x') | x, a] for every (battery, age) index x,
        along ``axis`` of ``values``.

        A two-term gather over the branches; two terms sum the same in either
        order, so the result equals a sparse matrix product with Q_a.
        """
        succ, prob = self.succ[:, action], self.succ_prob[:, action]
        shape = [1] * values.ndim
        shape[axis] = -1
        return (prob[:, 1].reshape(shape) * values.take(succ[:, 1], axis=axis)
                + prob[:, 0].reshape(shape) * values.take(succ[:, 0], axis=axis))

    def cost_vector(self, action: int) -> np.ndarray:
        """Slot cost per state under a fixed action bit (requests times next age)."""
        return self._cost[action]


def expected_next(models, actions, values: np.ndarray) -> Iterator[np.ndarray]:
    """Expected next-slot values of independent sensors, one per joint action.

    ``values`` lies on the axes (requests_1, x_1, ..., requests_K, x_K), with
    x_k sensor k's (battery, age) index: the (S_1, ..., S_K) state layout,
    reshaped. Sensor k's next request count is drawn from its request pmf
    whatever its state and action, and its (battery, age) moves by
    ``SensorModel.expect(bits[k], ...)``; so each request axis is averaged out
    once, then for each action bit-tuple in ``actions`` in turn each
    sensor's successor table is applied along its x axis. Yields the results
    with length-one request axes, which broadcast against ``values``, one at
    a time.
    """
    for k, model in enumerate(models):
        moved = np.moveaxis(values, 2 * k, 0)
        averaged = model.request_dist @ moved.reshape(moved.shape[0], -1)
        values = np.moveaxis(averaged.reshape(1, *moved.shape[1:]), 0, 2 * k)
    for bits in actions:
        out = values
        for k, (model, bit) in enumerate(zip(models, bits)):
            out = model.expect(bit, out, axis=2 * k + 1)
        yield out


@lru_cache(maxsize=None)
def sensor_model(sensor: SensorParams, delta_max: int) -> SensorModel:
    """Cached per-(sensor, age cap) model; tables are built once and shared."""
    return SensorModel(sensor, delta_max)


def sensor_classes(
    config: NetworkConfig,
) -> tuple[tuple[SensorParams, ...], np.ndarray, np.ndarray]:
    """Group identical sensors so solvers do per-class work once.

    Returns (unique sensor parameters in order of first appearance,
    multiplicity per class, class index per sensor). The grouping is computed
    once per network, when it is constructed; both arrays are read-only.
    """
    return config._classes, config._class_counts, config._class_of


@dataclass(frozen=True, eq=False)
class FleetLayout:
    """The fleet's state index and the layout of the flat tables it reads.

    The (battery, age) states of the sensor classes, in the order of
    :func:`sensor_classes`, are numbered one after another: state
    s = start[c] + x for index x of class c, so class c holds the block
    [start[c], start[c + 1]). A sensor in state s keeps the index
    i = width * s, and a flat table of the layout holds its entry j for s at
    i + j: j = 2a + e in the simulator's successor table, 0 in its age
    table, the request count r in a runtime policy's tables. ``width`` =
    max(4, N + 1) fits them all; :meth:`table` writes every such table.
    """

    width: int
    class_of: np.ndarray  # class per sensor
    models: tuple[SensorModel, ...]  # per class
    start: np.ndarray  # per class its first state; the last entry is the state count

    def index(self, x):
        """The fleet index of (battery, age) indices x, one per sensor along the last axis."""
        return self.width * (self.start[self.class_of] + x)

    def table(self, rows: Sequence[np.ndarray]) -> np.ndarray:
        """The flat table holding row x of ``rows[c]`` at width * (start[c] + x).

        ``rows[c]`` has one row per (battery, age) state of class c; every class
        has the same number of columns, at most ``width``, and the rest of each
        width-long row is zero.
        """
        rows = np.concatenate(rows)
        out = np.zeros((rows.shape[0], self.width), dtype=rows.dtype)
        out[:, :rows.shape[1]] = rows
        return out.ravel()


def fleet_layout(network: NetworkConfig) -> FleetLayout:
    """The :class:`FleetLayout` of ``network``; it depends on the network alone."""
    classes, _, class_of = sensor_classes(network)
    models = tuple(sensor_model(c, network.delta_max) for c in classes)
    sizes = [m.succ.shape[0] for m in models]
    start = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
    start.setflags(write=False)
    return FleetLayout(max(4, network.num_users + 1), class_of, models, start)


def joint_state_sizes(network: NetworkConfig) -> tuple[int, ...]:
    """Per-sensor state counts of the joint MDP, in sensor order, as Python ints.

    The joint state count is their ``math.prod``, exact at any fleet size; a
    fixed-width product wraps (2048**40 is 0 in int64). Compare it with a cap
    before formatting it: past 4,300 digits ``str`` refuses the number.
    """
    return tuple(sensor_model(s, network.delta_max).num_states for s in network.sensors)
