"""Problem instances, state spaces, per-sensor transition kernels, and the slot cost.

Every solver and the simulator consume the objects defined here. A per-sensor
state is the triple (requests, battery, age); states are indexed row-major
over (requests, battery, age) with age fastest, so policy tables serialize
deterministically. All objects are immutable after construction and safe to
share across concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SensorParams",
    "NetworkConfig",
    "SensorModel",
    "sensor_model",
    "sensor_classes",
    "request_pmf",
    "slot_step",
    "state_index",
]


@dataclass(frozen=True)
class SensorParams:
    """Static parameters of one sensor: harvesting, battery size, and demand."""

    harvest_rate: float
    battery_capacity: int
    request_probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "harvest_rate", float(self.harvest_rate))
        object.__setattr__(self, "battery_capacity", int(self.battery_capacity))
        object.__setattr__(
            self, "request_probs", tuple(float(p) for p in self.request_probs)
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
    """A full problem instance: sensor fleet, per-slot budget, and the age cap."""

    num_sensors: int
    num_users: int
    budget: int
    delta_max: int
    sensors: tuple[SensorParams, ...]

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
        for k, s in enumerate(self.sensors):
            if s.num_users != self.num_users:
                raise ValueError(f"sensor {k} has {s.num_users} request probs, expected {self.num_users}")

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


def request_pmf(sensor: SensorParams) -> np.ndarray:
    """PMF of the per-slot request count, a sum of independent non-identical Bernoullis.

    Computed by the exact O(N^2) convolution recurrence; entries sum to one to
    within 1e-12.
    """
    pmf = np.zeros(sensor.num_users + 1)
    pmf[0] = 1.0
    for p in sensor.request_probs:
        pmf[1:] = pmf[1:] * (1.0 - p) + pmf[:-1] * p
        pmf[0] *= 1.0 - p
    return pmf


class SensorModel:
    """Precomputed per-sensor MDP pieces: state coordinates, transition matrices, costs.

    States are laid out as :func:`state_index` numbers them. Transition rows
    have at most 2 * (num_users + 1) nonzero successors: the request count
    redraws independently, the battery moves to one of two levels, and the
    next age is deterministic.
    """

    def __init__(self, sensor: SensorParams, delta_max: int):
        if delta_max < 2:
            raise ValueError("delta_max must be >= 2")
        self.sensor = sensor
        self.delta_max = int(delta_max)
        shape = (sensor.num_users + 1, sensor.battery_capacity + 1, self.delta_max)
        self.num_states = int(np.prod(shape))
        self.requests_of, self.battery_of, age0 = np.unravel_index(
            np.arange(self.num_states), shape
        )
        self.age_of = age0 + 1
        self.request_dist = request_pmf(sensor)
        self.ref_index = 0  # state (requests=0, battery=0, age=1)

        self._transition, self._cost = zip(*(self._build(a) for a in (0, 1)))
        for arr in (self.age_of, self.battery_of, self.requests_of, self.request_dist,
                    *self._cost):
            arr.setflags(write=False)

    def _build(self, action: int) -> tuple[sp.csr_matrix, np.ndarray]:
        capacity = self.sensor.battery_capacity
        rate = self.sensor.harvest_rate
        # Harvest branch first, then the no-harvest branch; the age does not
        # depend on the branch.
        branches = [
            slot_step(self.battery_of, self.age_of, action, harvested, capacity, self.delta_max)
            for harvested in (1, 0)
        ]
        next_battery = np.stack([b for _, b, _ in branches], axis=1)  # (n, 2)
        next_age = branches[0][2]

        pmf = self.request_dist
        n_req = pmf.size
        # Successor column for (state, next request count, harvest branch).
        cols = state_index(
            np.arange(n_req)[None, :, None],
            next_battery[:, None, :],
            next_age[:, None, None],
            capacity,
            self.delta_max,
        ).ravel()
        rows = np.repeat(np.arange(self.num_states), 2 * n_req)
        data = np.broadcast_to(
            pmf[None, :, None] * np.array([rate, 1.0 - rate])[None, None, :],
            (self.num_states, n_req, 2),
        ).ravel()
        mat = sp.coo_matrix(
            (data, (rows, cols)), shape=(self.num_states, self.num_states)
        ).tocsr()
        mat.sum_duplicates()
        return mat, (self.requests_of * next_age).astype(np.float64)

    def transition_matrix(self, action: int) -> sp.csr_matrix:
        """Sparse row-stochastic transition matrix under a fixed action bit."""
        return self._transition[action]

    def cost_vector(self, action: int) -> np.ndarray:
        """Slot cost per state under a fixed action bit (requests times next age)."""
        return self._cost[action]


@lru_cache(maxsize=None)
def sensor_model(sensor: SensorParams, delta_max: int) -> SensorModel:
    """Cached per-(sensor, age cap) model; kernels are built once and shared."""
    return SensorModel(sensor, delta_max)


def sensor_classes(
    config: NetworkConfig,
) -> tuple[tuple[SensorParams, ...], np.ndarray, np.ndarray]:
    """Group identical sensors so solvers do per-class work once.

    Returns (unique sensor parameters, multiplicity per class, class index per sensor).
    """
    classes: list[SensorParams] = []
    lookup: dict[SensorParams, int] = {}
    class_of = np.empty(config.num_sensors, dtype=np.int64)
    for k, s in enumerate(config.sensors):
        if s not in lookup:
            lookup[s] = len(classes)
            classes.append(s)
        class_of[k] = lookup[s]
    counts = np.bincount(class_of, minlength=len(classes)).astype(np.int64)
    return tuple(classes), counts, class_of

