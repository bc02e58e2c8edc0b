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
    "PerSensorState",
    "SensorModel",
    "sensor_model",
    "sensor_classes",
    "request_pmf",
    "effective_send",
    "step_battery",
    "step_age",
    "per_sensor_cost",
    "per_sensor_kernel",
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


@dataclass(frozen=True)
class PerSensorState:
    """State triple of a single sensor: request count, battery level, and age."""

    requests: int
    battery: int
    age: int

    def __post_init__(self):
        if self.requests < 0 or self.battery < 0 or self.age < 1:
            raise ValueError(f"invalid per-sensor state {self!r}")


def effective_send(state: PerSensorState, command: int) -> int:
    """Whether a commanded sensor actually transmits: needs one unit of energy."""
    return int(bool(command) and state.battery >= 1)


def step_battery(level: int, sent: int, harvested: int, capacity: int) -> int:
    """Next battery level: spend one unit on a transmission, add a harvest, saturate."""
    if not 0 <= level <= capacity:
        raise ValueError(f"battery level {level} outside [0, {capacity}]")
    if sent and level < 1:
        raise ValueError("energy causality violated: transmission from an empty battery")
    return min(level + int(bool(harvested)) - int(bool(sent)), capacity)


def step_age(age: int, sent: int, delta_max: int) -> int:
    """Next age: reset to one on a delivered update, otherwise count up to the cap."""
    if not 1 <= age <= delta_max:
        raise ValueError(f"age {age} outside [1, {delta_max}]")
    return 1 if sent else min(age + 1, delta_max)


def per_sensor_cost(state: PerSensorState, command: int, delta_max: int) -> int:
    """Slot cost of one sensor: request count times the post-transition age.

    Zero whenever nobody requested the quantity this slot, regardless of the
    action or battery level.
    """
    sent = effective_send(state, command)
    return state.requests * step_age(state.age, sent, delta_max)


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
    """Precomputed per-sensor MDP pieces: indexing, transition matrices, costs.

    State index = (requests * (B + 1) + battery) * delta_max + (age - 1).
    Transition rows have at most 2 * (num_users + 1) nonzero successors: the
    request count redraws independently, the battery moves to one of two
    levels, and the next age is deterministic.
    """

    def __init__(self, sensor: SensorParams, delta_max: int):
        if delta_max < 2:
            raise ValueError("delta_max must be >= 2")
        self.sensor = sensor
        self.delta_max = int(delta_max)
        n_users = sensor.num_users
        capacity = sensor.battery_capacity
        self.num_states = (n_users + 1) * (capacity + 1) * self.delta_max

        idx = np.arange(self.num_states)
        self.age_of = idx % self.delta_max + 1
        self.battery_of = idx // self.delta_max % (capacity + 1)
        self.requests_of = idx // (self.delta_max * (capacity + 1))
        self.request_dist = request_pmf(sensor)
        self.ref_index = 0  # state (requests=0, battery=0, age=1)

        self._next_age = tuple(self._next_age_for(a) for a in (0, 1))
        self._cost = tuple(
            (self.requests_of * self._next_age[a]).astype(np.float64) for a in (0, 1)
        )
        self._transition = tuple(self._build_matrix(a) for a in (0, 1))
        for arr in (self.age_of, self.battery_of, self.requests_of, self.request_dist,
                    *self._next_age, *self._cost):
            arr.setflags(write=False)

    def _next_age_for(self, action: int) -> np.ndarray:
        sends = (action == 1) & (self.battery_of >= 1)
        return np.where(sends, 1, np.minimum(self.age_of + 1, self.delta_max))

    def _build_matrix(self, action: int) -> sp.csr_matrix:
        capacity = self.sensor.battery_capacity
        rate = self.sensor.harvest_rate
        sends = ((action == 1) & (self.battery_of >= 1)).astype(np.int64)
        b_spend = self.battery_of - sends
        b_harvest = np.minimum(b_spend + 1, capacity)
        age_col = self._next_age[action] - 1

        pmf = self.request_dist
        n_req = pmf.size
        # Successor column for (state, next request count, harvest branch).
        b_branch = np.stack([b_harvest, b_spend], axis=1)  # (n, 2)
        base = b_branch * self.delta_max + age_col[:, None]  # (n, 2)
        req_stride = (capacity + 1) * self.delta_max
        cols = (np.arange(n_req)[None, :, None] * req_stride + base[:, None, :]).ravel()
        rows = np.repeat(np.arange(self.num_states), 2 * n_req)
        data = np.broadcast_to(
            pmf[None, :, None] * np.array([rate, 1.0 - rate])[None, None, :],
            (self.num_states, n_req, 2),
        ).ravel()
        mat = sp.coo_matrix(
            (data, (rows, cols)), shape=(self.num_states, self.num_states)
        ).tocsr()
        mat.sum_duplicates()
        return mat

    def transition_matrix(self, action: int) -> sp.csr_matrix:
        """Sparse row-stochastic transition matrix under a fixed action bit."""
        return self._transition[action]

    def cost_vector(self, action: int) -> np.ndarray:
        """Slot cost per state under a fixed action bit (requests times next age)."""
        return self._cost[action]

    def next_age_vector(self, action: int) -> np.ndarray:
        return self._next_age[action]

    def index_of(self, state: PerSensorState) -> int:
        """Flat index of a state; validates the declared component ranges."""
        n_users = self.sensor.num_users
        capacity = self.sensor.battery_capacity
        if not 0 <= state.requests <= n_users:
            raise ValueError(f"requests {state.requests} outside [0, {n_users}]")
        if not 0 <= state.battery <= capacity:
            raise ValueError(f"battery {state.battery} outside [0, {capacity}]")
        if not 1 <= state.age <= self.delta_max:
            raise ValueError(f"age {state.age} outside [1, {self.delta_max}]")
        return (state.requests * (capacity + 1) + state.battery) * self.delta_max + state.age - 1

    def state_of(self, index: int) -> PerSensorState:
        if not 0 <= index < self.num_states:
            raise ValueError(f"state index {index} outside [0, {self.num_states})")
        return PerSensorState(
            requests=int(self.requests_of[index]),
            battery=int(self.battery_of[index]),
            age=int(self.age_of[index]),
        )


@lru_cache(maxsize=None)
def sensor_model(sensor: SensorParams, delta_max: int) -> SensorModel:
    """Cached per-(sensor, age cap) model; kernels are built once and shared."""
    return SensorModel(sensor, delta_max)


def per_sensor_kernel(
    sensor: SensorParams, state: PerSensorState, command: int, delta_max: int
) -> dict[PerSensorState, float]:
    """Sparse successor distribution of one sensor under one action bit."""
    model = sensor_model(sensor, delta_max)
    i = model.index_of(state)
    mat = model.transition_matrix(int(bool(command)))
    start, stop = mat.indptr[i], mat.indptr[i + 1]
    return {
        model.state_of(int(j)): float(v)
        for j, v in zip(mat.indices[start:stop], mat.data[start:stop])
        if v != 0.0
    }


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

