"""Independent brute-force oracles used to pin expected values in tests.

Nothing here touches the iterative solvers: policies are evaluated by direct
chain analysis (strongly connected components, stationary distributions, and
absorption probabilities), and the joint problem is cross-checked by a
finite-horizon dynamic program built from the public kernel primitives.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from aoisched import (
    NetworkConfig,
    PerSensorState,
    SensorParams,
    per_sensor_cost,
    per_sensor_kernel,
    sensor_model,
)


def chain_average_cost(transition: np.ndarray, cost: np.ndarray, start: int) -> float:
    """Exact long-run average cost of a finite Markov chain from a start state.

    Works for multichain structure: each closed communicating class gets its
    stationary gain, transient starts mix the gains with exact absorption
    probabilities.
    """
    n = transition.shape[0]
    n_comp, labels = connected_components(
        sp.csr_matrix(transition > 0), directed=True, connection="strong"
    )
    closed = []
    for comp in range(n_comp):
        members = np.flatnonzero(labels == comp)
        outflow = transition[members].sum(axis=0)
        if np.allclose(outflow[np.isin(np.arange(n), members, invert=True)], 0.0):
            closed.append(members)

    gains = {}
    for members in closed:
        sub = transition[np.ix_(members, members)]
        m = len(members)
        if m == 1:
            dist = np.ones(1)
        else:
            system = np.vstack([(sub.T - np.eye(m))[:-1], np.ones(m)])
            rhs = np.zeros(m)
            rhs[-1] = 1.0
            dist = np.linalg.solve(system, rhs)
        gains[labels[members[0]]] = float(dist @ cost[members])

    if labels[start] in gains:
        return gains[labels[start]]

    closed_states = np.concatenate(closed)
    transient = np.setdiff1d(np.arange(n), closed_states)
    inner = np.eye(len(transient)) - transition[np.ix_(transient, transient)]
    total = 0.0
    for members in closed:
        reach = np.linalg.solve(inner, transition[np.ix_(transient, members)].sum(axis=1))
        pos = np.searchsorted(transient, start)
        total += reach[pos] * gains[labels[members[0]]]
    return total


def best_deterministic_policy(
    sensor: SensorParams, delta_max: int, mu: float
) -> tuple[float, np.ndarray]:
    """Minimum priced long-run cost over every deterministic per-sensor map.

    Exhaustive over all 2^n action tables; each policy's chain is evaluated
    exactly from the reference state (requests=0, battery=0, age=1).
    """
    model = sensor_model(sensor, delta_max)
    n = model.num_states
    if n > 16:
        raise ValueError(f"{2 ** n} policies is too many to enumerate")
    mats = [model.transition_matrix(a).toarray() for a in (0, 1)]
    costs = [model.cost_vector(0), model.cost_vector(1) + mu]
    best_value, best_actions = np.inf, None
    for bits in range(2**n):
        actions = np.array([(bits >> i) & 1 for i in range(n)])
        transition = np.where(actions[:, None] == 1, mats[1], mats[0])
        cost = np.where(actions == 1, costs[1], costs[0])
        value = chain_average_cost(transition, cost, model.ref_index)
        if value < best_value:
            best_value, best_actions = value, actions
    return best_value, best_actions


def finite_horizon_joint_cost(
    config: NetworkConfig, horizon: int, start: tuple[PerSensorState, ...]
) -> float:
    """Average of the minimum total cost over all action sequences of a horizon.

    A plain backward dynamic program over the product space, built from the
    public per-sensor kernel and cost primitives; no value-iteration machinery.
    """
    models = [sensor_model(s, config.delta_max) for s in config.sensors]
    spaces = [
        [m.state_of(i) for i in range(m.num_states)] for m in models
    ]
    states = list(product(*spaces))
    actions = [
        bits
        for bits in product((0, 1), repeat=config.num_sensors)
        if sum(bits) <= config.budget
    ]
    norm = 1.0 / (config.num_users * config.num_sensors)

    transitions: dict[tuple, list[tuple[float, tuple]]] = {}
    slot_cost: dict[tuple, float] = {}
    for state in states:
        for bits in actions:
            per_sensor = [
                per_sensor_kernel(s, st, b, config.delta_max).items()
                for s, st, b in zip(config.sensors, state, bits)
            ]
            rows = []
            for combo in product(*per_sensor):
                prob = 1.0
                nxt = []
                for nstate, p in combo:
                    prob *= p
                    nxt.append(nstate)
                if prob > 0:
                    rows.append((prob, tuple(nxt)))
            transitions[(state, bits)] = rows
            slot_cost[(state, bits)] = norm * sum(
                per_sensor_cost(st, b, config.delta_max)
                for st, b in zip(state, bits)
            )

    values = {state: 0.0 for state in states}
    for _ in range(horizon):
        values = {
            state: min(
                slot_cost[(state, bits)]
                + sum(p * values[nxt] for p, nxt in transitions[(state, bits)])
                for bits in actions
            )
            for state in states
        }
    return values[tuple(start)] / horizon


def greedy_decide(states: tuple[PerSensorState, ...], budget: int) -> set[int]:
    """Request-aware myopic rule, one slot at a time: the reference for the
    batched greedy policy.

    Only sensors with at least one request are eligible; the largest ages win
    and ties break toward the lowest sensor position. Returns 0-based
    positions, at most ``budget`` many.
    """
    eligible = [(s.age, -k, k) for k, s in enumerate(states) if s.requests >= 1]
    eligible.sort(reverse=True)
    return {k for _, _, k in eligible[:budget]}


def random_sensor(rng: np.random.Generator, max_users: int = 3,
                  max_battery: int = 4, degenerate_ok: bool = False) -> SensorParams:
    """Generic random sensor; boundary probabilities only when asked for."""
    n_users = int(rng.integers(1, max_users + 1))
    if degenerate_ok and rng.random() < 0.2:
        probs = tuple(float(rng.choice([0.0, 1.0])) for _ in range(n_users))
        rate = float(rng.choice([0.0, 1.0]))
    else:
        probs = tuple(float(p) for p in rng.uniform(0.05, 0.95, n_users))
        rate = float(rng.uniform(0.05, 0.95))
    return SensorParams(
        harvest_rate=rate,
        battery_capacity=int(rng.integers(1, max_battery + 1)),
        request_probs=probs,
    )


def random_tiny_network(rng: np.random.Generator) -> NetworkConfig:
    """Random two-sensor instance small enough for the exact solver."""
    delta_max = int(rng.integers(3, 6))
    sensors = tuple(
        SensorParams(
            harvest_rate=float(rng.uniform(0.2, 0.9)),
            battery_capacity=int(rng.integers(1, 3)),
            request_probs=(float(rng.uniform(0.3, 0.95)),),
        )
        for _ in range(2)
    )
    return NetworkConfig(
        num_sensors=2, num_users=1, budget=1, delta_max=delta_max, sensors=sensors
    )
