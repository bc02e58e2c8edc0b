"""Independent brute-force oracles used to pin expected values in tests.

Nothing here touches the iterative solvers or the model's dynamics (only
:func:`model_kernel` reads them, to hand them to a test): every
chain is written out from a per-sensor reference of the slot rule, as dense
full-state chains over (requests, battery, age). Policies are evaluated on
them by direct chain analysis (strongly connected components, stationary
distributions, and absorption probabilities), the relaxed bound is a linear
program over their occupation measures, and the joint problem is
cross-checked by a finite-horizon dynamic program and a Bellman residual on
their product.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components

from aoisched import NetworkConfig, SensorParams, sensor_classes


@dataclass(frozen=True)
class PerSensorState:
    """State triple of a single sensor: request count, battery level, and age."""

    requests: int
    battery: int
    age: int


def all_states(sensor: SensorParams, delta_max: int) -> list[PerSensorState]:
    """Every per-sensor state, in the kernel's layout order."""
    return [
        PerSensorState(r, b, a)
        for r, b, a in product(
            range(sensor.num_users + 1),
            range(sensor.battery_capacity + 1),
            range(1, delta_max + 1),
        )
    ]


def _reference_step(state: PerSensorState, command: int, delta_max: int) -> tuple[int, int]:
    # A command transmits only from a nonempty battery; a delivery resets the
    # age to one, otherwise the age counts up to the cap.
    sent = int(command == 1 and state.battery >= 1)
    return sent, 1 if sent else min(state.age + 1, delta_max)


def reference_cost(state: PerSensorState, command: int, delta_max: int) -> int:
    """Slot cost of one sensor: request count times the post-transition age."""
    return state.requests * _reference_step(state, command, delta_max)[1]


def reference_successors(
    sensor: SensorParams, state: PerSensorState, command: int, delta_max: int
) -> dict[PerSensorState, float]:
    """Successor distribution of one sensor under one action bit.

    The harvest lands after the transmission and saturates at the capacity;
    the next request count is summed over every pattern of user requests.
    """
    sent, age = _reference_step(state, command, delta_max)
    out: dict[PerSensorState, float] = {}
    for harvested, p_energy in ((1, sensor.harvest_rate), (0, 1.0 - sensor.harvest_rate)):
        battery = min(state.battery - sent + harvested, sensor.battery_capacity)
        for pattern in product((0, 1), repeat=sensor.num_users):
            p = p_energy
            for asked, q in zip(pattern, sensor.request_probs):
                p *= q if asked else 1.0 - q
            if p > 0:
                nxt = PerSensorState(sum(pattern), battery, age)
                out[nxt] = out.get(nxt, 0.0) + p
    return out


def full_chain(
    sensor: SensorParams, delta_max: int, w_cmd: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dense chain and slot cost over (requests, battery, age) when each state
    commands with probability ``w_cmd``, written out from the slot-rule
    reference and not from the model's kernels."""
    states = all_states(sensor, delta_max)
    index = {state: i for i, state in enumerate(states)}
    chain = np.zeros((len(states), len(states)))
    cost = np.zeros(len(states))
    for i, state in enumerate(states):
        for command, weight in ((0, 1.0 - w_cmd[i]), (1, w_cmd[i])):
            for successor, p in reference_successors(sensor, state, command, delta_max).items():
                chain[i, index[successor]] += weight * p
            cost[i] += weight * reference_cost(state, command, delta_max)
    return chain, cost


def reference_battery_age_kernel(
    sensor: SensorParams, delta_max: int, command: int
) -> np.ndarray:
    """Dense Q_a over the (battery, age) states, x = battery * delta_max + age - 1,
    from the slot-rule reference: each state's successors, summed over the next
    request count."""
    n = (sensor.battery_capacity + 1) * delta_max
    kernel = np.zeros((n, n))
    for i, state in enumerate(all_states(sensor, delta_max)[:n]):  # the requests=0 block
        for successor, p in reference_successors(sensor, state, command, delta_max).items():
            kernel[i, successor.battery * delta_max + successor.age - 1] += p
    return kernel


def model_kernel(model, command: int) -> np.ndarray:
    """The model's own Q_a, densified from its successor table.

    Not an oracle: this is the object under test, for the tests that compare
    it against the references above."""
    n = model.succ.shape[0]
    kernel = np.zeros((n, n))
    np.add.at(kernel, (np.arange(n)[:, None], model.succ[:, command]),
              model.succ_prob[:, command])
    return kernel


def pure_chains(sensor: SensorParams, delta_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The :func:`full_chain` and slot cost of each action bit held in every state."""
    n = len(all_states(sensor, delta_max))
    return [full_chain(sensor, delta_max, np.full(n, float(a))) for a in (0, 1)]


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
    pos = np.searchsorted(transient, start)
    reach = np.array([
        np.linalg.solve(inner, transition[np.ix_(transient, members)].sum(axis=1))[pos]
        for members in closed
    ])
    # The absorption probabilities of a transient start sum to one. Dividing by
    # their computed sum removes the round-off they share when I - P_TT is
    # nearly singular, as for a transient cycle left with probability 3e-7 per
    # pass, where it reached 1.6e-10.
    return float(reach @ [gains[labels[members[0]]] for members in closed] / reach.sum())


def best_deterministic_policy(
    sensor: SensorParams, delta_max: int, mu: float
) -> tuple[float, np.ndarray]:
    """Minimum priced long-run cost over every deterministic per-sensor map.

    Exhaustive over all 2^n action tables; each policy's chain is evaluated
    exactly from the reference state (requests=0, battery=0, age=1).
    """
    n = len(all_states(sensor, delta_max))
    if n > 16:
        raise ValueError(f"{2 ** n} policies is too many to enumerate")
    (mat0, cost0), (mat1, cost1) = pure_chains(sensor, delta_max)
    best_value, best_actions = np.inf, None
    for bits in range(2**n):
        actions = np.array([(bits >> i) & 1 for i in range(n)])
        transition = np.where(actions[:, None] == 1, mat1, mat0)
        cost = np.where(actions == 1, cost1 + mu, cost0)
        value = chain_average_cost(transition, cost, 0)
        if value < best_value:
            best_value, best_actions = value, actions
    return best_value, best_actions


def _joint_problem(config: NetworkConfig):
    """Joint states in the solver's flat order, the budget-feasible action
    bits, and per (state, bits) the successor list and normalized slot cost,
    all written out from the slot-rule reference."""
    states = list(product(*(all_states(s, config.delta_max) for s in config.sensors)))
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
                reference_successors(s, st, b, config.delta_max).items()
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
                reference_cost(st, b, config.delta_max)
                for st, b in zip(state, bits)
            )
    return states, actions, transitions, slot_cost


def finite_horizon_joint_cost(
    config: NetworkConfig, horizon: int, start: tuple[PerSensorState, ...]
) -> float:
    """Average of the minimum total cost over all action sequences of a horizon.

    A plain backward dynamic program over the product space, built from the
    slot-rule reference above; no value-iteration machinery and no sparse kernel.
    """
    states, actions, transitions, slot_cost = _joint_problem(config)
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


def bellman_residual(config: NetworkConfig, result) -> float:
    """Max absolute residual of the joint average-cost optimality equation
    min_a [c(s, a) + sum_s' p(s' | s, a) h(s')] = h(s) + g at an exact solve's
    relative values h and average cost g; every other term comes from the
    slot-rule reference."""
    states, actions, transitions, slot_cost = _joint_problem(config)
    h = dict(zip(states, result.rel_values))
    return max(
        abs(
            min(
                slot_cost[(state, bits)] + sum(p * h[nxt] for p, nxt in transitions[(state, bits)])
                for bits in actions
            )
            - h[state]
            - result.avg_cost
        )
        for state in states
    )


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


def relaxed_lp(network: NetworkConfig) -> float:
    """Optimum of the relaxed problem as a linear program over occupation measures.

    One variable x_c(s, a) >= 0 per sensor class, state and action; each class
    has flow balance and normalisation rows, and one fleet row keeps the
    class-weighted command rate at or below gamma. The objective is the
    class-weighted slot cost over the number of users. Solved by HiGHS dual
    simplex with 1e-10 feasibility tolerances; the residuals of the returned
    point are checked before its value is trusted. Chains and costs come from
    :func:`pure_chains`, so nothing is shared with the relaxed solver.
    """
    classes, counts, _ = sensor_classes(network)
    weights = counts / network.num_sensors
    blocks, objective, budget_row, b_eq = [], [], [], []
    for w, c in zip(weights, classes):
        (mat0, cost0), (mat1, cost1) = pure_chains(c, network.delta_max)
        n = cost0.size
        eye = sp.identity(n, format="csr")
        balance = sp.hstack([eye - sp.csr_matrix(mat).T for mat in (mat0, mat1)])
        blocks.append(sp.vstack([balance, np.ones((1, 2 * n))]))
        objective.append(w * np.concatenate([cost0, cost1]))
        budget_row.append(np.concatenate([np.zeros(n), np.full(n, w)]))
        b_eq.append(np.append(np.zeros(n), 1.0))
    a_eq = sp.block_diag(blocks, format="csr")
    b_eq = np.concatenate(b_eq)
    a_ub = np.concatenate(budget_row)[None, :]
    cost = np.concatenate(objective) / network.num_users
    res = linprog(
        cost, A_ub=a_ub, b_ub=[network.gamma], A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise RuntimeError(f"relaxed LP failed: {res.message}")
    x = res.x
    assert np.abs(a_eq @ x - b_eq).max() <= 1e-9, "LP flow balance residual"
    assert (a_ub @ x)[0] <= network.gamma + 1e-9, "LP budget residual"
    assert x.min() >= -1e-9, "LP sign residual"
    return float(cost @ x)
