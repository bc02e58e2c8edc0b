"""Independent brute-force oracles used to pin expected values in tests.

Nothing here touches the iterative solvers or the model's dynamics (only
:func:`model_kernel` reads them, to hand them to a test, and
:func:`ordering_inputs` runs them, to feed ``check_ordering``): every
chain is written out from a per-sensor reference of the slot rule, as dense
full-state chains over (requests, battery, age). Policies are evaluated on
them by direct chain analysis (strongly connected components, stationary
distributions, and absorption probabilities), the relaxed bound is a linear
program over their occupation measures, and the joint problem is
cross-checked by a finite-horizon dynamic program and a Bellman residual on
their product. The policy-file references are the plain writers that
``policy_io`` is held byte-equal to: ``np.savetxt`` for the body, one "%d"
per integer for the joint body (:func:`joint_rows_reference`) and one text
per sensor for the network fingerprint; :func:`sensor_classes_reference`
is the grouping of identical sensors that ``NetworkConfig`` keeps. :func:`poisson_reference` is
the COO assembly of the policy-evaluation system that the solver's direct
CSC assembly is held bit-equal to, and :func:`calibrate_eta_reference` the
exact bisection on the mixing factor that the solver's low-rank calibration
is held bit-equal to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import product

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components

from aoisched import (
    BracketError,
    MixedPolicy,
    MultichainError,
    NetworkConfig,
    SensorParams,
    SimConfig,
    SimReport,
    build_relaxed_fleet_policy,
    evaluate_per_sensor,
    run_experiment,
    sensor_classes,
    solve_exact,
    solve_relaxed,
)
from aoisched.relaxed_solver import DEFAULT_ETA_TOL, POISSON_RESIDUAL


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


def poisson_reference(chain: tuple[np.ndarray, np.ndarray, np.ndarray], rhs: np.ndarray,
                      ref: int) -> tuple[np.ndarray, np.ndarray]:
    """``relaxed_solver._poisson`` as it was before its system went straight into
    CSC arrays: the same multichain Poisson solve, with I - P and the
    absorption columns assembled as COO triplets whose duplicates scipy sums.

    ``chain`` holds the (rows, cols, data) of the transition matrix sorted by
    row, then column, with no duplicates and no zeros; ``ref`` is the pivot
    of a chain with one closed class. The solver must hand SuperLU the same
    matrix and return the same arrays, bit for bit. Like the solver, it
    reports a singular factor of either factorisation as MultichainError.
    """
    # splu is looked up at call time, as the solver looks it up, so that a
    # test can record the matrices both hand to SuperLU.
    from scipy.sparse.linalg import splu

    rows, cols, data = chain
    n = rhs.shape[0]
    index = np.arange(n)
    matrix = sp.csr_matrix((data, cols, np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))
    n_comp, labels = connected_components(matrix, directed=True, connection="strong")
    leaving = labels[rows] != labels[cols]
    leaky = np.zeros(n_comp, dtype=bool)
    leaky[labels[rows[leaving]]] = True
    closed = np.flatnonzero(~leaky)
    if closed.size == 1:
        pivots, absorb = np.array([ref]), np.ones((n, 1))
    else:
        pivots = np.unique(labels, return_index=True)[1][closed]
        absorb = (labels[:, None] == closed).astype(np.float64)
        transient = np.flatnonzero(leaky[labels])
        if transient.size:
            # (I - P_TT) A_T = P_TC A_C; the transient rows of ``absorb`` are still 0.
            block = matrix[transient]
            inner = (sp.identity(transient.size) - block[:, transient]).tocsc()
            try:
                absorb[transient] = splu(inner).solve(block @ absorb)
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise MultichainError(f"policy evaluation failed: {exc}") from None
    # I - P with the pivot columns zeroed, plus the absorption columns at the
    # pivots; duplicates sum.
    pivot = np.zeros(n, dtype=bool)
    pivot[pivots] = True
    keep = ~pivot[cols]
    gain_rows, gain_cols = np.nonzero(absorb)
    system = sp.csc_matrix(
        (
            np.concatenate([-data[keep], ~pivot, absorb[gain_rows, gain_cols]]),
            (
                np.concatenate([rows[keep], index, gain_rows]),
                np.concatenate([cols[keep], index, pivots[gain_cols]]),
            ),
        ),
        shape=(n, n),
    )
    try:
        x = splu(system).solve(rhs)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise MultichainError(f"policy evaluation failed: {exc}") from None
    # Normwise backward error; every row of the system has absolute sum <= 3.
    # A zero scale means x and rhs are both exactly zero, which solves the system.
    error = float(np.abs(system @ x - rhs).max())
    scale = 3.0 * float(np.abs(x).max()) + float(np.abs(rhs).max())
    residual = error / scale if scale else 0.0
    if not residual <= POISSON_RESIDUAL:  # also catches a NaN solve
        raise MultichainError(
            f"policy evaluation residual {residual:.3e} exceeds {POISSON_RESIDUAL:.0e}"
        )
    gains = absorb @ x[pivots]
    x[pivots] = 0.0
    return gains, x


def calibrate_eta_reference(classes, delta_max, lower, upper, weights, gamma):
    """``relaxed_solver._calibrate_eta`` as it was before its low-rank steps:
    the bisection on the mixing factor with every step's mixtures evaluated
    exactly by ``evaluate_per_sensor``. It takes and returns what the solver's
    calibration does, so a test can put it in the solver's place; the
    solver's eta and class evaluations must equal its own, bit for bit.
    """

    def fleet_rate(evaluations):
        return float(sum(w * ev.command_rate for w, ev in zip(weights, evaluations)))

    fixed = [lo.evaluation if MixedPolicy(lo.policy, up.policy, 1.0).degenerate else None
             for lo, up in zip(lower, upper)]

    def rate_at(eta):
        evals = [
            ev if ev is not None
            else evaluate_per_sensor(s, delta_max, MixedPolicy(lo.policy, up.policy, eta))
            for s, lo, up, ev in zip(classes, lower, upper, fixed)
        ]
        return fleet_rate(evals), evals

    rate_at_one, rate_at_zero = (fleet_rate([s.evaluation for s in end]) for end in (lower, upper))
    if not (rate_at_zero - 1e-9 <= gamma <= rate_at_one + 1e-9):
        raise BracketError(
            f"budget {gamma:.6g} outside the mixing bracket "
            f"[{rate_at_zero:.6g}, {rate_at_one:.6g}]"
        )
    lo_eta, hi_eta = 0.0, 1.0
    best_rate = rate_at_zero
    while hi_eta - lo_eta >= 1e-15:
        mid = 0.5 * (lo_eta + hi_eta)
        rate, evals = rate_at(mid)
        if abs(rate - gamma) <= DEFAULT_ETA_TOL:
            return mid, evals
        if abs(rate - gamma) < abs(best_rate - gamma):
            best_rate = rate
        if rate > gamma:
            hi_eta = mid
        else:
            lo_eta = mid
    raise BracketError(
        f"no mixing factor reaches the budget: best rate {best_rate:.6g} "
        f"vs {gamma:.6g}"
    )


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


def truncate_reference(actions, proposals, budget: int, trunc_streams) -> None:
    """Keep a uniformly random ``budget``-subset of the proposals in each
    overflowing row of ``actions``, in place: the reference for the batched
    truncation.

    Each overflowing episode draws one uniform key per proposing sensor, in
    sensor order, from its truncation stream. The keys fill an (overflowing
    rows, K) matrix padded with inf, and a partition across all K columns
    keeps the ``budget`` smallest of each row.
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


def ordering_inputs(
    network: NetworkConfig, horizon: int, episodes: int, seed: int
) -> tuple[float, float, SimReport]:
    """The relaxed bound, the exact optimum and the relax-then-truncate report
    of one instance, in the order ``check_ordering`` takes them.

    Not an oracle: these are the package's own solvers and simulator.
    """
    relaxed = solve_relaxed(network)
    _, exact = solve_exact(network)
    policy = build_relaxed_fleet_policy(network, relaxed.policies, truncate_to_budget=True)
    report = run_experiment(
        SimConfig(network=network, horizon=horizon, episodes=episodes, seed=seed), policy
    )
    return relaxed.avg_cost, exact.avg_cost, report


def savetxt_reference(path, header: str, rows: np.ndarray) -> None:
    """A policy file as ``np.savetxt`` writes it: the header, then "%d" rows."""
    np.savetxt(path, rows, fmt="%d", delimiter=",", header=header, comments="")


def joint_rows_reference(actions: np.ndarray) -> bytes:
    """A joint policy body formatted one "%d" per integer: each row is the
    joint state index, then the sensors' action bits."""
    rows = np.column_stack((np.arange(actions.shape[0]), actions)).tolist()
    line = b",".join([b"%d"] * (actions.shape[1] + 1)) + b"\n"
    return b"".join(line % tuple(row) for row in rows)


def sensor_classes_reference(
    config: NetworkConfig,
) -> tuple[tuple[SensorParams, ...], np.ndarray, np.ndarray]:
    """The sensor grouping, recomputed from the sensors by one dict."""
    lookup: dict[SensorParams, int] = {}  # in order of first appearance
    class_of = np.array([lookup.setdefault(s, len(lookup)) for s in config.sensors],
                        dtype=np.int64)
    counts = np.bincount(class_of, minlength=len(lookup)).astype(np.int64)
    return tuple(lookup), counts, class_of


def fingerprint_reference(config: NetworkConfig) -> str:
    """The network fingerprint, formatted sensor by sensor."""
    parts = [
        f"K={config.num_sensors}",
        f"N={config.num_users}",
        f"M={config.budget}",
        f"delta_max={config.delta_max}",
    ]
    for s in config.sensors:
        probs = ",".join(repr(p) for p in s.request_probs)
        parts.append(f"({s.harvest_rate!r},{s.battery_capacity},[{probs}])")
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]
