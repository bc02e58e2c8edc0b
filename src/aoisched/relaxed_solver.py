"""Time-average-budget solver: per-sensor policy iteration under a command price,
a breakpoint search for the critical price, and mixing of the two tables optimal there.

The per-slot fleet budget is relaxed to a time-average rate Gamma = budget / K.
Pricing each command at mu decouples the fleet into independent per-sensor
average-cost problems. Pricing at the breakpoint of a price bracket's two end
tables either finds a table between them, which replaces an end, or shows both
ends optimal at that critical price; a two-policy mixture of them then
calibrates the rate to Gamma exactly. One constraint leaves no duality gap, so
the resulting average cost is the relaxed optimum: a lower bound on the cost of
any policy that respects the per-slot budget.

The request count is redrawn independently every slot, whatever the state
and the action, so a table over (requests, battery, age) acts on the
(battery, age) states only through its request-averaged command probability.
Every policy evaluation therefore runs on that (battery, age) chain, a factor
num_users + 1 smaller than the full one: :func:`_poisson`, one sparse LU
factorisation, yields its cost rate, its command rate and its relative values
at once. Howard policy iteration solves each priced per-sensor problem on it,
and the Q-values of the full states follow from one kernel product per
action; a price at which policy iteration meets a multichain table is solved
by relative value iteration, with the same request-averaged expectations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import splu

from .errors import BracketError, MultichainError
from .model import NetworkConfig, SensorModel, SensorParams, expected_next, sensor_classes, sensor_model
# DEFAULT_THETA stays importable here: bench/run.py reads the span tolerance from this module.
from .rvi import DEFAULT_THETA, IMPROVEMENT_TOL, relative_value_iteration  # noqa: F401

__all__ = [
    "PolicyTable",
    "MixedPolicy",
    "PerSensorSolve",
    "ChainEvaluation",
    "LagrangeSolve",
    "RelaxedSolution",
    "solve_per_sensor",
    "evaluate_per_sensor",
    "solve_relaxed",
]

log = logging.getLogger(__name__)

POISSON_RESIDUAL = 1e-10  # normwise backward error a policy evaluation must meet
RATE_TIE_TOL = 1e-6  # command rate counts as "equal to Gamma" within this
DEFAULT_ETA_TOL = 1e-6  # |mixed command rate - Gamma| that ends the eta bisection


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """Deterministic per-sensor policy: one action bit per state index."""

    actions: np.ndarray
    mu: float

    def __post_init__(self):
        acts = np.asarray(self.actions, dtype=np.int8)
        if acts.ndim != 1 or not np.isin(acts, (0, 1)).all():
            raise ValueError("policy table must be a flat array of 0/1 action bits")
        acts.setflags(write=False)
        object.__setattr__(self, "actions", acts)

    @property
    def num_states(self) -> int:
        return self.actions.size


@dataclass(frozen=True, eq=False)
class MixedPolicy:
    """Per-decision randomization between two deterministic tables.

    Each slot, the lower-price table is consulted with probability eta and the
    upper-price table with probability 1 - eta, independently per sensor.
    """

    lower: PolicyTable
    upper: PolicyTable
    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must be in [0, 1]")
        if self.lower.num_states != self.upper.num_states:
            raise ValueError("mixed policy tables must cover the same state space")

    @property
    def num_states(self) -> int:
        return self.lower.num_states

    def command_prob(self) -> np.ndarray:
        """Per-state probability of the command action under the mixture."""
        return self.eta * self.lower.actions + (1.0 - self.eta) * self.upper.actions

    @property
    def degenerate(self) -> bool:
        """True when both tables coincide, i.e. no randomization happens."""
        return bool(np.array_equal(self.lower.actions, self.upper.actions))


@dataclass(frozen=True, eq=False)
class ChainEvaluation:
    """Exact long-run averages of a policy-induced per-sensor chain."""

    cost_rate: float
    command_rate: float

    def lagrangian(self, mu: float) -> float:
        return self.cost_rate + mu * self.command_rate


@dataclass(frozen=True, eq=False)
class PerSensorSolve:
    """Optimal per-sensor table at a fixed command price, with its exact averages.

    ``iterations`` counts the policy evaluations of policy iteration (one LU
    factorisation each), or value-iteration sweeps when the price took the
    multichain fallback.
    """

    policy: PolicyTable
    rel_values: np.ndarray
    avg_lagrangian: float
    iterations: int
    evaluation: ChainEvaluation


def _poisson(chain: sp.csr_matrix, rhs: np.ndarray, ref: int) -> np.ndarray:
    """Gains and relative values of a unichain chain, one column per reward in ``rhs``.

    Solves (I - P) h + g 1 = r with h[ref] = 0: the system matrix is I - P
    with column ``ref`` replaced by ones, factorised once for every column.
    Entry ``ref`` of a solution column is the gain g, the other entries are h.
    The solvers pass the request-averaged (battery, age) chain, so the system
    has (battery_capacity + 1) * delta_max unknowns. Raises
    :class:`MultichainError` when the chain has more than one closed class,
    when SuperLU finds the system singular, or when the solve misses
    ``POISSON_RESIDUAL``.
    """
    n = chain.shape[0]
    index = np.arange(n)
    rows, cols = np.repeat(index, np.diff(chain.indptr)), chain.indices
    n_comp, labels = connected_components(chain, directed=True, connection="strong")
    leaving = labels[rows] != labels[cols]
    closed = n_comp - np.unique(labels[rows[leaving]]).size
    if closed != 1:
        raise MultichainError(f"{closed} recurrent classes in the policy-induced chain")
    # I - P with column ref zeroed, plus a column of ones at ref; duplicates sum.
    keep = cols != ref
    system = sp.csc_matrix(
        (
            np.concatenate([-chain.data[keep], index != ref, np.ones(n)]),
            (
                np.concatenate([rows[keep], index, index]),
                np.concatenate([cols[keep], index, np.full(n, ref)]),
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
    return x


def _mean_chain(
    model: SensorModel, w_cmd: np.ndarray
) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """The (battery, age) chain of a table with the request count averaged out.

    ``w_cmd`` is the command probability per full state. With w̄(x) its
    request-averaged value at (battery, age) index x, the chain is
    diag(1 - w̄) Q_0 + diag(w̄) Q_1; also returns the request-averaged slot
    cost and w̄, the per-state command rate.
    """
    pmf = model.request_dist
    w = w_cmd.reshape(pmf.size, -1)
    w_bar = pmf @ w
    cost = pmf @ (w * model.cost_vector(1).reshape(w.shape)
                  + (1.0 - w) * model.cost_vector(0).reshape(w.shape))

    def scaled_rows(mat: sp.csr_matrix, weight: np.ndarray) -> sp.csr_matrix:
        data = mat.data * np.repeat(weight, np.diff(mat.indptr))
        return sp.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)

    # The sum drops the entries that a zero weight left behind.
    chain = scaled_rows(model.battery_age_kernel(0), 1.0 - w_bar) + scaled_rows(
        model.battery_age_kernel(1), w_bar
    )
    return chain, cost, w_bar


def _value_iteration_solve(model: SensorModel, mu: float) -> PerSensorSolve:
    """The multichain fallback: relative value iteration, then an exact evaluation.

    Values are shaped (requests, battery-age), the one-sensor joint layout of
    :func:`expected_next`.
    """
    backups = [
        (model.cost_vector(a).reshape(model.request_dist.size, -1) + a * mu,
         lambda values, bits=(a,): expected_next((model,), bits, values))
        for a in (0, 1)
    ]
    values, rel, greedy, iterations = relative_value_iteration(
        backups, (0, model.ref_index), f"per-sensor value iteration at mu={mu}"
    )
    policy = PolicyTable(actions=greedy.ravel(), mu=float(mu))
    rel = rel.ravel()
    rel.setflags(write=False)
    return PerSensorSolve(
        policy=policy,
        rel_values=rel,
        avg_lagrangian=float(values[0, model.ref_index]),
        iterations=iterations,
        evaluation=evaluate_per_sensor(model.sensor, model.delta_max, policy),
    )


def solve_per_sensor(
    sensor: SensorParams, delta_max: int, mu: float, start: np.ndarray | None = None
) -> PerSensorSolve:
    """Howard policy iteration for one sensor with commands priced at mu.

    Starts from the action bits ``start`` (by default the myopic table that
    commands where the price undercuts the slot-cost saving). Each step
    evaluates the table exactly with :func:`_poisson` on its request-averaged
    (battery, age) chain, whose relative values h̄ give the Q-values
    q_a(r, x) = c_a(r, x) + (Q_a h̄)(x) of every full state, and switches the
    states whose Q-value drops by more than ``IMPROVEMENT_TOL`` times max|h|.
    The returned table is the first minimum of the converged Q-values, so ties
    resolve to no-command and the table does not depend on ``start``; its
    exact cost and command rates, average Lagrangian and relative values come
    from its own evaluation. ``rel_values`` covers the full (requests,
    battery, age) states: h(s) = q_π(s)(s) - q_π(ref)(ref), zero at the
    reference state. A price at which policy iteration meets a multichain
    table is solved by relative value iteration instead, whose average
    Lagrangian is within ``DEFAULT_THETA`` of the optimum.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    model = sensor_model(sensor, delta_max)
    if start is not None and np.shape(start) != (model.num_states,):
        raise ValueError("start table does not cover the sensor state space")
    shape = (model.request_dist.size, -1)  # (requests, battery-age)
    c0, c1 = model.cost_vector(0).reshape(shape), model.cost_vector(1).reshape(shape) + mu
    k0, k1 = model.battery_age_kernel(0), model.battery_age_kernel(1)
    actions = c1 < c0 if start is None else np.asarray(start).reshape(shape) == 1

    def evaluate(actions):
        chain, cost, rate = _mean_chain(model, actions.astype(np.float64))
        x = _poisson(chain, np.column_stack([cost, rate]), model.ref_index)
        gains = x[model.ref_index].copy()
        x[model.ref_index] = 0.0
        h_bar = x[:, 0] + mu * x[:, 1]
        q0, q1 = c0 + k0 @ h_bar, c1 + k1 @ h_bar
        q_pi = np.where(actions, q1, q0)
        rel = q_pi - q_pi[0, model.ref_index]
        return ChainEvaluation(float(gains[0]), float(gains[1])), q0, q1, rel

    iterations = 0
    try:
        while True:
            iterations += 1
            evaluation, q0, q1, rel = evaluate(actions)
            tol = IMPROVEMENT_TOL * float(np.abs(rel).max())
            switch = np.where(actions, q0 < q1 - tol, q1 < q0 - tol)
            if not switch.any():
                break
            actions = actions ^ switch
        final = q1 < q0
        if not np.array_equal(final, actions):
            iterations += 1
            actions = final
            evaluation, _, _, rel = evaluate(actions)
    except MultichainError as exc:
        log.debug("mu=%.6g: %s; solving by value iteration", mu, exc)
        return _value_iteration_solve(model, mu)
    rel = rel.ravel()
    rel.setflags(write=False)
    return PerSensorSolve(
        policy=PolicyTable(actions=actions.ravel(), mu=float(mu)),
        rel_values=rel,
        avg_lagrangian=evaluation.lagrangian(mu),
        iterations=iterations,
        evaluation=evaluation,
    )


def evaluate_per_sensor(
    sensor: SensorParams,
    delta_max: int,
    policy: PolicyTable | MixedPolicy,
) -> ChainEvaluation:
    """Exact long-run cost and command rates of a per-sensor policy.

    Pure and mixed tables alike act through their request-averaged (battery,
    age) chain. It is restricted to the states reachable from the reference
    state (battery 0, age 1; its successors do not depend on the request
    count or the action) and evaluated there by :func:`_poisson`, which
    raises :class:`MultichainError` unless exactly one recurrent class is
    reachable.
    """
    model = sensor_model(sensor, delta_max)
    if isinstance(policy, MixedPolicy):
        w_cmd = policy.command_prob()
    else:
        w_cmd = policy.actions.astype(np.float64)
    if w_cmd.size != model.num_states:
        raise ValueError("policy does not cover the sensor state space")
    chain, cost, rate = _mean_chain(model, w_cmd)
    reachable = np.sort(
        breadth_first_order(chain, model.ref_index, directed=True, return_predecessors=False)
    )
    ref = int(np.searchsorted(reachable, model.ref_index))
    x = _poisson(
        chain[reachable][:, reachable].tocsr(),
        np.column_stack([cost[reachable], rate[reachable]]),
        ref,
    )
    return ChainEvaluation(cost_rate=float(x[ref, 0]), command_rate=float(x[ref, 1]))


@lru_cache(maxsize=64)
def _class_solves(sensor: SensorParams, delta_max: int) -> dict[float, PerSensorSolve]:
    """Solves of one sensor class by price: the cache that :func:`_solve_class`
    fills in and searches for a warm start (hence a dict, not a cached result)."""
    return {}


def _solve_class(sensor: SensorParams, delta_max: int, mu: float) -> PerSensorSolve:
    """Per-class solve at mu, cached, warm-started from the nearest price solved so far.

    The table does not depend on the start, so the cache is keyed by price alone.
    """
    solved = _class_solves(sensor, delta_max)
    if mu not in solved:
        nearest = min(solved, key=lambda m: abs(m - mu), default=None)
        start = None if nearest is None else solved[nearest].policy.actions
        solved[mu] = solve_per_sensor(sensor, delta_max, mu, start)
    return solved[mu]


@dataclass(frozen=True, eq=False)
class LagrangeSolve:
    """Record of the price search: prices, trajectory, and per-sensor pieces.

    Both tables are optimal at ``mu_star``, the final breakpoint (or a tied
    end's price); they were solved at ``mu_minus`` and ``mu_plus``.
    ``evaluations`` collects (mu, fleet command rate, mean optimal Lagrangian)
    triples for every price evaluated, where the mean Lagrangian is
    sum_k L*_k(mu) / (num_users * K) without the -mu * Gamma / num_users
    offset; the rate is non-increasing and the Lagrangian non-decreasing in mu.
    Per-sensor tables are the ones solved at the final lower endpoint.
    """

    mu_star: float
    mu_minus: float
    mu_plus: float
    evaluations: tuple[tuple[float, float, float], ...]
    per_sensor_rel_values: tuple[np.ndarray, ...]
    per_sensor_lagrangians: tuple[float, ...]
    per_sensor_rates: tuple[float, ...]
    dual_bound: float


@dataclass(frozen=True, eq=False)
class RelaxedSolution:
    """Output of the relaxed solve: per-sensor mixed policies and exact averages."""

    policies: tuple[MixedPolicy, ...]
    mu_star: float
    eta: float
    avg_cost: float  # exact stationary cost of the returned policy; the lower bound
    command_rate: float
    constraint_active: bool
    lagrange: LagrangeSolve
    per_sensor_cost_rates: tuple[float, ...]
    per_sensor_command_rates: tuple[float, ...]


def _mu_upper_bound(config: NetworkConfig) -> float:
    # A price above the largest total age saving a single update can yield
    # makes commanding strictly suboptimal everywhere, so the rate hits zero.
    return float(config.num_users * config.delta_max * config.delta_max)


def solve_relaxed(config: NetworkConfig) -> RelaxedSolution:
    """Solve the time-average-budget problem exactly.

    If the zero-price policy already meets the budget the constraint is
    inactive and those tables are returned unmixed. Otherwise, from the
    bracket [0, a price that stops every command], each step prices the fleet
    at the breakpoint of the two ends' Lagrangian lines, and its tables
    replace the end on their side of Gamma until none undercuts the ends'
    chord there. Both ends are then optimal at that price ``mu_star``, and the
    mixing factor eta is calibrated so the exact command rate of their mixture
    equals Gamma to within ``DEFAULT_ETA_TOL``. An end whose rate ties Gamma
    is returned unmixed, and ``mu_star`` is its price.
    """
    classes, counts, class_of = sensor_classes(config)
    gamma = config.gamma
    weights = counts / config.num_sensors

    evaluations: list[tuple[float, float, float]] = []

    def fleet_rate(mu: float) -> tuple[float, list[PerSensorSolve]]:
        results = [_solve_class(s, config.delta_max, mu) for s in classes]
        rate = float(sum(w * s.evaluation.command_rate for w, s in zip(weights, results)))
        mean_lagr = float(
            sum(w * s.avg_lagrangian for w, s in zip(weights, results))
        ) / config.num_users
        evaluations.append((mu, rate, mean_lagr))
        log.debug("price %.6g -> rate %.6g, mean Lagrangian %.6g", mu, rate, mean_lagr)
        return rate, results

    # Result set whose tables are returned unmixed (eta = 1): the zero-price
    # one when the budget is slack, or a bracket end whose rate meets Gamma.
    pure = None
    rate0, results0 = fleet_rate(0.0)
    if rate0 <= gamma:
        mu_minus = mu_plus = mu_star = 0.0
        active = False
        lower_results = pure = results0
    else:
        active = True
        mu_lo, mu_hi = 0.0, _mu_upper_bound(config)
        rate_hi, results_hi = fleet_rate(mu_hi)
        if rate_hi > gamma:
            raise BracketError(
                f"command rate {rate_hi:.6g} at the price upper bound still exceeds "
                f"the budget {gamma:.6g}"
            )
        rate_lo, results_lo = rate0, results0
        while True:
            if abs(rate_lo - gamma) <= RATE_TIE_TOL:
                pure, mu_star = results_lo, mu_lo
                break
            if abs(rate_hi - gamma) <= RATE_TIE_TOL:
                pure, mu_star = results_hi, mu_hi
                break
            cost_lo, cost_hi = (
                sum(w * s.evaluation.cost_rate for w, s in zip(weights, r))
                for r in (results_lo, results_hi)
            )
            # Prices stay Python floats: policy files write them with repr.
            mu_star = float((cost_hi - cost_lo) / (rate_lo - rate_hi))
            if not mu_lo < mu_star < mu_hi:
                # Both ends tie at a bracket end, up to round-off.
                mu_star = min(max(mu_star, mu_lo), mu_hi)
                break
            rate_b, results_b = fleet_rate(mu_star)
            if rate_b > rate_lo + 1e-9 or rate_b < rate_hi - 1e-9:
                raise BracketError(
                    f"command rate not monotone across the bracket: "
                    f"rate({mu_star:.6g})={rate_b:.6g} outside "
                    f"[{rate_hi:.6g}, {rate_lo:.6g}]"
                )
            chord = (cost_lo + mu_star * rate_lo) / config.num_users
            if evaluations[-1][2] >= chord - IMPROVEMENT_TOL * max(1.0, abs(chord)):
                break
            if rate_b >= gamma:
                mu_lo, rate_lo, results_lo = mu_star, rate_b, results_b
            else:
                mu_hi, rate_hi, results_hi = mu_star, rate_b, results_b
        mu_minus, mu_plus = mu_lo, mu_hi
        lower_results = results_lo

    if pure is not None:
        eta = 1.0
        class_policies = [
            MixedPolicy(lower=s.policy, upper=s.policy, eta=1.0) for s in pure
        ]
        class_evals = [s.evaluation for s in pure]
    else:
        eta, class_evals = _calibrate_eta(
            classes, config.delta_max, results_lo, results_hi,
            weights, gamma, rate_lo, rate_hi,
        )
        class_policies = [
            MixedPolicy(lower=lo.policy, upper=hi.policy, eta=eta)
            for lo, hi in zip(results_lo, results_hi)
        ]

    avg_cost = float(
        sum(w * ev.cost_rate for w, ev in zip(weights, class_evals))
    ) / config.num_users
    command_rate = float(
        sum(w * ev.command_rate for w, ev in zip(weights, class_evals))
    )
    dual_bound = max(
        lagr - mu * gamma / config.num_users for mu, _, lagr in evaluations
    )

    lagrange = LagrangeSolve(
        mu_star=mu_star,
        mu_minus=mu_minus,
        mu_plus=mu_plus,
        evaluations=tuple(evaluations),
        per_sensor_rel_values=tuple(
            lower_results[c].rel_values for c in class_of
        ),
        per_sensor_lagrangians=tuple(
            float(lower_results[c].avg_lagrangian) for c in class_of
        ),
        per_sensor_rates=tuple(
            float(lower_results[c].evaluation.command_rate) for c in class_of
        ),
        dual_bound=float(dual_bound),
    )
    return RelaxedSolution(
        policies=tuple(class_policies[c] for c in class_of),
        mu_star=mu_star,
        eta=float(eta),
        avg_cost=avg_cost,
        command_rate=command_rate,
        constraint_active=active,
        lagrange=lagrange,
        per_sensor_cost_rates=tuple(float(class_evals[c].cost_rate) for c in class_of),
        per_sensor_command_rates=tuple(
            float(class_evals[c].command_rate) for c in class_of
        ),
    )


def _calibrate_eta(
    classes: tuple[SensorParams, ...],
    delta_max: int,
    lower: list[PerSensorSolve],
    upper: list[PerSensorSolve],
    weights: np.ndarray,
    gamma: float,
    rate_at_one: float,
    rate_at_zero: float,
) -> tuple[float, list[ChainEvaluation]]:
    """Bisection on the mixing factor against the exact mixed command rate.

    The fleet's mixed command rate rises with eta. The bracket keeps
    rate(lo) <= Gamma <= rate(hi), so a rate continuous in eta meets
    ``DEFAULT_ETA_TOL`` before the bracket collapses; a collapse raises
    :class:`BracketError` with the best rate seen. A class whose lower and
    upper tables coincide does not depend on eta: it keeps the evaluation of
    its pure table.
    """
    fixed = [
        lo.evaluation if np.array_equal(lo.policy.actions, up.policy.actions) else None
        for lo, up in zip(lower, upper)
    ]

    def rate_at(eta: float) -> tuple[float, list[ChainEvaluation]]:
        evals = [
            ev if ev is not None
            else evaluate_per_sensor(s, delta_max, MixedPolicy(lo.policy, up.policy, eta))
            for s, lo, up, ev in zip(classes, lower, upper, fixed)
        ]
        return float(sum(w * ev.command_rate for w, ev in zip(weights, evals))), evals

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
