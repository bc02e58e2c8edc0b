"""Time-average-budget solver: per-sensor value iteration under a command price,
bisection on the price, and mixing of the two bracketing deterministic policies.

The per-slot fleet budget is relaxed to a time-average rate Gamma = budget / K.
Pricing each command at mu decouples the fleet into independent per-sensor
average-cost problems; bisection finds the smallest price whose induced command
rate meets the budget, and a two-policy mixture calibrates the rate to Gamma
exactly. The resulting average cost is a lower bound on the cost of any policy
that respects the per-slot budget.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.sparse.linalg import spsolve

from .errors import BracketError, MultichainError
from .model import NetworkConfig, SensorParams, sensor_classes, sensor_model
# DEFAULT_THETA stays importable here: bench/run.py reads the span tolerance from this module.
from .rvi import DEFAULT_THETA, relative_value_iteration  # noqa: F401

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

STATIONARY_RESIDUAL = 1e-10
RATE_TIE_TOL = 1e-6  # command rate counts as "equal to Gamma" within this

DEFAULT_EPSILON = 1e-4
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
class PerSensorSolve:
    """Converged per-sensor value iteration output at a fixed command price."""

    policy: PolicyTable
    rel_values: np.ndarray
    avg_lagrangian: float  # value at the reference state; error below the span tolerance
    iterations: int


@dataclass(frozen=True, eq=False)
class ChainEvaluation:
    """Exact long-run averages of a policy-induced per-sensor chain."""

    cost_rate: float
    command_rate: float

    def lagrangian(self, mu: float) -> float:
        return self.cost_rate + mu * self.command_rate


def solve_per_sensor(sensor: SensorParams, delta_max: int, mu: float) -> PerSensorSolve:
    """Relative value iteration for one sensor with commands priced at mu.

    The returned average Lagrangian is the value at the reference state
    (requests=0, battery=0, age=1) and is within ``DEFAULT_THETA`` of the true
    optimum; ``rel_values`` satisfy the untransformed optimality equation.
    Ties in the final argmin resolve to no-command.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    model = sensor_model(sensor, delta_max)
    backups = [
        (model.cost_vector(0), model.transition_matrix(0).dot),
        (model.cost_vector(1) + mu, model.transition_matrix(1).dot),
    ]
    values, rel, greedy, iterations = relative_value_iteration(
        backups, model.ref_index, f"per-sensor value iteration at mu={mu}"
    )
    rel.setflags(write=False)
    return PerSensorSolve(
        policy=PolicyTable(actions=greedy, mu=float(mu)),
        rel_values=rel,
        avg_lagrangian=float(values[model.ref_index]),
        iterations=iterations,
    )


def _command_probabilities(policy: PolicyTable | MixedPolicy) -> np.ndarray:
    if isinstance(policy, MixedPolicy):
        return policy.command_prob()
    return policy.actions.astype(np.float64)


def _stationary_on_class(chain: sp.csr_matrix) -> np.ndarray:
    """Stationary distribution of an irreducible chain via a direct sparse solve."""
    n = chain.shape[0]
    if n == 1:
        return np.ones(1)
    system = (chain.T - sp.identity(n, format="csr")).tolil()
    system[n - 1, :] = 1.0
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    dist = spsolve(system.tocsc(), rhs)
    dist = np.clip(dist, 0.0, None)
    return dist / dist.sum()


def evaluate_per_sensor(
    sensor: SensorParams,
    delta_max: int,
    policy: PolicyTable | MixedPolicy,
) -> ChainEvaluation:
    """Exact long-run cost and command rates of a per-sensor policy.

    The policy-induced chain is restricted to the states reachable from the
    reference state; exactly one recurrent class must exist there (verified via
    strongly connected components), otherwise :class:`MultichainError` is
    raised. The stationary solve is checked to a 1e-10 residual.
    """
    model = sensor_model(sensor, delta_max)
    w_cmd = _command_probabilities(policy)
    if w_cmd.size != model.num_states:
        raise ValueError("policy does not cover the sensor state space")
    w_idle = 1.0 - w_cmd
    chain = model.transition_matrix(0).multiply(w_idle[:, None]) + model.transition_matrix(1).multiply(w_cmd[:, None])
    chain = chain.tocsr()
    cost = w_idle * model.cost_vector(0) + w_cmd * model.cost_vector(1)

    reachable = breadth_first_order(
        chain, model.ref_index, directed=True, return_predecessors=False
    )
    reachable = np.sort(reachable)
    sub = chain[reachable][:, reachable].tocsr()

    n_comp, labels = connected_components(sub, directed=True, connection="strong")
    coo = sub.tocoo()
    leaves = np.ones(n_comp, dtype=bool)
    cross = labels[coo.row] != labels[coo.col]
    leaves[np.unique(labels[coo.row[cross]])] = False
    closed = np.flatnonzero(leaves)
    if closed.size != 1:
        raise MultichainError(
            f"{closed.size} recurrent classes reachable from the reference state"
        )

    members = np.flatnonzero(labels == closed[0])
    support = reachable[members]
    core = sub[members][:, members].tocsr()
    dist = _stationary_on_class(core)
    residual = float(np.abs(dist @ core - dist).max())
    if not residual <= STATIONARY_RESIDUAL:  # also catches a NaN solve
        raise MultichainError(
            f"stationary solve residual {residual:.3e} exceeds {STATIONARY_RESIDUAL:.0e}"
        )
    return ChainEvaluation(
        cost_rate=float(dist @ cost[support]),
        command_rate=float(dist @ w_cmd[support]),
    )


@lru_cache(maxsize=4096)
def _solve_class(
    sensor: SensorParams, delta_max: int, mu: float
) -> tuple[PerSensorSolve, ChainEvaluation]:
    """Cold-start solve plus exact evaluation, cached per sensor class."""
    solve = solve_per_sensor(sensor, delta_max, mu)
    return solve, evaluate_per_sensor(sensor, delta_max, solve.policy)


@dataclass(frozen=True, eq=False)
class LagrangeSolve:
    """Record of the price search: bracket, trajectory, and per-sensor pieces.

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


def solve_relaxed(config: NetworkConfig, epsilon: float = DEFAULT_EPSILON) -> RelaxedSolution:
    """Solve the time-average-budget problem exactly.

    If the zero-price policy already meets the budget the constraint is
    inactive and those tables are returned unmixed. Otherwise the price is
    bisected to width epsilon and the mixing factor eta is calibrated so the
    exact command rate of the mixture equals Gamma to within ``DEFAULT_ETA_TOL``.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    classes, counts, class_of = sensor_classes(config)
    gamma = config.gamma
    kk = config.num_sensors
    weights = counts / kk

    evaluations: list[tuple[float, float, float]] = []

    def fleet_rate(mu: float) -> tuple[float, list[tuple[PerSensorSolve, ChainEvaluation]]]:
        results = [_solve_class(s, config.delta_max, mu) for s in classes]
        rate = float(sum(w * ev.command_rate for w, (_, ev) in zip(weights, results)))
        mean_lagr = float(
            sum(w * s.avg_lagrangian for w, (s, _) in zip(weights, results))
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
        while mu_hi - mu_lo > epsilon:
            mid = 0.5 * (mu_lo + mu_hi)
            rate_mid, results_mid = fleet_rate(mid)
            if rate_mid > rate_lo + 1e-9 or rate_mid < rate_hi - 1e-9:
                raise BracketError(
                    f"command rate not monotone across the bracket: "
                    f"rate({mid:.6g})={rate_mid:.6g} outside "
                    f"[{rate_hi:.6g}, {rate_lo:.6g}]"
                )
            if rate_mid >= gamma:
                mu_lo, rate_lo, results_lo = mid, rate_mid, results_mid
            else:
                mu_hi, rate_hi, results_hi = mid, rate_mid, results_mid
        mu_minus, mu_plus = mu_lo, mu_hi
        mu_star = 0.5 * (mu_lo + mu_hi)
        lower_results = results_lo

        if abs(rate_lo - gamma) <= RATE_TIE_TOL:
            pure = results_lo
        elif abs(rate_hi - gamma) <= RATE_TIE_TOL:
            pure = results_hi

    if pure is not None:
        eta = 1.0
        class_policies = [
            MixedPolicy(lower=s.policy, upper=s.policy, eta=1.0) for s, _ in pure
        ]
        class_evals = [ev for _, ev in pure]
    else:
        eta, class_evals = _calibrate_eta(
            classes, config.delta_max,
            [s.policy for s, _ in results_lo],
            [s.policy for s, _ in results_hi],
            weights, gamma, rate_lo, rate_hi,
        )
        class_policies = [
            MixedPolicy(lower=lo.policy, upper=hi.policy, eta=eta)
            for (lo, _), (hi, _) in zip(results_lo, results_hi)
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
            lower_results[c][0].rel_values for c in class_of
        ),
        per_sensor_lagrangians=tuple(
            float(lower_results[c][0].avg_lagrangian) for c in class_of
        ),
        per_sensor_rates=tuple(
            float(lower_results[c][1].command_rate) for c in class_of
        ),
        dual_bound=float(dual_bound),
    )
    return RelaxedSolution(
        policies=tuple(class_policies[c] for c in class_of),
        mu_star=float(mu_star),
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
    lower: list[PolicyTable],
    upper: list[PolicyTable],
    weights: np.ndarray,
    gamma: float,
    rate_at_one: float,
    rate_at_zero: float,
) -> tuple[float, list[ChainEvaluation]]:
    """Bisection on the mixing factor against the exact mixed command rate.

    The rate is evaluated through the stationary distribution of each mixed
    chain, which rises with eta. The bracket keeps rate(lo) <= Gamma <= rate(hi),
    so a rate continuous in eta meets ``DEFAULT_ETA_TOL`` before the bracket
    collapses; a collapse raises :class:`BracketError` with the best rate seen.
    """

    def rate_at(eta: float) -> tuple[float, list[ChainEvaluation]]:
        evals = [
            evaluate_per_sensor(s, delta_max, MixedPolicy(lo, up, eta))
            for s, lo, up in zip(classes, lower, upper)
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
