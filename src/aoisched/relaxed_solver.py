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
num_users + 1 smaller than the full one, assembled straight from the model's
successor table: :func:`_poisson`, one sparse LU factorisation, yields its
per-state cost and command rates and its relative values at once, whatever
the number of closed classes. It is the only place that needs scipy.
Multichain Howard policy iteration solves each priced per-sensor problem on
it at every price, and the gain and bias Q-values of the full states follow
from one ``SensorModel.expect`` per action; :func:`evaluate_per_sensor`
reads the rates of any pure or mixed table at the reference state from the
same solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BracketError, MultichainError
# DEFAULT_THETA stays importable here: bench/run.py reads the span tolerance from this module.
from .exact_solver import DEFAULT_THETA, IMPROVEMENT_TOL  # noqa: F401
from .model import NetworkConfig, SensorModel, SensorParams, sensor_classes, sensor_model

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

    ``iterations`` counts the policy evaluations of policy iteration (one
    Poisson solve each).
    """

    policy: PolicyTable
    rel_values: np.ndarray
    avg_lagrangian: float
    iterations: int
    evaluation: ChainEvaluation


def _poisson(chain: tuple[np.ndarray, np.ndarray, np.ndarray], rhs: np.ndarray,
             ref: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-state gains and relative values of any chain, one column per reward in ``rhs``.

    ``chain`` holds the (rows, cols, data) of the transition matrix in
    canonical CSR order: sorted by row, then column, with no duplicates and no
    zeros. Solves the multichain Poisson equations (I - P) g = 0,
    (I - P) h + g = r (Puterman, *Markov Decision Processes*, 1994, section
    9.2). Each closed class has one gain unknown, in the column of a pivot
    state whose h is fixed at 0; that column holds the probabilities of
    absorption into the class, from one sparse solve on the transient block.
    With one closed class the pivot is ``ref`` and the column is all ones. The
    solvers pass the request-averaged (battery, age) chain, so the system has
    (battery_capacity + 1) * delta_max unknowns. Raises
    :class:`MultichainError` when SuperLU finds the system singular or the
    solve misses ``POISSON_RESIDUAL``.
    """
    # scipy is imported here, not at module level, so that importing the
    # package to simulate saved tables does not pay for scipy.sparse.
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
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
            absorb[transient] = splu(inner).solve(block @ absorb)
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


def _mean_chain(
    model: SensorModel, w_cmd: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray, np.ndarray]:
    """The (battery, age) chain of a table with the request count averaged out.

    ``w_cmd`` is the command probability per full state. With w̄(x) its
    request-averaged value at (battery, age) index x, the chain is
    diag(1 - w̄) Q_0 + diag(w̄) Q_1, returned as the (rows, cols, data) that
    :func:`_poisson` takes, straight from the model's successor table; also
    returns the request-averaged slot cost and w̄, the per-state command rate.
    """
    pmf = model.request_dist
    w = w_cmd.reshape(pmf.size, -1)
    w_bar = pmf @ w
    cost = pmf @ (w * model.cost_vector(1).reshape(w.shape)
                  + (1.0 - w) * model.cost_vector(0).reshape(w.shape))

    # Where every possible request count commands, 1 - w̄ can round to 1e-16
    # instead of 0, and that edge would open a closed class; pmf @ (1 - w) is
    # exactly 0 there. Zero entries are dropped before the branches that
    # reach one state are summed.
    idle = np.where(pmf @ (1.0 - w) > 0.0, 1.0 - w_bar, 0.0)
    n = w_bar.size
    data = model.succ_prob * np.stack([idle, w_bar], axis=1)[:, :, None]
    keys = np.arange(n)[:, None, None] * n + model.succ
    nonzero = data != 0.0
    keys, inverse = np.unique(keys[nonzero], return_inverse=True)
    rows, cols = np.divmod(keys, n)
    # int32 columns, as scipy stores them, spare _poisson's sparse constructors a cast.
    return (rows, cols.astype(np.int32), np.bincount(inverse, weights=data[nonzero])), cost, w_bar


def solve_per_sensor(
    sensor: SensorParams, delta_max: int, mu: float, start: np.ndarray | None = None
) -> PerSensorSolve:
    """Multichain Howard policy iteration for one sensor with commands priced at mu.

    Starts from the action bits ``start`` (by default the myopic table that
    commands where the price undercuts the slot-cost saving). Each step
    evaluates the table exactly with :func:`_poisson` on its request-averaged
    (battery, age) chain. Its gains ḡ and relative values h̄ give each full
    state (r, x) the gain Q-values (Q_a ḡ)(x) and the Q-values
    q_a(r, x) = c_a(r, x) + (Q_a h̄)(x). A step switches the states whose gain
    Q-value drops by more than ``IMPROVEMENT_TOL`` times max|ḡ| or, where none
    does, the states whose gain Q-values tie within that and whose Q-value
    drops by more than ``IMPROVEMENT_TOL`` times max|h|; with one closed class
    every step is of the second kind. The returned table is the first minimum
    of the converged gain Q-values, then of the Q-values, so ties resolve to
    no-command and the table does not depend on ``start``; its exact rates
    from the reference state, average Lagrangian and relative values come from
    its own evaluation. ``rel_values`` covers the full (requests, battery,
    age) states: h(s) = q_π(s)(s) - q_π(ref)(ref), zero at the reference state.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    model = sensor_model(sensor, delta_max)
    if start is not None and np.shape(start) != (model.num_states,):
        raise ValueError("start table does not cover the sensor state space")
    shape = (model.request_dist.size, -1)  # (requests, battery-age)
    c0, c1 = model.cost_vector(0).reshape(shape), model.cost_vector(1).reshape(shape) + mu
    actions = c1 < c0 if start is None else np.asarray(start).reshape(shape) == 1

    def evaluate(actions):
        """Exact rates of a table, its (idle, command) gain Q-values and gain
        tolerance, its (idle, command) Q-values, and its relative values."""
        chain, cost, rate = _mean_chain(model, actions.astype(np.float64))
        gains, x = _poisson(chain, np.column_stack([cost, rate]), model.ref_index)
        g_bar = gains[:, 0] + mu * gains[:, 1]
        h_bar = x[:, 0] + mu * x[:, 1]
        q0, q1 = c0 + model.expect(0, h_bar), c1 + model.expect(1, h_bar)
        q_pi = np.where(actions, q1, q0)
        evaluation = ChainEvaluation(float(gains[model.ref_index, 0]),
                                     float(gains[model.ref_index, 1]))
        return (evaluation, (model.expect(0, g_bar), model.expect(1, g_bar)),
                IMPROVEMENT_TOL * float(np.abs(g_bar).max()), (q0, q1),
                q_pi - q_pi[0, model.ref_index])

    def improves(pair, tol):
        """Where the action the table does not take is lower by more than tol."""
        idle, command = pair
        return np.where(actions, idle < command - tol, command < idle - tol)

    iterations = 0
    while True:
        iterations += 1
        evaluation, gain_q, gain_tol, q, rel = evaluate(actions)
        switch = improves(gain_q, gain_tol)
        if not switch.any():
            tied = np.abs(gain_q[1] - gain_q[0]) <= gain_tol
            switch = tied & improves(q, IMPROVEMENT_TOL * float(np.abs(rel).max()))
            if not switch.any():
                break
        actions = actions ^ switch
    final = np.where(tied, q[1] < q[0], gain_q[1] < gain_q[0])
    if not np.array_equal(final, actions):
        iterations += 1
        actions = final
        evaluation, _, _, _, rel = evaluate(actions)
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
    """Exact long-run cost and command rates of a per-sensor policy from the
    reference state (requests 0, battery 0, age 1).

    Pure and mixed tables alike act through their request-averaged (battery,
    age) chain, whose per-state gains :func:`_poisson` returns for any number
    of closed classes; the reference state's successors do not depend on the
    request count or the action, so its gains are those of the full chain.
    """
    model = sensor_model(sensor, delta_max)
    if isinstance(policy, MixedPolicy):
        w_cmd = policy.command_prob()
    else:
        w_cmd = policy.actions.astype(np.float64)
    if w_cmd.size != model.num_states:
        raise ValueError("policy does not cover the sensor state space")
    chain, cost, rate = _mean_chain(model, w_cmd)
    gains, _ = _poisson(chain, np.column_stack([cost, rate]), model.ref_index)
    return ChainEvaluation(cost_rate=float(gains[model.ref_index, 0]),
                           command_rate=float(gains[model.ref_index, 1]))


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
