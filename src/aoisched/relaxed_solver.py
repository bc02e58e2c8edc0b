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
successor table, and goes through one primitive, :func:`_evaluate`. Its one
:func:`_poisson` solve, a single sparse LU factorisation, yields the chain's
per-state cost and command rates and its relative values at once, whatever
the number of closed classes. The system reaches SuperLU as CSC arrays
written through a slot map built once per model and set of gain columns
(:func:`_system_slots`), so no evaluation sorts sparse triplets. It is the
only place that needs scipy. Multichain Howard policy iteration never
revisits a table within one solve, and a chain depends on its table, not on
the price: for the length of one :func:`solve_relaxed` call, each sensor
class keeps the exact evaluations of the tables its solves ended at, and a
solve at a new price starts from the nearer bracket end's final table,
whose evaluation it reuses instead of factoring it again. Nothing of a
solve outlives it: a second solve of a network makes the calls of the
first. The gain and bias Q-values of the full states follow from one
``SensorModel.expect`` per action; :func:`evaluate_per_sensor` calls
:func:`_evaluate` on any pure or mixed table.

A long class solve from a new start table, such as the myopic one, factors
few of its tables: once it has factored two, a step whose table differs from
the first factored one on at most ``LOW_RANK_SHARE`` of the (battery, age)
rows, and whose chain keeps one closed class, is evaluated by a low-rank
(Woodbury) update of that table's factor (:func:`_low_rank`,
:func:`_woodbury`). Those values only steer: a step they find converged, or
whose switches an error estimate cannot separate from the threshold
(``STEP_GUARD``), is evaluated exactly and decided again, so the steps and
every returned or kept value are those of exact evaluations.

The mixing factor's calibration factors once per mixed class: the mixture's
chain is linear in eta, and the two tables differ on few of its states, so
the even mixture's factor gives the command rate at any other eta by a
low-rank (Woodbury) update (:func:`_mixture_rate`). The bisection steers by
these rates, decides any step close to a threshold on exact evaluations, and
certifies the returned eta with exact evaluations of its mixtures.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
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
DEFAULT_ETA_TOL = 1e-6  # a command rate within this of Gamma meets it (bracket ends, eta)
ETA_GUARD = 1e-9  # a low-rank mixed rate this close to a bisection threshold is decided exactly
LOW_RANK_SHARE = 0.25  # largest share of a chain's states a low-rank eta step may move
STEP_GUARD = 32.0  # error estimates between a low-rank Q-value margin and its threshold


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """Deterministic per-sensor policy: one action bit per state index."""

    actions: np.ndarray
    mu: float

    def __post_init__(self):
        acts = np.asarray(self.actions)
        # Checked before the cast, which would wrap 256 to 0 and truncate 0.5 to 0.
        if acts.ndim != 1 or not ((acts == 0) | (acts == 1)).all():
            raise ValueError("policy table must be a flat array of 0/1 action bits")
        acts = acts.astype(np.int8, copy=False)
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

    ``iterations`` counts the steps of policy iteration, one table evaluation
    each: exact, and then a reused one where the table is kept by the
    caller (``kept``), or a low-rank update (see :func:`solve_per_sensor`).
    A step whose low-rank values are redone exactly still counts once.
    """

    policy: PolicyTable
    rel_values: np.ndarray
    avg_lagrangian: float
    iterations: int
    evaluation: ChainEvaluation


def _poisson(probs: np.ndarray, rhs: np.ndarray,
             model: SensorModel) -> tuple[np.ndarray, np.ndarray, object]:
    """Per-state gains and relative values of any chain, one column per reward
    in ``rhs``, and the system's SuperLU factor when the chain has one closed
    class (None otherwise).

    ``probs`` holds the chain's probability on each pair of ``model``'s
    :func:`_chain_pattern`, zeros included; the chains are the
    request-averaged (battery, age) chains of the solvers, so the system has
    (battery_capacity + 1) * delta_max unknowns. Solves the multichain
    Poisson equations (I - P) g = 0, (I - P) h + g = r (Puterman, *Markov
    Decision Processes*, 1994, section 9.2). Each closed class has one gain
    unknown, in the column of a pivot state whose h is fixed at 0; that
    column holds the probabilities of absorption into the class, from one
    sparse solve on the transient block. With one closed class the pivot is
    ``model.ref_index`` and the column is all ones. The system goes straight
    into CSC arrays through the :func:`_system_slots` of its pivots:
    1 - p on the diagonal, -p on the other pairs with p nonzero, and the
    nonzero absorption probabilities in the pivot columns. Raises
    :class:`MultichainError` when SuperLU finds the system singular or the
    solve misses ``POISSON_RESIDUAL``.
    """
    import scipy.sparse as sp

    n = rhs.shape[0]
    matrix, labels, leaky = _chain_classes(probs, model)
    closed = np.flatnonzero(~leaky)
    if closed.size == 1:
        pivots, absorb = np.array([model.ref_index]), np.ones((n, 1))
    else:
        pivots = np.unique(labels, return_index=True)[1][closed]
        absorb = (labels[:, None] == closed).astype(np.float64)
        transient = np.flatnonzero(leaky[labels])
        if transient.size:
            # (I - P_TT) A_T = P_TC A_C; the transient rows of ``absorb`` are still 0.
            block = matrix[transient]
            inner = (sp.identity(transient.size) - block[:, transient]).tocsc()
            absorb[transient] = _factor(inner).solve(block @ absorb)
    # I - P, then each pivot column overwritten by its absorption column. p is
    # the pair's probability, or 0 where the entry has no pair; 1.0 - p is
    # (-p) + 1.0 to the bit, the sum of duplicates that a COO assembly forms.
    pair, diagonal, slot_rows, col_start = _system_slots(model, tuple(pivots.tolist()))
    p = np.concatenate([probs, [0.0]])[pair]
    values = diagonal - p
    kept = (p != 0.0) | diagonal
    for column, pivot in zip(absorb.T, pivots):
        entries = slice(col_start[pivot], col_start[pivot + 1])
        values[entries] = column
        kept[entries] = column != 0.0
    before = np.zeros(kept.size + 1, dtype=np.int32)  # kept entries before each slot
    np.cumsum(kept, out=before[1:])
    system = sp.csc_matrix((values[kept], slot_rows[kept], before[col_start]), shape=(n, n))
    factor = _factor(system)
    x = factor.solve(rhs)
    residual = _backward_error(system @ x - rhs, x, rhs)
    if not residual <= POISSON_RESIDUAL:  # also catches a NaN solve
        raise MultichainError(
            f"policy evaluation residual {residual:.3e} exceeds {POISSON_RESIDUAL:.0e}"
        )
    gains = absorb @ x[pivots]
    x[pivots] = 0.0
    return gains, x, factor if closed.size == 1 else None


def _backward_error(residual: np.ndarray, x: np.ndarray, rhs: np.ndarray) -> float:
    """Normwise backward error of a solution ``x`` of a :func:`_poisson`
    system with right-hand side ``rhs`` and residual ``residual``; every row
    of the system has absolute sum <= 3. A zero scale means x and rhs are
    both exactly zero, which solves the system."""
    scale = 3.0 * float(np.abs(x).max()) + float(np.abs(rhs).max())
    return float(np.abs(residual).max()) / scale if scale else 0.0


def _chain_classes(probs: np.ndarray, model: SensorModel) -> tuple[object, np.ndarray, np.ndarray]:
    """The chain of ``probs`` (on ``model``'s :func:`_chain_pattern`) as a CSR
    matrix of its nonzero pairs, the label of each state's strongly connected
    component, and which components leak; the others are the closed classes."""
    # scipy is imported here, not at module level, so that importing the
    # package to simulate saved tables does not pay for scipy.sparse.
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    rows, cols, _ = _chain_pattern(model)
    nonzero = probs != 0.0
    rows, cols, data = rows[nonzero], cols[nonzero], probs[nonzero]
    n = model.succ.shape[0]
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)  # as scipy keeps it
    matrix = sp.csr_matrix((data, cols, indptr), shape=(n, n))
    n_comp, labels = connected_components(matrix, directed=True, connection="strong")
    origin = labels[rows]
    leaky = np.zeros(n_comp, dtype=bool)
    leaky[origin[origin != labels[cols]]] = True
    return matrix, labels, leaky


def _factor(matrix):
    """SuperLU's factor of ``matrix``; a singular factor raises MultichainError."""
    from scipy.sparse.linalg import splu

    try:
        return splu(matrix)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise MultichainError(f"policy evaluation failed: {exc}") from None


@lru_cache(maxsize=None)
def _chain_pattern(model: SensorModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the successor table's branches land in a chain over the
    (battery, age) states: the distinct (row, column) pairs in row, then
    column order, and the pair of each branch ``succ[x, a, e]``, flat. It
    depends on the table alone, so each model merges its branches once.
    :func:`_chain_probs` gives a chain as its probability on each pair, and
    :func:`_system_slots` places each pair's entry of the Poisson system."""
    n = model.succ.shape[0]
    keys, inverse = np.unique(np.arange(n)[:, None, None] * n + model.succ,
                              return_inverse=True)
    rows, cols = np.divmod(keys, n)
    # int32 columns, as scipy stores them, spare _poisson's CSR constructor a cast.
    return rows, cols.astype(np.int32), inverse.ravel()


@lru_cache(maxsize=None)  # multichain tables add a map per set of pivots
def _system_slots(
    model: SensorModel, pivots: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The slot map of ``model``'s Poisson systems with gain columns ``pivots``.

    Its entries are the union of the :func:`_chain_pattern` pairs, the
    diagonal and every row of each pivot column, sorted by column, then row;
    a system is a subset of them. Returns per entry its pair (the pair count
    where it has none), whether it is on the diagonal and its row (int32),
    and per column its first entry, the entry count last. Unichain tables
    all have the pivot ``model.ref_index``, so one map serves them all.
    """
    rows, cols, _ = _chain_pattern(model)
    n = model.succ.shape[0]
    index = np.arange(n)
    pivot_columns = np.array(pivots)[:, None] * n + index
    keys, slot = np.unique(  # column * n + row, in intp: n * n may pass the int32 range
        np.concatenate([cols.astype(np.intp) * n + rows, index * (n + 1), pivot_columns.ravel()]),
        return_inverse=True,
    )
    pair = np.full(keys.size, rows.size)
    pair[slot[:rows.size]] = np.arange(rows.size)
    slots = (pair, keys % (n + 1) == 0, (keys % n).astype(np.int32),
             np.searchsorted(keys, np.arange(n + 1) * n))
    for arr in slots:
        arr.setflags(write=False)
    return slots


def _row_weights(model: SensorModel, w_cmd: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (battery, age) chain of a table with the request count averaged
    out, as row weights, and the right-hand side of its Poisson system.

    ``w_cmd`` is the command probability per full state. With w̄(x) its
    request-averaged value at (battery, age) index x, the chain is
    diag(1 - w̄) Q_0 + diag(w̄) Q_1: the weights are (1 - w̄(x), w̄(x)) per
    state, which :func:`_chain_probs` turns into the chain. The right-hand
    side is the request-averaged slot cost and w̄, the per-state command
    rate, a column each, as :func:`_poisson` takes it.
    """
    pmf = model.request_dist
    w = np.asarray(w_cmd, dtype=np.float64).reshape(pmf.size, -1)
    w_bar = pmf @ w
    cost = pmf @ (w * model.cost_vector(1).reshape(w.shape)
                  + (1.0 - w) * model.cost_vector(0).reshape(w.shape))
    # Where every possible request count commands, 1 - w̄ can round to 1e-16
    # instead of 0, and that edge would open a closed class; pmf @ (1 - w) is
    # exactly 0 there.
    idle = np.where(pmf @ (1.0 - w) > 0.0, 1.0 - w_bar, 0.0)
    return np.stack([idle, w_bar], axis=1), np.column_stack([cost, w_bar])


def _chain_probs(model: SensorModel, weights: np.ndarray) -> np.ndarray:
    """The chain with row weights ``weights`` (see :func:`_row_weights`) on the
    pairs of :func:`_chain_pattern`. The branches that reach one pair are
    summed in branch order; a zero branch adds exactly nothing, and a pair
    whose branches are all zero has probability 0."""
    rows, _, inverse = _chain_pattern(model)
    branches = model.succ_prob * weights[:, :, None]
    return np.bincount(inverse, weights=branches.ravel(), minlength=rows.size)


def _evaluate(
    model: SensorModel, command_prob: np.ndarray
) -> tuple[ChainEvaluation, np.ndarray, np.ndarray, object]:
    """The one policy evaluation: a table with per-state command probability
    ``command_prob`` acts through its request-averaged (battery, age) chain,
    and one :func:`_poisson` solve gives that chain's per-state gains and
    relative values, a (cost, command rate) column each, and its unichain
    factor. The reference state's successors do not depend on the request
    count or the action, so its gains, returned first as a
    :class:`ChainEvaluation`, are those of the full chain."""
    weights, rhs = _row_weights(model, command_prob)
    gains, x, factor = _poisson(_chain_probs(model, weights), rhs, model)
    ref = model.ref_index
    return ChainEvaluation(float(gains[ref, 0]), float(gains[ref, 1])), gains, x, factor


class _Columns:
    """The columns of Z = A⁻¹E solved so far on the SuperLU factor of a
    system A, by row: each row's column A⁻¹ e_x is solved once."""

    def __init__(self, factor, n: int):
        self.factor = factor
        self.z = np.zeros((n, 0))
        self.slot = np.full(n, -1)  # each row's column in z, or -1

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        new = rows[self.slot[rows] < 0]
        if new.size:
            selection = np.zeros((self.slot.size, new.size))
            selection[new, np.arange(new.size)] = 1.0
            self.slot[new] = self.z.shape[1] + np.arange(new.size)
            self.z = np.hstack([self.z, self.factor.solve(selection)])
        return self.z[:, self.slot[rows]]


def _low_rank(
    model: SensorModel, columns: _Columns, rows: np.ndarray, step: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The low-rank form of a move of rows ``rows`` of a Poisson system A with
    one closed class (:func:`_poisson`), from A's factor in ``columns``.

    Row x = rows[i] of the chain moves by step[i, a] times Q_a[x], the row of
    action a, and row x of the system by minus that, except in the pivot
    column of ones: the moved system is A + E G, where E selects the d rows
    and G holds their change. Returns the rows' branch successors ``succ``
    and G on them, both (d, 4), so that G v = (G * v[succ]).sum(axis=1); then
    Z = A⁻¹E and G Z. By the Woodbury identity the moved system's inverse is
    A⁻¹ - Z (I + G Z)⁻¹ G A⁻¹ (Hager, *SIAM Review* 31, 1989): one d x d
    solve per right-hand side.
    """
    n = model.succ.shape[0]
    succ = model.succ.reshape(n, -1)[rows]
    change = -(model.succ_prob[rows] * step[:, :, None]).reshape(succ.shape)
    change[succ == model.ref_index] = 0.0  # the pivot column holds the gain's ones
    z = columns(rows)
    return succ, change, z, np.einsum("ie,iej->ij", change, z[succ])


def _fleet_average(weights: np.ndarray, evaluations: list[ChainEvaluation]) -> tuple[float, float]:
    """Per-sensor (cost, command rate) of a fleet, its per-class evaluations
    weighted by the classes' shares ``weights``."""
    return (float(sum(w * ev.cost_rate for w, ev in zip(weights, evaluations))),
            float(sum(w * ev.command_rate for w, ev in zip(weights, evaluations))))


@dataclass(eq=False)
class _Anchor:
    """A table that a class solve evaluated exactly and factored, as the base
    of low-rank steps: its action bits as (requests, battery-age) bools, its
    solution with the gains in the pivot entry, its factor with the columns of
    Z solved on it, and its row weights and right-hand side
    (:func:`_row_weights`)."""

    actions: np.ndarray
    x: np.ndarray
    columns: _Columns
    weights: np.ndarray
    rhs: np.ndarray


def _woodbury(model: SensorModel, anchor: _Anchor, rows: np.ndarray, weights: np.ndarray,
              rhs: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]] | None:
    """The solution of the Poisson system of the chain with row weights
    ``weights`` and right-hand side ``rhs``, which differs from ``anchor``'s
    only on ``rows``, as a low-rank update of the anchor's: x = y - Z (I + G Z)⁻¹ G y
    with y = A⁻¹ b = x_anchor + Z Δb. Returns x, with the gains in the pivot
    entry, and the moved system's solve, A'⁻¹ b from y = A⁻¹ b; None where
    I + G Z is singular, as the moved system then is."""
    from scipy.linalg.lapack import dgetrf, dgetrs

    succ, change, z, coupling = _low_rank(model, anchor.columns, rows,
                                          weights[rows] - anchor.weights[rows])
    lu, pivots, singular = dgetrf(np.identity(rows.size) + coupling)
    if singular:
        return None

    def solve(y):
        return y - z @ dgetrs(lu, pivots, np.einsum("ie,iek->ik", change, y[succ]))[0]

    return solve(anchor.x + z @ (rhs[rows] - anchor.rhs[rows])), solve


def solve_per_sensor(
    sensor: SensorParams, delta_max: int, mu: float, start: np.ndarray | None = None,
    kept: dict[bytes, tuple[ChainEvaluation, np.ndarray, np.ndarray]] | None = None,
) -> PerSensorSolve:
    """Multichain Howard policy iteration for one sensor with commands priced at mu.

    Starts from the action bits ``start`` (by default the myopic table that
    commands where the price undercuts the slot-cost saving). Each step
    evaluates the table on its request-averaged (battery, age) chain and
    prices its per-command columns at mu. Its gains ḡ and relative values h̄
    give each full state (r, x) the gain Q-values (Q_a ḡ)(x) and the Q-values
    q_a(r, x) = c_a(r, x) + (Q_a h̄)(x). A step switches the states whose gain
    Q-value drops by more than ``IMPROVEMENT_TOL`` times max|ḡ| or, where none
    does, the states whose gain Q-values tie within that and whose Q-value
    drops by more than ``IMPROVEMENT_TOL`` times max|h|; with one closed class
    every step is of the second kind. The returned table is the first minimum
    of the converged gain Q-values, then of the Q-values, so ties resolve to
    no-command and the table does not depend on ``start``; its exact rates
    from the reference state and average Lagrangian come from its own
    evaluation. ``rel_values`` covers the full (requests, battery, age)
    states: h(s) = q_π(s)(s) - q_π(ref)(ref), zero at the reference state,
    with the Q-values of the converged evaluation. Where the final tie-break
    changes the table's closed classes, the table's own relative values
    (normalised per class) would solve its Poisson equation but not the
    optimality equation.

    ``kept`` maps the action bits, as bool bytes, of tables of the sensor's
    class to their exact (evaluation, gains, relative values), read-only; a
    step reuses the evaluation of a kept table, and the solve adds its own
    final table's. By default the store is new and empty, so the call is
    cold; :func:`solve_relaxed` passes each class's store from one price to
    the next. Otherwise the step evaluates its table
    exactly or, in a solve whose start table is not kept and that has
    factored two tables, by a low-rank (Woodbury) update of the first of them
    with one closed class, the anchor. The
    update applies where the table differs from the anchor's on d of the n
    (battery, age) columns, 0 < d <= ``LOW_RANK_SHARE`` n, and the chain has
    one closed class; it must meet the backward error ``POISSON_RESIDUAL``.
    Its values only steer: a step that they find converged is evaluated
    exactly and decided again, and so is one whose decision could differ
    from the exact values' (see ``STEP_GUARD``). So the returned table,
    values and evaluation, and every kept table evaluation, are exact, and
    the steps are those of exact evaluations. Each solve logs at debug level
    its steps, exact factorisations, low-rank steps, guard fallbacks (a
    margin too near the threshold, or an update that fails its checks),
    multichain fallbacks and largest low-rank d.
    """
    if not (math.isfinite(mu) and mu >= 0):
        raise ValueError("mu must be finite and nonnegative")
    model = sensor_model(sensor, delta_max)
    if start is not None:
        start = np.asarray(start)
        if start.shape != (model.num_states,):
            raise ValueError("start table does not cover the sensor state space")
        if not ((start == 0) | (start == 1)).all():
            raise ValueError("start table must hold 0/1 action bits")
    kept = {} if kept is None else kept
    shape = (model.request_dist.size, -1)  # (requests, battery-age)
    c0, c1 = model.cost_vector(0).reshape(shape), model.cost_vector(1).reshape(shape) + mu
    actions = c1 < c0 if start is None else start.reshape(shape) == 1
    n, ref = model.succ.shape[0], model.ref_index
    anchor: _Anchor | None = None
    moving = None  # the states whose two actions' rows differ, once needed
    counts = dict.fromkeys(("factored", "low_rank", "guard", "multichain", "d"), 0)

    def exact(actions):
        """The table's exact (evaluation, gains, relative values), read-only;
        unless the solve is warm, the first table that it factors with one
        closed class becomes the anchor."""
        nonlocal anchor
        evaluation, gains, x, factor = _evaluate(model, actions.ravel())
        counts["factored"] += 1
        if factor is not None:
            # One closed class: every state's gains are the reference state's,
            # so one row of them is kept.
            gains = np.broadcast_to(gains[ref].copy(), gains.shape)
            if anchor is None and not warm:
                anchor = _Anchor(actions, x.copy(), _Columns(factor, n),
                                 *_row_weights(model, actions))
                anchor.x[ref] = gains[ref]
        for arr in (gains, x):
            arr.setflags(write=False)
        return evaluation, gains, x

    def values(result, actions):
        """Exact rates of a table, its (idle, command) gain Q-values and gain
        tolerance, its (idle, command) Q-values, and its relative values."""
        evaluation, gains, x = result
        priced = np.column_stack([x[:, 0] + mu * x[:, 1], gains[:, 0] + mu * gains[:, 1]])
        (h0, g0), (h1, g1) = (model.expect(a, priced).T for a in (0, 1))
        q0, q1 = c0 + h0, c1 + h1
        q_pi = np.where(actions, q1, q0)
        return (evaluation, (g0, g1), IMPROVEMENT_TOL * float(np.abs(priced[:, 1]).max()),
                (q0, q1), q_pi - q_pi[0, ref])

    def improves(pair, tol):
        """Where the action the table does not take is lower by more than tol."""
        idle, command = pair
        return np.where(actions, idle < command - tol, command < idle - tol)

    def decide(step):
        """The states the step switches, and where the gain Q-values tie."""
        _, gain_q, gain_tol, q, rel = step
        tied = np.abs(gain_q[1] - gain_q[0]) <= gain_tol
        switch = improves(gain_q, gain_tol)
        if not switch.any():
            switch = tied & improves(q, IMPROVEMENT_TOL * float(np.abs(rel).max()))
        return switch, tied

    def low_rank_step(actions):
        """A step decided on a low-rank evaluation: its values, switches and
        ties; or None where the update does not apply or fails its checks,
        where its values find the table converged, or where the guard doubts
        its decision."""
        nonlocal moving
        # A row of the chain and of the right-hand side moves only where a bit
        # of its column of the table does.
        rows = np.flatnonzero((actions != anchor.actions).any(axis=0))
        if not 0 < rows.size <= LOW_RANK_SHARE * n:
            return None
        weights, rhs = _row_weights(model, actions)
        # A row that keeps every branch of the anchor's row only adds edges to
        # a chain whose one closed class every state reaches: the chain keeps
        # that class and gains no other, and needs no graph pass.
        if not ((anchor.weights[rows] == 0.0) | (weights[rows] != 0.0)).all() and np.count_nonzero(
                ~_chain_classes(_chain_probs(model, weights), model)[2]) != 1:
            counts["multichain"] += 1
            return None
        update = _woodbury(model, anchor, rows, weights, rhs)
        if update is None:
            counts["guard"] += 1
            return None
        x, solve = update
        rel = x.copy()
        rel[ref] = 0.0
        step = values((ChainEvaluation(float(x[ref, 0]), float(x[ref, 1])),
                       np.broadcast_to(x[ref], x.shape), rel), actions)
        switch, tied = decide(step)
        if not switch.any():
            return None
        # The check of _poisson on rhs - A' x; A' is the pivot column of ones
        # and I - P elsewhere, with P = diag(1 - w̄) Q_0 + diag(w̄) Q_1.
        residual = (rhs - x[ref] - rel + weights[:, :1] * model.expect(0, rel)
                    + weights[:, 1:] * model.expect(1, rel))
        if not _backward_error(residual, x, rhs) <= POISSON_RESIDUAL:
            counts["guard"] += 1
            return None
        # One step of iterative refinement estimates the error of the priced
        # relative values h̄; a state's two Q-values move apart by at most
        # |(Q_1 - Q_0) δ|, and not at all where the two actions' rows agree.
        # Exact values could switch other states where a margin to the switch
        # threshold is within ``STEP_GUARD`` times that, plus round-off.
        error = solve(anchor.columns.factor.solve((residual[:, 0] + mu * residual[:, 1])[:, None]))
        error[ref] = 0.0
        if moving is None:
            moving = ((model.succ[:, 0] != model.succ[:, 1])
                      | (model.succ_prob[:, 0] != model.succ_prob[:, 1])).any(axis=1)
        shift = np.abs(model.expect(1, error) - model.expect(0, error))[:, 0][moving]
        _, _, _, (q0, q1), rel_q = step
        tol = IMPROVEMENT_TOL * float(np.abs(rel_q).max())
        margin = np.abs(np.where(actions, (q1 - tol) - q0, (q0 - tol) - q1))
        roundoff = 8 * np.finfo(float).eps * max(float(np.abs(q0).max()), float(np.abs(q1).max()))
        guard = np.where(moving, STEP_GUARD * shift.max(initial=0.0) + roundoff, roundoff)
        if not tied.all() or (margin <= guard).any():
            counts["guard"] += 1
            return None
        counts["low_rank"] += 1
        counts["d"] = max(counts["d"], rows.size)
        return step, switch, tied

    # Low-rank steps serve long solves whose start table is new, once they
    # have factored a second table. A warm start, from a kept table (a
    # neighbouring price's optimum), moves hundreds of columns per step or
    # converges within a step or two, where a low-rank evaluation of the
    # converged table would be wasted.
    warm = actions.tobytes() in kept
    iterations = 0
    while True:
        iterations += 1
        result = kept.get(actions.tobytes())
        decided = (low_rank_step(actions) if result is None and anchor is not None
                   and counts["factored"] >= 2 else None)
        if decided is None:
            result = result or exact(actions)
            step = values(result, actions)
            decided = (step, *decide(step))
        step, switch, tied = decided
        if not switch.any():
            break
        actions = actions ^ switch
    evaluation, gain_q, _, q, _ = step
    final = np.where(tied, q[1] < q[0], gain_q[1] < gain_q[0])
    q_final = np.where(final, q[1], q[0])
    rel = (q_final - q_final[0, ref]).ravel()
    if not np.array_equal(final, actions):
        iterations += 1
        actions = final
        result = kept.get(actions.tobytes()) or exact(actions)
        evaluation = result[0]
    kept[actions.tobytes()] = result
    rel.setflags(write=False)
    log.debug("policy iteration at price %.6g: %d steps, %d exact factorisations, "
              "%d low-rank steps, %d guard and %d multichain fallbacks, largest d %d",
              mu, iterations, counts["factored"], counts["low_rank"], counts["guard"],
              counts["multichain"], counts["d"])
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

    Pure and mixed tables alike go through :func:`_evaluate`, the solver's
    own policy evaluation.
    """
    model = sensor_model(sensor, delta_max)
    w_cmd = policy.command_prob() if isinstance(policy, MixedPolicy) else policy.actions
    if w_cmd.size != model.num_states:
        raise ValueError("policy does not cover the sensor state space")
    return _evaluate(model, w_cmd)[0]


@dataclass(frozen=True, eq=False)
class LagrangeSolve:
    """Record of the price search: prices, trajectory, and per-sensor pieces.

    Both tables are optimal at ``mu_star``, the final breakpoint (or a tied
    end's price); they were solved at ``mu_minus`` and ``mu_plus``.
    ``evaluations`` collects (mu, fleet command rate, mean optimal Lagrangian)
    triples for every price evaluated, where the mean Lagrangian is
    sum_k L*_k(mu) / (num_users * K) without the -mu * Gamma / num_users
    offset; the rate is non-increasing and the Lagrangian non-decreasing in mu.
    The per-sensor pieces are those of the returned lower tables
    (``RelaxedSolution.policies[k].lower``): solved at ``mu_minus``, or at
    ``mu_plus`` when the upper end's rate ties Gamma and its tables come back
    unmixed.
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
    within that is returned unmixed, and ``mu_star`` is its price.

    Each class solve starts from its class's final table at the nearest
    price solved so far: price 0 for the upper bound, and for a breakpoint
    the nearer bracket end, the lower one on a tie (the table does not
    depend on the start). Its class's store of final-table evaluations
    (:func:`solve_per_sensor`'s ``kept``) lives for this call only.
    """
    classes, counts, class_of = sensor_classes(config)
    gamma = config.gamma
    weights = counts / config.num_sensors

    evaluations: list[tuple[float, float, float]] = []
    kept: list[dict] = [{} for _ in classes]  # each class's final-table evaluations

    def fleet(mu: float,
              near: list[PerSensorSolve] | None) -> tuple[float, float, list[PerSensorSolve]]:
        """The fleet's per-sensor (cost, command rate) at price mu, and its
        class solves, each started from its class's final table in ``near``."""
        starts = [None] * len(classes) if near is None else [s.policy.actions for s in near]
        results = [solve_per_sensor(s, config.delta_max, mu, start, store)
                   for s, start, store in zip(classes, starts, kept)]
        cost, rate = _fleet_average(weights, [s.evaluation for s in results])
        mean_lagr = float(sum(w * s.avg_lagrangian for w, s in zip(weights, results)))
        mean_lagr /= config.num_users
        evaluations.append((mu, rate, mean_lagr))
        log.debug("price %.6g -> rate %.6g, mean Lagrangian %.6g", mu, rate, mean_lagr)
        return cost, rate, results

    # The bracket: (mu_lo, lower) with rate >= Gamma and (mu_hi, upper) below
    # it. ``ends`` holds the (lower, upper) tables returned; one end's tables
    # twice when the budget is slack or that end's rate ties Gamma (eta = 1).
    mu_lo = mu_hi = mu_star = 0.0
    cost_lo, rate_lo, lower = fleet(mu_lo, None)
    upper, ends = lower, (lower, lower)
    active = rate_lo > gamma
    if active:
        mu_hi = _mu_upper_bound(config)
        cost_hi, rate_hi, upper = fleet(mu_hi, lower)
        if rate_hi > gamma:
            raise BracketError(
                f"command rate {rate_hi:.6g} at the price upper bound still exceeds "
                f"the budget {gamma:.6g}"
            )
        while True:
            if abs(rate_lo - gamma) <= DEFAULT_ETA_TOL:
                mu_star, ends = mu_lo, (lower, lower)
                break
            if abs(rate_hi - gamma) <= DEFAULT_ETA_TOL:
                mu_star, ends = mu_hi, (upper, upper)
                break
            ends = (lower, upper)
            # Prices stay Python floats: policy files write them with repr.
            mu_star = float((cost_hi - cost_lo) / (rate_lo - rate_hi))
            if not mu_lo < mu_star < mu_hi:
                # Both ends tie at a bracket end, up to round-off.
                mu_star = min(max(mu_star, mu_lo), mu_hi)
                break
            near = lower if mu_star - mu_lo <= mu_hi - mu_star else upper
            cost_b, rate_b, results_b = fleet(mu_star, near)
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
                mu_lo, cost_lo, rate_lo, lower = mu_star, cost_b, rate_b, results_b
            else:
                mu_hi, cost_hi, rate_hi, upper = mu_star, cost_b, rate_b, results_b

    if ends[0] is ends[1]:
        eta, class_evals = 1.0, [s.evaluation for s in ends[0]]
    else:
        eta, class_evals = _calibrate_eta(classes, config.delta_max, *ends, weights, gamma)
    class_policies = [MixedPolicy(lo.policy, up.policy, eta) for lo, up in zip(*ends)]
    cost, command_rate = _fleet_average(weights, class_evals)
    dual_bound = max(lagr - mu * gamma / config.num_users for mu, _, lagr in evaluations)

    lagrange = LagrangeSolve(
        mu_star=mu_star, mu_minus=mu_lo, mu_plus=mu_hi, evaluations=tuple(evaluations),
        per_sensor_rel_values=tuple(ends[0][c].rel_values for c in class_of),
        per_sensor_lagrangians=tuple(float(ends[0][c].avg_lagrangian) for c in class_of),
        per_sensor_rates=tuple(float(ends[0][c].evaluation.command_rate) for c in class_of),
        dual_bound=float(dual_bound),
    )
    return RelaxedSolution(
        policies=tuple(class_policies[c] for c in class_of),
        mu_star=mu_star,
        eta=float(eta),
        avg_cost=cost / config.num_users,
        command_rate=command_rate,
        constraint_active=active,
        lagrange=lagrange,
        per_sensor_cost_rates=tuple(float(class_evals[c].cost_rate) for c in class_of),
        per_sensor_command_rates=tuple(float(class_evals[c].command_rate) for c in class_of),
    )


def _mixture_rate(
    model: SensorModel, lower: PolicyTable, upper: PolicyTable
) -> tuple[ChainEvaluation, Callable[[float], float | None] | None, int]:
    """The exact evaluation of the even mixture of ``lower`` and ``upper``, the
    command rate of their mixture at any eta in (0, 1) as a low-rank update of
    that evaluation, and the rank d of the update.

    The mixture's request-averaged command rate w̄ is linear in eta, and so
    are its chain and its Poisson system. Row x of the chain moves by
    δ(x) (Q_1[x] - Q_0[x]) per unit of eta, with δ = w̄_lower - w̄_upper, and
    row x of the system by minus that, except in the pivot column of ones.
    With t = eta - 1/2, the system at eta is A + t E G: A is the even
    mixture's system, E selects the d rows where δ is nonzero, and G holds
    their change. The rate column's right-hand side moves by t E δ_E, so its
    solution moves from the even mixture's x by t (A + t E G)⁻¹ E w, with
    w = δ_E - G x. With Z = A⁻¹E from A's SuperLU factor, the Woodbury
    identity makes that t Z (I + t G Z)⁻¹ w: one d x d solve per eta
    (Hager, *SIAM Review* 31, 1989). The reference state's entry is the
    command rate.

    The rate function is None where the even mixture has more than one
    closed class, since the factor's layout fits one gain column, or where d
    exceeds ``LOW_RANK_SHARE`` of the chain's n states. It returns None where
    I + t G Z is singular, as the system at eta then is, or its rate is not
    finite.
    """
    half, _, x, factor = _evaluate(model, MixedPolicy(lower, upper, 0.5).command_prob())
    pmf = model.request_dist
    delta = pmf @ (lower.actions.reshape(pmf.size, -1) - upper.actions.reshape(pmf.size, -1))
    rows = np.flatnonzero(delta)
    n, d = delta.size, rows.size
    if factor is None or d > LOW_RANK_SHARE * n:
        return half, None, d
    ref = model.ref_index
    # Per unit of eta, w̄ moves by δ on the rows and 1 - w̄ by -δ.
    succ, change, z, coupling = _low_rank(model, _Columns(factor, n), rows,
                                          delta[rows, None] * [-1.0, 1.0])
    moved = delta[rows] - (change * x[succ, 1]).sum(axis=1)  # w; G skips the pivot's entry
    identity = np.identity(d)

    def rate_at(eta: float) -> float | None:
        t = eta - 0.5
        try:
            s = np.linalg.solve(identity + t * coupling, moved)
        except np.linalg.LinAlgError:
            return None
        value = half.command_rate + t * float(z[ref] @ s)
        return value if math.isfinite(value) else None

    return half, rate_at, d


def _calibrate_eta(
    classes: tuple[SensorParams, ...],
    delta_max: int,
    lower: list[PerSensorSolve],
    upper: list[PerSensorSolve],
    weights: np.ndarray,
    gamma: float,
) -> tuple[float, list[ChainEvaluation]]:
    """Bisection on the mixing factor against the mixed command rate, on one
    factorisation per mixed class.

    The fleet's mixed command rate rises with eta, from that of the ``upper``
    tables at 0 to that of the ``lower`` tables at 1. :func:`solve_relaxed`
    mixes only ends whose tie tests failed, so the first lies below
    Gamma - ``DEFAULT_ETA_TOL`` and the second above Gamma + ``DEFAULT_ETA_TOL``.
    The bracket keeps rate(lo) <= Gamma <= rate(hi), so a rate continuous in
    eta meets ``DEFAULT_ETA_TOL`` before the bracket collapses; a collapse
    raises :class:`BracketError` with the best rate seen. A class whose
    mixture is degenerate does not depend on eta: it keeps the evaluation of
    its pure table. Every other class is evaluated exactly at eta = 1/2, with
    one factorisation, and each step takes its rate from
    :func:`_mixture_rate`'s low-rank update of that evaluation (at eta = 1/2,
    the evaluation's own rate), or from an exact :func:`evaluate_per_sensor`
    where the update does not apply. A step
    whose fleet rate lies within ``ETA_GUARD`` of Gamma or of
    Gamma ± ``DEFAULT_ETA_TOL`` is decided on exact evaluations, so the steps
    are those of a bisection on exact rates. The returned eta is certified
    by exact evaluations, which are returned. Where the certified rate lies
    more than ``ETA_GUARD`` from the low-rank one, or the bracket collapses,
    the bisection runs again on exact rates alone; it reuses every exact
    evaluation made. Each pass that meets the budget logs its counts, the
    (d, n) of each mixed class and that gap at debug level.
    """
    fixed = [lo.evaluation if MixedPolicy(lo.policy, up.policy, 1.0).degenerate else None
             for lo, up in zip(lower, upper)]
    rate_at_zero = _fleet_average(weights, [s.evaluation for s in upper])[1]
    exact: dict[tuple[int, float], ChainEvaluation] = {}  # (class, eta) -> evaluation
    low_rank: list[Callable[[float], float | None] | None] = []
    shapes = []  # (d, n) of each mixed class
    for c, (s, lo, up, ev) in enumerate(zip(classes, lower, upper, fixed)):
        update = None
        if ev is None:
            model = sensor_model(s, delta_max)
            exact[c, 0.5], update, d = _mixture_rate(model, lo.policy, up.policy)
            shapes.append((d, model.succ.shape[0]))
        low_rank.append(update)
    steps = {"low_rank": 0, "exact": 0}

    def evaluation(c: int, eta: float) -> ChainEvaluation:
        if fixed[c] is not None:
            return fixed[c]
        if (c, eta) not in exact:
            steps["exact"] += 1
            exact[c, eta] = evaluate_per_sensor(
                classes[c], delta_max, MixedPolicy(lower[c].policy, upper[c].policy, eta))
        return exact[c, eta]

    def rate_at(eta: float, exactly: bool) -> float:
        """The fleet's mixed command rate at eta: each class's low-rank rate
        where it has one, unless ``exactly``, and its exact one elsewhere."""
        rates = []
        for c, update in enumerate(low_rank):
            rate = None if exactly or update is None else update(eta)
            steps["low_rank"] += rate is not None
            rates.append(evaluation(c, eta).command_rate if rate is None else rate)
        return float(sum(w * r for w, r in zip(weights, rates)))

    edges = (gamma - DEFAULT_ETA_TOL, gamma, gamma + DEFAULT_ETA_TOL)
    for exactly in (False, True):  # the exact pass reuses every exact evaluation made
        lo_eta, hi_eta = 0.0, 1.0
        best_rate = rate_at_zero
        while hi_eta - lo_eta >= 1e-15:
            mid = 0.5 * (lo_eta + hi_eta)
            estimate = rate_at(mid, exactly)
            near = min(abs(estimate - edge) for edge in edges) <= ETA_GUARD
            rate = rate_at(mid, True) if near else estimate
            if abs(rate - gamma) <= DEFAULT_ETA_TOL:
                evals = [evaluation(c, mid) for c in range(len(classes))]
                gap = abs(estimate - _fleet_average(weights, evals)[1])
                log.debug("eta %.6g on the %s pass: %d low-rank class rates, %d exact "
                          "class evaluations, (d, n) per mixed class %s, low-rank rate "
                          "off by %.1e", mid, "exact" if exactly else "low-rank",
                          steps["low_rank"], steps["exact"], shapes, gap)
                if gap <= ETA_GUARD:  # always on the exact pass
                    return mid, evals
                break
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
