"""Numerical verification of the structural and optimality claims.

Proved results are hard checks: value monotonicity in age, the age-threshold
policy structure, the policy-cost ordering chain, and the truncation gap
bound. Structure along the request and battery axes is only observed in
simulations, so it is reported, never asserted.

Every check is a pure function of results already computed: solved tables
and relative values, the relaxed bound and the exact optimum, and simulation
reports. Nothing here solves or simulates, so one solve and one simulation
per policy can feed every check that reads them. The proposal spread the gap
bound and the sqrt(K) check read is the relaxed policy's exact stationary
law, from the solve's command rates (:func:`proposal_spread`), not from a
simulated pure relaxed run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SensorParams, request_pmf
from .relaxed_solver import PolicyTable, RelaxedSolution
from .simulator import SimReport

__all__ = [
    "StructureReport",
    "policy_structure_report",
    "command_region_map",
    "OrderingReport",
    "check_ordering",
    "proposal_spread",
    "GapBoundReport",
    "check_gap_bound",
    "SqrtKReport",
    "check_sqrt_k_mad",
]

VALUE_MONOTONE_TOL = 1e-9
EXACT_TOL = 1e-6  # relaxed bound <= exact optimum, within the solvers' tolerances


@dataclass(frozen=True)
class StructureReport:
    """Structural audit of one per-sensor solve.

    ``value_monotone_in_age`` and ``age_threshold`` correspond to proved
    results and should always hold; ``requests_threshold`` and
    ``battery_threshold`` are empirical observations.
    """

    value_monotone_in_age: bool
    age_threshold: bool
    requests_threshold: bool
    battery_threshold: bool


def _grids(sensor: SensorParams, delta_max: int, flat: np.ndarray) -> np.ndarray:
    return np.asarray(flat).reshape(
        sensor.num_users + 1, sensor.battery_capacity + 1, delta_max
    )


def _upward_closed(actions: np.ndarray, axis: int) -> bool:
    return bool((np.diff(actions, axis=axis) >= 0).all())


def policy_structure_report(
    sensor: SensorParams,
    delta_max: int,
    policy: PolicyTable,
    values: np.ndarray | None = None,
) -> StructureReport:
    """Exhaustive structural checks over the (requests, battery, age) grid.

    Relative ``values``, if given, must not fall with age by more than
    ``VALUE_MONOTONE_TOL``.
    """
    acts = _grids(sensor, delta_max, policy.actions)
    monotone = True
    if values is not None:
        vals = _grids(sensor, delta_max, values)
        monotone = bool((np.diff(vals, axis=2) >= -VALUE_MONOTONE_TOL).all())
    return StructureReport(
        value_monotone_in_age=monotone,
        age_threshold=_upward_closed(acts, axis=2),
        requests_threshold=_upward_closed(acts, axis=0),
        battery_threshold=_upward_closed(acts, axis=1),
    )


def command_region_map(
    sensor: SensorParams,
    delta_max: int,
    policy: PolicyTable,
    requests: int,
) -> tuple[np.ndarray, dict[str, bool]]:
    """Action grid over (battery rows, age columns) at a fixed request count.

    Also reports whether the command region is upward-closed along each axis
    of the slice.
    """
    if not 0 <= requests <= sensor.num_users:
        raise ValueError("requests outside the sensor's range")
    grid = _grids(sensor, delta_max, policy.actions)[requests]
    closure = {
        "upward_closed_age": _upward_closed(grid, axis=1),
        "upward_closed_battery": _upward_closed(grid, axis=0),
    }
    return grid, closure


@dataclass(frozen=True)
class OrderingReport:
    """Policy-cost chain on one instance: relaxed bound, optimum, then truncation."""

    lower_bound: float
    exact_cost: float
    truncated_mean: float
    truncated_se: float
    holds: bool

    def describe(self) -> str:
        return (
            f"lower={self.lower_bound:.6f} <= exact={self.exact_cost:.6f} "
            f"<= truncated={self.truncated_mean:.6f} (se={self.truncated_se:.2e})"
        )


def check_ordering(
    lower_bound: float, exact_cost: float, truncated: SimReport
) -> OrderingReport:
    """Verify lower bound <= exact optimum <= truncated cost on one instance.

    ``lower_bound`` is the relaxed solve's ``avg_cost``, ``exact_cost`` the
    joint solve's, and ``truncated`` the report of a relax-then-truncate run.
    The left pair is exact (within ``EXACT_TOL``); the right side is Monte
    Carlo with a three-standard-error allowance, none with a single episode,
    whose standard error is NaN.
    """
    left = lower_bound <= exact_cost + EXACT_TOL
    se = 0.0 if np.isnan(truncated.cost_se) else truncated.cost_se
    right = exact_cost <= truncated.cost_mean + 3.0 * se + 1e-9
    return OrderingReport(
        lower_bound=lower_bound,
        exact_cost=exact_cost,
        truncated_mean=truncated.cost_mean,
        truncated_se=truncated.cost_se,
        holds=bool(left and right),
    )


def proposal_spread(solution: RelaxedSolution) -> tuple[float, float]:
    """Mean and mean absolute deviation of the proposal count |X| under the
    pure relaxed policy, in stationarity.

    The sensors are then independent chains, each proposing in a slot with
    its long-run command rate w_k, so |X| is Poisson-binomial over the
    solution's ``per_sensor_command_rates``: the rates from the reference
    state, where the lower bound is read too.

    This is the law a simulated run converges to when every sensor's chain
    is aperiodic. With ``harvest_rate < 1`` every closed class is: with no
    harvest, any state reaches a (battery, age) state that keeps itself with
    positive probability. A grid-powered sensor (``harvest_rate == 1``) can
    cycle: the two sensors of ``configs/tiny2.cfg`` propose in lockstep every
    other slot, so a simulated |X| alternates 0 and 2, a MAD of 1, where this
    law gives 0.5.
    """
    pmf = request_pmf(solution.per_sensor_command_rates)
    counts = np.arange(pmf.size)
    mean = float(pmf @ counts)
    return mean, float(pmf @ np.abs(counts - mean))


@dataclass(frozen=True)
class GapBoundReport:
    """Truncation penalty against its proposal-spread bound."""

    gap: float
    bound: float
    slack: float
    holds: bool

    def describe(self) -> str:
        return f"gap={self.gap:.6f} <= bound={self.bound:.6f} (slack={self.slack:.6f})"


def check_gap_bound(
    delta_max: int,
    budget: int,
    lower_bound_cost: float,
    truncated: SimReport,
    proposal_mad: float,
) -> GapBoundReport:
    """Check truncated cost minus the relaxed bound against (cap/budget) * MAD.

    Uses the relaxed lower bound in place of the unknown optimum, which only
    strengthens the check, and allows three standard errors on the measured
    cost. ``proposal_mad`` is the pure relaxed policy's proposal MAD, the
    distribution the bound is stated under; :func:`proposal_spread` gives it
    exactly.
    """
    gap = truncated.cost_mean - lower_bound_cost
    se_cost = 0.0 if np.isnan(truncated.cost_se) else truncated.cost_se
    bound = delta_max / budget * proposal_mad + 3.0 * se_cost
    return GapBoundReport(
        gap=float(gap),
        bound=float(bound),
        slack=float(bound - gap),
        holds=bool(gap <= bound),
    )


@dataclass(frozen=True)
class SqrtKReport:
    """Normalized proposal spread MAD / sqrt(K) of one fleet."""

    ratio: float
    holds: bool


def check_sqrt_k_mad(num_sensors: int, mad: float) -> SqrtKReport:
    """Assert the normalized proposal spread MAD / sqrt(K) stays below one.

    ``mad`` is the pure relaxed policy's proposal MAD on a fleet of
    ``num_sensors`` sensors, as :func:`proposal_spread` gives it. The claim
    is asymptotic, so check it on a large fleet.
    """
    ratio = float(mad / np.sqrt(num_sensors))
    return SqrtKReport(ratio=ratio, holds=ratio <= 1.0)
