"""Numerical verification of the structural and optimality claims.

Proved results are hard checks: value monotonicity in age, the age-threshold
policy structure, the policy-cost ordering chain, and the truncation gap
bound. Structure along the request and battery axes is only observed in
simulations, so it is reported, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact_solver import solve_exact
from .model import NetworkConfig, SensorParams
from .relaxed_solver import PolicyTable, RelaxedSolution, solve_relaxed
from .runtime_policies import build_relaxed_fleet_policy
from .simulator import SimConfig, SimReport, run_experiment

__all__ = [
    "StructureReport",
    "policy_structure_report",
    "command_region_map",
    "OrderingReport",
    "check_ordering",
    "GapBoundReport",
    "check_gap_bound",
    "SqrtKReport",
    "check_sqrt_k_mad",
]

VALUE_MONOTONE_TOL = 1e-9


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
    value_tol: float = VALUE_MONOTONE_TOL,
) -> StructureReport:
    """Exhaustive structural checks over the (requests, battery, age) grid."""
    acts = _grids(sensor, delta_max, policy.actions)
    monotone = True
    if values is not None:
        vals = _grids(sensor, delta_max, values)
        monotone = bool((np.diff(vals, axis=2) >= -value_tol).all())
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
    exact_tol: float
    holds: bool

    def describe(self) -> str:
        return (
            f"lower={self.lower_bound:.6f} <= exact={self.exact_cost:.6f} "
            f"<= truncated={self.truncated_mean:.6f} (se={self.truncated_se:.2e})"
        )


def check_ordering(
    config: NetworkConfig,
    horizon: int,
    episodes: int,
    seed: int,
    epsilon: float = 1e-7,
    exact_tol: float = 1e-6,
    relaxed: RelaxedSolution | None = None,
) -> OrderingReport:
    """Verify lower bound <= exact optimum <= truncated cost on a small instance.

    The left pair is exact (solver tolerances); the right side is Monte Carlo
    with a three-standard-error allowance. ``epsilon`` defaults tighter than
    the production bisection width so the primal lower bound carries no
    bracket slack.
    """
    if relaxed is None:
        relaxed = solve_relaxed(config, epsilon=epsilon)
    _, rvia = solve_exact(config)
    policy = build_relaxed_fleet_policy(config, relaxed.policies, truncate_to_budget=True)
    report = run_experiment(
        SimConfig(network=config, horizon=horizon, episodes=episodes, seed=seed),
        policy,
    )
    left = relaxed.avg_cost <= rvia.avg_cost + exact_tol
    right = rvia.avg_cost <= report.cost_mean + 3.0 * report.cost_se + 1e-9
    return OrderingReport(
        lower_bound=relaxed.avg_cost,
        exact_cost=rvia.avg_cost,
        truncated_mean=report.cost_mean,
        truncated_se=report.cost_se,
        exact_tol=exact_tol,
        holds=bool(left and right),
    )


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
    proposal_mad_se: float = 0.0,
) -> GapBoundReport:
    """Check truncated cost minus the relaxed bound against (cap/budget) * MAD.

    Uses the relaxed lower bound in place of the unknown optimum, which only
    strengthens the check, and allows three standard errors on both measured
    quantities. ``proposal_mad`` should come from a pure relaxed run, matching
    the distribution the bound is stated under.
    """
    gap = truncated.cost_mean - lower_bound_cost
    se_cost = 0.0 if np.isnan(truncated.cost_se) else truncated.cost_se
    se_mad = 0.0 if np.isnan(proposal_mad_se) else proposal_mad_se
    scale = delta_max / budget
    bound = scale * proposal_mad + 3.0 * se_cost + 3.0 * scale * se_mad
    return GapBoundReport(
        gap=float(gap),
        bound=float(bound),
        slack=float(bound - gap),
        holds=bool(gap <= bound),
    )


@dataclass(frozen=True)
class SqrtKReport:
    """Proposal MAD scaling across fleet sizes at a fixed normalized budget."""

    entries: tuple[tuple[int, float, float], ...]  # (K, MAD/sqrt(K), envelope)
    largest_k: int
    largest_ratio: float
    holds: bool

    def describe(self) -> str:
        rows = ", ".join(f"K={k}: {r:.4f}" for k, r, _ in self.entries)
        return f"MAD/sqrt(K) [{rows}]; largest K={self.largest_k} ratio={self.largest_ratio:.4f}"


def check_sqrt_k_mad(
    measurements: list[tuple[int, float, float]],
    gamma: float,
    delta_max: int,
) -> SqrtKReport:
    """Assert the normalized proposal spread stays below one at the largest fleet.

    ``measurements`` holds (K, proposal MAD, MAD standard error) from pure
    relaxed runs. Smaller fleets are report-only since the scaling claim is
    asymptotic. The envelope column delta_max / (gamma * sqrt(K)) tracks the
    vanishing-gap trend.
    """
    if not measurements:
        raise ValueError("need at least one measurement")
    entries = []
    for k, mad, _ in sorted(measurements):
        entries.append((k, mad / np.sqrt(k), delta_max / (gamma * np.sqrt(k))))
    k_max, mad_max, se_max = max(measurements)
    se_max = 0.0 if np.isnan(se_max) else se_max
    ratio = mad_max / np.sqrt(k_max)
    holds = ratio <= 1.0 + 3.0 * se_max / np.sqrt(k_max)
    return SqrtKReport(
        entries=tuple(entries),
        largest_k=int(k_max),
        largest_ratio=float(ratio),
        holds=bool(holds),
    )
