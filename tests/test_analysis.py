"""Checks-of-the-checks: ordering, gap bound, scaling, structure, region maps."""

import numpy as np
import pytest
from oracles import ordering_inputs, random_tiny_network

from aoisched import (
    NetworkConfig,
    SensorParams,
    SimConfig,
    build_relaxed_fleet_policy,
    check_gap_bound,
    check_ordering,
    check_sqrt_k_mad,
    command_region_map,
    policy_structure_report,
    proposal_spread,
    run_experiment,
    solve_per_sensor,
    solve_relaxed,
)

TINY1 = SensorParams(harvest_rate=0.5, battery_capacity=1, request_probs=(0.5,))
TINY2_SENSOR = SensorParams(harvest_rate=1.0, battery_capacity=1, request_probs=(1.0,))
TINY2 = NetworkConfig(2, 1, 1, 3, (TINY2_SENSOR, TINY2_SENSOR))


def test_ordering_chain_tiny2():
    report = check_ordering(*ordering_inputs(TINY2, horizon=20_000, episodes=4, seed=17))
    assert report.holds, report.describe()
    assert report.lower_bound <= 1.5 + 1e-6
    assert report.exact_cost == pytest.approx(1.5, abs=1e-6)
    assert report.truncated_mean >= 1.5 - 3 * report.truncated_se - 1e-9


def test_ordering_chain_single_episode():
    # One episode has no spread: its NaN standard error gets no allowance.
    report = check_ordering(*ordering_inputs(TINY2, horizon=20_000, episodes=1, seed=17))
    assert np.isnan(report.truncated_se)
    assert report.truncated_mean >= report.exact_cost
    assert report.holds, report.describe()


def test_ordering_chain_vacuous_budget():
    # gamma = 1: relaxation, optimum, and truncation all coincide.
    net = NetworkConfig(2, 1, 2, 3, (TINY1, TINY1))
    report = check_ordering(*ordering_inputs(net, horizon=30_000, episodes=32, seed=23))
    assert report.holds, report.describe()
    assert report.lower_bound == pytest.approx(report.exact_cost, abs=1e-6)
    assert report.truncated_mean == pytest.approx(
        report.exact_cost, abs=3 * report.truncated_se + 1e-9
    )


def test_ordering_chain_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(3):
        net = random_tiny_network(rng)
        seed = int(rng.integers(1 << 30))
        report = check_ordering(*ordering_inputs(net, horizon=30_000, episodes=4, seed=seed))
        assert report.holds, report.describe()


def test_structure_report_on_solved_policy():
    sensor = SensorParams(0.3, 3, (0.4, 0.7))
    solve = solve_per_sensor(sensor, 8, 1.2)
    report = policy_structure_report(
        sensor, 8, solve.policy, values=solve.rel_values
    )
    assert report.value_monotone_in_age
    assert report.age_threshold


def test_structure_report_flags_violations():
    sensor = SensorParams(0.3, 1, (0.5,))
    solve = solve_per_sensor(sensor, 4, 0.5)
    broken = solve.policy.actions.copy()
    grid = broken.reshape(2, 2, 4)
    grid[1, 1, 0] = 1
    grid[1, 1, 1] = 0  # downward step in age
    from aoisched import PolicyTable

    report = policy_structure_report(sensor, 4, PolicyTable(actions=broken, mu=0.5))
    assert not report.age_threshold


def test_command_region_map():
    sensor = SensorParams(0.4, 2, (0.6,))
    solve = solve_per_sensor(sensor, 6, 0.8)
    grid, closure = command_region_map(sensor, 6, solve.policy, requests=1)
    assert grid.shape == (3, 6)
    assert closure["upward_closed_age"]
    zero_grid, _ = command_region_map(sensor, 6, solve.policy, requests=0)
    assert (zero_grid == 0).all()
    with pytest.raises(ValueError):
        command_region_map(sensor, 6, solve.policy, requests=2)


def test_gap_bound_vacuous_when_budget_full():
    fleet = 8
    net = NetworkConfig(fleet, 1, fleet, 2, (TINY1,) * fleet)
    solution = solve_relaxed(net)
    sim = SimConfig(network=net, horizon=10_000, episodes=3, seed=5)
    rtt = run_experiment(sim, build_relaxed_fleet_policy(net, solution.policies, True))
    _, mad = proposal_spread(solution)
    report = check_gap_bound(net.delta_max, net.budget, solution.avg_cost, rtt, mad)
    assert report.holds, report.describe()
    # no truncation ever happens, so the measured gap is pure Monte Carlo noise
    assert abs(report.gap) <= 0.01


def test_gap_bound_active_budget():
    fleet = 40
    net = NetworkConfig(fleet, 1, 2, 2, (TINY1,) * fleet)  # gamma = 0.05
    solution = solve_relaxed(net)
    assert solution.constraint_active
    sim = SimConfig(network=net, horizon=20_000, episodes=4, seed=6)
    rtt = run_experiment(sim, build_relaxed_fleet_policy(net, solution.policies, True))
    _, mad = proposal_spread(solution)
    report = check_gap_bound(net.delta_max, net.budget, solution.avg_cost, rtt, mad)
    assert report.holds, report.describe()


def test_sqrt_k_mad_binomial():
    # Independent proposals at rate 0.025 across 10^4 sensors: the normalized
    # MAD lands near sqrt(2/pi) * sqrt(rate * (1 - rate)) and far below one.
    fleet, rate = 10_000, 0.025
    rng = np.random.default_rng(31)
    samples = rng.binomial(fleet, rate, size=100_000)
    mad = float(np.abs(samples - samples.mean()).mean())
    expected = np.sqrt(2 / np.pi) * np.sqrt(fleet * rate * (1 - rate))
    assert mad == pytest.approx(expected, rel=0.02)
    report = check_sqrt_k_mad(fleet, mad)
    assert report.holds
    assert report.ratio == pytest.approx(0.1246, abs=0.005)


def test_sqrt_k_mad_constant_proposals():
    report = check_sqrt_k_mad(100, 0.0)
    assert report.holds
    assert report.ratio == 0.0


def test_lower_bound_non_increasing_in_budget():
    # More budget never hurts: the exact relaxed cost decreases (weakly) as
    # gamma grows, and saturates once the energy limit dominates.
    fleet = 10
    costs = []
    for budget in (1, 2, 5, 10):
        net = NetworkConfig(fleet, 1, budget, 2, (TINY1,) * fleet)
        costs.append(solve_relaxed(net).avg_cost)
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))

