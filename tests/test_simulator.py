"""Engine tests: determinism, trivial trajectories, spread statistics, traces."""

import numpy as np
import pytest

from aoisched import (
    MixedPolicy,
    NetworkConfig,
    PolicyTable,
    SensorParams,
    SimConfig,
    SimulationError,
    build_relaxed_fleet_policy,
    evaluate_per_sensor,
    mean_abs_deviation,
    run_episode,
    run_experiment,
    solve_per_sensor,
    solve_relaxed,
)

TINY1 = SensorParams(harvest_rate=0.5, battery_capacity=1, request_probs=(0.5,))


def _always_command_policy(net: NetworkConfig):
    tables = []
    for s in net.sensors:
        n = (s.num_users + 1) * (s.battery_capacity + 1) * net.delta_max
        table = PolicyTable(actions=np.ones(n, dtype=np.int8), mu=0.0)
        tables.append(MixedPolicy(table, table, 1.0))
    return build_relaxed_fleet_policy(net, tuple(tables), truncate_to_budget=True)


def test_deterministic_trajectory_cost():
    # Sure energy and sure requests: first slot pays the capped age because the
    # battery starts empty, every later slot pays exactly one.
    net = NetworkConfig(1, 1, 1, 4, (SensorParams(1.0, 3, (1.0,)),))
    horizon = 10_000
    report = run_experiment(
        SimConfig(network=net, horizon=horizon, episodes=2, seed=0),
        _always_command_policy(net),
    )
    expected = (4 + (horizon - 1)) / horizon
    assert report.cost_mean == pytest.approx(expected, abs=1e-12)
    assert report.cost_se == 0.0
    assert report.rate_mean == 1.0


def test_starved_sensor_age_caps():
    net = NetworkConfig(1, 1, 1, 4, (SensorParams(0.0, 3, (1.0,)),))
    report = run_experiment(
        SimConfig(network=net, horizon=20_000, episodes=1, seed=0),
        _always_command_policy(net),
    )
    assert report.cost_mean == pytest.approx(4.0, abs=1e-12)


def test_seed_determinism():
    net = NetworkConfig(3, 2, 1, 5, (SensorParams(0.4, 2, (0.3, 0.6)),) * 3)
    sim = SimConfig(network=net, horizon=4_000, episodes=3, seed=123)
    policy = _always_command_policy(net)
    first = run_experiment(sim, policy)
    second = run_experiment(sim, policy)
    assert first.per_episode == second.per_episode
    assert first.cost_mean == second.cost_mean


def test_identical_episode_seeds_replay():
    net = NetworkConfig(2, 1, 1, 4, (TINY1, TINY1))
    sim = SimConfig(network=net, horizon=3_000, episodes=2, seed=0, episode_seeds=(77, 77))
    report = run_experiment(sim, _always_command_policy(net))
    assert report.per_episode[0] == report.per_episode[1]


def test_episode_metrics_independent_of_batching():
    # Episode e's draws depend only on its seed, so running one episode alone
    # reproduces its metrics from a two-episode run.
    net = NetworkConfig(2, 1, 1, 4, (TINY1, TINY1))
    policy = _always_command_policy(net)
    pair = run_experiment(
        SimConfig(network=net, horizon=2_500, episodes=2, seed=0, episode_seeds=(5, 6)),
        policy,
    )
    solo = run_episode(SimConfig(network=net, horizon=2_500, episodes=1, seed=0), policy, seed=6)
    assert solo == pair.per_episode[1]


def test_truncation_vacuous_when_budget_is_fleet():
    # With budget = K the truncating policy replays the pure relaxed one.
    fleet = 10
    net = NetworkConfig(fleet, 1, fleet, 2, (TINY1,) * fleet)
    solution = solve_relaxed(net)
    pure = build_relaxed_fleet_policy(net, solution.policies, truncate_to_budget=False)
    capped = build_relaxed_fleet_policy(net, solution.policies, truncate_to_budget=True)
    sim = SimConfig(network=net, horizon=5_000, episodes=2, seed=3)
    a = run_experiment(sim, pure)
    b = run_experiment(sim, capped)
    assert a.per_episode == b.per_episode


def test_stationary_oracle_cross_check():
    net = NetworkConfig(1, 1, 1, 2, (TINY1,))
    solve = solve_per_sensor(TINY1, 2, 0.0)
    exact = evaluate_per_sensor(TINY1, 2, solve.policy)
    mixed = (MixedPolicy(solve.policy, solve.policy, 1.0),)
    policy = build_relaxed_fleet_policy(net, mixed, truncate_to_budget=False)
    report = run_experiment(
        SimConfig(network=net, horizon=200_000, episodes=8, seed=13), policy
    )
    assert report.cost_mean == pytest.approx(exact.cost_rate, abs=3 * report.cost_se)
    assert report.rate_mean == pytest.approx(exact.command_rate, abs=3 * report.rate_se)


def test_heterogeneous_fleet_matches_per_sensor_rates():
    # Distinct battery sizes and harvest rates exercise the per-sensor table
    # offsets; the fleet command rate is the mean of the exact per-sensor rates.
    sensors = (
        SensorParams(0.7, 1, (0.6,)),
        SensorParams(0.3, 3, (0.6,)),
        SensorParams(0.5, 2, (0.6,)),
    )
    net = NetworkConfig(3, 1, 3, 4, sensors)
    solution = solve_relaxed(net)
    policy = build_relaxed_fleet_policy(net, solution.policies, truncate_to_budget=False)
    report = run_experiment(
        SimConfig(network=net, horizon=100_000, episodes=6, seed=8), policy
    )
    assert report.cost_mean == pytest.approx(solution.avg_cost, abs=3 * report.cost_se)
    assert report.rate_mean == pytest.approx(
        solution.command_rate, abs=3 * report.rate_se
    )


def test_mean_abs_deviation():
    assert mean_abs_deviation([3.0, 3.0, 3.0]) == (3.0, 0.0)
    assert mean_abs_deviation([0.0, 2.0]) == (1.0, 1.0)
    with pytest.raises(ValueError):
        mean_abs_deviation([])


def test_mad_of_standard_normal():
    draws = np.random.default_rng(99).standard_normal(1_000_000)
    _, mad = mean_abs_deviation(draws)
    assert mad == pytest.approx(np.sqrt(2 / np.pi), abs=0.005)


def test_trace_running_average():
    net = NetworkConfig(1, 1, 1, 4, (SensorParams(1.0, 3, (1.0,)),))
    report = run_experiment(
        SimConfig(network=net, horizon=1_000, episodes=1, seed=0, trace_points=10),
        _always_command_policy(net),
    )
    slots = [s for s, _ in report.trace]
    assert slots[-1] == 1_000
    assert len(slots) == 10
    # running average of the deterministic trajectory: (4 + (t-1)) / t
    for slot, value in report.trace:
        assert value == pytest.approx((4 + slot - 1) / slot, abs=1e-12)


def test_budget_violation_raises():
    class OverBudget:
        name = "over"
        budget = 1
        mixture_eta = None

        def decide(self, requests, battery, age, mix_lower, trunc_rngs):
            actions = np.zeros_like(battery)
            actions[:, : self.budget + 1] = 1
            return actions, actions.sum(axis=1)

    net = NetworkConfig(3, 1, 1, 4, (TINY1,) * 3)
    with pytest.raises(SimulationError, match="budget"):
        run_experiment(SimConfig(network=net, horizon=5, episodes=2, seed=0), OverBudget())


def test_invalid_sim_config():
    net = NetworkConfig(1, 1, 1, 4, (TINY1,))
    with pytest.raises(ValueError):
        SimConfig(network=net, horizon=0, episodes=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(network=net, horizon=10, episodes=2, seed=0, episode_seeds=(1,))
