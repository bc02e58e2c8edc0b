"""Joint-solver tests: action enumeration, tiny oracles, and Bellman residuals."""

import numpy as np
import pytest
from oracles import PerSensorState, finite_horizon_joint_cost, random_tiny_network

from aoisched import (
    NetworkConfig,
    SensorParams,
    StateSpaceError,
    bellman_residual,
    enumerate_budget_actions,
    solve_exact,
    solve_per_sensor,
)

TINY2_SENSOR = SensorParams(harvest_rate=1.0, battery_capacity=1, request_probs=(1.0,))
TINY2 = NetworkConfig(2, 1, 1, 3, (TINY2_SENSOR, TINY2_SENSOR))


def test_enumerate_budget_actions():
    assert enumerate_budget_actions(2, 1) == [(0, 0), (1, 0), (0, 1)]
    assert len(enumerate_budget_actions(3, 2)) == 7
    assert len(enumerate_budget_actions(2, 2)) == 4
    acts = enumerate_budget_actions(4, 2)
    # tie-break priority: fewest commands first, then lowest commanded indices
    assert acts == sorted(acts, key=lambda a: (sum(a), [i for i, b in enumerate(a) if b]))
    assert len(set(acts)) == len(acts) == 11
    assert all(sum(a) <= 2 for a in acts)
    with pytest.raises(ValueError):
        enumerate_budget_actions(2, 3)
    with pytest.raises(StateSpaceError):
        enumerate_budget_actions(60, 30)


def test_state_space_cap():
    sensor = SensorParams(0.1, 15, (0.5,) * 7)
    net = NetworkConfig(3, 7, 1, 64, (sensor,) * 3)
    with pytest.raises(StateSpaceError):
        solve_exact(net)


def test_always_requested_always_energized():
    sensor = SensorParams(1.0, 1, (1.0,))
    net = NetworkConfig(1, 1, 1, 4, (sensor,))
    _, result = solve_exact(net)
    assert result.avg_cost == pytest.approx(1.0, abs=1e-6)


def test_tiny2_average_cost():
    policy, result = solve_exact(TINY2)
    assert result.avg_cost == pytest.approx(1.5, abs=1e-6)
    # budget respected everywhere
    assert (policy.actions.sum(axis=1) <= 1).all()


def test_tiny2_finite_horizon_oracle():
    start = (PerSensorState(1, 1, 1), PerSensorState(1, 1, 1))
    dp_value = finite_horizon_joint_cost(TINY2, 30, start)
    assert dp_value == pytest.approx(1.5, abs=1e-6)


def test_k1_exact_equals_relaxed_at_zero_price():
    sensor = SensorParams(0.5, 1, (0.5,))
    net = NetworkConfig(1, 1, 1, 2, (sensor,))
    policy, result = solve_exact(net)
    per_sensor = solve_per_sensor(sensor, 2, 0.0)
    assert result.avg_cost == pytest.approx(per_sensor.avg_lagrangian, abs=1e-6)
    np.testing.assert_array_equal(policy.actions.ravel(), per_sensor.policy.actions)


def test_bellman_residual_small():
    _, result = solve_exact(TINY2)
    assert bellman_residual(TINY2, result) <= 1e-6


def test_finite_horizon_oracle_on_random_instance():
    # Long-horizon brute-force averages approach the solved average cost.
    rng = np.random.default_rng(11)
    net = random_tiny_network(rng)
    _, result = solve_exact(net)
    start = tuple(PerSensorState(0, 0, 1) for _ in range(2))
    horizon = 400
    dp_value = finite_horizon_joint_cost(net, horizon, start)
    # Finite-horizon bias decays like span/horizon.
    assert dp_value == pytest.approx(result.avg_cost, abs=0.5 * net.delta_max / horizon + 1e-6)
