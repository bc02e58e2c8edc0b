"""Joint-solver tests: action enumeration, tiny oracles, Bellman residuals, and memory."""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import (
    PerSensorState,
    bellman_residual,
    finite_horizon_joint_cost,
    random_tiny_network,
)

from aoisched import (
    JointPolicy,
    NetworkConfig,
    SensorParams,
    StateSpaceError,
    enumerate_budget_actions,
    sensor_model,
    solve_exact,
    solve_per_sensor,
)
from aoisched.model import joint_state_sizes

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


# fig2a's sensors: 4 request counts x 8 battery levels x 64 ages = 2,048 states.
PAPER_SENSOR = SensorParams(0.05, 7, (0.6,) * 3)


def test_state_space_cap_at_paper_scale():
    # 40 sensors of 2,048 states: 2**440 joint states, which an int64 product
    # wraps to 0, so the cap let the solve through to a numpy allocation error.
    net = NetworkConfig(40, 3, 1, 64, (PAPER_SENSOR,) * 40)
    assert math.prod(joint_state_sizes(net)) == 2**440
    with pytest.raises(StateSpaceError, match="more than"):
        solve_exact(net)


def test_state_space_cap_message_stays_short():
    # 2048**1300 has 4,305 digits, past what Python formats as a str.
    net = NetworkConfig(1300, 3, 1, 64, (PAPER_SENSOR,) * 1300)
    with pytest.raises(StateSpaceError) as err:
        solve_exact(net)
    assert len(str(err.value)) < 100


def test_joint_policy_rejects_a_table_of_the_wrapped_size():
    # A 0-row table matched the int64 product of 40 sensors of 2,048 states.
    with pytest.raises(ValueError, match="shape"):
        JointPolicy(np.zeros((0, 40), np.int8), 1, (2048,) * 40)


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
    # One, two and three users: the exact cost is normalized per user.
    for sensor, delta_max in [
        (SensorParams(0.5, 1, (0.5,)), 2),
        (SensorParams(0.4, 2, (0.3, 0.8)), 4),
        (SensorParams(0.6, 3, (0.5, 0.2, 0.9)), 5),
    ]:
        net = NetworkConfig(1, sensor.num_users, 1, delta_max, (sensor,))
        policy, result = solve_exact(net)
        per_sensor = solve_per_sensor(sensor, delta_max, 0.0)
        assert result.avg_cost * sensor.num_users == pytest.approx(
            per_sensor.avg_lagrangian, abs=1e-6)
        np.testing.assert_array_equal(policy.actions.ravel(), per_sensor.policy.actions)


def test_ties_go_to_first_action_in_priority_order():
    # Where both identical sensors share a state, commanding either one gives
    # the same value: the tie goes to (1, 0), never to (0, 1).
    sensor = SensorParams(0.3, 7, (0.6,) * 3)
    net = NetworkConfig(2, 3, 1, 6, (sensor, sensor))
    policy, _ = solve_exact(net)
    n = policy.state_sizes[0]
    shared = policy.actions[np.arange(n) * (n + 1)]
    assert not ((shared[:, 0] == 0) & (shared[:, 1] == 1)).any()
    assert (shared[:, 0] == 1).any()


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


def test_exact_memory_linear_in_states():
    # 4,096 states on one sensor: dense per-sensor kernels would take 134 MB each.
    sensor = SensorParams(0.3, 15, (0.6,))
    net = NetworkConfig(1, 1, 1, 128, (sensor,))
    sensor_model(sensor, net.delta_max)  # built outside the measured window
    tracemalloc.start()
    try:
        _, result = solve_exact(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
    assert result.rel_values.size == 4096
