"""Kernel, cost, and state-space tests for the model layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched import (
    NetworkConfig,
    PerSensorState,
    SensorParams,
    effective_send,
    per_sensor_cost,
    per_sensor_kernel,
    request_pmf,
    sensor_classes,
    sensor_model,
    step_age,
    step_battery,
)

TINY1 = SensorParams(harvest_rate=0.5, battery_capacity=1, request_probs=(0.5,))


def test_sensor_params_validation():
    with pytest.raises(ValueError):
        SensorParams(harvest_rate=1.2, battery_capacity=1, request_probs=(0.5,))
    with pytest.raises(ValueError):
        SensorParams(harvest_rate=0.5, battery_capacity=0, request_probs=(0.5,))
    with pytest.raises(ValueError):
        SensorParams(harvest_rate=0.5, battery_capacity=1, request_probs=(1.5,))
    # grid-powered sensor is allowed
    SensorParams(harvest_rate=1.0, battery_capacity=1, request_probs=(0.0, 1.0))


def test_network_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(2, 1, 3, 4, (TINY1, TINY1))  # budget > K
    with pytest.raises(ValueError):
        NetworkConfig(2, 1, 1, 1, (TINY1, TINY1))  # delta_max < 2
    with pytest.raises(ValueError):
        NetworkConfig(2, 1, 1, 4, (TINY1,))  # wrong sensor count
    net = NetworkConfig(4, 1, 1, 4, (TINY1,) * 4)
    assert net.gamma == 0.25


def test_effective_send():
    assert effective_send(PerSensorState(0, 0, 5), 1) == 0
    assert effective_send(PerSensorState(0, 3, 5), 1) == 1
    assert effective_send(PerSensorState(0, 3, 5), 0) == 0


def test_step_battery():
    assert step_battery(4, 0, 1, 4) == 4  # saturation
    assert step_battery(1, 1, 0, 4) == 0
    assert step_battery(1, 1, 1, 4) == 1
    with pytest.raises(ValueError):
        step_battery(0, 1, 0, 4)  # energy causality


def test_step_age():
    assert step_age(7, 0, 7) == 7  # cap
    assert step_age(5, 1, 7) == 1
    assert step_age(5, 0, 7) == 6


def test_per_sensor_cost_examples():
    assert per_sensor_cost(PerSensorState(0, 5, 30), 0, 40) == 0
    assert per_sensor_cost(PerSensorState(2, 1, 9), 1, 40) == 2
    assert per_sensor_cost(PerSensorState(3, 0, 40), 1, 40) == 3 * 40


def test_request_pmf_examples():
    np.testing.assert_allclose(
        request_pmf(SensorParams(0.5, 1, (0.5, 0.5))), [0.25, 0.5, 0.25]
    )
    np.testing.assert_allclose(
        request_pmf(SensorParams(0.5, 1, (0.6, 0.6, 0.6))),
        [0.064, 0.288, 0.432, 0.216],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        request_pmf(SensorParams(0.5, 1, (1.0, 0.0))), [0.0, 1.0, 0.0]
    )


def test_kernel_battery_rows():
    sensor = SensorParams(0.06, 5, (0.5,))
    # idle below capacity: harvest with probability lambda
    dist = per_sensor_kernel(sensor, PerSensorState(0, 2, 3), 0, 10)
    by_battery = {}
    for state, p in dist.items():
        assert state.age == 4
        by_battery[state.battery] = by_battery.get(state.battery, 0.0) + p
    assert by_battery == pytest.approx({3: 0.06, 2: 0.94})


def test_kernel_command_resets_age():
    sensor = SensorParams(0.3, 5, (0.5, 0.7))
    dist = per_sensor_kernel(sensor, PerSensorState(1, 3, 9), 1, 10)
    assert all(state.age == 1 for state in dist)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_kernel_tiny1_hand_enumeration():
    dist = per_sensor_kernel(TINY1, PerSensorState(1, 1, 1), 1, 2)
    expected = {
        PerSensorState(r, b, 1): 0.25 for r in (0, 1) for b in (0, 1)
    }
    assert set(dist) == set(expected)
    for state, p in dist.items():
        assert p == pytest.approx(expected[state], abs=1e-15)


def test_state_index_round_trip():
    model = sensor_model(SensorParams(0.4, 3, (0.2, 0.9)), 6)
    seen = set()
    for r in range(3):
        for b in range(4):
            for age in range(1, 7):
                idx = model.index_of(PerSensorState(r, b, age))
                assert model.state_of(idx) == PerSensorState(r, b, age)
                seen.add(idx)
    assert seen == set(range(model.num_states))
    with pytest.raises(ValueError):
        model.index_of(PerSensorState(0, 4, 1))
    with pytest.raises(ValueError):
        model.index_of(PerSensorState(0, 0, 7))


def test_joint_kernel_factorizes():
    # Two-sensor product of per-sensor kernels sums to one and matches the
    # per-sensor marginals exactly.
    s1 = SensorParams(0.3, 1, (0.6,))
    s2 = SensorParams(0.8, 2, (0.4,))
    k1 = per_sensor_kernel(s1, PerSensorState(1, 1, 2), 1, 3)
    k2 = per_sensor_kernel(s2, PerSensorState(0, 2, 3), 0, 3)
    joint = {
        (a, b): p * q for a, p in k1.items() for b, q in k2.items()
    }
    assert sum(joint.values()) == pytest.approx(1.0, abs=1e-12)
    marginal1 = {}
    for (a, _), p in joint.items():
        marginal1[a] = marginal1.get(a, 0.0) + p
    for state, p in k1.items():
        assert marginal1[state] == pytest.approx(p, abs=1e-12)


def test_sensor_classes_dedupe():
    net = NetworkConfig(4, 1, 2, 4, (TINY1, TINY1, SensorParams(0.2, 1, (0.5,)), TINY1))
    classes, counts, class_of = sensor_classes(net)
    assert len(classes) == 2
    assert counts.tolist() == [3, 1]
    assert class_of.tolist() == [0, 0, 1, 0]


@settings(max_examples=60, deadline=None)
@given(
    rate=st.floats(0.0, 1.0),
    capacity=st.integers(1, 4),
    probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    delta_max=st.integers(2, 8),
)
def test_kernel_rows_stochastic_property(rate, capacity, probs, delta_max):
    model = sensor_model(SensorParams(rate, capacity, tuple(probs)), delta_max)
    for action in (0, 1):
        mat = model.transition_matrix(action)
        rows = np.asarray(mat.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, 1.0, atol=1e-12)
        assert (mat.data >= 0).all()
        assert (mat.indptr[1:] - mat.indptr[:-1] <= 2 * (len(probs) + 1)).all()


@settings(max_examples=60, deadline=None)
@given(
    battery=st.integers(0, 4),
    age=st.integers(1, 8),
    command=st.integers(0, 1),
)
def test_cost_zero_without_requests_property(battery, age, command):
    state = PerSensorState(0, battery, age)
    assert per_sensor_cost(state, command, 8) == 0


def test_cost_equals_requests_times_next_age():
    model = sensor_model(SensorParams(0.37, 3, (0.3, 0.8)), 9)
    for action in (0, 1):
        np.testing.assert_array_equal(
            model.cost_vector(action),
            model.requests_of * model.next_age_vector(action),
        )
