"""Kernel, cost, and state-space tests for the model layer."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    PerSensorState,
    all_states,
    kernel_row,
    random_sensor,
    reference_cost,
    reference_successors,
)

from aoisched import (
    NetworkConfig,
    SensorParams,
    request_pmf,
    sensor_classes,
    sensor_model,
    slot_step,
    state_index,
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
    # slot_step(battery, age, command, harvested, capacity, delta_max)
    assert not slot_step(0, 5, 1, 0, 4, 40)[0]
    assert slot_step(3, 5, 1, 0, 4, 40)[0]
    assert not slot_step(3, 5, 0, 0, 4, 40)[0]


def test_step_battery():
    assert slot_step(4, 1, 0, 1, 4, 7)[1] == 4  # saturation
    assert slot_step(1, 1, 1, 0, 4, 7)[1] == 0
    assert slot_step(1, 1, 1, 1, 4, 7)[1] == 1


def test_step_age():
    assert slot_step(0, 7, 0, 0, 4, 7)[2] == 7  # cap
    assert slot_step(1, 5, 1, 0, 4, 7)[2] == 1
    assert slot_step(1, 5, 0, 0, 4, 7)[2] == 6


def test_per_sensor_cost_examples():
    model = sensor_model(SensorParams(0.5, 5, (0.5,) * 3), 40)

    def cost(requests, battery, age, command):
        return model.cost_vector(command)[state_index(requests, battery, age, 5, 40)]

    assert cost(0, 5, 30, 0) == 0
    assert cost(2, 1, 9, 1) == 2
    assert cost(3, 0, 40, 1) == 3 * 40


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
    dist = kernel_row(sensor, PerSensorState(0, 2, 3), 0, 10)
    by_battery = {}
    for state, p in dist.items():
        assert state.age == 4
        by_battery[state.battery] = by_battery.get(state.battery, 0.0) + p
    assert by_battery == pytest.approx({3: 0.06, 2: 0.94})


def test_kernel_command_resets_age():
    sensor = SensorParams(0.3, 5, (0.5, 0.7))
    dist = kernel_row(sensor, PerSensorState(1, 3, 9), 1, 10)
    assert all(state.age == 1 for state in dist)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_kernel_tiny1_hand_enumeration():
    dist = kernel_row(TINY1, PerSensorState(1, 1, 1), 1, 2)
    expected = {
        PerSensorState(r, b, 1): 0.25 for r in (0, 1) for b in (0, 1)
    }
    assert set(dist) == set(expected)
    for state, p in dist.items():
        assert p == pytest.approx(expected[state], abs=1e-15)


def test_state_index_round_trip():
    model = sensor_model(SensorParams(0.4, 3, (0.2, 0.9)), 6)
    coords = list(zip(model.requests_of, model.battery_of, model.age_of))
    assert sorted(coords) == list(product(range(3), range(4), range(1, 7)))
    np.testing.assert_array_equal(
        state_index(model.requests_of, model.battery_of, model.age_of, 3, 6),
        np.arange(model.num_states),
    )
    # Age fastest, then battery, then requests; capacities broadcast per sensor.
    np.testing.assert_array_equal(
        state_index(np.array([[0, 0, 1]]), np.array([[0, 1, 0]]), 2, np.array([3, 3, 1]), 6),
        [[1, 7, 13]],
    )


def test_kernel_matches_slot_rule_reference():
    rng = np.random.default_rng(17)
    sensors = [random_sensor(rng, degenerate_ok=True) for _ in range(30)]
    sensors += [SensorParams(0.0, 2, (0.5, 0.3)), SensorParams(1.0, 3, (0.7,))]
    for sensor in sensors:
        delta_max = int(rng.integers(2, 7))
        model = sensor_model(sensor, delta_max)
        for i, state in enumerate(all_states(sensor, delta_max)):
            for command in (0, 1):
                row = kernel_row(sensor, state, command, delta_max)
                reference = reference_successors(sensor, state, command, delta_max)
                assert row.keys() == reference.keys()
                for successor, p in reference.items():
                    assert row[successor] == pytest.approx(p, abs=1e-12)
                assert model.cost_vector(command)[i] == reference_cost(state, command, delta_max)


def test_joint_kernel_factorizes():
    # Two-sensor product of per-sensor kernels sums to one and matches the
    # per-sensor marginals exactly.
    s1 = SensorParams(0.3, 1, (0.6,))
    s2 = SensorParams(0.8, 2, (0.4,))
    k1 = kernel_row(s1, PerSensorState(1, 1, 2), 1, 3)
    k2 = kernel_row(s2, PerSensorState(0, 2, 3), 0, 3)
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
    model = sensor_model(SensorParams(0.5, 4, (0.5,)), 8)
    assert model.cost_vector(command)[state_index(0, battery, age, 4, 8)] == 0


def test_cost_equals_requests_times_next_age():
    model = sensor_model(SensorParams(0.37, 3, (0.3, 0.8)), 9)
    for action in (0, 1):
        next_age = slot_step(model.battery_of, model.age_of, action, 0, 3, 9)[2]
        np.testing.assert_array_equal(
            model.cost_vector(action), model.requests_of * next_age
        )
