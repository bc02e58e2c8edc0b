"""Kernel, cost, and state-space tests for the model layer."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    PerSensorState,
    model_kernel,
    pure_chains,
    random_sensor,
    reference_battery_age_kernel,
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
from aoisched.model import expected_next, fleet_layout, joint_state_sizes

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
    np.testing.assert_allclose(request_pmf((0.5, 0.5)), [0.25, 0.5, 0.25])
    np.testing.assert_allclose(
        request_pmf((0.6, 0.6, 0.6)), [0.064, 0.288, 0.432, 0.216], atol=1e-15
    )
    np.testing.assert_allclose(request_pmf((1.0, 0.0)), [0.0, 1.0, 0.0])


def test_kernel_battery_rows():
    sensor = SensorParams(0.06, 5, (0.5,))
    # idle below capacity: harvest with probability lambda
    dist = reference_successors(sensor, PerSensorState(0, 2, 3), 0, 10)
    by_battery = {}
    for state, p in dist.items():
        assert state.age == 4
        by_battery[state.battery] = by_battery.get(state.battery, 0.0) + p
    assert by_battery == pytest.approx({3: 0.06, 2: 0.94})


def test_kernel_command_resets_age():
    sensor = SensorParams(0.3, 5, (0.5, 0.7))
    dist = reference_successors(sensor, PerSensorState(1, 3, 9), 1, 10)
    assert all(state.age == 1 for state in dist)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_kernel_tiny1_hand_enumeration():
    dist = reference_successors(TINY1, PerSensorState(1, 1, 1), 1, 2)
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


def _model_kernel(model, action):
    """The model's kernel over (requests, battery, age), densified: pmf(r') Q_a(x, x')."""
    pmf = model.request_dist
    return np.kron(np.tile(pmf, (pmf.size, 1)), model_kernel(model, action))


def test_kernel_matches_slot_rule_reference():
    rng = np.random.default_rng(17)
    sensors = [random_sensor(rng, degenerate_ok=True) for _ in range(30)]
    sensors += [SensorParams(0.0, 2, (0.5, 0.3)), SensorParams(1.0, 3, (0.7,))]
    for sensor in sensors:
        delta_max = int(rng.integers(2, 7))
        model = sensor_model(sensor, delta_max)
        for action, (chain, cost) in enumerate(pure_chains(sensor, delta_max)):
            full = _model_kernel(model, action)
            np.testing.assert_array_equal(full != 0, chain != 0)
            np.testing.assert_allclose(full, chain, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(model.cost_vector(action), cost)


def test_kernel_lifts_battery_age_kernel():
    # Averaging out the request count and then applying Q_a is the same as
    # applying the reference chain over (requests, battery, age), for one
    # sensor and for the product of two or three.
    rng = np.random.default_rng(29)
    for _ in range(12):
        delta_max = int(rng.integers(2, 5))
        sensors = [random_sensor(rng, max_battery=2, degenerate_ok=True)
                   for _ in range(int(rng.integers(1, 4)))]
        models = [sensor_model(s, delta_max) for s in sensors]
        for m in models:
            for action in (0, 1):
                kernel = model_kernel(m, action)
                np.testing.assert_allclose(kernel.sum(axis=1), 1.0, atol=1e-12)
                assert ((kernel != 0).sum(axis=1) <= 2).all()
        chains = [pure_chains(s, delta_max) for s in sensors]
        shape = [n for m in models for n in (m.request_dist.size, m.num_states // m.request_dist.size)]
        values = rng.normal(size=[m.num_states for m in models])
        actions = list(product((0, 1), repeat=len(sensors)))
        for bits, got in zip(actions, expected_next(models, actions, values.reshape(shape)),
                             strict=True):
            expected = values
            for k, (chain, bit) in enumerate(zip(chains, bits)):
                expected = np.moveaxis(np.tensordot(chain[bit][0], expected, axes=(1, k)), 0, k)
            got = np.broadcast_to(got, shape)
            np.testing.assert_allclose(got.ravel(), expected.ravel(), rtol=0, atol=1e-12)


def test_joint_kernel_factorizes():
    # Two-sensor product of per-sensor kernels sums to one and matches the
    # per-sensor marginals exactly.
    s1 = SensorParams(0.3, 1, (0.6,))
    s2 = SensorParams(0.8, 2, (0.4,))
    k1 = reference_successors(s1, PerSensorState(1, 1, 2), 1, 3)
    k2 = reference_successors(s2, PerSensorState(0, 2, 3), 0, 3)
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


def test_fleet_table_places_rows_by_class_block():
    # Class 0 has 2 * 4 (battery, age) states, class 1 has 3 * 4; width is 4.
    net = NetworkConfig(3, 1, 1, 4, (TINY1, SensorParams(0.2, 2, (0.5,)), TINY1))
    layout = fleet_layout(net)
    assert layout.start.tolist() == [0, 8, 20]
    rows = [np.arange(24).reshape(8, 3), 100 + np.arange(36).reshape(12, 3)]
    table = layout.table(rows).reshape(20, 4)
    np.testing.assert_array_equal(table[:, :3], np.concatenate(rows))
    assert not table[:, 3].any()
    # Sensor k's row x sits at its fleet index.
    x = np.array([5, 7, 1])
    assert table.ravel()[layout.index(x)].tolist() == [15, 121, 3]
    assert joint_state_sizes(net) == (16, 24, 16)


@settings(max_examples=60, deadline=None)
@given(
    rate=st.floats(0.0, 1.0),
    capacity=st.integers(1, 4),
    probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    delta_max=st.integers(2, 8),
)
def test_kernel_rows_stochastic_property(rate, capacity, probs, delta_max):
    sensor = SensorParams(rate, capacity, tuple(probs))
    model = sensor_model(sensor, delta_max)
    for action, (chain, _) in enumerate(pure_chains(sensor, delta_max)):
        for mat in (chain, _model_kernel(model, action)):
            np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)
            assert (mat >= 0).all()
            assert ((mat != 0).sum(axis=1) <= 2 * (len(probs) + 1)).all()


@settings(max_examples=60, deadline=None)
@given(
    rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_subnormal=False)),
    capacity=st.integers(1, 4),
    probs=st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=1, max_size=3),
    delta_max=st.integers(2, 8),
)
def test_successor_table_matches_slot_rule_property(rate, capacity, probs, delta_max):
    # Every entry of succ[x, a, e] is slot_step's successor of x, and the merged
    # branch probabilities give the reference kernel Q_a.
    sensor = SensorParams(rate, capacity, tuple(probs))
    model = sensor_model(sensor, delta_max)
    n = (capacity + 1) * delta_max
    assert model.succ.shape == model.succ_prob.shape == (n, 2, 2)
    for x, a, e in product(range(n), (0, 1), (0, 1)):
        battery, age = divmod(x, delta_max)
        _, next_battery, next_age = slot_step(battery, age + 1, a, e, capacity, delta_max)
        assert model.succ[x, a, e] == next_battery * delta_max + next_age - 1
    for action in (0, 1):
        got, want = model_kernel(model, action), reference_battery_age_kernel(
            sensor, delta_max, action)
        np.testing.assert_array_equal(got != 0, want != 0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
