"""Decision-rule tests: the batched greedy and relaxed policies, truncation
included, as the simulation engine calls them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import PerSensorState, greedy_decide, truncate_reference

from aoisched import (
    GreedyFleetPolicy,
    JointPolicy,
    MixedPolicy,
    NetworkConfig,
    PolicyTable,
    SensorParams,
    build_exact_fleet_policy,
    build_relaxed_fleet_policy,
    run_episode,
    run_experiment,
    SimConfig,
    sensor_model,
    solve_per_sensor,
    solve_relaxed,
)
from aoisched.model import fleet_layout
from aoisched.runtime_policies import _truncate
from aoisched.simulator import UniformStreams

TINY1 = SensorParams(harvest_rate=0.5, battery_capacity=1, request_probs=(0.5,))


def _requested_rtt(num_sensors: int, budget: int):
    """rtt fleet of TINY1 sensors whose tables propose exactly the requested ones."""
    net = NetworkConfig(num_sensors, 1, budget, 2, (TINY1,) * num_sensors)
    requested = PolicyTable(actions=sensor_model(TINY1, 2).requests_of >= 1, mu=0.0)
    mixed = MixedPolicy(requested, requested, eta=1.0)
    return build_relaxed_fleet_policy(net, (mixed,) * num_sensors, truncate_to_budget=True)


def _streams(rng, episodes):
    """Per-episode uniform streams that all draw from ``rng``; 64 covers every fleet here."""
    return UniformStreams([rng] * episodes, 64)


def _decide(policy, requests, rng):
    """One slot of ``policy`` for each row of ``requests``, at battery 1 and age 2
    (index x = 1 * delta_max + 2 - 1 = 3 at delta_max 2) of every TINY1 sensor."""
    requests = np.asarray(requests, dtype=np.int64)
    n = requests.shape[1]
    index = fleet_layout(NetworkConfig(n, 1, 1, 2, (TINY1,) * n)).index(3)
    ones = np.ones_like(requests)
    return policy.decide(requests, index * ones, 2 * ones, None,
                         _streams(rng, requests.shape[0]))


def test_truncate_identity_within_budget():
    rtt = _requested_rtt(10, budget=5)
    requests = np.zeros((3, 10), dtype=np.int64)
    requests[0, [4, 9]] = 1
    requests[1, :5] = 1  # exactly the budget
    actions, proposals = _decide(rtt, requests, np.random.default_rng(0))
    np.testing.assert_array_equal(actions, requests)
    assert proposals.tolist() == [2, 5, 0]


def test_truncate_uniform_subsets():
    rtt = _requested_rtt(5, budget=2)
    requests = np.zeros((1000, 5), dtype=np.int64)
    requests[:, 1:4] = 1
    rng = np.random.default_rng(1)
    keys = np.concatenate(
        [_decide(rtt, requests, rng)[0] @ (1 << np.arange(5)) for _ in range(100)]
    )
    subsets, counts = np.unique(keys, return_counts=True)
    # bit masks of {1, 2}, {1, 3} and {2, 3}
    assert subsets.tolist() == [6, 10, 12]
    for n in counts:
        assert n / keys.size == pytest.approx(1 / 3, abs=0.01)


def test_truncate_always_subset():
    rtt = _requested_rtt(20, budget=4)
    rng = np.random.default_rng(2)
    for _ in range(50):
        requests = (rng.random((8, 20)) < rng.random((8, 1))).astype(np.int64)
        actions, proposals = _decide(rtt, requests, rng)
        assert (actions <= requests).all()
        np.testing.assert_array_equal(proposals, requests.sum(axis=1))
        np.testing.assert_array_equal(actions.sum(axis=1), np.minimum(proposals, 4))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_truncation_matches_reference(data):
    # Rows at exactly the budget, with no proposer and with every sensor
    # proposing ride along with random rows; three slots in a row on small
    # buffers also exercise refills. Actions and the streams' positions after
    # each slot must equal the argpartition reference's.
    episodes = data.draw(st.integers(1, 12))
    n = data.draw(st.integers(2, 30))
    budget = data.draw(st.integers(1, n - 1))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=episodes,
                               max_size=episodes))
    size = data.draw(st.integers(n, 2 * n))
    streams = [UniformStreams([np.random.default_rng(s) for s in seeds], size)
               for _ in range(2)]
    for _ in range(3):
        rows = []
        for _ in range(episodes):
            kind = data.draw(st.sampled_from(["random", "none", "all", "budget"]))
            if kind == "random":
                rows.append(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
            elif kind == "budget":
                chosen = data.draw(st.sets(st.integers(0, n - 1), min_size=budget,
                                           max_size=budget))
                rows.append([int(k in chosen) for k in range(n)])
            else:
                rows.append([int(kind == "all")] * n)
        actions = np.array(rows, dtype=np.int8)
        proposals = actions.sum(axis=1, dtype=np.int64)
        expected = actions.copy()
        truncate_reference(expected, proposals, budget, streams[0])
        _truncate(actions, proposals, budget, streams[1])
        np.testing.assert_array_equal(actions, expected)
        every = np.arange(episodes)
        assert streams[0].draw(every).tolist() == streams[1].draw(every).tolist()


def _batched_greedy(states, budget):
    policy = GreedyFleetPolicy(budget, len(states))
    requests, battery, age = (np.array([[getattr(s, f) for s in states]])
                              for f in ("requests", "battery", "age"))
    # Greedy reads only the requests and the ages; delta_max 7 covers every age here.
    layout = fleet_layout(NetworkConfig(len(states), 1, budget, 7, (TINY1,) * len(states)))
    actions, _ = policy.decide(requests, layout.index(battery * 7 + age - 1), age, None, None)
    return set(np.flatnonzero(actions[0]).tolist())


def test_greedy_examples():
    for decide in (greedy_decide, _batched_greedy):
        states = (PerSensorState(1, 0, 5), PerSensorState(1, 0, 7), PerSensorState(0, 0, 7))
        assert decide(states, 1) == {1}
        assert decide((PerSensorState(1, 0, 7), PerSensorState(1, 0, 7)), 1) == {0}
        assert decide((PerSensorState(0, 0, 7), PerSensorState(0, 0, 7)), 1) == set()


def test_greedy_batched_matches_scalar():
    # Many episodes per call, as the engine decides them: each row matches the
    # one-slot reference rule.
    rng = np.random.default_rng(3)
    policy = GreedyFleetPolicy(budget=2, num_sensors=6)
    sensor = SensorParams(harvest_rate=0.5, battery_capacity=2, request_probs=(0.5, 0.5))
    layout = fleet_layout(NetworkConfig(6, 2, 2, 8, (sensor,) * 6))
    for _ in range(100):
        requests = rng.integers(0, 3, size=(8, 6))
        ages = rng.integers(1, 9, size=(8, 6))
        battery = rng.integers(0, 3, size=(8, 6))
        actions, proposals = policy.decide(requests, layout.index(battery * 8 + ages - 1), ages,
                                           None, None)
        for e in range(8):
            states = tuple(
                PerSensorState(int(requests[e, k]), int(battery[e, k]), int(ages[e, k]))
                for k in range(6)
            )
            assert set(np.flatnonzero(actions[e]).tolist()) == greedy_decide(states, 2)
        np.testing.assert_array_equal(proposals, actions.sum(axis=1))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_greedy_matches_scalar_on_random_fleets(data):
    # Any fleet size and budget, the budget at or above the fleet included;
    # rows with fewer eligible sensors than the budget, rows with none, and
    # rows of equal ages, where the sensor index alone breaks the ties.
    n = data.draw(st.integers(1, 64))
    budget = data.draw(st.integers(1, n + 2))
    requests, ages = [], []
    for _ in range(data.draw(st.integers(1, 8))):
        kind = data.draw(st.sampled_from(["random", "few", "none", "equal"]))
        if kind == "few":
            chosen = data.draw(st.sets(st.integers(0, n - 1), max_size=min(budget, n) - 1))
            row = [int(k in chosen) for k in range(n)]
        else:
            row = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
            row = [0] * n if kind == "none" else row
        age = data.draw(st.lists(st.integers(1, 64), min_size=n, max_size=n))
        requests.append(row)
        ages.append([age[0]] * n if kind == "equal" else age)
    requests, ages = np.array(requests), np.array(ages)
    policy = GreedyFleetPolicy(budget, n)
    # Greedy reads only the requests and the ages.
    actions, proposals = policy.decide(requests, None, ages, None, None)
    assert actions.dtype == np.int8
    np.testing.assert_array_equal(proposals, actions.sum(axis=1))
    for e in range(requests.shape[0]):
        states = tuple(PerSensorState(int(r), 0, int(a)) for r, a in zip(requests[e], ages[e]))
        assert set(np.flatnonzero(actions[e]).tolist()) == greedy_decide(states, budget)
        assert set(np.unique(actions[e])) <= {0, 1}


def test_relaxed_propose_eta_one_uses_lower_table():
    # With eta = 1 every mixing draw at a state where the tables differ picks
    # the lower table: the run replays the pure lower-table policy exactly.
    net = NetworkConfig(1, 1, 1, 2, (TINY1,))
    lower = solve_per_sensor(TINY1, 2, 0.5).policy
    never = PolicyTable(actions=lower.actions * 0, mu=9.9)
    mixed = build_relaxed_fleet_policy(net, (MixedPolicy(lower, never, eta=1.0),), False)
    pure = build_relaxed_fleet_policy(net, (MixedPolicy(lower, lower, eta=1.0),), False)
    sim = SimConfig(network=net, horizon=2_000, episodes=2, seed=4)
    report = run_experiment(sim, mixed)
    assert report.rate_mean > 0
    assert report.per_episode == run_experiment(sim, pure).per_episode


def test_tables_differing_only_off_the_chain_replay_the_lower_table():
    # Requests are sure, so no state without requests is ever visited. Tables
    # that differ only there never reach the upper table: with or without
    # truncation, the mixed run replays the pure lower-table run bit for bit.
    sensor = SensorParams(0.5, 2, (1.0,))
    net = NetworkConfig(3, 1, 1, 4, (sensor,) * 3)
    model = sensor_model(sensor, 4)
    lower = solve_per_sensor(sensor, 4, 1.0).policy
    flipped = np.where(model.requests_of == 0, 1 - lower.actions, lower.actions)
    upper = PolicyTable(actions=flipped, mu=2.0)
    sim = SimConfig(network=net, horizon=3_000, episodes=3, seed=7)
    for truncate in (False, True):
        mixed = build_relaxed_fleet_policy(net, (MixedPolicy(lower, upper, 0.5),) * 3, truncate)
        pure = build_relaxed_fleet_policy(net, (MixedPolicy(lower, lower, 0.5),) * 3, truncate)
        assert run_experiment(sim, mixed).per_episode == run_experiment(sim, pure).per_episode


def test_rtt_episode_replays_alone():
    # Mixing at reachable states where the tables differ and truncation of
    # overflowing slots read only the episode's own streams, so each episode
    # of a batch replays alone.
    model = sensor_model(TINY1, 2)
    requested = PolicyTable(actions=model.requests_of >= 1, mu=0.0)
    never = PolicyTable(actions=np.zeros(model.num_states, dtype=np.int8), mu=1.0)
    net = NetworkConfig(10, 1, 2, 2, (TINY1,) * 10)
    rtt = build_relaxed_fleet_policy(net, (MixedPolicy(requested, never, 0.7),) * 10, True)
    seeds = (11, 12, 13)
    sim = SimConfig(network=net, horizon=2_000, episodes=3, seed=0, episode_seeds=seeds)
    batch = run_experiment(sim, rtt)
    assert batch.proposal_mean > net.budget  # most slots overflow
    for e, seed in enumerate(seeds):
        assert run_episode(sim, rtt, seed) == batch.per_episode[e]


def test_relaxed_propose_skips_unrequested():
    # Sensor 0 has no request in any (battery, age) state, sensor 1 one request.
    model = sensor_model(TINY1, 2)
    table = solve_per_sensor(TINY1, 2, 0.1).policy
    net = NetworkConfig(2, 1, 1, 2, (TINY1,) * 2)
    policy = build_relaxed_fleet_policy(net, (MixedPolicy(table, table, 1.0),) * 2, False)
    unrequested = np.flatnonzero(model.requests_of == 0)
    x = np.repeat(unrequested[:, None], 2, axis=1)  # the requests=0 block is the (battery, age) index
    age = np.repeat(model.age_of[unrequested, None], 2, axis=1)
    requests = np.tile([0, 1], (unrequested.size, 1))
    rng = np.random.default_rng(5)
    actions, proposals = policy.decide(requests, fleet_layout(net).index(x), age, None,
                                       _streams(rng, unrequested.size))
    assert not actions[:, 0].any()
    requested = unrequested + model.num_states // 2  # same battery and age, one request
    np.testing.assert_array_equal(actions[:, 1], table.actions[requested])
    assert actions[:, 1].any()
    np.testing.assert_array_equal(proposals, actions.sum(axis=1))


def test_fleet_proposal_rate_matches_evaluator():
    # A fleet of identical sensors under the pure relaxed policy proposes at
    # the evaluator's exact per-sensor command rate.
    fleet = 100
    net = NetworkConfig(fleet, 1, 5, 2, (TINY1,) * fleet)  # gamma = 0.05, active
    solution = solve_relaxed(net)
    assert solution.constraint_active
    policy = build_relaxed_fleet_policy(net, solution.policies, truncate_to_budget=False)
    report = run_experiment(
        SimConfig(network=net, horizon=20_000, episodes=32, seed=21), policy
    )
    exact_rate = solution.command_rate
    assert report.rate_mean == pytest.approx(exact_rate, abs=3 * report.rate_se)
    # proposal-stage statistics equal command statistics in lower-bound mode
    assert report.proposal_mean / fleet == pytest.approx(report.rate_mean, abs=1e-12)


def test_truncated_fleet_respects_budget_and_subset():
    fleet = 30
    net = NetworkConfig(fleet, 1, 2, 2, (TINY1,) * fleet)
    solution = solve_relaxed(net)
    rtt = build_relaxed_fleet_policy(net, solution.policies, truncate_to_budget=True)
    report = run_experiment(
        SimConfig(network=net, horizon=5_000, episodes=3, seed=9), rtt
    )
    # the engine asserts the per-slot budget internally; rates stay under gamma
    assert report.rate_mean <= net.gamma + 1e-12


def test_relaxed_fleet_builder_rejects_tables_that_do_not_fit_the_network():
    net = NetworkConfig(2, 1, 1, 2, (TINY1, TINY1))
    table = PolicyTable(np.zeros(sensor_model(TINY1, 2).num_states, dtype=np.int8), mu=0.0)
    mixed = MixedPolicy(table, table, eta=0.5)
    with pytest.raises(ValueError, match="^need one mixed policy per sensor$"):
        build_relaxed_fleet_policy(net, (mixed,), truncate_to_budget=True)
    with pytest.raises(ValueError, match="^fleet mixing factor must be shared across sensors$"):
        build_relaxed_fleet_policy(net, (mixed, MixedPolicy(table, table, eta=0.25)), True)
    short = PolicyTable(np.zeros(table.num_states - 1, dtype=np.int8), mu=0.0)
    with pytest.raises(ValueError, match="^mixed policy table size does not match the sensor$"):
        build_relaxed_fleet_policy(net, (MixedPolicy(short, short, eta=0.5),) * 2, True)


def test_exact_fleet_builder_rejects_a_joint_table_of_another_network():
    net = NetworkConfig(2, 1, 1, 2, (TINY1, TINY1))
    sizes = (sensor_model(TINY1, 2).num_states,) * 2
    joint = JointPolicy(np.zeros((sizes[0] ** 2, 2), dtype=np.int8), budget=1, state_sizes=sizes)
    build_exact_fleet_policy(net, joint)
    for other in (NetworkConfig(2, 1, 2, 2, (TINY1, TINY1)),  # another budget
                  NetworkConfig(2, 1, 1, 3, (TINY1, TINY1))):  # another state space
        with pytest.raises(ValueError, match="^joint policy table does not match the network$"):
            build_exact_fleet_policy(other, joint)
