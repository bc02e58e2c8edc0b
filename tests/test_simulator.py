"""Engine tests: determinism, trivial trajectories, spread statistics, traces."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoisched import (
    MixedPolicy,
    NetworkConfig,
    PolicyTable,
    SensorParams,
    SimConfig,
    SimulationError,
    build_relaxed_fleet_policy,
    evaluate_per_sensor,
    proposal_spread,
    request_pmf,
    run_episode,
    run_experiment,
    solve_per_sensor,
    solve_relaxed,
)
from aoisched import simulator
from aoisched.simulator import UniformStreams
from test_replay import _fixture_policies, _network

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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_uniform_streams_replay_one_draw_at_a_time(data):
    # Sorted rows with repeats, on buffers small enough to refill often:
    # every episode gets exactly the uniforms of its own generator drawn one
    # at a time, also when a call asks ``size`` uniforms of one episode.
    episodes = data.draw(st.integers(1, 6))
    size = data.draw(st.integers(1, 8))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=episodes,
                               max_size=episodes))
    streams = UniformStreams([np.random.default_rng(s) for s in seeds], size)
    singles = [np.random.default_rng(s) for s in seeds]
    for _ in range(data.draw(st.integers(1, 12))):
        if data.draw(st.booleans()):
            rows = np.full(size, data.draw(st.integers(0, episodes - 1)))
        else:
            counts = data.draw(st.lists(st.integers(0, size), min_size=episodes,
                                        max_size=episodes))
            rows = np.repeat(np.arange(episodes), counts)
        assert streams.draw(rows).tolist() == [singles[e].random() for e in rows]


def test_request_counts_match_request_pmf():
    # One uniform per sensor-slot, inverted through the CDF of the request
    # count. Every count frequency over 10^5 draws lies within five binomial
    # standard errors of request_pmf; that tolerance is zero where the pmf is
    # 0 or 1, so degenerate probabilities must give exact counts.
    probs = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1.0, 0.0, 0.0), (1.0, 0.5, 0.0),
             (0.0, 1.0, 0.3), (0.3, 0.3, 0.0), (0.2, 0.5, 0.9), (0.6, 0.6, 0.6))
    sensors = tuple(SensorParams(0.5, 1, p) for p in probs)
    net = NetworkConfig(len(sensors), 3, 1, 4, sensors)

    class Recorder:
        name = "recorder"
        budget = None

        def __init__(self):
            self.counts = np.zeros((len(sensors), 4), dtype=np.int64)

        def decide(self, requests, index, age, mix_streams, trunc_streams):
            np.add.at(self.counts, (np.arange(len(sensors)), requests), 1)
            return np.zeros_like(index), np.zeros(len(index), dtype=np.int64)

    recorder = Recorder()
    run_experiment(SimConfig(network=net, horizon=25_000, episodes=4, seed=31), recorder)
    draws = 100_000
    assert (recorder.counts.sum(axis=1) == draws).all()
    for sensor, counts in zip(sensors, recorder.counts):
        pmf = request_pmf(sensor.request_probs)
        tolerance = 5 * np.sqrt(pmf * (1 - pmf) / draws)
        assert (np.abs(counts / draws - pmf) <= tolerance).all(), (sensor, counts)


def test_stationary_oracle_cross_check():
    net = NetworkConfig(1, 1, 1, 2, (TINY1,))
    solve = solve_per_sensor(TINY1, 2, 0.0)
    exact = evaluate_per_sensor(TINY1, 2, solve.policy)
    mixed = (MixedPolicy(solve.policy, solve.policy, 1.0),)
    policy = build_relaxed_fleet_policy(net, mixed, truncate_to_budget=False)
    report = run_experiment(
        SimConfig(network=net, horizon=200_000, episodes=32, seed=13), policy
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
        SimConfig(network=net, horizon=100_000, episodes=32, seed=8), policy
    )
    assert report.cost_mean == pytest.approx(solution.avg_cost, abs=3 * report.cost_se)
    assert report.rate_mean == pytest.approx(
        solution.command_rate, abs=3 * report.rate_se
    )


def test_proposal_statistics_match_exact_law():
    # Under the pure relaxed policy the proposal count is Poisson-binomial
    # over the per-sensor command rates. The simulated per-episode proposal
    # mean and MAD must land within four standard errors of that law's.
    sensors = tuple(SensorParams((0.2, 0.5, 0.8)[k % 3], 3, (0.6, 0.3)) for k in range(20))
    net = NetworkConfig(20, 2, 2, 8, sensors)
    solution = solve_relaxed(net)
    policy = build_relaxed_fleet_policy(net, solution.policies, truncate_to_budget=False)
    report = run_experiment(SimConfig(network=net, horizon=20_000, episodes=8, seed=7), policy)
    mean, mad = proposal_spread(solution)
    for exact, simulated in (
        (mean, [m.proposal_mean for m in report.per_episode]),
        (mad, [m.proposal_mad for m in report.per_episode]),
    ):
        se = np.std(simulated, ddof=1) / np.sqrt(len(simulated))
        assert abs(np.mean(simulated) - exact) <= 4 * se, (exact, np.mean(simulated), se)


def test_mad_of_standard_normal():
    draws = np.random.default_rng(99).standard_normal(1_000_000)
    mad = np.abs(draws - draws.mean()).mean()
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

        def decide(self, requests, index, age, mix_streams, trunc_streams):
            actions = np.zeros_like(index)
            actions[:, : self.budget + 1] = 1
            return actions, actions.sum(axis=1)

    net = NetworkConfig(3, 1, 1, 4, (TINY1,) * 3)
    with pytest.raises(SimulationError, match="budget"):
        run_experiment(SimConfig(network=net, horizon=5, episodes=2, seed=0), OverBudget())


def test_budget_violation_in_partial_block_raises():
    # One slot of the second, partial block commands two sensors under a
    # budget of one; the reported proposals hide it, the actions taken do not.
    class OverBudgetOnce:
        name = "over-once"
        budget = 1

        def __init__(self, slot):
            self.slot, self.calls = slot, 0

        def decide(self, requests, index, age, mix_streams, trunc_streams):
            actions = np.zeros(index.shape, dtype=np.int8)
            actions[:, 0] = 1
            if self.calls == self.slot:
                actions[-1, 1] = 1
            self.calls += 1
            return actions, np.ones(index.shape[0], dtype=np.int64)

    net = NetworkConfig(3, 1, 1, 4, (TINY1,) * 3)
    config = SimConfig(network=net, horizon=simulator._BLOCK + 5, episodes=2, seed=0)
    run_experiment(config, OverBudgetOnce(slot=-1))
    with pytest.raises(SimulationError, match="budget"):
        run_experiment(config, OverBudgetOnce(slot=simulator._BLOCK + 3))


def test_invalid_sim_config():
    net = NetworkConfig(1, 1, 1, 4, (TINY1,))
    with pytest.raises(ValueError):
        SimConfig(network=net, horizon=0, episodes=1, seed=0)
    with pytest.raises(ValueError):
        SimConfig(network=net, horizon=10, episodes=2, seed=0, episode_seeds=(1,))


def test_reports_do_not_depend_on_block_size(monkeypatch):
    # The block size sets only how many slots of request and energy draws are
    # made at once and the stream buffers' size; every report, with a trace
    # point at every slot and so on both sides of every block edge, is equal.
    # tiny2 runs rtt; 100 TINY1 sensors draw mixing uniforms in most slots.
    tiny2 = _network("tiny2.cfg")
    mixing = NetworkConfig(100, 1, 5, 2, (TINY1,) * 100)
    horizon = 300
    for network, truncate in ((tiny2, True), (mixing, False)):
        policy = build_relaxed_fleet_policy(network, solve_relaxed(network).policies, truncate)
        sim = SimConfig(network=network, horizon=horizon, episodes=3, seed=2022,
                        trace_points=horizon)
        reports = []
        for block in (1, 7, 128, 1024):
            monkeypatch.setattr(simulator, "_BLOCK", block)
            reports.append(run_experiment(sim, policy))
        assert len(reports[0].trace) == horizon
        assert all(report == reports[0] for report in reports[1:])


def test_block_buffers_bound_peak_memory():
    # The fig2b fleet (K=800) under rtt over 256 slots: the reused 128-slot
    # buffers peak at 2.8 MB under tracemalloc; one 256-slot block of fresh
    # request and energy arrays peaks at 6.5 MB.
    network = _network("fig2b.cfg")
    rtt = build_relaxed_fleet_policy(network, _fixture_policies(network), True)
    run_experiment(SimConfig(network=network, horizon=1, episodes=1, seed=0), rtt)  # warm caches
    tracemalloc.start()
    try:
        run_experiment(SimConfig(network=network, horizon=256, episodes=4, seed=2022), rtt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6
