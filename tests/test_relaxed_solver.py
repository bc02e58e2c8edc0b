"""Per-sensor solver, exact evaluator, price bisection, and mixing tests."""

import numpy as np
import pytest
from oracles import best_deterministic_policy, random_sensor

from aoisched import (
    MixedPolicy,
    MultichainError,
    NetworkConfig,
    PolicyTable,
    SensorParams,
    evaluate_per_sensor,
    sensor_model,
    solve_per_sensor,
    solve_relaxed,
)
from aoisched import relaxed_solver
from aoisched.rvi import DEFAULT_THETA

TINY1 = SensorParams(harvest_rate=0.5, battery_capacity=1, request_probs=(0.5,))


@pytest.mark.parametrize("mu", [0.0, 0.5, 2.0])
def test_tiny1_matches_policy_enumeration(mu):
    oracle_value, _ = best_deterministic_policy(TINY1, 2, mu)
    solve = solve_per_sensor(TINY1, 2, mu)
    assert solve.avg_lagrangian == pytest.approx(oracle_value, abs=1e-6)


def test_large_price_means_never_command():
    price = TINY1.num_users * 2 * 2  # users * delta_max^2
    solve = solve_per_sensor(TINY1, 2, price)
    assert solve.policy.actions.sum() == 0


def test_free_commands_with_sure_energy():
    sensor = SensorParams(1.0, 1, (1.0,))
    solve = solve_per_sensor(sensor, 4, 0.0)
    assert solve.avg_lagrangian == pytest.approx(1.0, abs=1e-6)
    actions = solve.policy.actions.reshape(2, 2, 4)
    # command whenever requested and energized, at every age
    assert (actions[1, 1, :] == 1).all()


def test_solver_rejects_bad_arguments():
    with pytest.raises(ValueError):
        solve_per_sensor(TINY1, 2, -0.5)


def test_evaluate_never_command_saturates():
    for rate in (0.0, 0.3, 1.0):
        sensor = SensorParams(rate, 2, (1.0,))
        never = PolicyTable(actions=np.zeros(2 * 3 * 2, dtype=np.int8), mu=0.0)
        ev = evaluate_per_sensor(sensor, 2, never)
        assert ev.cost_rate == pytest.approx(2.0, abs=1e-10)
        assert ev.command_rate == pytest.approx(0.0, abs=1e-12)


def test_evaluate_always_command_sure_energy():
    sensor = SensorParams(1.0, 1, (1.0,))
    always = PolicyTable(actions=np.ones(2 * 2 * 4, dtype=np.int8), mu=0.0)
    ev = evaluate_per_sensor(sensor, 4, always)
    assert ev.cost_rate == pytest.approx(1.0, abs=1e-10)
    assert ev.command_rate == pytest.approx(1.0, abs=1e-12)


def test_evaluate_matches_lagrangian_of_solver():
    sensor = SensorParams(0.35, 2, (0.4, 0.7))
    mu = 0.8
    solve = solve_per_sensor(sensor, 6, mu)
    ev = evaluate_per_sensor(sensor, 6, solve.policy)
    assert ev.lagrangian(mu) == pytest.approx(solve.avg_lagrangian, abs=1e-6)


def test_evaluate_detects_multichain():
    # Unreachable classes are legal: evaluation is restricted to the states
    # reachable from the reference state.
    sensor = SensorParams(0.0, 1, (1.0,))
    model = sensor_model(sensor, 2)
    always = PolicyTable(actions=np.ones(model.num_states, dtype=np.int8), mu=0.0)
    ev = evaluate_per_sensor(sensor, 2, always)
    assert ev.command_rate == pytest.approx(1.0)
    never = PolicyTable(actions=np.zeros(model.num_states, dtype=np.int8), mu=0.0)
    ev2 = evaluate_per_sensor(sensor, 2, never)
    assert ev2.cost_rate == pytest.approx(2.0)

    # Sure harvesting keeps a commanding sensor's battery level, so battery 2
    # and (battery 1, age 1) close two classes; the request count at battery 1
    # and age 2 decides which one the reference state enters.
    sensor = SensorParams(1.0, 2, (0.5,))
    model = sensor_model(sensor, 3)
    battery, age, requests = model.battery_of, model.age_of, model.requests_of
    split = (battery == 2) | ((battery == 1) & ((age == 1) | ((age == 2) & (requests >= 1))))
    with pytest.raises(MultichainError, match="2 recurrent classes"):
        evaluate_per_sensor(sensor, 3, PolicyTable(actions=split, mu=0.0))


def test_evaluate_rejects_nan_stationary_solve(monkeypatch):
    monkeypatch.setattr(relaxed_solver, "spsolve", lambda a, b: np.full(b.shape, np.nan))
    always = PolicyTable(actions=np.ones(sensor_model(TINY1, 2).num_states, dtype=np.int8), mu=0.0)
    with pytest.raises(MultichainError, match="residual nan"):
        evaluate_per_sensor(TINY1, 2, always)


def test_mixed_policy_validation():
    table = PolicyTable(actions=np.zeros(8, dtype=np.int8), mu=0.0)
    with pytest.raises(ValueError):
        MixedPolicy(table, table, 1.5)
    mixed = MixedPolicy(table, table, 0.5)
    assert mixed.degenerate


def test_solve_relaxed_inactive_when_budget_full():
    net = NetworkConfig(2, 1, 2, 2, (TINY1, TINY1))  # gamma = 1
    solution = solve_relaxed(net)
    assert not solution.constraint_active
    assert solution.mu_star == 0.0
    assert solution.eta == 1.0
    assert solution.command_rate <= 1.0


def test_solve_relaxed_tiny1_forced_active():
    net = NetworkConfig(20, 1, 1, 2, (TINY1,) * 20)  # gamma = 0.05
    solution = solve_relaxed(net)
    assert solution.constraint_active
    assert 0.0 <= solution.eta <= 1.0
    assert solution.command_rate == pytest.approx(0.05, abs=1e-6)
    # per-sensor pieces expand to all identical sensors
    assert len(solution.policies) == 20
    assert len(set(id(p) for p in solution.policies)) == 1


def test_dual_pieces_monotone_over_bisection():
    net = NetworkConfig(20, 1, 1, 2, (TINY1,) * 20)
    solution = solve_relaxed(net)
    evals = sorted(solution.lagrange.evaluations)
    mus = [m for m, _, _ in evals]
    rates = [r for _, r, _ in evals]
    lagrangians = [l for _, _, l in evals]
    assert all(np.diff(mus) > 0)
    assert all(d <= 1e-9 for d in np.diff(rates))
    assert all(d >= -1e-9 for d in np.diff(lagrangians))
    assert solution.lagrange.mu_minus <= solution.mu_star <= solution.lagrange.mu_plus


def test_primal_dominates_dual_bound():
    net = NetworkConfig(20, 1, 1, 2, (TINY1,) * 20)
    solution = solve_relaxed(net)
    assert solution.avg_cost >= solution.lagrange.dual_bound - 1e-9


def test_lower_bound_below_exact_on_replicas():
    # The relaxation at each instance's own budget lower-bounds its optimum.
    from aoisched import solve_exact

    for replicas in (1, 2):
        net = NetworkConfig(replicas, 1, 1, 2, (TINY1,) * replicas)
        relaxed = solve_relaxed(net, epsilon=1e-7)
        _, exact = solve_exact(net)
        assert relaxed.avg_cost <= exact.avg_cost + 1e-6


def test_relaxed_solutions_scale_free_in_fleet_size():
    # Identical sensors and equal gamma: the per-sensor solution is the same
    # whether the fleet has 20 or 40 members.
    small = solve_relaxed(NetworkConfig(20, 1, 1, 2, (TINY1,) * 20))
    large = solve_relaxed(NetworkConfig(40, 1, 2, 2, (TINY1,) * 40))
    assert small.avg_cost == pytest.approx(large.avg_cost, abs=1e-9)
    assert small.eta == pytest.approx(large.eta, abs=1e-9)


def test_per_sensor_bellman_residual():
    sensor = SensorParams(0.35, 2, (0.4, 0.7))
    mu = 0.8
    solve = solve_per_sensor(sensor, 6, mu)
    model = sensor_model(sensor, 6)
    rel = solve.rel_values
    q_idle = model.cost_vector(0) + model.transition_matrix(0).dot(rel)
    q_cmd = model.cost_vector(1) + mu + model.transition_matrix(1).dot(rel)
    residual = np.abs(np.minimum(q_idle, q_cmd) - rel - solve.avg_lagrangian).max()
    # span termination leaves the average-cost estimate within one span and the
    # optimality-equation residual within two
    assert residual <= 2 * DEFAULT_THETA


def test_generic_sensors_match_enumeration_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        sensor = SensorParams(
            harvest_rate=float(rng.uniform(0.1, 0.9)),
            battery_capacity=1,
            request_probs=(float(rng.uniform(0.1, 0.9)),),
        )
        mu = float(rng.uniform(0.0, 3.0))
        oracle_value, _ = best_deterministic_policy(sensor, 2, mu)
        solve = solve_per_sensor(sensor, 2, mu)
        assert solve.avg_lagrangian == pytest.approx(oracle_value, abs=1e-6)


@pytest.mark.parametrize(
    "harvest, prob, budget, delta_max, active, bound",
    [
        (0.3, 0.0, 1, 8, False, 0.0),  # no requests: nothing to pay for
        (0.0, 0.6, 1, 8, False, 4.8),  # no energy: age stays capped, p * delta_max
        (1.0, 1.0, 1, 8, True, 5.2),  # (1 + ... + 8 + 8 + 8) / 10
        (0.3, 0.6, 10, 8, False, None),  # budget equals the fleet
        (0.3, 0.6, 10, 256, False, None),
    ],
)
def test_edge_instances(harvest, prob, budget, delta_max, active, bound):
    net = NetworkConfig(10, 1, budget, delta_max, (SensorParams(harvest, 3, (prob,)),) * 10)
    solution = solve_relaxed(net)
    assert solution.constraint_active == active
    if active:
        assert solution.command_rate == pytest.approx(net.gamma, abs=1e-6)
    else:
        assert solution.mu_star == 0.0 and solution.eta == 1.0
        assert solution.command_rate <= net.gamma
    if bound is not None:
        assert solution.avg_cost == pytest.approx(bound, abs=1e-6)
