"""Per-sensor solver, exact evaluator, price bisection, and mixing tests."""

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    best_deterministic_policy,
    chain_average_cost,
    full_chain,
    pure_chains,
    random_sensor,
    relaxed_lp,
)

from aoisched import (
    MixedPolicy,
    MultichainError,
    NetworkConfig,
    PolicyTable,
    SensorParams,
    evaluate_per_sensor,
    sensor_classes,
    sensor_model,
    solve_per_sensor,
    solve_relaxed,
)
from aoisched import relaxed_solver
from aoisched.exact_solver import DEFAULT_THETA, IMPROVEMENT_TOL, relative_value_iteration

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


def _full_chain_rates(sensor, delta_max, w_cmd):
    """Long-run (cost, command) rates from the reference state on the full chain."""
    chain, cost = full_chain(sensor, delta_max, w_cmd)
    return chain_average_cost(chain, cost, 0), chain_average_cost(chain, w_cmd, 0)


def test_evaluate_detects_multichain():
    # Classes the reference state does not reach leave its rates alone.
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
    ev = evaluate_per_sensor(sensor, 3, PolicyTable(actions=split, mu=0.0))
    cost, rate = _full_chain_rates(sensor, 3, split.astype(np.float64))
    assert abs(ev.cost_rate - cost) <= 1e-12
    assert abs(ev.command_rate - rate) <= 1e-12


def test_evaluate_always_commanding_request_counts_leave_no_idle_edge():
    # Every possible request count commands at battery 2, age 6; the
    # request-averaged idle weight there is 0, not the 1.1e-16 of 1 minus the
    # averaged command probability, which opened a closed class.
    sensor = SensorParams(1.0, 2, (0.0, 0.25, 0.05))
    model = sensor_model(sensor, 8)
    actions = np.zeros(model.num_states, dtype=np.int8)
    actions[[21, 45, 69]] = 1
    ev = evaluate_per_sensor(sensor, 8, PolicyTable(actions=actions, mu=0.0))
    cost, rate = _full_chain_rates(sensor, 8, actions.astype(np.float64))
    assert cost == pytest.approx(1.05, abs=1e-12) and rate == pytest.approx(1 / 6, abs=1e-12)
    assert abs(ev.cost_rate - cost) <= 1e-12
    assert abs(ev.command_rate - rate) <= 1e-12


def test_evaluate_rejects_nan_stationary_solve(monkeypatch):
    class NanFactor:
        def solve(self, rhs):
            return np.full(rhs.shape, np.nan)

    # The solver imports splu from scipy when it factorises, so patch it there.
    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda system: NanFactor())
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


def test_calibration_reuses_pure_evaluation_of_degenerate_classes(monkeypatch):
    # The second class keeps one table across the price bracket, so its rates
    # do not depend on eta: the calibration evaluates only the first class as
    # a mixture, and the bound equals the one from evaluating both mixtures.
    pair = (SensorParams(0.5, 2, (0.6,)), SensorParams(0.95, 2, (0.1,)))
    net = NetworkConfig(4, 1, 1, 5, pair * 2)
    inner = relaxed_solver.evaluate_per_sensor
    mixed_calls = []

    def counted(sensor, delta_max, policy):
        if isinstance(policy, MixedPolicy):
            mixed_calls.append(sensor)
        return inner(sensor, delta_max, policy)

    monkeypatch.setattr(relaxed_solver, "evaluate_per_sensor", counted)
    solution = solve_relaxed(net)
    assert 0.0 < solution.eta < 1.0
    assert not solution.policies[0].degenerate and solution.policies[1].degenerate
    assert mixed_calls and set(mixed_calls) == {pair[0]}
    full = [inner(s, 5, p) for s, p in zip(pair, solution.policies)]
    assert solution.avg_cost == pytest.approx(np.mean([e.cost_rate for e in full]), abs=1e-12)
    assert solution.command_rate == pytest.approx(
        np.mean([e.command_rate for e in full]), abs=1e-12
    )


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
        relaxed = solve_relaxed(net)
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
    (mat0, cost0), (mat1, cost1) = pure_chains(sensor, 6)
    rel = solve.rel_values
    q_idle = cost0 + mat0 @ rel
    q_cmd = cost1 + mu + mat1 @ rel
    residual = np.abs(np.minimum(q_idle, q_cmd) - rel - solve.avg_lagrangian).max()
    # the relative values come from an exact evaluation of the returned table
    assert residual <= 1e-9


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


def _edge(harvest, prob, budget, delta_max, active, bound):
    """Ten sensors of battery 3 and one user."""
    net = NetworkConfig(10, 1, budget, delta_max, (SensorParams(harvest, 3, (prob,)),) * 10)
    return pytest.param(net, active, bound,
                        id=f"{harvest}-{prob}-{budget}-{delta_max}-{active}-{bound}")


@pytest.mark.parametrize(
    "net, active, bound",
    [
        _edge(0.3, 0.0, 1, 8, False, 0.0),  # no requests: nothing to pay for
        _edge(0.0, 0.6, 1, 8, False, 4.8),  # no energy: age stays capped, p * delta_max
        _edge(1.0, 1.0, 1, 8, True, 5.2),  # (1 + ... + 8 + 8 + 8) / 10
        _edge(0.3, 0.6, 10, 8, False, None),  # budget equals the fleet
        _edge(0.3, 0.6, 10, 256, False, None),
        _edge(0.3, 0.6, 1, 256, True, "lp"),  # binding at delta_max 256: against the relaxed LP
        # Never harvests, never requested: every evaluation is the zero solution.
        pytest.param(NetworkConfig(2, 1, 1, 5, (SensorParams(0.0, 2, (0.0,)),) * 2),
                     False, 0.0, id="no-energy-no-requests"),
    ],
)
def test_edge_instances(net, active, bound):
    solution = solve_relaxed(net)
    assert solution.constraint_active == active
    if active:
        assert solution.command_rate == pytest.approx(net.gamma, abs=1e-6)
    else:
        assert solution.mu_star == 0.0 and solution.eta == 1.0
        assert solution.command_rate <= net.gamma
    if bound == "lp":
        assert abs(solution.avg_cost - relaxed_lp(net)) <= _calibration_error(net, solution)
    elif bound is not None:
        assert solution.avg_cost == pytest.approx(bound, abs=1e-6)


def _calibration_error(net, solution):
    """How far the mixture's exact cost may sit from the relaxed optimum: the
    price times the miss of its calibrated rate, plus LP round-off."""
    return solution.mu_star * abs(solution.command_rate - net.gamma) / net.num_users + 1e-9


@st.composite
def small_networks(draw):
    """Up to three interior sensor classes, delta_max <= 8, battery <= 3."""
    users = draw(st.integers(1, 2))
    unit = st.floats(0.05, 0.95)
    classes = [
        SensorParams(draw(unit), draw(st.integers(1, 3)), tuple(draw(unit) for _ in range(users)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    sensors = tuple(c for c in classes for _ in range(draw(st.integers(1, 3))))
    budget = draw(st.integers(1, len(sensors)))
    return NetworkConfig(len(sensors), users, budget, draw(st.integers(2, 8)), sensors)


@settings(max_examples=30, deadline=None)
@given(small_networks())
def test_lower_bound_matches_relaxed_lp(net):
    solution = solve_relaxed(net)
    optimum = relaxed_lp(net)
    assert abs(solution.avg_cost - optimum) <= _calibration_error(net, solution)
    assert solution.lagrange.dual_bound <= optimum + DEFAULT_THETA


@settings(max_examples=30, deadline=None)
@given(small_networks())
def test_both_tables_optimal_at_critical_price(net):
    solution = solve_relaxed(net)
    lagrange = solution.lagrange
    assert all(type(mu) is float for mu in (solution.mu_star, lagrange.mu_minus, lagrange.mu_plus))
    assert lagrange.mu_minus <= solution.mu_star <= lagrange.mu_plus
    # An inactive solve returns the zero-price tables at mu_star = 0.
    mu = solution.mu_star
    classes, counts, class_of = sensor_classes(net)
    first = [int(np.flatnonzero(class_of == c)[0]) for c in range(len(classes))]

    def fleet(lagrangians):
        return float(counts @ np.array(lagrangians)) / (net.num_sensors * net.num_users)

    optimum = fleet([solve_per_sensor(s, net.delta_max, mu).avg_lagrangian for s in classes])
    for side in ("lower", "upper"):
        ends = fleet([
            evaluate_per_sensor(s, net.delta_max, getattr(solution.policies[k], side)).lagrangian(mu)
            for s, k in zip(classes, first)
        ])
        assert abs(ends - optimum) <= IMPROVEMENT_TOL * max(1.0, abs(optimum)), side


def test_breakpoints_inside_final_bracket_reach_relaxed_lp():
    # Two breakpoints of the dual lie about 3e-5 apart near mu = 2.875: a
    # bracket of width 1e-4 there skipped the table that flips only one of the
    # last class's states 25 and 29, and mixing its ends sat 4e-9 above the LP.
    net = NetworkConfig(3, 1, 1, 4, (
        SensorParams(0.5, 1, (0.5,)),
        SensorParams(0.875, 1, (0.75,)),
        SensorParams(0.875, 3, (0.875,)),
    ))
    solution = solve_relaxed(net)
    optimum = relaxed_lp(net)
    assert abs(solution.avg_cost - optimum) <= _calibration_error(net, solution)
    assert abs(solution.lagrange.dual_bound - optimum) <= 1e-9


PROBABILITY = st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)


@st.composite
def boundary_sensors(draw):
    """Up to three users and battery 3, harvest and request probabilities 0 and 1 included."""
    users = draw(st.integers(1, 3))
    return SensorParams(draw(PROBABILITY), draw(st.integers(1, 3)),
                        tuple(draw(PROBABILITY) for _ in range(users)))


@settings(max_examples=60, deadline=None)
@given(boundary_sensors(), st.integers(2, 8), st.data())
def test_evaluation_matches_full_chain_oracle(sensor, delta_max, data):
    n = sensor_model(sensor, delta_max).num_states
    table = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
        lambda bits: PolicyTable(np.array(bits, dtype=np.int8), 0.0))
    policy = data.draw(table)
    if data.draw(st.booleans()):
        policy = MixedPolicy(policy, data.draw(table), data.draw(PROBABILITY))
    w_cmd = policy.command_prob() if isinstance(policy, MixedPolicy) else policy.actions
    expected = _full_chain_rates(sensor, delta_max, w_cmd.astype(np.float64))
    ev = evaluate_per_sensor(sensor, delta_max, policy)
    assert abs(ev.cost_rate - expected[0]) <= 1e-10
    assert abs(ev.command_rate - expected[1]) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(boundary_sensors(), st.integers(2, 8), st.floats(0.0, 6.0))
def test_relative_values_solve_full_chain_poisson_equation(sensor, delta_max, mu):
    solve = solve_per_sensor(sensor, delta_max, mu)
    actions = solve.policy.actions.astype(np.float64)
    chain, cost = full_chain(sensor, delta_max, actions)
    rel = solve.rel_values
    residual = cost + mu * actions + chain @ rel - rel - solve.avg_lagrangian
    assert np.abs(residual).max() <= 1e-9
    assert rel[0] == 0.0


def test_fig2a_solve_matches_fixture():
    # The paper instance against the committed tables the benchmark simulates.
    from aoisched.cli import build_network, parse_spec

    root = Path(__file__).resolve().parents[1]
    network = build_network(parse_spec((root / "configs" / "fig2a.cfg").read_text()))
    with np.load(root / "bench" / "data" / "fig2a_tables.npz") as fixture:
        expected = dict(fixture)
    solution = solve_relaxed(network)
    classes, _, class_of = sensor_classes(network)
    first = [int(np.flatnonzero(class_of == c)[0]) for c in range(len(classes))]
    np.testing.assert_array_equal([c.harvest_rate for c in classes], expected["harvest"])
    for name in ("lower", "upper"):
        np.testing.assert_array_equal(
            [getattr(solution.policies[k], name).actions for k in first], expected[name])
    assert solution.eta == expected["eta"]
    # The fixture's prices are the ends of the old bisection's final bracket.
    assert expected["mu_minus"] < solution.mu_star < expected["mu_plus"]
    assert abs(solution.avg_cost - expected["lower_bound"]) <= 1e-9


def _value_iteration(sensor, delta_max, mu):
    # On the reference chains, so the check shares no kernel with the solver.
    chains = pure_chains(sensor, delta_max)
    values, _, greedy, _ = relative_value_iteration(
        [cost + a * mu for a, (_, cost) in enumerate(chains)],
        lambda rel: (mat @ rel for mat, _ in chains),
        0,
        "reference",
    )
    return float(values[0]), greedy


FIG2A_CLASS = SensorParams(0.05, 7, (0.6, 0.6, 0.6))
_rng = np.random.default_rng(606)
PI_CASES = [(random_sensor(_rng), int(_rng.integers(4, 11)), float(_rng.uniform(0.0, 6.0)))
            for _ in range(4)]
PI_CASES += [(FIG2A_CLASS, 64, 1136.7193908691406), (FIG2A_CLASS, 64, 1136.719482421875)]


@pytest.mark.parametrize("sensor, delta_max, mu", PI_CASES)
def test_policy_iteration_matches_value_iteration(sensor, delta_max, mu):
    model = sensor_model(sensor, delta_max)
    solve = solve_per_sensor(sensor, delta_max, mu)
    neighbour = solve_per_sensor(sensor, delta_max, mu * 1.001 + 0.01).policy.actions
    for start in (np.ones(model.num_states, dtype=np.int8), neighbour):
        again = solve_per_sensor(sensor, delta_max, mu, start)
        np.testing.assert_array_equal(again.policy.actions, solve.policy.actions)

    value, greedy = _value_iteration(sensor, delta_max, mu)
    assert abs(solve.avg_lagrangian - value) <= DEFAULT_THETA
    rel = solve.rel_values
    (mat0, cost0), (mat1, cost1) = pure_chains(sensor, delta_max)
    q_idle = cost0 + mat0 @ rel
    q_cmd = cost1 + mu + mat1 @ rel
    differ = np.flatnonzero(greedy != solve.policy.actions)
    gaps = np.abs(q_cmd - q_idle)[differ]
    print(f"{sensor}, delta_max={delta_max}, mu={mu}: tables differ at states "
          f"{differ.tolist()} with |q1 - q0| = {gaps.tolist()}")
    assert (gaps <= 1e-9).all(), f"states {differ.tolist()} differ with gaps {gaps.tolist()}"


def test_multichain_price_solved_by_policy_iteration():
    # Sure energy and sure requests: a table that commands at every charged
    # level keeps each battery level closed. A start whose battery-1 and
    # (battery 2, age 1) classes cost 1 a slot and whose battery-3 class
    # costs 8 gives states different gains; the solve ends at the same table.
    sensor = SensorParams(1.0, 3, (1.0,))
    model = sensor_model(sensor, 8)
    battery, age = model.battery_of, model.age_of
    _, greedy = _value_iteration(sensor, 8, 0.0)
    for start in (None, (battery == 1) | ((battery == 2) & (age == 1))):
        solve = solve_per_sensor(sensor, 8, 0.0, start)
        assert abs(solve.evaluation.cost_rate - 1.0) <= 1e-12
        np.testing.assert_array_equal(solve.policy.actions, greedy)


TINY_BOUNDARY = st.builds(
    lambda harvest, prob: SensorParams(harvest, 1, (prob,)), PROBABILITY, PROBABILITY)


@settings(max_examples=60, deadline=None)
@given(TINY_BOUNDARY, st.floats(0.0, 6.0),
       st.none() | st.lists(st.integers(0, 1), min_size=8, max_size=8))
def test_boundary_solves_match_policy_enumeration(sensor, mu, start):
    # Eight states, multichain tables included: the optimal gain is exact
    # from any start.
    oracle_value, _ = best_deterministic_policy(sensor, 2, mu)
    solve = solve_per_sensor(sensor, 2, mu, None if start is None else np.array(start))
    assert abs(solve.avg_lagrangian - oracle_value) <= 1e-9
