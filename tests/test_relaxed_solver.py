"""Per-sensor solver, exact evaluator, price bisection, and mixing tests."""

import logging
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg import splu
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from caches import clear_package_caches
from oracles import (
    best_deterministic_policy,
    calibrate_eta_reference,
    chain_average_cost,
    full_chain,
    poisson_reference,
    pure_chains,
    random_sensor,
    reference_battery_age_kernel,
    relaxed_lp,
)

from aoisched import (
    BracketError,
    MixedPolicy,
    MultichainError,
    NetworkConfig,
    PolicyTable,
    SensorModel,
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


def _command_probs(data, size):
    """A per-state command probability table of one of four kinds."""
    kind = data.draw(st.sampled_from(["zeros", "ones", "bits", "probabilities"]))
    if kind == "zeros":
        return np.zeros(size)
    if kind == "ones":
        return np.ones(size)
    if kind == "bits":
        return np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)),
                        dtype=np.float64)
    return np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size)))


SENSOR_FIELDS = dict(
    rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0, allow_subnormal=False)),
    capacity=st.integers(1, 4),
    probs=st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=1, max_size=3),
    delta_max=st.integers(2, 8),
    data=st.data(),
)


@settings(max_examples=60, deadline=None)
@given(**SENSOR_FIELDS)
def test_mean_chain_is_canonical_reference_chain(rate, capacity, probs, delta_max, data):
    # The request-averaged chain comes back on the model's chain pattern, its
    # (row, column) pairs strictly increasing, and it equals
    # diag(1 - w̄) Q_0 + diag(w̄) Q_1 of the slot-rule reference kernels.
    sensor = SensorParams(rate, capacity, tuple(probs))
    model = sensor_model(sensor, delta_max)
    w_cmd = _command_probs(data, model.num_states)
    weights, rhs = relaxed_solver._row_weights(model, w_cmd)
    values, w_bar = relaxed_solver._chain_probs(model, weights), rhs[:, 1]
    rows, cols, _ = relaxed_solver._chain_pattern(model)
    n = model.succ.shape[0]
    assert (np.diff(rows * n + cols) > 0).all()
    chain = np.zeros((n, n))
    chain[rows, cols] = values
    expected = ((1.0 - w_bar)[:, None] * reference_battery_age_kernel(sensor, delta_max, 0)
                + w_bar[:, None] * reference_battery_age_kernel(sensor, delta_max, 1))
    np.testing.assert_allclose(chain, expected, rtol=0, atol=1e-12)


def _poisson_run(poisson, *args):
    """The matrices ``poisson`` hands to SuperLU, and its result or error.

    A transient block that rounds to singular, as on a request probability
    of 1e-155, raises MultichainError as a singular system does; any other
    error fails the test."""
    factored = []

    def recording_splu(matrix, *rest, **options):
        assert matrix.format == "csc"
        factored.append((matrix.data.copy(), matrix.indices.copy(), matrix.indptr.copy()))
        return splu(matrix, *rest, **options)

    with mock.patch.object(scipy.sparse.linalg, "splu", recording_splu):
        try:
            return factored, poisson(*args)
        except MultichainError as exc:
            return factored, f"{type(exc).__name__}: {exc}"


@settings(max_examples=150, deadline=None)
@given(**SENSOR_FIELDS)
def test_poisson_matches_coo_reference(rate, capacity, probs, delta_max, data):
    # The CSC assembly gives SuperLU the matrices the COO assembly gave it:
    # the same values, rows and column pointers, explicit zeros included. So
    # the gains and relative values are the same bit for bit, on unichain and
    # multichain tables alike (a sensor that never harvests keeps each
    # battery level closed where it does not command).
    sensor = SensorParams(rate, capacity, tuple(probs))
    model = sensor_model(sensor, delta_max)
    weights, rhs = relaxed_solver._row_weights(model, _command_probs(data, model.num_states))
    values = relaxed_solver._chain_probs(model, weights)
    rows, cols, _ = relaxed_solver._chain_pattern(model)
    nonzero = values != 0.0
    chain = (rows[nonzero], cols[nonzero], values[nonzero])
    factored, result = _poisson_run(relaxed_solver._poisson, values, rhs, model)
    ref_factored, expected = _poisson_run(poisson_reference, chain, rhs, model.ref_index)
    assert len(factored) == len(ref_factored)
    for arrays, ref_arrays in zip(factored, ref_factored):
        for got, want in zip(arrays, ref_arrays):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    if isinstance(expected, str):
        assert result == expected
    else:
        for got, want in zip(result, expected):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("battery, delta_max", [(3, 5), (45, 1031)])
def test_system_slots_hold_each_pair_in_csc_order(battery, delta_max):
    # Each pair of the chain pattern has the entry at its row and column, the
    # entries run in column, then row order, and the pivot column is whole;
    # at 47,426 states a column * n + row key passes the int32 range.
    model = SensorModel(SensorParams(0.3, battery, (0.5,)), delta_max)
    n = model.succ.shape[0]
    rows, cols, _ = relaxed_solver._chain_pattern(model)
    pair, diagonal, slot_rows, col_start = relaxed_solver._system_slots(model, (2,))
    col_of = np.repeat(np.arange(n), np.diff(col_start))
    assert (np.diff(col_of * n + slot_rows) > 0).all()
    has_pair = pair < rows.size
    np.testing.assert_array_equal(slot_rows[has_pair], rows[pair[has_pair]])
    np.testing.assert_array_equal(col_of[has_pair], cols[pair[has_pair]])
    np.testing.assert_array_equal(diagonal, slot_rows == col_of)
    np.testing.assert_array_equal(slot_rows[col_start[2]:col_start[3]], np.arange(n))
    assert np.array_equal(np.sort(pair[has_pair]), np.arange(rows.size))


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
    # A price of nan or inf once ran to an avg_lagrangian of nan, and a start
    # bit of 2 was read as 0.
    sensor = SensorParams(0.5, 2, (0.5,))
    for mu in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="^mu must be finite and nonnegative$"):
            solve_per_sensor(sensor, 4, mu)
    start = np.zeros(sensor_model(sensor, 4).num_states, dtype=np.int8)
    for bit in (2, -1, 0.5):
        bad = start.astype(np.float64)
        bad[3] = bit
        with pytest.raises(ValueError, match="^start table must hold 0/1 action bits$"):
            solve_per_sensor(sensor, 4, 1.0, bad)


@pytest.mark.parametrize("actions", [[256, 1], [0.5, 1.0], [-255, 0], [1.9, 0.0]])
def test_policy_table_rejects_values_an_int8_cast_would_turn_into_bits(actions):
    with pytest.raises(ValueError, match="0/1 action bits"):
        PolicyTable(actions=actions, mu=0.0)


def test_policy_table_takes_bool_and_float_bits():
    for actions in (np.array([True, False, True]), [1.0, 0.0, 1.0]):
        table = PolicyTable(actions=actions, mu=0.0)
        assert table.actions.dtype == np.int8 and table.actions.tolist() == [1, 0, 1]
        assert not table.actions.flags.writeable


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


class _NanFactor:
    def solve(self, rhs):
        return np.full(rhs.shape, np.nan)


def test_evaluate_rejects_nan_stationary_solve(monkeypatch):
    # The solver imports splu from scipy when it factorises, so patch it there.
    monkeypatch.setattr(scipy.sparse.linalg, "splu", lambda system: _NanFactor())
    always = PolicyTable(actions=np.ones(sensor_model(TINY1, 2).num_states, dtype=np.int8), mu=0.0)
    with pytest.raises(MultichainError, match="residual nan"):
        evaluate_per_sensor(TINY1, 2, always)


def test_evaluate_maps_every_singular_factor_to_multichain_error():
    # Rates of about 1e-155 leave some states, and 1 - (1 - q) rounds them to
    # 0: SuperLU then finds either the Poisson system or the transient block
    # of the absorption solve singular. Both must surface as MultichainError,
    # which the CLI reports, not as SuperLU's bare RuntimeError.
    sensor = SensorParams(0.0, 2, (1.0, 3.3955172642378604e-155))
    n = sensor_model(sensor, 5).num_states
    rng = np.random.default_rng(22)
    messages = set()
    for _ in range(400):
        table = PolicyTable(actions=(rng.random(n) < 0.5).astype(np.int8), mu=0.0)
        try:
            evaluate_per_sensor(sensor, 5, table)
        except MultichainError as exc:
            messages.add(str(exc))
    assert "policy evaluation failed: Factor is exactly singular" in messages


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


def _optimality_residual(sensor, delta_max, mu):
    """max |min_a q_a - h - g| of a solve, with Q-values on the reference chains."""
    solve = solve_per_sensor(sensor, delta_max, mu)
    (mat0, cost0), (mat1, cost1) = pure_chains(sensor, delta_max)
    rel = solve.rel_values
    q_idle = cost0 + mat0 @ rel
    q_cmd = cost1 + mu + mat1 @ rel
    return np.abs(np.minimum(q_idle, q_cmd) - rel - solve.avg_lagrangian).max()


def test_per_sensor_bellman_residual():
    # the relative values come from an exact evaluation of the returned table
    assert _optimality_residual(SensorParams(0.35, 2, (0.4, 0.7)), 6, 0.8) <= 1e-9


def test_multichain_tie_break_keeps_optimality_residual():
    # A sensor that never harvests, at a free price: no table changes the
    # gain, so the final tie-break turns the table into never-command, which
    # keeps each battery level closed and so changes the closed classes of the
    # table the iteration converged on. The relative values must still solve
    # the optimality equation, not only the new table's Poisson equation
    # normalised per class (a residual of 19.6 there).
    assert _optimality_residual(SensorParams(0.0, 3, (0.6,)), 8, 0.0) <= 1e-9


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


EDGE_INSTANCES = [
    _edge(0.3, 0.0, 1, 8, False, 0.0),  # no requests: nothing to pay for
    _edge(0.0, 0.6, 1, 8, False, 4.8),  # no energy: age stays capped, p * delta_max
    _edge(1.0, 1.0, 1, 8, True, 5.2),  # (1 + ... + 8 + 8 + 8) / 10
    _edge(0.3, 0.6, 10, 8, False, None),  # budget equals the fleet
    _edge(0.3, 0.6, 10, 256, False, None),
    _edge(0.3, 0.6, 1, 256, True, "lp"),  # binding at delta_max 256: against the relaxed LP
    # Never harvests, never requested: every evaluation is the zero solution.
    pytest.param(NetworkConfig(2, 1, 1, 5, (SensorParams(0.0, 2, (0.0,)),) * 2),
                 False, 0.0, id="no-energy-no-requests"),
]


@pytest.mark.parametrize("net, active, bound", EDGE_INSTANCES)
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


def test_tie_at_upper_bracket_end_returns_its_tables_unmixed():
    # The chord's price yields tables whose rate ties Gamma, and they become
    # the upper end: they come back unmixed at their price, and so do the
    # relative values, Lagrangians and rates that the analysis reads with them.
    net = NetworkConfig(4, 2, 1, 4, (SensorParams(0.0, 1, (0.5, 0.5)),) * 2
                        + (SensorParams(1.0, 2, (0.5, 0.5)),) * 2)
    solution = solve_relaxed(net)
    lagrange = solution.lagrange
    assert solution.constraint_active and solution.eta == 1.0
    assert solution.mu_star == lagrange.mu_plus > lagrange.mu_minus
    assert all(p.degenerate and p.lower.mu == lagrange.mu_plus for p in solution.policies)
    # A cold solve at mu_plus converges through other tables than the solve
    # warm-started along the bracket, so its relative values may differ by
    # round-off; the lower end's, at mu_minus, differ by 0.4 or more.
    for k, sensor in enumerate(net.sensors):
        expected = solve_per_sensor(sensor, net.delta_max, lagrange.mu_plus)
        np.testing.assert_array_equal(expected.policy.actions, solution.policies[k].lower.actions)
        np.testing.assert_allclose(lagrange.per_sensor_rel_values[k], expected.rel_values,
                                   rtol=0, atol=1e-12)
        assert lagrange.per_sensor_lagrangians[k] == pytest.approx(expected.avg_lagrangian,
                                                                   rel=0, abs=1e-12)
        assert lagrange.per_sensor_rates[k] == pytest.approx(expected.evaluation.command_rate,
                                                             rel=0, abs=1e-12)
        lower_end = solve_per_sensor(sensor, net.delta_max, lagrange.mu_minus).rel_values
        assert np.abs(lagrange.per_sensor_rel_values[k] - lower_end).max() >= 0.4
    assert abs(solution.avg_cost - relaxed_lp(net)) <= _calibration_error(net, solution)


def test_breakpoint_clamped_to_bracket_end_still_mixes():
    # The last bracket's ends cost the same, so the chord's breakpoint falls
    # on the lower end's price 0 and ends the search: both ends are optimal
    # there, so it is mu_star and their mixture meets Gamma.
    net = NetworkConfig(3, 1, 1, 5, (SensorParams(1.0, 2, (0.25,)),) * 2
                        + (SensorParams(0.0, 2, (1.0,)),))
    solution = solve_relaxed(net)
    assert solution.mu_star == solution.lagrange.mu_minus == 0.0
    assert 0.0 < solution.eta < 1.0
    assert solution.command_rate == pytest.approx(net.gamma, abs=1e-6)
    assert abs(solution.avg_cost - relaxed_lp(net)) <= _calibration_error(net, solution)


# The solve instances of bench/run.py.
BENCH_SOLVES = {
    "paper-k40": NetworkConfig(40, 3, 1, 12, (SensorParams(0.05, 7, (0.6,) * 3),) * 40),
    "bigbattery-k800": NetworkConfig(20, 3, 1, 8, (SensorParams(0.9, 63, (0.6,) * 3),) * 20),
}


def _cold_solve(net):
    """``solve_relaxed`` with every cache of the model and the solver emptied first."""
    clear_package_caches()
    return solve_relaxed(net)


@contextmanager
def _counted_splu():
    """A list that collects the shape of every matrix SuperLU factors in the block."""
    factored = []

    def counted(matrix, *args, **kwargs):
        factored.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    with mock.patch.object(scipy.sparse.linalg, "splu", counted):
        yield factored


def _calibrated(solve, net):
    """The calibration's outputs, as hex floats, or the error it raised."""
    try:
        solution = solve(net)
    except BracketError as exc:
        return f"BracketError: {exc}"
    return tuple(getattr(solution, f).hex() for f in ("eta", "avg_cost", "command_rate"))


def _exact_bisection(solve):
    """``solve`` with the calibration that evaluates every step exactly."""
    def run(net):
        with mock.patch.object(relaxed_solver, "_calibrate_eta", calibrate_eta_reference):
            return solve(net)
    return run


@pytest.mark.parametrize("net", [pytest.param(net, id=name) for name, net in BENCH_SOLVES.items()]
                         + [pytest.param(p.values[0], id=p.id) for p in EDGE_INSTANCES])
def test_calibration_matches_exact_bisection(net):
    # The low-rank steps steer the bisection as exact rates would, and the
    # returned eta is evaluated exactly: eta, the bound and the rate are the
    # exact bisection's, bit for bit.
    assert _calibrated(_cold_solve, net) == _calibrated(_exact_bisection(_cold_solve), net)


@settings(max_examples=30, deadline=None)
@given(small_networks())
def test_forced_low_rank_calibration_matches_exact_bisection(net):
    # Every mixed class takes the low-rank steps, whatever its rank.
    with mock.patch.object(relaxed_solver, "LOW_RANK_SHARE", 1.0):
        got = _calibrated(solve_relaxed, net)
    assert got == _calibrated(_exact_bisection(solve_relaxed), net)


def test_cold_bench_solve_factors_once_per_mixed_class(caplog):
    # Policy iteration makes 8 factorisations, one per distinct table. The
    # calibration adds one for the even mixture and one for the certified
    # eta; an exact bisection made 16.
    with (_counted_splu() as factored,
          caplog.at_level(logging.DEBUG, logger=relaxed_solver.__name__)):
        solution = _cold_solve(BENCH_SOLVES["paper-k40"])
    assert 0.0 < solution.eta < 1.0
    assert len(factored) <= 10
    # The calibration's debug line: eta, the pass, the low-rank class rates,
    # the exact class evaluations, (d, n) per mixed class and the low-rank gap.
    [record] = [r for r in caplog.records if r.getMessage().startswith("eta")]
    mid, which, low_rank, exact, shapes, gap = record.args
    assert mid == solution.eta and which == "low-rank"
    assert low_rank >= 1 and exact == 1 and shapes == [(14, 96)]
    assert gap <= 1e-12


@pytest.mark.parametrize("share", [relaxed_solver.LOW_RANK_SHARE, 1.0])
def test_rate_jump_at_eta_one_raises_bracket_error(share):
    # The grid-powered class (harvest 1.0) has a lower table whose chain
    # keeps a closed class that every mixture with eta < 1 leaves: the fleet
    # rate jumps at eta = 1, and no eta in [0, 1) reaches Gamma. Its even
    # mixture moves 18 of 30 states, above the rank rule; share 1.0 sends the
    # low-rank update, built on (0, 1) only, to the same jump.
    net = NetworkConfig(3, 1, 2, 6, (SensorParams(0.6428, 3, (0.5,)),
                                     SensorParams(0.9909, 4, (0.5305,)),
                                     SensorParams(1.0, 4, (0.1456,))))
    with (mock.patch.object(relaxed_solver, "LOW_RANK_SHARE", share),
          pytest.raises(BracketError, match="^no mixing factor reaches the budget: best rate")):
        solve_relaxed(net)


def _assert_calibration_brackets(net):
    """Solve ``net`` and check that every calibration it makes mixes upper
    and lower tables whose fleet command rates lie below and above Gamma by
    more than ``DEFAULT_ETA_TOL``."""
    brackets = []
    calibrate = relaxed_solver._calibrate_eta

    def recording(classes, delta_max, lower, upper, weights, gamma):
        brackets.append([relaxed_solver._fleet_average(weights, [s.evaluation for s in end])[1]
                         for end in (upper, lower)] + [gamma])
        return calibrate(classes, delta_max, lower, upper, weights, gamma)

    with mock.patch.object(relaxed_solver, "_calibrate_eta", recording):
        solution = solve_relaxed(net)
    # Unmixed ends come back with eta = 1; a calibrated eta lies in (0, 1).
    assert len(brackets) == (solution.eta < 1.0)
    tol = relaxed_solver.DEFAULT_ETA_TOL
    for rate_upper, rate_lower, gamma in brackets:
        assert rate_upper < gamma - tol and rate_lower > gamma + tol


@pytest.mark.parametrize("net", [pytest.param(net, id=name) for name, net in BENCH_SOLVES.items()]
                         + [pytest.param(p.values[0], id=p.id) for p in EDGE_INSTANCES])
def test_calibration_is_called_with_ends_beyond_the_tie_tolerance(net):
    # solve_relaxed mixes only ends whose tie tests failed, so Gamma lies
    # strictly inside the mixing bracket and the calibration does not check it.
    _assert_calibration_brackets(net)


@settings(max_examples=30, deadline=None)
@given(small_networks())
def test_calibration_brackets_of_small_networks(net):
    _assert_calibration_brackets(net)


PROBABILITY = st.sampled_from([0.0, 1.0]) | st.floats(0.05, 0.95)


@st.composite
def boundary_sensors(draw):
    """Up to three users and battery 3, harvest and request probabilities 0 and 1 included."""
    users = draw(st.integers(1, 3))
    return SensorParams(draw(PROBABILITY), draw(st.integers(1, 3)),
                        tuple(draw(PROBABILITY) for _ in range(users)))


@settings(max_examples=100, deadline=None)
@given(boundary_sensors(), st.integers(2, 8), st.floats(0.01, 0.99), st.data())
def test_low_rank_rates_match_exact_evaluation(sensor, delta_max, eta, data):
    # Two tables that differ on at most a quarter of the (battery, age)
    # states; their mixture's rate from the even mixture's factor equals the
    # exact evaluation's. Mixtures near eta = 0 or 1 are left out: where a
    # pure table has another closed class than the mixture, both solves lose
    # accuracy there.
    model = sensor_model(sensor, delta_max)
    n = model.succ.shape[0]
    bits = st.lists(st.integers(0, 1), min_size=model.num_states, max_size=model.num_states)
    upper = np.array(data.draw(bits), dtype=np.int8)
    lower = upper.reshape(-1, n).copy()
    moved = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n // 4, unique=True))
    for x in moved:
        lower[data.draw(st.integers(0, lower.shape[0] - 1)), x] ^= 1
    tables = PolicyTable(lower.ravel(), 0.0), PolicyTable(upper, 0.0)
    half, update, d = relaxed_solver._mixture_rate(model, *tables)
    exact_half = evaluate_per_sensor(sensor, delta_max, MixedPolicy(*tables, 0.5))
    assert (half.cost_rate, half.command_rate) == (exact_half.cost_rate, exact_half.command_rate)
    assert d <= len(moved)
    assume(update is not None)  # the even mixture has one closed class
    exact = evaluate_per_sensor(sensor, delta_max, MixedPolicy(*tables, eta)).command_rate
    # A rate that is 0 but for round-off comes out of either solve as up to
    # about 1e-10; the absolute bound is a tenth of the calibration's guard.
    assert update(eta) == pytest.approx(exact, rel=1e-12, abs=0.1 * relaxed_solver.ETA_GUARD)


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
    with _counted_splu() as factored:
        solution = _cold_solve(network)
    # Each distinct pure table is evaluated once per model; 413 when every
    # warm start evaluated its start table again.
    assert len(factored) <= 264
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


@st.composite
def sensor_pairs(draw):
    """Two boundary sensors with one state space, so their tables share a byte layout."""
    first = draw(boundary_sensors())
    second = SensorParams(draw(PROBABILITY), first.battery_capacity,
                          tuple(draw(PROBABILITY) for _ in first.request_probs))
    return first, second


def _solve_record(solve):
    """A per-sensor solve's table, relative values, Lagrangian, step count and
    evaluation, as bytes and hex floats."""
    return (solve.policy.actions.tobytes(), solve.rel_values.tobytes(),
            solve.avg_lagrangian.hex(), solve.iterations,
            solve.evaluation.cost_rate.hex(), solve.evaluation.command_rate.hex())


@contextmanager
def _evaluated_tables():
    """A list that collects the action bits, as bool bytes, of every table
    that ``_evaluate`` evaluates in the block."""
    evaluated = []
    evaluate = relaxed_solver._evaluate

    def recording(model, command_prob):
        evaluated.append(np.asarray(command_prob).astype(bool).tobytes())
        return evaluate(model, command_prob)

    with mock.patch.object(relaxed_solver, "_evaluate", recording):
        yield evaluated


@settings(max_examples=60, deadline=None)
@given(sensor_pairs(), st.integers(2, 8), st.lists(st.floats(0.0, 6.0), min_size=1, max_size=4))
def test_reused_table_evaluations_match_cold_solves(sensors, delta_max, prices):
    # Each solve starts from its sensor's previous table, the final table of
    # its last solve, with its sensor's store of final-table evaluations: it
    # does not evaluate its start, and it returns what the same call returns
    # without a store, bit for bit. The two sensors' tables share a byte
    # layout (both start from the same myopic table), and each first solve,
    # with an empty store, evaluates its start table.
    calls = []
    starts, stores = [None, None], [{}, {}]
    for mu in prices:
        for k, sensor in enumerate(sensors):
            args = (sensor, delta_max, mu, starts[k])
            with _evaluated_tables() as evaluated:
                solve = solve_per_sensor(*args, stores[k])
            if starts[k] is not None:
                assert starts[k].astype(bool).tobytes() not in evaluated
            else:
                assert evaluated
            calls.append((args, _solve_record(solve)))
            starts[k] = solve.policy.actions
    for args, record in calls:
        assert _solve_record(solve_per_sensor(*args)) == record

    # A solve keeps its final table's evaluation, and only that, with
    # read-only arrays.
    kept = {}
    solve_per_sensor(*calls[-1][0], kept)
    key = starts[-1].astype(bool).tobytes()
    assert list(kept) == [key]
    _, gains, x = kept[key]
    for arr in (gains, x):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = 1.0

    # A failed evaluation is not kept: the next solve factors and fails again.
    kept, factored, counts = {}, [], []
    with mock.patch.object(scipy.sparse.linalg, "splu",
                           lambda system: factored.append(system) or _NanFactor()):
        for _ in range(2):
            with pytest.raises(MultichainError):
                solve_per_sensor(sensors[0], delta_max, prices[0], None, kept)
            counts.append(len(factored))
    assert 0 < counts[0] < counts[1]
    assert kept == {}


@contextmanager
def _recorded_class_solves():
    """A list that collects each class solve made through the module's
    ``solve_per_sensor`` in the block, in the order solved: its sensor, price,
    start table, store of kept evaluations, the tables it evaluated (as
    :func:`_evaluated_tables` records them) and the solve."""
    solves = []
    solve_per_sensor = relaxed_solver.solve_per_sensor

    def recording(sensor, delta_max, mu, start=None, kept=None):
        with _evaluated_tables() as evaluated:
            solve = solve_per_sensor(sensor, delta_max, mu, start, kept)
        solves.append((sensor, mu, start, kept, evaluated, solve))
        return solve

    with mock.patch.object(relaxed_solver, "solve_per_sensor", recording):
        yield solves


def _solve_outputs(net, solve=_cold_solve):
    """A ``solve`` (by default cold) of ``net``: its tables, eta, prices,
    bound, price trajectory and per-sensor relative values as bytes and hex
    floats, and each class solve's price, table, relative values, Lagrangian,
    step count and evaluation, in the order solved."""
    with _recorded_class_solves() as class_solves:
        solution = solve(net)
    lagrange = solution.lagrange
    solves = [(mu, _solve_record(s)) for _, mu, _, _, _, s in class_solves]
    return (
        [(p.lower.actions.tobytes(), p.upper.actions.tobytes()) for p in solution.policies],
        [getattr(solution, f).hex() for f in ("eta", "mu_star", "avg_cost")],
        [x.hex() for x in (lagrange.mu_minus, lagrange.mu_plus, lagrange.dual_bound)],
        [tuple(v.hex() for v in e) for e in lagrange.evaluations],
        [r.tobytes() for r in lagrange.per_sensor_rel_values],
        solves,
    )


# Thirty classes, two sensors each: more classes than a shared store of the
# 64 tables used last could serve.
THIRTY_CLASSES = NetworkConfig(60, 3, 6, 12, tuple(SensorParams(float(h), 7, (0.6,) * 3)
                                                   for h in np.linspace(0.02, 0.3, 30)) * 2)


def test_class_solves_keep_their_final_tables_for_warm_starts():
    # Each class keeps the evaluations of the tables its solves ended at, so
    # no warm start evaluates its start table, however many classes the
    # network has. A network-wide store of the 64 tables used last dropped
    # warm starts' tables here and factored 668 times.
    with _counted_splu() as factored, _recorded_class_solves() as solves:
        _cold_solve(THIRTY_CLASSES)
    assert len(factored) <= 518
    warm = [(start, evaluated) for _, _, start, _, evaluated, _ in solves if start is not None]
    assert len(warm) > len(solves) // 2
    for start, evaluated in warm:
        assert start.astype(bool).tobytes() not in evaluated
    # One store per class, shared by its solves, holds 1 to one table per solve.
    for sensor in sensor_classes(THIRTY_CLASSES)[0]:
        stores = [kept for s, _, _, kept, _, _ in solves if s == sensor]
        assert all(kept is stores[0] for kept in stores)
        assert 1 <= len(stores[0]) <= len(stores)


# Sixty-five classes, two sensors each: more than the 64 classes whose solves
# a process-wide store kept, where every warm start missed (3,853 factorisations).
SIXTY_FIVE_CLASSES = NetworkConfig(130, 3, 32, 12, tuple(
    SensorParams(0.01 + 0.9 * i / 65, 7, (0.6,) * 3) for i in range(65)) * 2)


def test_warm_starts_serve_more_than_64_classes():
    with _counted_splu() as factored:
        _cold_solve(SIXTY_FIVE_CLASSES)
    assert len(factored) <= 1334


# 260 single-sensor classes at delta_max 3: more than the 256 slot maps a
# capped cache held, which then built its maps 4,940 times.
MANY_SLOT_MAPS = NetworkConfig(260, 1, 26, 3, tuple(
    SensorParams(0.05 + 0.9 * i / 260, 1, (0.6,)) for i in range(260)))


def test_slot_maps_are_built_once_per_model():
    _cold_solve(MANY_SLOT_MAPS)
    info = relaxed_solver._system_slots.cache_info()
    assert info.misses == info.currsize >= 260


def test_a_solve_leaves_no_state_for_the_next():
    # A solve of the bench network's class with another budget, in between,
    # neither warm-starts nor spares the next solve of the bench network: it
    # makes the cold solve's calls and returns its outputs, bit for bit.
    net = BENCH_SOLVES["paper-k40"]
    cold = _solve_outputs(net)
    solve_relaxed(NetworkConfig(40, 3, 3, 12, net.sensors))
    with _counted_splu() as factored:
        again = _solve_outputs(net, solve_relaxed)
    assert again == cold
    assert len(factored) == 10


def _low_rank_shares(net):
    """``_solve_outputs`` with the default ``LOW_RANK_SHARE``, with 0 (every
    step exact) and with 1 (every eligible step low-rank)."""
    outputs = []
    for share in (relaxed_solver.LOW_RANK_SHARE, 0.0, 1.0):
        with mock.patch.object(relaxed_solver, "LOW_RANK_SHARE", share):
            outputs.append(_solve_outputs(net))
    return outputs


FIG2A = Path(__file__).resolve().parents[1] / "configs" / "fig2a.cfg"


@pytest.mark.parametrize("net", [pytest.param(net, id=name) for name, net in BENCH_SOLVES.items()]
                         + [pytest.param(p.values[0], id=p.id) for p in EDGE_INSTANCES]
                         + [pytest.param("fig2a", id="fig2a")])
def test_low_rank_steps_leave_outputs_bit_identical(net):
    # Low-rank steps only steer policy iteration: every share gives the
    # tables, prices, bound, trajectory, relative values and step counts of
    # the solve whose every step is exact, bit for bit.
    if net == "fig2a":
        from aoisched.cli import build_network, parse_spec

        net = build_network(parse_spec(FIG2A.read_text()))
    default, exact, forced = _low_rank_shares(net)
    assert default == exact
    assert forced == exact


@settings(max_examples=30, deadline=None)
@given(small_networks())
def test_low_rank_steps_leave_small_network_outputs_bit_identical(net):
    default, exact, forced = _low_rank_shares(net)
    assert default == exact
    assert forced == exact


def _policy_iteration_records(caplog):
    """The (mu, steps, factorisations, low-rank steps, guard fallbacks,
    multichain fallbacks, largest d) of each class solve's debug line."""
    return [r.args for r in caplog.records if r.getMessage().startswith("policy iteration")]


def test_cold_bigbattery_bench_solve_factors_at_most_18_times(caplog):
    # 44 factorisations at the commit before low-rank policy-iteration steps;
    # 30 of them made the class solve at mu = 0.
    with (_counted_splu() as factored,
          caplog.at_level(logging.DEBUG, logger=relaxed_solver.__name__)):
        _cold_solve(BENCH_SOLVES["bigbattery-k800"])
    assert len(factored) <= 18
    records = _policy_iteration_records(caplog)
    assert sum(r[2] for r in records) + 2 == len(factored)  # the calibration factors twice


def test_bigbattery_class_solve_at_zero_price_logs_its_low_rank_steps(caplog):
    # The class solve at mu = 0 zig-zags between two families of tables for
    # 30 steps; all but its first two tables and its last are low-rank steps.
    with caplog.at_level(logging.DEBUG, logger=relaxed_solver.__name__):
        solve = solve_per_sensor(SensorParams(0.9, 63, (0.6,) * 3), 8, 0.0)
    [(mu, steps, factored, low_rank, guard, multichain, largest)] = _policy_iteration_records(caplog)
    assert (mu, steps) == (0.0, 30) and solve.iterations == 30
    assert factored <= 4 and low_rank >= 24 and steps == factored + low_rank
    assert multichain == 0 and 0 < largest <= relaxed_solver.LOW_RANK_SHARE * 512


def test_multichain_low_rank_candidate_takes_the_exact_path(caplog):
    # A grid-powered sensor of the network that cannot meet its budget: from
    # this start, a table within the anchor's rank has two closed classes.
    # It is not updated from the anchor's factor but evaluated exactly, as
    # the COO reference assembles and solves it.
    sensor, delta_max = SensorParams(1.0, 4, (0.1456,)), 4
    start = np.array([int(b) for b in "0000000010100000000000010000000011000010"], dtype=np.int8)
    model = sensor_model(sensor, delta_max)
    multichain, evaluated = [], []
    chain_classes, poisson = relaxed_solver._chain_classes, relaxed_solver._poisson

    def recording_classes(probs, model):
        out = chain_classes(probs, model)
        if np.count_nonzero(~out[2]) != 1:
            multichain.append(probs.copy())
        return out

    def recording_poisson(probs, rhs, model):
        out = poisson(probs, rhs, model)
        evaluated.append((probs.copy(), rhs.copy(), out))
        return out

    with (mock.patch.object(relaxed_solver, "LOW_RANK_SHARE", 1.0),
          mock.patch.object(relaxed_solver, "_chain_classes", recording_classes),
          mock.patch.object(relaxed_solver, "_poisson", recording_poisson),
          caplog.at_level(logging.DEBUG, logger=relaxed_solver.__name__)):
        solve = solve_per_sensor(sensor, delta_max, 0.0, start)
    [(_, _, _, _, _, fallbacks, _)] = _policy_iteration_records(caplog)
    assert fallbacks >= 1 and multichain
    # Every chain with two closed classes, the refused candidate's included,
    # was evaluated exactly, as the reference evaluates it, bit for bit.
    rows, cols, _ = relaxed_solver._chain_pattern(model)
    for probs in multichain:
        [(rhs, (gains, x, factor))] = {p.tobytes(): (r, out) for p, r, out in evaluated
                                       if np.array_equal(p, probs)}.values()
        assert factor is None
        nonzero = probs != 0.0
        want = poisson_reference((rows[nonzero], cols[nonzero], probs[nonzero]), rhs,
                                 model.ref_index)
        for got, expected in zip((gains, x), want):
            np.testing.assert_array_equal(got, expected)
    with mock.patch.object(relaxed_solver, "LOW_RANK_SHARE", 0.0):
        assert _solve_record(solve_per_sensor(sensor, delta_max, 0.0, start)) == _solve_record(solve)
