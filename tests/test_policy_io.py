"""Round-trip and validation tests for the policy file formats."""

import hashlib
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aoisched import (
    LagrangeSolve,
    MixedPolicy,
    NetworkConfig,
    PolicyFileError,
    PolicyTable,
    RelaxedSolution,
    SensorParams,
    sensor_model,
    solve_exact,
    solve_relaxed,
)
from aoisched import policy_io
from aoisched.policy_io import (
    load_joint_policy,
    load_mixed_policies,
    network_fingerprint,
    save_joint_policy,
    save_mixed_policies,
)
from oracles import fingerprint_reference, savetxt_reference
from test_replay import ROOT, _fixture_policies, _network

TINY1 = SensorParams(harvest_rate=0.5, battery_capacity=1, request_probs=(0.5,))
OTHER = SensorParams(harvest_rate=0.4, battery_capacity=2, request_probs=(0.5,))


def _saved_mixed(tmp_path):
    net = NetworkConfig(4, 1, 1, 2, (TINY1, TINY1, OTHER, TINY1))
    path = tmp_path / "mixed.csv"
    save_mixed_policies(path, net, solve_relaxed(net))
    return net, path


def _saved_joint(tmp_path):
    net = NetworkConfig(2, 1, 1, 3, (TINY1, TINY1))
    policy, result = solve_exact(net)
    path = tmp_path / "joint.csv"
    save_joint_policy(path, net, policy, result.avg_cost)
    return net, path


def test_mixed_policy_round_trip(tmp_path):
    net = NetworkConfig(4, 1, 1, 2, (TINY1, TINY1, OTHER, TINY1))
    solution = solve_relaxed(net)
    path = tmp_path / "mixed.csv"
    save_mixed_policies(path, net, solution)
    loaded, meta = load_mixed_policies(path, net)
    assert len(loaded) == 4
    for original, restored in zip(solution.policies, loaded):
        np.testing.assert_array_equal(original.lower.actions, restored.lower.actions)
        np.testing.assert_array_equal(original.upper.actions, restored.upper.actions)
        assert restored.eta == pytest.approx(original.eta)
    assert float(meta["avg_cost"]) == pytest.approx(solution.avg_cost)


def test_mixed_policy_round_trip_after_breakpoint_step(tmp_path):
    # Its solve replaces a bracket end by a breakpoint price, which must be
    # written as a plain number, not as numpy's repr.
    net = NetworkConfig(3, 1, 1, 4, (
        SensorParams(0.5, 1, (0.5,)),
        SensorParams(0.875, 1, (0.75,)),
        SensorParams(0.875, 3, (0.875,)),
    ))
    solution = solve_relaxed(net)
    path = tmp_path / "mixed.csv"
    save_mixed_policies(path, net, solution)
    loaded, meta = load_mixed_policies(path, net)
    for original, restored in zip(solution.policies, loaded):
        np.testing.assert_array_equal(original.lower.actions, restored.lower.actions)
        np.testing.assert_array_equal(original.upper.actions, restored.upper.actions)
        assert restored.eta == original.eta
        assert restored.lower.mu == solution.lagrange.mu_minus
        assert restored.upper.mu == solution.lagrange.mu_plus
    assert float(meta["mu_star"]) == solution.mu_star


def test_mixed_policy_rejects_non_numeric_metadata(tmp_path):
    net, path = _saved_mixed(tmp_path)
    text = path.read_text()
    path.write_text(text.replace(" mu_plus=", " mu_plus=np.float64(", 1).replace(
        " active=", ") active=", 1))
    with pytest.raises(PolicyFileError, match=r"mixed\.csv: metadata mu_plus="):
        load_mixed_policies(path, net)


def test_mixed_policy_rejects_wrong_network(tmp_path):
    net = NetworkConfig(2, 1, 1, 2, (TINY1, TINY1))
    other = NetworkConfig(2, 1, 1, 2, (TINY1, OTHER))
    solution = solve_relaxed(net)
    path = tmp_path / "mixed.csv"
    save_mixed_policies(path, net, solution)
    with pytest.raises(PolicyFileError):
        load_mixed_policies(path, other)


def test_mixed_policy_missing_file(tmp_path):
    net = NetworkConfig(2, 1, 1, 2, (TINY1, TINY1))
    with pytest.raises(PolicyFileError):
        load_mixed_policies(tmp_path / "nope.csv", net)


def test_joint_policy_round_trip(tmp_path):
    net = NetworkConfig(2, 1, 1, 3, (TINY1, TINY1))
    policy, result = solve_exact(net)
    path = tmp_path / "joint.csv"
    save_joint_policy(path, net, policy, result.avg_cost)
    loaded, meta = load_joint_policy(path, net)
    np.testing.assert_array_equal(policy.actions, loaded.actions)
    assert float(meta["avg_cost"]) == pytest.approx(result.avg_cost)


def test_joint_policy_rejects_truncated_file(tmp_path):
    net, path = _saved_joint(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(PolicyFileError):
        load_joint_policy(path, net)


def test_joint_policy_refuses_a_fleet_above_the_joint_cap(tmp_path):
    # 40 sensors of 2,048 states: no joint solve writes a table of 2**440 rows.
    sensor = SensorParams(0.05, 7, (0.6,) * 3)
    net = NetworkConfig(40, 3, 1, 64, (sensor,) * 40)
    with pytest.raises(PolicyFileError, match="above 2000000 states"):
        load_joint_policy(tmp_path / "joint.csv", net)


def test_identical_sensors_share_rows(tmp_path):
    k = 50
    net = NetworkConfig(k, 1, 5, 2, (TINY1,) * k)
    path = tmp_path / "mixed.csv"
    save_mixed_policies(path, net, solve_relaxed(net))
    lines = path.read_text().splitlines()
    assert lines[0] == "# aoisched-mixed-policy v2"
    num_states = sensor_model(TINY1, 2).num_states
    assert len(lines) == 4 + num_states
    loaded, _ = load_mixed_policies(path, net)
    assert len(loaded) == k and all(p is loaded[0] for p in loaded)


def test_mixed_save_rejects_different_tables_in_one_class(tmp_path):
    net = NetworkConfig(2, 1, 1, 2, (TINY1, TINY1))
    solution = solve_relaxed(net)
    n = sensor_model(TINY1, 2).num_states
    always = PolicyTable(actions=[1] * n, mu=0.0)
    never = PolicyTable(actions=[0] * n, mu=0.0)
    policies = (MixedPolicy(always, always, 1.0), MixedPolicy(never, never, 1.0))
    with pytest.raises(ValueError, match="different tables"):
        save_mixed_policies(tmp_path / "mixed.csv", net, replace(solution, policies=policies))


def test_mixed_policy_rejects_v1_file(tmp_path):
    net, path = _saved_mixed(tmp_path)
    path.write_text(path.read_text().replace("mixed-policy v2", "mixed-policy v1"))
    with pytest.raises(PolicyFileError, match="v2"):
        load_mixed_policies(path, net)


def test_mixed_policy_rejects_truncated_file(tmp_path):
    net, path = _saved_mixed(tmp_path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(PolicyFileError):
        load_mixed_policies(path, net)


def test_mixed_policy_rejects_bit_two(tmp_path):
    net, path = _saved_mixed(tmp_path)
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1][:-1] + "2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PolicyFileError, match="0 or 1"):
        load_mixed_policies(path, net)


def test_mixed_policy_rejects_missing_metadata_key(tmp_path):
    net, path = _saved_mixed(tmp_path)
    path.write_text(path.read_text().replace("# eta=", "# eat="))
    with pytest.raises(PolicyFileError, match="eta"):
        load_mixed_policies(path, net)


def test_joint_policy_rejects_budget_violation(tmp_path):
    net, path = _saved_joint(tmp_path)
    lines = path.read_text().splitlines()
    lines[4] = "0,1,1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PolicyFileError, match="budget"):
        load_joint_policy(path, net)


def test_joint_policy_rejects_short_row(tmp_path):
    net, path = _saved_joint(tmp_path)
    lines = path.read_text().splitlines()
    lines[6] = lines[6].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PolicyFileError):
        load_joint_policy(path, net)


def test_fingerprint_sensitivity():
    net1 = NetworkConfig(2, 1, 1, 2, (TINY1, TINY1))
    net2 = NetworkConfig(2, 1, 2, 2, (TINY1, TINY1))
    net3 = NetworkConfig(2, 1, 1, 2, (TINY1, OTHER))
    prints = {network_fingerprint(n) for n in (net1, net2, net3)}
    assert len(prints) == 3


def test_equal_networks_share_fingerprint_across_zero_sign(tmp_path):
    # 0.0 == -0.0, but repr tells them apart; SensorParams stores +0.0 only.
    nets = [NetworkConfig(2, 1, 1, 3, (SensorParams(zero, 1, (0.5,)),) * 2)
            for zero in (0.0, -0.0)]
    assert nets[0] == nets[1]
    assert [network_fingerprint(n) for n in nets] == ["a0e0dd6e432acd41"] * 2
    path = tmp_path / "mixed.csv"
    save_mixed_policies(path, nets[0], solve_relaxed(nets[0]))
    loaded, _ = load_mixed_policies(path, nets[1])
    assert len(loaded) == 2


def test_mixed_policy_rejects_eta_outside_unit_interval(tmp_path):
    net, path = _saved_mixed(tmp_path)
    text = path.read_text()
    for eta in ("1.5", "nan", "-0.2"):
        path.write_text(re.sub(r" eta=\S+", f" eta={eta}", text, count=1))
        with pytest.raises(PolicyFileError, match=r"eta must be in \[0, 1\]"):
            load_mixed_policies(path, net)


def test_mixed_policy_rejects_non_utf8_body(tmp_path):
    net, path = _saved_mixed(tmp_path)
    path.write_bytes(path.read_bytes() + b"0,\xff\xfe,1,1\n")
    with pytest.raises(PolicyFileError, match="not a text file"):
        load_mixed_policies(path, net)


def test_mixed_policy_rejects_empty_body_without_warning(tmp_path):
    net, path = _saved_mixed(tmp_path)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:4]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PolicyFileError, match="no policy rows"):
            load_mixed_policies(path, net)


CHUNK = policy_io._CHUNK_ROWS


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    num_rows=st.integers(1, 3 * CHUNK),
    num_cols=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@example(num_rows=1, num_cols=4, seed=0)
@example(num_rows=7, num_cols=1, seed=1)
@example(num_rows=CHUNK, num_cols=4, seed=2)
@example(num_rows=2 * CHUNK, num_cols=3, seed=3)
@example(num_rows=2 * CHUNK + 37, num_cols=4, seed=4)
def test_write_matches_savetxt(tmp_path, num_rows, num_cols, seed):
    net = NetworkConfig(2, 1, 1, 2, (TINY1, OTHER))
    rng = np.random.default_rng(seed)
    rows = rng.integers(-10**12, 10**12, size=(num_rows, num_cols))
    tag, meta, columns = "# tag", "avg_cost=1.25 budget=1", ",".join(["c"] * num_cols)
    policy_io._write(tmp_path / "new.csv", tag, net, meta, columns, rows)
    header = f"{tag}\n# network={network_fingerprint(net)}\n# {meta}\n{columns}"
    savetxt_reference(tmp_path / "reference.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_fig2b_mixed_file_bytes_are_pinned(tmp_path):
    # The paper's K=800 fleet with the fixture tables (20,480 body rows); the
    # digest was recorded from the np.savetxt writer.
    net = _network("fig2b.cfg")
    with np.load(ROOT / "bench" / "data" / "fig2a_tables.npz") as data:
        fx = {key: float(data[key]) for key in
              ("mu_star", "mu_minus", "mu_plus", "eta", "lower_bound", "command_rate")}
    lagrange = LagrangeSolve(
        mu_star=fx["mu_star"], mu_minus=fx["mu_minus"], mu_plus=fx["mu_plus"],
        evaluations=(), per_sensor_rel_values=(), per_sensor_lagrangians=(),
        per_sensor_rates=(), dual_bound=float("nan"),
    )
    solution = RelaxedSolution(
        policies=_fixture_policies(net), mu_star=fx["mu_star"], eta=fx["eta"],
        avg_cost=fx["lower_bound"], command_rate=fx["command_rate"], constraint_active=True,
        lagrange=lagrange, per_sensor_cost_rates=(), per_sensor_command_rates=(),
    )
    path = tmp_path / "fig2b.csv"
    save_mixed_policies(path, net, solution)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "e11a6c82cb684568c5549eeba2ad8431356ec74a5219309fc870138c4f037e2f"


_ZEROISH = st.sampled_from([0.0, -0.0, 0.25, 0.6, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def _fleets(draw):
    """Networks whose sensors interleave a few classes, some built with signed zeros."""
    users = draw(st.integers(1, 3))
    pool = draw(st.lists(
        st.builds(SensorParams, _ZEROISH, st.integers(1, 4),
                  st.lists(_ZEROISH, min_size=users, max_size=users).map(tuple)),
        min_size=1, max_size=4,
    ))
    # Equal sensors built from zeros of either sign.
    pool += [replace(s, harvest_rate=-s.harvest_rate) for s in pool if s.harvest_rate == 0.0]
    sensors = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    k = len(sensors)
    return NetworkConfig(k, users, draw(st.integers(1, k)), draw(st.integers(2, 9)),
                         tuple(sensors))


@settings(max_examples=200, deadline=None)
@given(_fleets())
@example(NetworkConfig(4, 1, 1, 3, (
    SensorParams(0.0, 1, (0.5,)), SensorParams(-0.0, 1, (0.5,)),
    SensorParams(0.5, 1, (-0.0,)), SensorParams(0.5, 1, (0.0,)),
)))
def test_fingerprint_matches_per_sensor_formula(net):
    assert network_fingerprint(net) == fingerprint_reference(net)
