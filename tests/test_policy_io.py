"""Round-trip and validation tests for the policy file formats."""

from dataclasses import replace

import numpy as np
import pytest

from aoisched import (
    MixedPolicy,
    NetworkConfig,
    PolicyFileError,
    PolicyTable,
    SensorParams,
    sensor_model,
    solve_exact,
    solve_relaxed,
)
from aoisched.policy_io import (
    load_joint_policy,
    load_mixed_policies,
    network_fingerprint,
    save_joint_policy,
    save_mixed_policies,
)

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
