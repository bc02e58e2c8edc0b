"""Round-trip and validation tests for the policy file formats."""

import hashlib
import math
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from aoisched import (
    JointPolicy,
    LagrangeSolve,
    MixedPolicy,
    NetworkConfig,
    PolicyFileError,
    PolicyTable,
    RelaxedSolution,
    SensorParams,
    build_relaxed_fleet_policy,
    sensor_classes,
    sensor_model,
    solve_exact,
    solve_relaxed,
)
from aoisched import policy_io
from aoisched.model import joint_state_sizes
from aoisched.policy_io import (
    load_joint_policy,
    load_mixed_policies,
    network_fingerprint,
    save_joint_policy,
    save_mixed_policies,
)
from oracles import (
    fingerprint_reference,
    joint_rows_reference,
    savetxt_reference,
    sensor_classes_reference,
)
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
    path.write_text(re.sub(r" avg_cost=\S+", " avg_cost=low", text, count=1))
    with pytest.raises(PolicyFileError, match=r"mixed\.csv: metadata avg_cost='low'"):
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


def test_policy_files_reject_other_column_headers(tmp_path):
    # A mixed file with its action columns swapped or a joint file's header,
    # and a joint file with its action columns swapped.
    net, path = _saved_mixed(tmp_path)
    text = path.read_text()
    for columns in ("class,state_index,action_upper,action_lower", "state_index,action_0,action_1"):
        path.write_text(text.replace(policy_io.MIXED_COLUMNS, columns, 1))
        expected = f"expected columns '{policy_io.MIXED_COLUMNS}', found '{columns}'"
        with pytest.raises(PolicyFileError, match=re.escape(expected)):
            load_mixed_policies(path, net)
    net, path = _saved_joint(tmp_path)
    header = policy_io._joint_columns(2)
    path.write_text(path.read_text().replace(header, "state_index,action_1,action_0", 1))
    with pytest.raises(PolicyFileError, match=re.escape(f"expected columns '{header}'")):
        load_joint_policy(path, net)


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
    text = path.read_text()
    path.write_text(text.replace("# eta=", "# eat="))
    with pytest.raises(PolicyFileError, match="eta"):
        load_mixed_policies(path, net)
    path.write_text(text.replace(" avg_cost=", " cost="))
    with pytest.raises(PolicyFileError, match="metadata lacks avg_cost"):
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


CHUNK = 7  # joint body rows laid out at once, in place of the writer's chunk size


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
@example(num_rows=2 * CHUNK + 5, num_cols=4, seed=4)
def test_write_matches_savetxt(tmp_path, num_rows, num_cols, seed):
    # A joint file, index column and action bits, is the header and the rows
    # np.savetxt writes, across chunk boundaries.
    net = NetworkConfig(2, 1, 1, 2, (TINY1, OTHER))
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(num_rows, num_cols)).astype(np.int8)
    tag, meta, columns = "# tag", "avg_cost=1.25 budget=1", ",".join(["c"] * (num_cols + 1))
    with mock.patch.object(policy_io, "_CHUNK_ROWS", CHUNK):
        policy_io._write(tmp_path / "new.csv", tag, net, meta, columns, policy_io._joint_rows(bits))
    header = f"{tag}\n# network={network_fingerprint(net)}\n# {meta}\n{columns}"
    savetxt_reference(tmp_path / "reference.csv", header,
                      np.column_stack((np.arange(num_rows), bits)))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@settings(max_examples=40, deadline=None)
@given(num_rows=st.integers(1, 1200), num_sensors=st.integers(1, 8),
       chunk=st.sampled_from([1, 3, CHUNK, policy_io._CHUNK_ROWS]), seed=st.integers(0, 2**32 - 1))
@example(num_rows=10, num_sensors=3, chunk=policy_io._CHUNK_ROWS, seed=0)
@example(num_rows=11, num_sensors=3, chunk=policy_io._CHUNK_ROWS, seed=1)
@example(num_rows=100, num_sensors=2, chunk=CHUNK, seed=2)
@example(num_rows=101, num_sensors=2, chunk=CHUNK, seed=3)
@example(num_rows=1001, num_sensors=1, chunk=policy_io._CHUNK_ROWS, seed=4)
def test_joint_rows_match_percent_d_reference(num_rows, num_sensors, chunk, seed):
    # The digit-table body, chunk by chunk, is the one "%d" per integer
    # formatting, bit for bit, as the index widens (9 to 10, 99 to 100, ...)
    # and across chunk boundaries; an all-zero table is the reader's blank body.
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(num_rows, num_sensors)).astype(np.int8)
    with mock.patch.object(policy_io, "_CHUNK_ROWS", chunk):
        for table in (bits, np.zeros_like(bits)):
            assert b"".join(policy_io._joint_rows(table)) == joint_rows_reference(table)


def _fig2b_solution(net):
    """The fixture tables on the paper's K=800 fleet, as a relaxed solution."""
    with np.load(ROOT / "bench" / "data" / "fig2a_tables.npz") as data:
        fx = {key: float(data[key]) for key in
              ("mu_star", "mu_minus", "mu_plus", "eta", "lower_bound", "command_rate")}
    lagrange = LagrangeSolve(
        mu_star=fx["mu_star"], mu_minus=fx["mu_minus"], mu_plus=fx["mu_plus"],
        evaluations=(), per_sensor_rel_values=(), per_sensor_lagrangians=(),
        per_sensor_rates=(), dual_bound=float("nan"),
    )
    return RelaxedSolution(
        policies=_fixture_policies(net), mu_star=fx["mu_star"], eta=fx["eta"],
        avg_cost=fx["lower_bound"], command_rate=fx["command_rate"], constraint_active=True,
        lagrange=lagrange, per_sensor_cost_rates=(), per_sensor_command_rates=(),
    )


def test_fig2b_mixed_file_bytes_are_pinned(tmp_path):
    # The paper's K=800 fleet with the fixture tables (20,480 body rows); the
    # digest was recorded from the np.savetxt writer.
    net = _network("fig2b.cfg")
    path = tmp_path / "fig2b.csv"
    save_mixed_policies(path, net, _fig2b_solution(net))
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


@settings(max_examples=200, deadline=None)
@given(_fleets())
def test_sensor_classes_match_reference_and_are_read_only(net):
    classes, counts, class_of = sensor_classes(net)
    ref_classes, ref_counts, ref_class_of = sensor_classes_reference(net)
    # repr tells a -0.0 from a 0.0, which == does not.
    assert [repr(c) for c in classes] == [repr(c) for c in ref_classes]
    for arr, ref in ((counts, ref_counts), (class_of, ref_class_of)):
        assert arr.dtype == ref.dtype and arr.tolist() == ref.tolist()
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    assert sensor_classes(net)[2] is class_of  # kept on the network, not recomputed


def test_fig2b_hand_off_hashes_each_sensor_at_most_once(tmp_path, monkeypatch):
    # The class grouping is made when the network is built; a save, a load and
    # two fleet builds must not regroup the 800 sensors.
    net = _network("fig2b.cfg")
    solution = _fig2b_solution(net)
    calls = []
    plain_hash = SensorParams.__hash__

    def counted_hash(self):
        calls.append(1)
        return plain_hash(self)

    monkeypatch.setattr(SensorParams, "__hash__", counted_hash)
    path = tmp_path / "fig2b.csv"
    save_mixed_policies(path, net, solution)
    policies, _ = load_mixed_policies(path, net)
    for truncate in (True, False):
        build_relaxed_fleet_policy(net, policies, truncate)
    assert hash(TINY1) == plain_hash(TINY1) and calls  # the counter is live
    assert len(calls) <= net.num_sensors + 1


_TABLE_KINDS = st.sampled_from(["zeros", "ones", "bits"])


def _solution(net, tables, eta):
    """A relaxed solution whose class c carries the (lower, upper) bits ``tables[c]``."""
    per_class = [MixedPolicy(PolicyTable(lo, 0.5), PolicyTable(up, 1.5), eta) for lo, up in tables]
    lagrange = LagrangeSolve(
        mu_star=1.0, mu_minus=0.5, mu_plus=1.5, evaluations=(), per_sensor_rel_values=(),
        per_sensor_lagrangians=(), per_sensor_rates=(), dual_bound=float("nan"),
    )
    return RelaxedSolution(
        policies=tuple(per_class[c] for c in sensor_classes(net)[2]), mu_star=1.0, eta=eta,
        avg_cost=2.0, command_rate=0.25, constraint_active=True, lagrange=lagrange,
        per_sensor_cost_rates=(), per_sensor_command_rates=(),
    )


def _assert_mixed_file_matches_savetxt(path, sensors, delta_max, kinds, eta, rng):
    """Save hand-made tables (``kinds[c]``, lower and upper, for class c) and
    compare the file with ``np.savetxt`` of its (class, state, lower, upper) rows."""
    net = NetworkConfig(len(sensors), 1, 1, delta_max, tuple(sensors))
    classes, _, _ = sensor_classes(net)
    make = {"zeros": np.zeros, "ones": np.ones,
            "bits": lambda n, dtype: rng.integers(0, 2, n).astype(dtype)}
    tables, rows = [], []
    for c, sensor in enumerate(classes):
        n = sensor_model(sensor, delta_max).num_states
        lower, upper = (make[kind](n, dtype=np.int8) for kind in kinds[c])
        tables.append((lower, upper))
        rows.append(np.column_stack((np.full(n, c), np.arange(n), lower, upper)))
    save_mixed_policies(path, net, _solution(net, tables, eta))
    head = path.read_text().splitlines()[:4]
    assert head[0] == policy_io.MIXED_TAG and head[3] == policy_io.MIXED_COLUMNS
    assert head[1] == f"# network={network_fingerprint(net)}"
    assert head[2].startswith(f"# eta={eta!r} ")
    reference = path.with_name("reference.csv")
    savetxt_reference(reference, "\n".join(head), np.concatenate(rows))
    assert path.read_bytes() == reference.read_bytes()
    return net, tables


def test_mixed_file_matches_savetxt_on_each_table_kind(tmp_path):
    # Classes of 32, 16 and 24 states: all-0, all-1 and random tables.
    pool = [SensorParams(0.5, b, (0.5,)) for b in (3, 1, 2)]
    kinds = [("zeros", "ones"), ("ones", "ones"), ("bits", "zeros")]
    for eta in (0.0, 1.0):
        _assert_mixed_file_matches_savetxt(
            tmp_path / "mixed.csv", (pool[0], pool[1], pool[2], pool[1]), 4, kinds, eta,
            np.random.default_rng(0),
        )


def test_mixed_file_reuses_row_shapes_across_the_class_number_width(tmp_path):
    # Twelve classes whose battery capacities alternate, so 12- and 18-state
    # classes alternate too: each (size, class-number width) shape is laid out
    # once and copied, below class 10 and from class 10 on.
    sensors = [SensorParams(0.05 * (c + 1), 1 + c % 2, (0.5,)) for c in range(12)]
    assert [sensor_model(s, 3).num_states for s in sensors] == [12, 18] * 6
    kinds = [("bits", "bits")] * 12
    path = tmp_path / "mixed.csv"
    net, tables = _assert_mixed_file_matches_savetxt(
        path, sensors, 3, kinds, 0.375, np.random.default_rng(7))
    loaded, _ = load_mixed_policies(path, net)
    for (lower, upper), policy in zip(tables, loaded):  # sensor c is class c
        assert policy.lower.actions.tobytes() == lower.tobytes()
        assert policy.upper.actions.tobytes() == upper.tobytes()
    assert len({lower.tobytes() for lower, _ in tables}) > 1  # the tables differ


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mixed_file_matches_savetxt(tmp_path, data):
    # Up to 12 classes (two-digit class numbers) of up to 120 states.
    pool = data.draw(st.lists(
        st.builds(SensorParams, st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(1, 4),
                  st.just((0.5,))),
        min_size=1, max_size=12, unique=True,
    ))
    sensors = data.draw(st.permutations(
        pool + data.draw(st.lists(st.sampled_from(pool), max_size=8))
    ))
    kinds = [(data.draw(_TABLE_KINDS), data.draw(_TABLE_KINDS)) for _ in pool]
    _assert_mixed_file_matches_savetxt(
        tmp_path / "mixed.csv", sensors, data.draw(st.integers(2, 12)), kinds,
        data.draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
    )


def _random_tables(net, rng):
    """Random (lower, upper) int8 bits for each sensor class of ``net``."""
    return [
        tuple(rng.integers(0, 2, sensor_model(s, net.delta_max).num_states, dtype=np.int8)
              for _ in range(2))
        for s in sensor_classes(net)[0]
    ]


def _random_joint(net, rng):
    """A random joint policy of ``net`` that keeps the per-slot budget."""
    sizes = joint_state_sizes(net)
    actions = rng.integers(0, 2, (math.prod(sizes), net.num_sensors))
    actions[actions.cumsum(axis=1) > net.budget] = 0
    return JointPolicy(actions=actions, budget=net.budget, state_sizes=sizes)


def _class_bits(net, policies):
    """The (lower, upper) bits of per-sensor tables, in mixed-file row order."""
    first = np.unique(sensor_classes(net)[2], return_index=True)[1]
    return np.concatenate([
        np.column_stack((policies[k].lower.actions, policies[k].upper.actions)) for k in first
    ])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(net=_fleets(), seed=st.integers(0, 2**32 - 1),
       eta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
def test_canonical_files_round_trip_on_random_fleets(tmp_path, net, seed, eta):
    rng = np.random.default_rng(seed)
    solution = _solution(net, _random_tables(net, rng), eta)
    save_mixed_policies(tmp_path / "mixed.csv", net, solution)
    loaded, meta = load_mixed_policies(tmp_path / "mixed.csv", net)
    assert len(loaded) == net.num_sensors
    for original, restored in zip(solution.policies, loaded):
        for a, b in ((original.lower, restored.lower), (original.upper, restored.upper)):
            np.testing.assert_array_equal(a.actions, b.actions)
            assert a.mu == b.mu
        assert restored.eta == original.eta
    assert meta["eta"] == repr(eta) and float(meta["avg_cost"]) == solution.avg_cost
    # The joint file on the fleet's longest prefix with at most 4,096 joint states.
    sizes = joint_state_sizes(net)
    k = max(k for k in range(1, len(sizes) + 1) if math.prod(sizes[:k]) <= 4096)
    small = NetworkConfig(k, net.num_users, min(net.budget, k), net.delta_max, net.sensors[:k])
    policy = _random_joint(small, rng)
    save_joint_policy(tmp_path / "joint.csv", small, policy, 1.25)
    restored, meta = load_joint_policy(tmp_path / "joint.csv", small)
    np.testing.assert_array_equal(restored.actions, policy.actions)
    assert meta["avg_cost"] == "1.25" and meta["budget"] == str(small.budget)


@pytest.fixture(scope="module")
def canonical_files(tmp_path_factory):
    """A mixed and a joint file with random tables, each with a reader of its bits."""
    rng = np.random.default_rng(26)
    out = tmp_path_factory.mktemp("canonical")
    mixed_net = NetworkConfig(3, 1, 1, 3, (TINY1, OTHER, TINY1))
    save_mixed_policies(out / "mixed.csv", mixed_net,
                        _solution(mixed_net, _random_tables(mixed_net, rng), 0.25))
    joint_net = NetworkConfig(2, 1, 2, 3, (TINY1, OTHER))  # no flip can break the budget
    save_joint_policy(out / "joint.csv", joint_net, _random_joint(joint_net, rng), 1.25)
    return {
        "mixed": (out / "mixed.csv",
                  lambda path: _class_bits(mixed_net, load_mixed_policies(path, mixed_net)[0])),
        "joint": (out / "joint.csv",
                  lambda path: load_joint_policy(path, joint_net)[0].actions),
    }


def _body_start(raw):
    """The offset of a policy file's first body byte."""
    return len(b"".join(raw.splitlines(keepends=True)[:4]))


def _action_bytes(raw, bits):
    """{offset: (row, column)} of the action bytes, the last ``bits`` fields of each row."""
    spots, offset = {}, _body_start(raw)
    for row, line in enumerate(raw[offset:].splitlines(keepends=True)):
        fields = line.rstrip(b"\n").split(b",")
        for col, field in enumerate(fields):
            if col >= len(fields) - bits:
                assert len(field) == 1
                spots[offset] = (row, col - (len(fields) - bits))
            offset += len(field) + 1
    return spots


def _edit(raw, kind, at, byte):
    """``raw`` with one byte substituted, deleted or inserted at offset ``at``."""
    return raw[:at] + bytes([byte]) * (kind != "delete") + raw[at + (kind != "insert"):]


@pytest.mark.parametrize("kind", ["mixed", "joint"])
def test_swapping_an_action_byte_flips_exactly_that_bit(canonical_files, kind):
    path, read_bits = canonical_files[kind]
    raw, bits = path.read_bytes(), read_bits(path)
    edited = path.with_name(f"flipped-{kind}.csv")
    spots = _action_bytes(raw, bits.shape[1])
    assert len(spots) == bits.size
    for at, (row, col) in spots.items():
        edited.write_bytes(_edit(raw, "substitute", at, raw[at] ^ 1))  # "0" <-> "1"
        expected = bits.copy()
        expected[row, col] ^= 1
        np.testing.assert_array_equal(read_bits(edited), expected)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["mixed", "joint"]), data=st.data())
def test_one_byte_edit_of_the_body_raises_unless_it_swaps_a_bit(canonical_files, kind, data):
    path, read_bits = canonical_files[kind]
    raw = path.read_bytes()
    bits = read_bits(path).copy()
    spots = _action_bytes(raw, bits.shape[1])
    edit = data.draw(st.sampled_from(["substitute", "delete", "insert"]))
    last = len(raw) - (edit != "insert")
    at = data.draw(st.sampled_from(sorted(spots)) | st.integers(_body_start(raw), last))
    byte = data.draw((st.sampled_from(b"01") | st.integers(0, 255)).filter(
        lambda b: edit != "substitute" or b != raw[at]))
    edited = path.with_name(f"edited-{kind}.csv")
    edited.write_bytes(_edit(raw, edit, at, byte))
    if edit == "substitute" and at in spots and byte in b"01":
        row, col = spots[at]
        bits[row, col] ^= 1
        np.testing.assert_array_equal(read_bits(edited), bits)
    else:
        with pytest.raises(PolicyFileError):
            read_bits(edited)


def test_reader_rejects_text_no_writer_writes(tmp_path):
    # Each variant still parses as integer rows, but no writer writes it.
    net, path = _saved_mixed(tmp_path)
    text = path.read_text()
    lines = text.split("\n")  # lines[4] is row (0, 0), lines[5] row (0, 1)

    def with_line(i, line):
        return "\n".join(lines[:i] + [line] + lines[i + 1:])

    variants = {  # name: (file text, what the error names)
        "space after a comma": (with_line(4, lines[4].replace(",", ", ", 1)), "line 5 "),
        "leading +": (with_line(5, lines[5].replace(",", ",+", 1)), "line 6 "),
        "leading zero": (with_line(5, lines[5].replace(",", ",0", 1)), "line 6 "),
        "CRLF line ends": (text.replace("\n", "\r\n"), r"found '# aoisched-mixed-policy v2\\r'"),
        "trailing blank line": (text + "\n", f"line {len(lines)} "),
    }
    for name, (variant, match) in variants.items():
        assert variant != text, name
        path.write_bytes(variant.encode())
        with pytest.raises(PolicyFileError, match=match):
            load_mixed_policies(path, net)
