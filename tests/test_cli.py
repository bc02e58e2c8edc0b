"""CLI tests: config round-trip, subcommand flows, and output determinism."""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoisched
from aoisched.cli import (
    ExperimentSpec,
    build_network,
    config_hash,
    main,
    parse_spec,
    serialize_spec,
)

TINY_CONFIG = """
# two-sensor toy instance
K = 2
N = 1
M = 1
delta_max = 3
battery = 1
harvest = 1.0
request_prob = 1.0
policies = rtt,greedy
horizon = 2000
episodes = 2
seed = 99
"""

SMALL_FLEET = """
K = 10
N = 1
gamma = 0.1
delta_max = 2
battery = 1
harvest = 0.5
request_prob = 0.5
policies = rtt,greedy,relaxed
horizon = 3000
episodes = 2
seed = 4
"""


def test_spec_round_trip():
    spec = parse_spec(TINY_CONFIG)
    assert parse_spec(serialize_spec(spec)) == spec
    assert config_hash(spec) == config_hash(parse_spec(serialize_spec(spec)))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize(
    "name, digest",
    [
        ("fig2a.cfg", "ba79c42979f7"),
        ("fig2b.cfg", "7ea7930380ec"),
        ("sweep_gamma025.cfg", "c8c4d29861b7"),
        ("tiny2.cfg", "9fcb38de733f"),
    ],
)
def test_checked_in_config_hashes(name, digest):
    # results.csv rows are traced back to their config by this hash
    spec = parse_spec((CONFIGS / name).read_text())
    assert config_hash(spec) == digest
    assert parse_spec(serialize_spec(spec)) == spec


def test_spec_round_trip_lists():
    spec = parse_spec(
        "K = 3\nN = 2\nM = 1\ndelta_max = 4\nbattery = 1,2,3\n"
        "harvest = 0.1,0.5,1.0\nrequest_prob = 0.25,0.75\nsweep_K = 6\nharvest_set = 0.3\n"
    )
    assert spec.battery == (1, 2, 3)
    assert spec.harvest == (0.1, 0.5, 1.0)
    assert spec.request_prob == (0.25, 0.75)
    assert spec.sweep_sensors == (6,)
    assert spec.harvest_set == (0.3,)
    assert parse_spec(serialize_spec(spec)) == spec
    net = build_network(spec)
    assert [s.battery_capacity for s in net.sensors] == [1, 2, 3]
    assert net.sensors[2].request_probs == (0.25, 0.75)


@pytest.mark.parametrize("line", ["policies = ,", "battery = ,"])
def test_spec_rejects_empty_values(line):
    # an empty value would serialize to no line and reparse as the default
    key = line.split()[0]
    with pytest.raises(ValueError, match=f"line 5: no value for '{key}'"):
        parse_spec(f"K = 2\nN = 1\nM = 1\ndelta_max = 3\n{line}\n")


def test_spec_requires_exactly_one_budget_form():
    with pytest.raises(ValueError):
        parse_spec("K = 2\nN = 1\ndelta_max = 3\n")
    with pytest.raises(ValueError):
        parse_spec("K = 2\nN = 1\nM = 1\ngamma = 0.5\ndelta_max = 3\n")


def test_spec_rejects_unknown_keys():
    # solver tolerances are fixed constants, the price search has no width
    # to set, and the solve runs in one thread
    for line in ("bogus = 1", "theta = 1e-7", "epsilon = 1e-4", "eta_tol = 1e-6", "threads = 2"):
        with pytest.raises(ValueError, match="unknown config keys"):
            parse_spec(TINY_CONFIG + f"\n{line}\n")


def test_spec_gamma_must_give_integer_budget():
    spec = parse_spec("K = 3\nN = 1\ngamma = 0.5\ndelta_max = 3\n")
    with pytest.raises(ValueError):
        build_network(spec)


def test_build_network_round_robin():
    spec = parse_spec("K = 12\nN = 2\nM = 1\ndelta_max = 4\nharvest = round_robin\n")
    net = build_network(spec)
    rates = [s.harvest_rate for s in net.sensors]
    assert rates[:3] == [0.01, 0.02, 0.03]
    assert rates[10] == 0.01  # wraps after ten entries
    assert all(s.num_users == 2 for s in net.sensors)


def _write_config(tmp_path: Path, text: str) -> Path:
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


def test_solve_and_simulate_flow(tmp_path):
    cfg = _write_config(tmp_path, SMALL_FLEET)
    out = tmp_path / "run"
    assert main(["solve-relaxed", "--config", str(cfg), "--out", str(out)]) == 0
    policy_file = out / "relaxed_policy.csv"
    assert policy_file.exists()
    code = main(
        [
            "simulate",
            "--config", str(cfg),
            "--out", str(out),
            "--relaxed-policy", str(policy_file),
        ]
    )
    assert code == 0
    results = (out / "results.csv").read_text().splitlines()
    assert results[0].startswith("config,build,policy,K,M,gamma")
    assert len(results) == 4  # header + rtt + greedy + relaxed


def test_relaxed_flow_after_bracket_end_replaced(tmp_path):
    # This solve moves the lower bracket end off price 0 to a breakpoint
    # price, which the policy file must carry as a plain number.
    cfg = _write_config(tmp_path, SMALL_FLEET.replace("delta_max = 2", "delta_max = 4"))
    out = tmp_path / "run"
    assert main(["solve-relaxed", "--config", str(cfg), "--out", str(out)]) == 0
    policy_file = out / "relaxed_policy.csv"
    meta = dict(t.split("=", 1) for t in policy_file.read_text().splitlines()[2][2:].split())
    assert float(meta["mu_minus"]) > 0.0
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--policy", "relaxed", "--relaxed-policy", str(policy_file)]) == 0


def test_simulate_greedy_needs_no_policy_file(tmp_path):
    cfg = _write_config(tmp_path, TINY_CONFIG)
    out = tmp_path / "run"
    code = main(
        ["simulate", "--config", str(cfg), "--out", str(out), "--policy", "greedy"]
    )
    assert code == 0


def test_simulate_missing_policy_file_errors(tmp_path):
    cfg = _write_config(tmp_path, TINY_CONFIG)
    code = main(
        ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x"), "--policy", "rtt"]
    )
    assert code == 1


def test_solve_exact_flow_and_cap_message(tmp_path, capsys):
    cfg = _write_config(tmp_path, TINY_CONFIG)
    out = tmp_path / "run"
    assert main(["solve-exact", "--config", str(cfg), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "avg_cost = 1.5" in printed

    big = _write_config(tmp_path, TINY_CONFIG.replace("K = 2", "K = 8"))
    code = main(["solve-exact", "--config", str(big), "--out", str(out)])
    assert code == 1
    assert "relaxed" in capsys.readouterr().err


def test_simulate_exact_policy(tmp_path):
    cfg = _write_config(tmp_path, TINY_CONFIG)
    out = tmp_path / "run"
    assert main(["solve-exact", "--config", str(cfg), "--out", str(out)]) == 0
    code = main(
        [
            "simulate",
            "--config", str(cfg),
            "--out", str(out),
            "--policy", "exact",
            "--exact-policy", str(out / "exact_policy.csv"),
        ]
    )
    assert code == 0
    rows = (out / "results.csv").read_text().splitlines()
    fields = rows[1].split(",")
    assert fields[2] == "exact"
    # TINY2 dynamics are deterministic: the measured cost sits at the optimum
    # plus the empty-battery start transient.
    assert float(fields[9]) == pytest.approx(1.5, abs=2e-3)


def test_byte_identical_reruns(tmp_path):
    cfg = _write_config(tmp_path, SMALL_FLEET)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["solve-relaxed", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(
            [
                "simulate",
                "--config", str(cfg),
                "--out", str(out),
                "--relaxed-policy", str(out / "relaxed_policy.csv"),
            ]
        ) == 0
        outs.append(out)
    assert filecmp.cmp(outs[0] / "results.csv", outs[1] / "results.csv", shallow=False)
    assert filecmp.cmp(
        outs[0] / "relaxed_policy.csv", outs[1] / "relaxed_policy.csv", shallow=False
    )


def test_analyze_small_instance(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_FLEET)
    code = main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "a")])
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert "PASS budget-calibration" in printed or "INFO budget-calibration" in printed
    assert "PASS age-threshold" in printed
    assert "PASS truncation-gap-bound" in printed


@pytest.mark.parametrize("text", [TINY_CONFIG, SMALL_FLEET], ids=["tiny", "small-fleet"])
def test_analyze_simulates_each_policy_once(tmp_path, monkeypatch, capsys, text):
    # The ordering chain (run on TINY_CONFIG, skipped on SMALL_FLEET's 8^10
    # joint states) and the gap bound read the same rtt run; the proposal
    # spread is the relaxed policy's exact law, so no relaxed run is made.
    calls = []
    simulate = aoisched.cli.run_experiment

    def counting(config, policy):
        calls.append(policy)
        return simulate(config, policy)

    monkeypatch.setattr("aoisched.cli.run_experiment", counting)
    # A simulation run inside the checks themselves would count too.
    monkeypatch.setattr("aoisched.analysis.run_experiment", counting, raising=False)
    cfg = _write_config(tmp_path, text)
    code = main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "a")])
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert len(calls) == 1, [type(p).__name__ for p in calls]
    assert "truncation-gap-bound" in printed


def test_analyze_paper_scale_skips_the_exact_solve(tmp_path, capsys):
    # fig2a's 2**440 joint states wrapped to 0 in an int64 product, so the
    # exact solve ran and failed; the exact count skips it.
    text = (CONFIGS / "fig2a.cfg").read_text()
    text = text.replace("horizon = 100000", "horizon = 2000")
    text = text.replace("episodes = 10", "episodes = 2")
    assert "horizon = 2000\n" in text and "episodes = 2\n" in text
    cfg = _write_config(tmp_path, text)
    code = main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "a")])
    printed = capsys.readouterr().out
    assert code == 0, printed
    assert "INFO ordering-chain skipped: more than 50000 joint states" in printed


def test_region_map(tmp_path, capsys):
    cfg = _write_config(tmp_path, SMALL_FLEET)
    out = tmp_path / "run"
    main(["solve-relaxed", "--config", str(cfg), "--out", str(out)])
    code = main(
        [
            "region-map",
            "--config", str(cfg),
            "--out", str(out),
            "--policy-file", str(out / "relaxed_policy.csv"),
            "--sensor", "0",
            "--requests", "0",
        ]
    )
    assert code == 0
    maps = list(out.glob("region_sensor0_r0_lower.csv"))
    assert maps
    body = maps[0].read_text().splitlines()
    grid_rows = [line for line in body if not line.startswith(("#", "battery"))]
    # nobody asked: never commanded, whole slice is zero
    assert all(set(row.split(",")[1:]) == {"0"} for row in grid_rows)


def test_sweep(tmp_path):
    text = SMALL_FLEET + "sweep_K = 10,20\n"
    cfg = _write_config(tmp_path, text)
    out = tmp_path / "run"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 3  # header + 2 grid points x 3 policies


def test_module_entry_point(tmp_path):
    # `python -m aoisched.cli` runs the same commands as the aoisched script
    env = dict(os.environ)
    src = str(Path(aoisched.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "aoisched.cli", "solve-exact",
         "--config", str(CONFIGS / "tiny2.cfg"), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "avg_cost = 1.5" in proc.stdout
    assert (out / "exact_policy.csv").exists()
