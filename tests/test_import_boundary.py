"""scipy is loaded by the relaxed solver's factorisation only.

Simulating saved tables needs numpy alone: importing the package and its
CLI, loading a policy file, building the runtime fleet and simulating must
leave ``scipy.sparse`` unimported, and the first relaxed solve imports it.
The check runs in a fresh interpreter, because pytest itself imports
``scipy.sparse`` at startup (pyproject's ``filterwarnings`` names its
warning classes).
"""

import os
import subprocess
import sys
from pathlib import Path

import aoisched
from aoisched import NetworkConfig, SensorParams, solve_relaxed
from aoisched.policy_io import save_mixed_policies

TINY1 = SensorParams(harvest_rate=0.5, battery_capacity=1, request_probs=(0.5,))

SCRIPT = """
import sys
import aoisched
import aoisched.cli
from aoisched import (NetworkConfig, SensorParams, SimConfig, build_relaxed_fleet_policy,
                      run_experiment, solve_relaxed)
from aoisched.policy_io import load_mixed_policies

net = NetworkConfig(10, 1, 2, 2, (SensorParams(0.5, 1, (0.5,)),) * 10)
mixed, _ = load_mixed_policies(sys.argv[1], net)
rtt = build_relaxed_fleet_policy(net, mixed, truncate_to_budget=True)
run_experiment(SimConfig(network=net, horizon=50, episodes=2, seed=1), rtt)
assert "scipy.sparse" not in sys.modules, "simulating saved tables imported scipy.sparse"
solve_relaxed(net)
assert "scipy.sparse" in sys.modules, "the relaxed solve did not import scipy.sparse"
print("ok")
"""


def test_simulating_saved_tables_leaves_scipy_sparse_unimported(tmp_path):
    net = NetworkConfig(10, 1, 2, 2, (TINY1,) * 10)  # the script's network
    path = tmp_path / "relaxed_policy.csv"
    save_mixed_policies(path, net, solve_relaxed(net))
    env = dict(os.environ)
    src = str(Path(aoisched.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
