"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The heavyweight fixtures (the production-scale solves and simulations)
are shared across criteria 6-8.
"""

import filecmp
import time

import numpy as np
import pytest
from oracles import (
    PerSensorState,
    best_deterministic_policy,
    finite_horizon_joint_cost,
    model_kernel,
    ordering_inputs,
    random_tiny_network,
)

import aoisched.model
from aoisched import (
    NetworkConfig,
    SensorParams,
    SimConfig,
    build_relaxed_fleet_policy,
    check_gap_bound,
    check_ordering,
    check_sqrt_k_mad,
    policy_structure_report,
    proposal_spread,
    run_experiment,
    sensor_model,
    slot_step,
    solve_exact,
    solve_per_sensor,
    solve_relaxed,
)
from aoisched.cli import main as cli_main
from aoisched.runtime_policies import GreedyFleetPolicy

TINY1 = SensorParams(harvest_rate=0.5, battery_capacity=1, request_probs=(0.5,))
TINY2_SENSOR = SensorParams(harvest_rate=1.0, battery_capacity=1, request_probs=(1.0,))
TINY2 = NetworkConfig(2, 1, 1, 3, (TINY2_SENSOR, TINY2_SENSOR))

HARVEST_SET = tuple(round(0.01 * i, 2) for i in range(1, 11))

FIG2_EPISODES = 10
FIG2_HORIZON = 100_000


def _verdict(number: int, name: str, ok: bool, detail: str):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _paper_network(num_sensors: int, budget: int) -> NetworkConfig:
    sensors = tuple(
        SensorParams(HARVEST_SET[k % 10], 7, (0.6, 0.6, 0.6))
        for k in range(num_sensors)
    )
    return NetworkConfig(num_sensors, 3, budget, 64, sensors)


@pytest.fixture(scope="module")
def paper_solutions():
    nets = {40: _paper_network(40, 1), 800: _paper_network(800, 20)}
    return {k: (net, solve_relaxed(net)) for k, net in nets.items()}


@pytest.fixture(scope="module")
def fig2_runs(paper_solutions):
    runs = {}
    for k, (net, solution) in paper_solutions.items():
        sim = SimConfig(
            network=net, horizon=FIG2_HORIZON, episodes=FIG2_EPISODES, seed=2_022
        )
        runs[k] = {
            "net": net,
            "solution": solution,
            "rtt": run_experiment(
                sim, build_relaxed_fleet_policy(net, solution.policies, True)
            ),
            "greedy": run_experiment(
                sim, GreedyFleetPolicy(net.budget, net.num_sensors)
            ),
        }
    return runs


def test_criterion_1_kernel_sanity():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        sensor = SensorParams(
            harvest_rate=float(rng.uniform(0, 1)),
            battery_capacity=int(rng.integers(1, 6)),
            request_probs=tuple(rng.uniform(0, 1, int(rng.integers(1, 4)))),
        )
        delta_max = int(rng.integers(2, 13))
        model = sensor_model(sensor, delta_max)
        pmf = model.request_dist
        for action in (0, 1):
            # The kernel over (requests, battery, age) is pmf(r') Q_a(x, x').
            full = np.kron(np.tile(pmf, (pmf.size, 1)), model_kernel(model, action))
            rows = full.sum(axis=1)
            worst = max(worst, float(np.abs(rows - 1.0).max()))
            np.testing.assert_array_equal(
                model.cost_vector(action),
                model.requests_of
                * slot_step(model.battery_of, model.age_of, action, 0,
                            sensor.battery_capacity, delta_max)[2],
            )
    aoisched.model.sensor_model.cache_clear()
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        "kernel-sanity",
        worst <= 1e-12 and elapsed < 10,
        f"1000 instances, worst row-sum error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    gaps = []
    for mu in (0.0, 0.5, 2.0):
        oracle_value, _ = best_deterministic_policy(TINY1, 2, mu)
        solved = solve_per_sensor(TINY1, 2, mu).avg_lagrangian
        gaps.append(abs(solved - oracle_value))
    elapsed = time.perf_counter() - started
    _verdict(
        2,
        "oracle-equivalence",
        max(gaps) <= 1e-6 and elapsed < 5,
        f"256-policy enumeration at mu in (0, 0.5, 2): max gap {max(gaps):.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_exact_solver_tiny2():
    started = time.perf_counter()
    _, result = solve_exact(TINY2)
    start = (PerSensorState(1, 1, 1), PerSensorState(1, 1, 1))
    dp_value = finite_horizon_joint_cost(TINY2, 30, start)
    elapsed = time.perf_counter() - started
    ok = (
        abs(result.avg_cost - 1.5) <= 1e-6
        and abs(dp_value - 1.5) <= 1e-6
        and elapsed < 30
    )
    _verdict(
        3,
        "exact-solver-tiny2",
        ok,
        f"solver {result.avg_cost:.8f}, horizon-30 oracle {dp_value:.8f}, {elapsed:.1f}s",
    )


def test_criterion_4_structure_sweep():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    value_failures = threshold_failures = 0
    for _ in range(50):
        sensor = SensorParams(
            harvest_rate=float(rng.uniform(0.05, 0.95)),
            battery_capacity=int(rng.integers(1, 6)),
            request_probs=tuple(rng.uniform(0.05, 0.95, int(rng.integers(1, 4)))),
        )
        delta_max = int(rng.integers(4, 17))
        mu = float(rng.uniform(0.01, 8.0))
        solved = solve_per_sensor(sensor, delta_max, mu)
        report = policy_structure_report(
            sensor, delta_max, solved.policy, values=solved.rel_values
        )
        value_failures += not report.value_monotone_in_age
        threshold_failures += not report.age_threshold
    elapsed = time.perf_counter() - started
    _verdict(
        4,
        "structure-theorems",
        value_failures == 0 and threshold_failures == 0 and elapsed < 120,
        f"50 solves: {value_failures} value-monotonicity and "
        f"{threshold_failures} age-threshold violations, {elapsed:.1f}s",
    )


def test_criterion_5_ordering_chain():
    started = time.perf_counter()
    rng = np.random.default_rng(505)
    holds = 0
    details = []
    for i in range(10):
        net = random_tiny_network(rng)
        report = check_ordering(
            *ordering_inputs(net, horizon=100_000, episodes=10, seed=int(rng.integers(1 << 30)))
        )
        holds += report.holds
        if not report.holds:
            details.append(f"instance {i}: {report.describe()}")
    elapsed = time.perf_counter() - started
    _verdict(
        5,
        "ordering-chain",
        holds == 10 and elapsed < 600,
        f"{holds}/10 instances hold, {elapsed:.0f}s" + ("; " + "; ".join(details) if details else ""),
    )


def test_criterion_6_budget_calibration(paper_solutions):
    net, solution = paper_solutions[40]
    gap = abs(solution.command_rate - net.gamma)
    _verdict(
        6,
        "budget-calibration",
        solution.constraint_active and gap <= 1e-4,
        f"active={solution.constraint_active}, |rate - 0.025| = {gap:.2e}",
    )


def test_criterion_7_fig2_reproduction(fig2_runs):
    details = []
    ok = True
    gaps = {}
    for k in (40, 800):
        run = fig2_runs[k]
        rtt, greedy = run["rtt"], run["greedy"]
        allowance = 3.0 * float(np.hypot(rtt.cost_se, 0.6 * greedy.cost_se))
        ratio_ok = rtt.cost_mean <= 0.6 * greedy.cost_mean + allowance
        ok &= ratio_ok
        gaps[k] = (
            rtt.cost_mean - run["solution"].avg_cost,
            rtt.cost_se,
        )
        details.append(
            f"K={k}: rtt/greedy = {rtt.cost_mean / greedy.cost_mean:.3f}"
        )
    gap_noise = 3.0 * float(np.hypot(gaps[40][1], gaps[800][1]))
    shrinking = gaps[800][0] <= gaps[40][0] + gap_noise
    ok &= shrinking
    details.append(f"gap K=40 {gaps[40][0]:.3f} -> K=800 {gaps[800][0]:.3f}")

    _, mad = proposal_spread(fig2_runs[800]["solution"])
    scaling = check_sqrt_k_mad(800, mad)
    ok &= scaling.holds
    details.append(f"MAD/sqrt(K) at K=800 = {scaling.ratio:.3f}")
    _verdict(7, "fig2-reproduction", ok, "; ".join(details))


def test_criterion_8_gap_bound(fig2_runs):
    details = []
    ok = True
    for k in (40, 800):
        run = fig2_runs[k]
        report = check_gap_bound(
            run["net"].delta_max,
            run["net"].budget,
            run["solution"].avg_cost,
            run["rtt"],
            proposal_spread(run["solution"])[1],
        )
        ok &= report.holds
        details.append(f"K={k}: {report.describe()}")
    _verdict(8, "truncation-gap-bound", ok, "; ".join(details))


def test_criterion_9_normal_mad():
    draws = np.random.default_rng(909).standard_normal(1_000_000)
    mad = float(np.abs(draws - draws.mean()).mean())
    target = float(np.sqrt(2.0 / np.pi))
    _verdict(
        9,
        "normal-mad",
        abs(mad - target) <= 0.005,
        f"sample MAD {mad:.5f} vs sqrt(2/pi) = {target:.5f}",
    )


def test_criterion_10_byte_determinism(tmp_path):
    config_text = (
        "K = 10\nN = 1\ngamma = 0.1\ndelta_max = 2\nbattery = 1\n"
        "harvest = 0.5\nrequest_prob = 0.5\npolicies = rtt,greedy,relaxed\n"
        "horizon = 3000\nepisodes = 2\nseed = 4\n"
    )
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_text)
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["solve-relaxed", "--config", str(cfg), "--out", str(out)]) == 0
        assert (
            cli_main(
                [
                    "simulate",
                    "--config", str(cfg),
                    "--out", str(out),
                    "--relaxed-policy", str(out / "relaxed_policy.csv"),
                ]
            )
            == 0
        )
    same_results = filecmp.cmp(
        tmp_path / "first" / "results.csv",
        tmp_path / "second" / "results.csv",
        shallow=False,
    )
    same_policy = filecmp.cmp(
        tmp_path / "first" / "relaxed_policy.csv",
        tmp_path / "second" / "relaxed_policy.csv",
        shallow=False,
    )
    _verdict(
        10,
        "byte-determinism",
        same_results and same_policy,
        f"results identical={same_results}, policy file identical={same_policy}",
    )
