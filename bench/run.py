"""aoisched benchmark: cold relaxed solves, the policy hand-off and the
Monte Carlo comparison of rtt, greedy and the pure relaxed policy.

    python3 bench/run.py --workload paper-k40 --seed 1 --seconds 40 --trace 0

Each workload is closed-loop batch compute in one process and one thread: the
benchmark calls the package and waits for every call to return. A run repeats
one round until ``--seconds`` have passed (at least ``MIN_ROUNDS`` rounds) and
reports medians over rounds. A round is

1. ``repeat`` cold ``solve_relaxed`` calls on the workload's solve instance
   (every cache in ``aoisched.model`` and ``aoisched.relaxed_solver`` is
   cleared before each);
2. one hand-off of the paper's solved tables at K=800 (``configs/fig2b.cfg``):
   ``save_mixed_policies``, ``load_mixed_policies`` and
   ``build_relaxed_fleet_policy`` for rtt and relaxed;
3. ``repeat`` runs of ``run_experiment`` for each of rtt, greedy and relaxed
   on the workload's fleet.

The paper tables come from ``bench/data/fig2a_tables.npz`` (see
``make_fixture.py``), so the simulation timings never include a solve. With
``--trace 1`` the same rounds run with spans around the calls into each layer,
and the per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every output check
(bounds, budget, replay, round-trip) counts as one attempted operation.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURE = BENCH / "data" / "fig2a_tables.npz"
OUT = ROOT / ".bench_out"
if not (ROOT / "src" / "aoisched").is_dir():
    sys.exit(f"aoisched sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer  # noqa: E402

# Every timed region is measured in process CPU time. The benchmark runs one
# thread, so on an unshared core this equals wall time; on a shared host it
# leaves out the time the host gives the core to others, which made wall-time
# medians differ by 10-30 % between runs here. Wall times are kept as
# ``wall.<metric>`` in the result file.
CLOCK = time.process_time
MIN_ROUNDS = 3
SETUP_PROBES = 5
LOWER_BOUND_TOL = 1e-6
RATE_TOL = 1e-4
REPLAY_HORIZON = 256
POLICIES = ("rtt", "greedy", "relaxed")
FIXTURE_CLASSES = 10
FIXTURE_STATES = 2048


@dataclass(frozen=True)
class SolveInstance:
    """A relaxed-solve input: the fleet shape and its reference lower bound."""

    num_sensors: int
    budget: int
    delta_max: int
    battery: int
    harvest: tuple[float, ...]  # assigned round-robin
    lower_bound: float  # from the package at the commit that added the benchmark


@dataclass(frozen=True)
class Workload:
    name: str
    solve: SolveInstance
    fleet_config: str  # configs/<name>: the fleet the paper tables drive
    horizon: int
    episodes: int
    repeat: int  # solves and simulation triples per round (one hand-off per round)


# The hand-off is timed at K=800 on every workload: a 20 MB policy file. At
# K=40 (1 MB) its time swung by a third with the host's speed from run to run.
HANDOFF_CONFIG = "fig2b.cfg"


WORKLOADS = {
    w.name: w
    for w in (
        # Paper-shaped solve (value-iteration sweeps about 80 % of it) and the
        # K=40 fleet, where per-episode Python loops in decide dominate.
        Workload(
            name="paper-k40",
            solve=SolveInstance(40, 1, 12, 7, (0.05,), 6.100032528927486),
            fleet_config="fig2a.cfg",
            horizon=1024,
            episodes=10,
            repeat=3,
        ),
        # Big-battery solve (sparse stationary solves about 60 % of it) and the
        # K=800 fleet: vectorised per-sensor work and RNG draws.
        Workload(
            name="bigbattery-k800",
            solve=SolveInstance(20, 1, 8, 63, (0.9,), 3.819998660157036),
            fleet_config="fig2b.cfg",
            horizon=1024,
            episodes=4,
            repeat=2,
        ),
    )
}


def load_spec_network(name: str):
    """The network a config file under ``configs/`` describes."""
    from aoisched.cli import build_network, parse_spec

    return build_network(parse_spec((ROOT / "configs" / name).read_text()))


def solve_network(instance: SolveInstance):
    from aoisched import NetworkConfig, SensorParams

    sensors = tuple(
        SensorParams(instance.harvest[k % len(instance.harvest)], instance.battery, (0.6,) * 3)
        for k in range(instance.num_sensors)
    )
    return NetworkConfig(instance.num_sensors, 3, instance.budget, instance.delta_max, sensors)


def solver_patch(tracer: Tracer) -> ExitStack:
    """Trace every per-class solve and stationary evaluation of the solver."""
    from aoisched import relaxed_solver

    def count_sweeps(result):
        tracer.counts["relaxed_solver.sweeps"] += result.iterations

    stack = ExitStack()
    for attr, on_result in (("solve_per_sensor", count_sweeps), ("evaluate_per_sensor", None)):
        wrapper = tracer.wrap(getattr(relaxed_solver, attr), f"relaxed_solver.{attr}", on_result)
        stack.enter_context(mock.patch.object(relaxed_solver, attr, wrapper))
    return stack


def solver_layer_metrics(counts: dict, busy: dict, solution, classes: int,
                         solve_s: float) -> dict:
    """Per-layer figures of one traced solve; the counts are exact."""
    solves = int(counts["relaxed_solver.solve_per_sensor"])
    sweeps = int(counts["relaxed_solver.sweeps"])
    evals = int(counts["relaxed_solver.evaluate_per_sensor"])
    solve_busy = busy["relaxed_solver.solve_per_sensor"]
    eval_busy = busy["relaxed_solver.evaluate_per_sensor"]
    return {
        "relaxed_solver.prices": len(solution.lagrange.evaluations),
        "relaxed_solver.class_solves": solves,
        "relaxed_solver.sweeps": sweeps,
        "relaxed_solver.class_solve_s": solve_busy,
        "relaxed_solver.us_per_sweep": 1e6 * solve_busy / sweeps,
        "relaxed_solver.evaluations": evals,
        "relaxed_solver.evaluate_s": eval_busy,
        "relaxed_solver.ms_per_evaluation": 1e3 * eval_busy / evals,
        "relaxed_solver.eta_steps": (evals - solves) / classes,
        "relaxed_solver.other_s": solve_s - solve_busy - eval_busy,
    }


def clear_package_caches() -> None:
    """Empty every functools cache of the model and the solver: a cold solve."""
    from aoisched import model, relaxed_solver

    for module in (model, relaxed_solver):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


class Timer:
    """CPU and wall seconds of the block it wraps."""

    def __enter__(self):
        self._cpu, self._wall = CLOCK(), time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.cpu = CLOCK() - self._cpu
        self.wall = time.perf_counter() - self._wall
        return False


class Checks:
    """Output checks; each one is an attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# ---------------------------------------------------------------- setup


@dataclass
class Setup:
    workload: Workload
    solve_net: object
    fleet_net: object
    fleet: dict  # runtime policies built from the fixture, by name
    lower_bound: float  # of the paper tables
    handoff_net: object
    handoff_solution: object  # the paper tables as a RelaxedSolution for handoff_net
    kernel_build_s: float
    classes: int
    states_per_class: float


def load_fixture(fleet_net):
    """Paper tables from the fixture, expanded to the fleet (sensor k -> class k mod 10)."""
    from aoisched import LagrangeSolve, MixedPolicy, PolicyTable, RelaxedSolution

    with np.load(FIXTURE, allow_pickle=False) as data:
        fx = {key: data[key] for key in data.files}
    expected = (FIXTURE_CLASSES, FIXTURE_STATES)
    for key in ("lower", "upper"):
        if fx[key].shape != expected:
            raise ValueError(f"fixture {key} tables have shape {fx[key].shape}, not {expected}")
    for k, sensor in enumerate(fleet_net.sensors):
        if sensor.harvest_rate != fx["harvest"][k % FIXTURE_CLASSES]:
            raise ValueError(f"sensor {k} does not match fixture class {k % FIXTURE_CLASSES}")
    eta = float(fx["eta"])
    mu_minus, mu_plus = float(fx["mu_minus"]), float(fx["mu_plus"])
    classes = [
        MixedPolicy(PolicyTable(lo, mu_minus), PolicyTable(up, mu_plus), eta)
        for lo, up in zip(fx["lower"], fx["upper"])
    ]
    lagrange = LagrangeSolve(
        mu_star=float(fx["mu_star"]), mu_minus=mu_minus, mu_plus=mu_plus, evaluations=(),
        per_sensor_rel_values=(), per_sensor_lagrangians=(), per_sensor_rates=(),
        dual_bound=float("nan"),
    )
    return RelaxedSolution(
        policies=tuple(classes[k % FIXTURE_CLASSES] for k in range(fleet_net.num_sensors)),
        mu_star=float(fx["mu_star"]), eta=eta, avg_cost=float(fx["lower_bound"]),
        command_rate=float(fx["command_rate"]), constraint_active=True, lagrange=lagrange,
        per_sensor_cost_rates=(), per_sensor_command_rates=(),
    )


def setup(workload: Workload) -> Setup:
    """Everything before the first timed call: networks, kernels, fixture, fleet."""
    from aoisched import build_relaxed_fleet_policy, sensor_classes, sensor_model
    from aoisched.runtime_policies import GreedyFleetPolicy

    fleet_net = load_spec_network(workload.fleet_config)
    handoff_net = load_spec_network(HANDOFF_CONFIG)
    classes = sensor_classes(fleet_net)[0]
    started = CLOCK()
    states = [sensor_model(c, fleet_net.delta_max).num_states for c in classes]
    kernel_build_s = CLOCK() - started
    tables = load_fixture(fleet_net)
    fleet = {
        name: build_relaxed_fleet_policy(fleet_net, tables.policies, name == "rtt")
        for name in ("rtt", "relaxed")
    }
    fleet["greedy"] = GreedyFleetPolicy(fleet_net.budget, fleet_net.num_sensors)
    return Setup(
        workload=workload,
        solve_net=solve_network(workload.solve),
        fleet_net=fleet_net,
        fleet=fleet,
        lower_bound=tables.avg_cost,
        handoff_net=handoff_net,
        handoff_solution=load_fixture(handoff_net),
        kernel_build_s=kernel_build_s,
        classes=len(classes),
        states_per_class=float(np.mean(states)),
    )


def probe_setup_s(workload: Workload) -> tuple[list[float], list[float]]:
    """CPU and wall seconds from interpreter start to ready, each in a fresh
    process (imports cannot be repeated in one)."""
    cpu, wall = [], []
    for _ in range(SETUP_PROBES):
        started = time.time()
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload.name, "--probe-setup"],
            check=True, capture_output=True, text=True, timeout=120,
        )
        ready = json.loads(out.stdout.splitlines()[-1])
        cpu.append(ready["cpu"])
        wall.append(ready["wall"] - started)
    return cpu, wall


# ---------------------------------------------------------------- phases


def run_solve(st: Setup, checks: Checks, tracer: Tracer | None) -> dict:
    from aoisched import solve_relaxed
    from aoisched.relaxed_solver import DEFAULT_THETA

    net = st.solve_net
    clear_package_caches()
    if tracer is None:
        with Timer() as timer:
            solution = solve_relaxed(net)
        out = {}
    else:
        mark = tracer.mark()
        with solver_patch(tracer), Timer() as timer:
            solution = tracer.call("relaxed_solver.solve_relaxed", solve_relaxed, net)
        out = solver_layer_metrics(*tracer.since(mark), solution,
                                   len(st.workload.solve.harvest), timer.cpu)
    reference = st.workload.solve.lower_bound
    checks.expect(abs(solution.avg_cost - reference) <= LOWER_BOUND_TOL,
                  f"lower bound {solution.avg_cost!r} vs reference {reference!r}")
    checks.expect(
        solution.constraint_active and abs(solution.command_rate - net.gamma) <= RATE_TOL,
        f"command rate {solution.command_rate!r} vs gamma {net.gamma!r}",
    )
    # The lower bound is the mixture's exact cost at its calibrated rate, which
    # may exceed gamma by up to eta_tol. Weak duality then only gives
    # dual <= lower bound + mu * (rate - gamma) / N for every price mu tried
    # near the optimum, plus the value-iteration tolerance theta.
    excess = max(0.0, solution.command_rate - net.gamma)
    slack = solution.lagrange.mu_plus * excess / net.num_users + DEFAULT_THETA
    checks.expect(solution.lagrange.dual_bound <= solution.avg_cost + slack,
                  f"dual bound {solution.lagrange.dual_bound!r} above {solution.avg_cost!r}")
    return {"solve_s": timer.cpu, "wall.solve_s": timer.wall, **out}


def run_handoff(st: Setup, checks: Checks, tracer: Tracer | None) -> dict:
    """Save, load and build the K=800 runtime policies; returns the timings."""
    from aoisched import build_relaxed_fleet_policy
    from aoisched.policy_io import load_mixed_policies, save_mixed_policies

    net, solution = st.handoff_net, st.handoff_solution
    call = (lambda name, fn, *a: fn(*a)) if tracer is None else tracer.call
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        path = Path(tmp) / "relaxed_policy.csv"
        with Timer() as timer:
            t0 = CLOCK()
            call("policy_io.save", save_mixed_policies, path, net, solution)
            t1 = CLOCK()
            policies, meta = call("policy_io.load", load_mixed_policies, path, net)
            t2 = CLOCK()
            for truncate in (True, False):
                call("runtime_policies.build", build_relaxed_fleet_policy, net, policies,
                     truncate)
            t3 = CLOCK()
        file_bytes = path.stat().st_size
    same = all(
        np.array_equal(a.lower.actions, b.lower.actions)
        and np.array_equal(a.upper.actions, b.upper.actions) and a.eta == b.eta
        for a, b in zip(solution.policies, policies)
    )
    checks.expect(same and len(policies) == net.num_sensors, "policy file round trip")
    return {
        "handoff_s": t3 - t0,
        "wall.handoff_s": timer.wall,
        "policy_io.save_s": t1 - t0,
        "policy_io.load_s": t2 - t1,
        "policy_io.file_bytes": file_bytes,
        "runtime_policies.build_s": t3 - t2,
    }


class DecideProbe:
    """Wraps one policy object's decide: span per call, proposals and budget seen."""

    def __init__(self, policy, tracer: Tracer | None, span: str):
        self.policy = policy
        self.calls = 0
        self.overflow = 0
        self.max_commands = 0
        inner = policy.decide
        budget = policy.budget

        def decide(*args):
            if tracer is None:
                actions, proposals = inner(*args)
            else:
                actions, proposals = tracer.call(span, inner, *args)
            self.calls += 1
            if budget is not None:
                self.overflow += int(np.count_nonzero(proposals > budget))
            self.max_commands = max(self.max_commands, int(actions.sum(axis=1).max()))
            return actions, proposals

        policy.decide = decide

    def close(self):
        del self.policy.decide


def run_sims(st: Setup, seed: int, checks: Checks, tracer: Tracer | None) -> dict:
    from aoisched import SimConfig, run_experiment

    wl, net = st.workload, st.fleet_net
    config = SimConfig(network=net, horizon=wl.horizon, episodes=wl.episodes, seed=seed)
    slot_episodes = wl.horizon * wl.episodes
    out, reports = {}, {}
    for name in POLICIES:
        policy = st.fleet[name]
        span = f"runtime_policies.decide.{name}"
        probe = None if tracer is None else DecideProbe(policy, tracer, span)
        mark = None if tracer is None else tracer.mark()
        try:
            with Timer() as timer:
                if tracer is None:
                    report = run_experiment(config, policy)
                else:
                    report = tracer.call(f"simulator.run_experiment.{name}", run_experiment,
                                         config, policy)
        finally:
            if probe is not None:
                probe.close()
        reports[name] = report
        out[f"sim_{name}_us"] = 1e6 * timer.cpu / slot_episodes
        out[f"wall.sim_{name}_us"] = 1e6 * timer.wall / slot_episodes
        if probe is not None:
            decide_s = tracer.since(mark)[1][span]
            out[f"runtime_policies.decide_s.{name}"] = decide_s
            out[f"simulator.self_s.{name}"] = timer.cpu - decide_s
            out[f"runtime_policies.decide_calls.{name}"] = probe.calls
            if name == "rtt":
                out["runtime_policies.truncation_share"] = probe.overflow / slot_episodes
    rtt, greedy = reports["rtt"], reports["greedy"]
    checks.expect(rtt.cost_mean < greedy.cost_mean,
                  f"rtt cost {rtt.cost_mean!r} not below greedy {greedy.cost_mean!r}")
    floor = st.lower_bound - 4.0 * rtt.cost_se
    checks.expect(rtt.cost_mean >= floor, f"rtt cost {rtt.cost_mean!r} below {floor!r}")
    out["simulator.slot_episodes"] = slot_episodes
    return out


def check_budget_and_replay(st: Setup, seed: int, checks: Checks) -> None:
    """rtt keeps the per-slot budget; a short run replays bit-exactly."""
    from aoisched import SimConfig, run_episode, run_experiment

    net, rtt = st.fleet_net, st.fleet["rtt"]
    seeds = tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(3))
    config = SimConfig(network=net, horizon=REPLAY_HORIZON, episodes=3, seed=seed,
                       episode_seeds=seeds)
    probe = DecideProbe(rtt, None, "")
    try:
        first = run_experiment(config, rtt)
    finally:
        probe.close()
    checks.expect(probe.max_commands <= net.budget,
                  f"rtt commanded {probe.max_commands} > M={net.budget} in a slot")
    again = run_experiment(config, rtt)
    alone = run_episode(config, rtt, seeds[1])
    checks.expect(first.per_episode == again.per_episode, "replay of the same seeds differs")
    checks.expect(alone == first.per_episode[1], "episode differs when run next to others")


# ---------------------------------------------------------------- main


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_round(st: Setup, samples: dict, seed: int, checks: Checks, tracer: Tracer | None):
    """``repeat`` cold solves and simulation triples around one hand-off;
    appends every figure to ``samples``."""

    def add(figures: dict) -> None:
        for key, value in figures.items():
            samples.setdefault(key, []).append(value)

    for i in range(st.workload.repeat):
        add(run_solve(st, checks, tracer))
        if i == 0:
            add(run_handoff(st, checks, tracer))
        add(run_sims(st, seed * st.workload.repeat + i, checks, tracer))


def exact_count(values: list, key: str, checks: Checks) -> float:
    checks.expect(len(set(values)) == 1, f"{key} differs between samples: {sorted(set(values))}")
    return float(values[0])


END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "handoff_s": "s",
    "sim_rtt_us": "us",
    "sim_greedy_us": "us",
    "sim_relaxed_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "model.kernel_build_s": "s",
    "model.classes": "count",
    "model.states_per_class": "count",
    "relaxed_solver.prices": "count",
    "relaxed_solver.class_solves": "count",
    "relaxed_solver.sweeps": "count",
    "relaxed_solver.class_solve_s": "s",
    "relaxed_solver.us_per_sweep": "us",
    "relaxed_solver.evaluations": "count",
    "relaxed_solver.evaluate_s": "s",
    "relaxed_solver.ms_per_evaluation": "ms",
    "relaxed_solver.eta_steps": "count",
    "relaxed_solver.other_s": "s",
    "policy_io.save_s": "s",
    "policy_io.load_s": "s",
    "policy_io.file_bytes": "bytes",
    "runtime_policies.build_s": "s",
    **{f"runtime_policies.decide_s.{p}": "s" for p in POLICIES},
    **{f"runtime_policies.decide_calls.{p}": "count" for p in POLICIES},
    "runtime_policies.truncation_share": "share",
    **{f"simulator.self_s.{p}": "s" for p in POLICIES},
    "simulator.slot_episodes": "count",
}

# Per-layer figures that must repeat exactly from round to round.
EXACT = {name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    st = setup(workload)
    if args.probe_setup:
        print(json.dumps({"cpu": time.process_time(), "wall": time.time()}))
        return 0
    setup_times, setup_walls = probe_setup_s(workload)

    checks = Checks()
    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    samples: dict[str, list] = {}
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        run_round(st, samples, args.seed * 1000 + rounds, checks, tracer)
        rounds += 1
    check_budget_and_replay(st, args.seed, checks)

    e2e = {k: statistics.median(samples[k]) for k in END_TO_END if k in samples}
    wall = {k: statistics.median(samples["wall." + k]) for k in END_TO_END
            if "wall." + k in samples}
    wall["setup_s"] = statistics.median(setup_walls)
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        layer = {
            "model.kernel_build_s": st.kernel_build_s,
            "model.classes": st.classes,
            "model.states_per_class": st.states_per_class,
        }
        for key in PER_LAYER:
            if key not in layer:
                values = samples[key]
                layer[key] = (exact_count(values, key, checks) if key in EXACT
                              else statistics.median(values))
        metrics = {k: (v, PER_LAYER[k]) for k, v in layer.items()}
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.npz")
    else:
        metrics = {k: (e2e[k], u) for k, u in END_TO_END.items()}

    failed = len(checks.failures)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "machine": machine(), "setup_probes_s": setup_times,
        "setup_probes_wall_s": setup_walls, "samples": samples,
        "failures": checks.failures, "attempted": checks.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print("# machine " + json.dumps(record["machine"]))
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: {rounds} rounds "
          f"in {time.perf_counter() - started:.1f} s; setup probes {setup_times}")
    label = "traced " if args.trace else ""
    for name, unit in END_TO_END.items():
        walls = f"  (wall {wall[name]:.6g})" if name in wall else ""
        print(f"# {label + name:40s} {e2e[name]:>16.6g} {unit}{walls}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"# {name:40s} {value:>16.6g} {unit}")
    print(f"# {'error_rate':40s} {failed / checks.attempted:>16.6g} share "
          f"({failed} of {checks.attempted} checks failed)")
    for failure in checks.failures:
        print(f"# FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
