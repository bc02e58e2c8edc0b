"""Command-line entry point: parse experiment configs, orchestrate
solve / simulate / analyze pipelines, and write result artifacts.

Config files are flat ``key = value`` text; every output CSV carries the
config hash and a build tag so results remain attributable. Exit codes:
0 success, 2 when an analysis check fails, 1 on errors.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import math
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    check_gap_bound,
    check_ordering,
    check_sqrt_k_mad,
    command_region_map,
    policy_structure_report,
    proposal_spread,
)
from .errors import AoischedError
from .exact_solver import solve_exact
from .model import NetworkConfig, SensorParams, joint_state_sizes, sensor_classes
from .policy_io import (
    load_joint_policy,
    load_mixed_policies,
    save_joint_policy,
    save_mixed_policies,
)
from .relaxed_solver import DEFAULT_ETA_TOL, solve_relaxed
from .runtime_policies import (
    GreedyFleetPolicy,
    build_exact_fleet_policy,
    build_relaxed_fleet_policy,
)
from .simulator import SimConfig, run_experiment

log = logging.getLogger(__name__)

DEFAULT_HARVEST_SET = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10)
POLICY_NAMES = ("exact", "relaxed", "rtt", "greedy")

REPORT_COLUMNS = (
    "config,build,policy,K,M,gamma,horizon,episodes,seed,"
    "cost_mean,cost_se,rate_mean,rate_se,"
    "proposal_mean,proposal_mad,proposal_mad_se,lower_bound"
)
TRACE_COLUMNS = "config,build,policy,slot,running_cost"

ANALYZE_EXACT_STATE_CAP = 50_000


@dataclass(frozen=True)
class ExperimentSpec:
    """Typed view of one experiment config file."""

    num_sensors: int
    num_users: int
    delta_max: int
    budget: int | None = None
    gamma: float | None = None
    battery: int | tuple[int, ...] = 7
    harvest: str | float | tuple[float, ...] = "round_robin"
    harvest_set: tuple[float, ...] = DEFAULT_HARVEST_SET
    request_prob: float | tuple[float, ...] = 0.6
    policies: tuple[str, ...] = ("rtt", "greedy")
    horizon: int = 1_000_000
    episodes: int = 50
    seed: int = 1
    out_dir: str = "results"
    trace_points: int = 0
    sweep_sensors: tuple[int, ...] = ()
    sweep_gamma: tuple[float, ...] = ()

    def __post_init__(self):
        if (self.budget is None) == (self.gamma is None):
            raise ValueError("exactly one of M or gamma must be given")
        for p in self.policies:
            if p not in POLICY_NAMES:
                raise ValueError(f"unknown policy {p!r}; choose from {POLICY_NAMES}")


# Field shapes: one value, a comma-separated list, or either (a single entry
# stays a scalar, two or more become a tuple).
_SCALAR, _LIST, _SCALAR_OR_LIST = "scalar", "list", "scalar-or-list"


def _harvest_value(text: str) -> str | float:
    return text if text == "round_robin" else float(text)


# Config key, ExperimentSpec field, cast of one entry, shape. parse_spec and
# serialize_spec both walk this table in order, so the serialized text (and
# with it config_hash) follows this order.
_FIELDS = (
    ("K", "num_sensors", int, _SCALAR),
    ("N", "num_users", int, _SCALAR),
    ("M", "budget", int, _SCALAR),
    ("gamma", "gamma", float, _SCALAR),
    ("delta_max", "delta_max", int, _SCALAR),
    ("battery", "battery", int, _SCALAR_OR_LIST),
    ("harvest", "harvest", _harvest_value, _SCALAR_OR_LIST),
    ("harvest_set", "harvest_set", float, _LIST),
    ("request_prob", "request_prob", float, _SCALAR_OR_LIST),
    ("policies", "policies", str, _LIST),
    ("horizon", "horizon", int, _SCALAR),
    ("episodes", "episodes", int, _SCALAR),
    ("seed", "seed", int, _SCALAR),
    ("out_dir", "out_dir", str, _SCALAR),
    ("trace_points", "trace_points", int, _SCALAR),
    ("sweep_K", "sweep_sensors", int, _LIST),
    ("sweep_gamma", "sweep_gamma", float, _LIST),
)


def serialize_spec(spec: ExperimentSpec) -> str:
    """Canonical config text; parse(serialize(spec)) is the identity."""
    lines = []
    for key, attr, _, _ in _FIELDS:
        value = getattr(spec, attr)
        if value is None or value == ():
            continue
        # str of a Python float is its shortest round-tripping repr.
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def parse_spec(text: str) -> ExperimentSpec:
    """Parse flat ``key = value`` config text (``#`` starts a comment)."""
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (lineno, value)

    unknown = set(raw) - {key for key, _, _, _ in _FIELDS}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    kwargs = {}
    for key, attr, cast, shape in _FIELDS:
        if key not in raw:
            continue
        lineno, value = raw[key]
        if shape == _SCALAR:
            parts = [value] if value else []
        else:
            parts = [p.strip() for p in value.split(",") if p.strip()]
        # An empty value would serialize to no line at all and reparse as the
        # default, so it is refused rather than read as an empty list.
        if not parts:
            raise ValueError(f"line {lineno}: no value for {key!r}")
        values = tuple(cast(p) for p in parts)
        kwargs[attr] = values if shape == _LIST or len(values) > 1 else values[0]
    missing = {"num_sensors", "num_users", "delta_max"} - set(kwargs)
    if missing:
        raise ValueError(f"config must set K, N, and delta_max (missing {sorted(missing)})")
    return ExperimentSpec(**kwargs)


def _expand(value, count: int, message: str) -> tuple:
    """A scalar repeated ``count`` times, or a list that must hold ``count`` entries."""
    if not isinstance(value, tuple):
        return (value,) * count
    if len(value) != count:
        raise ValueError(message)
    return value


def build_network(spec: ExperimentSpec, num_sensors: int | None = None,
                  gamma: float | None = None) -> NetworkConfig:
    """Materialize the sensor fleet described by a spec.

    ``num_sensors``/``gamma`` override the spec for sweep grid points; the
    budget is gamma * K, with gamma = M / K when the spec gives M. With the
    round-robin rule, sensor k (0-based) gets harvest_set[k mod len(set)].
    """
    kk = spec.num_sensors if num_sensors is None else num_sensors
    if gamma is None:
        gamma = spec.gamma if spec.gamma is not None else spec.budget / spec.num_sensors
    budget = gamma * kk
    if abs(budget - round(budget)) > 1e-9 or round(budget) < 1:
        raise ValueError(f"gamma * K = {budget} is not a positive integer")

    batteries = _expand(spec.battery, kk, "battery list length must equal K")
    if spec.harvest == "round_robin":
        rates = tuple(spec.harvest_set[k % len(spec.harvest_set)] for k in range(kk))
    else:
        rates = _expand(spec.harvest, kk, "harvest list length must equal K")
    probs = _expand(spec.request_prob, spec.num_users, "request_prob list length must equal N")

    sensors = tuple(
        SensorParams(harvest_rate=rates[k], battery_capacity=batteries[k], request_probs=probs)
        for k in range(kk)
    )
    return NetworkConfig(
        num_sensors=kk,
        num_users=spec.num_users,
        budget=int(round(budget)),
        delta_max=spec.delta_max,
        sensors=sensors,
    )


def config_hash(spec: ExperimentSpec) -> str:
    """Hash of the experiment definition; execution details (output directory,
    trace sampling) do not change it."""
    lines = [
        line
        for line in serialize_spec(spec).splitlines()
        if not line.startswith(("out_dir ", "trace_points "))
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def build_tag() -> str:
    tag = f"aoisched-{__version__}"
    try:
        rev = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return f"{tag}+{rev.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return tag


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _report_row(
    spec_hash: str,
    tag: str,
    report,
    network: NetworkConfig,
    seed: int,
    lower_bound: float,
) -> str:
    return ",".join(
        [
            spec_hash,
            tag,
            report.policy,
            str(network.num_sensors),
            str(network.budget),
            _fmt(network.gamma),
            str(report.horizon),
            str(report.episodes),
            str(seed),
            _fmt(report.cost_mean),
            _fmt(report.cost_se),
            _fmt(report.rate_mean),
            _fmt(report.rate_se),
            _fmt(report.proposal_mean),
            _fmt(report.proposal_mad),
            _fmt(report.proposal_mad_se),
            _fmt(lower_bound),
        ]
    )


def _append_rows(path: Path, header: str, rows: list[str]) -> None:
    """Append rows to a CSV, writing the header when the file is new; no rows
    leave the file untouched."""
    if not rows:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    fresh = not path.exists()
    with path.open("a", newline="\n") as fh:
        if fresh:
            fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _load_spec(args) -> ExperimentSpec:
    spec = parse_spec(Path(args.config).read_text())
    return replace(spec, out_dir=args.out) if args.out else spec


def _fleet(network: NetworkConfig, names, mixed=None, joint=None) -> dict:
    """Runtime policies by name: ``relaxed`` and ``rtt`` run the per-sensor
    mixed tables ``mixed``, ``exact`` runs the joint policy ``joint``."""
    builders = {
        "relaxed": lambda: build_relaxed_fleet_policy(network, mixed, False),
        "rtt": lambda: build_relaxed_fleet_policy(network, mixed, True),
        "exact": lambda: build_exact_fleet_policy(network, joint),
        "greedy": lambda: GreedyFleetPolicy(network.budget, network.num_sensors),
    }
    return {name: builders[name]() for name in names}


def _simulate(spec: ExperimentSpec, network: NetworkConfig, policy, trace_points: int = 0):
    """Run the spec's horizon, episodes and seed for one runtime policy."""
    return run_experiment(
        SimConfig(
            network=network,
            horizon=spec.horizon,
            episodes=spec.episodes,
            seed=spec.seed,
            trace_points=trace_points,
        ),
        policy,
    )


def cmd_solve_exact(args) -> int:
    spec = _load_spec(args)
    network = build_network(spec)
    policy, result = solve_exact(network)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "exact_policy.csv"
    save_joint_policy(path, network, policy, result.avg_cost)
    print(f"avg_cost = {_fmt(result.avg_cost)}")
    print(f"iterations = {result.iterations}")
    print(f"policy_file = {path}")
    return 0


def cmd_solve_relaxed(args) -> int:
    spec = _load_spec(args)
    network = build_network(spec)
    solution = solve_relaxed(network)
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "relaxed_policy.csv"
    save_mixed_policies(path, network, solution)
    print(f"lower_bound = {_fmt(solution.avg_cost)}")
    print(f"mu_star = {_fmt(solution.mu_star)}")
    print(f"eta = {_fmt(solution.eta)}")
    print(f"command_rate = {_fmt(solution.command_rate)}")
    print(f"constraint_active = {int(solution.constraint_active)}")
    print(f"policy_file = {path}")
    return 0


def cmd_simulate(args) -> int:
    spec = _load_spec(args)
    network = build_network(spec)
    names = tuple(args.policy) if args.policy else spec.policies
    mixed = joint = None
    lower_bound = float("nan")
    if any(n in ("relaxed", "rtt") for n in names):
        if args.relaxed_policy is None:
            raise AoischedError(
                "policies 'relaxed' and 'rtt' need --relaxed-policy (run solve-relaxed first)"
            )
        mixed, meta = load_mixed_policies(args.relaxed_policy, network)
        lower_bound = float(meta["avg_cost"])
    if "exact" in names:
        if args.exact_policy is None:
            raise AoischedError("policy 'exact' needs --exact-policy (run solve-exact first)")
        joint, _ = load_joint_policy(args.exact_policy, network)
    fleet = _fleet(network, names, mixed, joint)
    spec_hash = config_hash(spec)
    tag = build_tag()
    out = Path(spec.out_dir)
    rows = []
    trace_rows = []
    print(f"{'policy':>8} {'cost':>12} {'se':>10} {'rate':>10} {'|X| mad':>10}")
    for name in names:
        report = _simulate(spec, network, fleet[name], spec.trace_points)
        rows.append(_report_row(spec_hash, tag, report, network, spec.seed, lower_bound))
        for slot, value in report.trace:
            trace_rows.append(f"{spec_hash},{tag},{name},{slot},{_fmt(value)}")
        print(
            f"{name:>8} {report.cost_mean:12.6f} {report.cost_se:10.2e} "
            f"{report.rate_mean:10.6f} {report.proposal_mad:10.4f}"
        )
    _append_rows(out / "results.csv", REPORT_COLUMNS, rows)
    _append_rows(out / "trace.csv", TRACE_COLUMNS, trace_rows)
    print(f"results_file = {out / 'results.csv'}")
    return 0


def cmd_sweep(args) -> int:
    spec = _load_spec(args)
    if not spec.sweep_sensors and not spec.sweep_gamma:
        raise AoischedError("sweep needs sweep_K and/or sweep_gamma in the config")
    names = tuple(n for n in spec.policies if n != "exact")
    if not names:
        raise AoischedError("sweep supports the relaxed, rtt, and greedy policies")
    k_grid = spec.sweep_sensors or (spec.num_sensors,)
    gamma_grid = spec.sweep_gamma or (None,)
    spec_hash = config_hash(spec)
    tag = build_tag()
    rows = []
    # The relaxed solve depends on the fleet only through its classes, their
    # shares and Gamma (N and delta_max are the spec's): one solve, kept as
    # its bound and per-class tables, serves every grid point that shares them.
    solved: dict[tuple, tuple[float, tuple]] = {}
    for kk in k_grid:
        for gamma in gamma_grid:
            network = build_network(spec, num_sensors=kk, gamma=gamma)
            classes, counts, class_of = sensor_classes(network)
            key = (classes, (counts / kk).tobytes(), network.gamma)
            if key not in solved:
                solution = solve_relaxed(network)
                first = np.unique(class_of, return_index=True)[1]
                solved[key] = solution.avg_cost, tuple(solution.policies[k] for k in first)
            lower_bound, per_class = solved[key]
            fleet = _fleet(network, names, mixed=tuple(per_class[c] for c in class_of))
            for name in names:
                report = _simulate(spec, network, fleet[name])
                rows.append(_report_row(spec_hash, tag, report, network, spec.seed, lower_bound))
                print(
                    f"K={kk} gamma={network.gamma:g} {name}: cost={report.cost_mean:.6f} "
                    f"lower={lower_bound:.6f}"
                )
    out = Path(spec.out_dir)
    _append_rows(out / "sweep.csv", REPORT_COLUMNS, rows)
    print(f"results_file = {out / 'sweep.csv'}")
    return 0


def cmd_analyze(args) -> int:
    spec = _load_spec(args)
    network = build_network(spec)
    failures = 0

    def emit(status: str, name: str, detail: str):
        nonlocal failures
        if status == "FAIL":
            failures += 1
        print(f"{status} {name} {detail}")

    solution = solve_relaxed(network)
    emit(
        "INFO",
        "relaxed-solve",
        f"lower_bound={_fmt(solution.avg_cost)} mu_star={_fmt(solution.mu_star)} "
        f"eta={_fmt(solution.eta)} active={int(solution.constraint_active)}",
    )
    if solution.constraint_active:
        gap = abs(solution.command_rate - network.gamma)
        emit(
            "PASS" if gap <= DEFAULT_ETA_TOL else "FAIL",
            "budget-calibration",
            f"|rate-gamma|={gap:.2e} (tol {DEFAULT_ETA_TOL:g})",
        )
    else:
        emit("INFO", "budget-calibration", "constraint inactive, nothing to calibrate")

    rates = [r for _, r, _ in solution.lagrange.evaluations]
    lagrs = [l for _, _, l in solution.lagrange.evaluations]
    order = np.argsort([m for m, _, _ in solution.lagrange.evaluations])
    rate_monotone = bool(
        (np.diff(np.asarray(rates)[order]) <= 1e-9).all()
    )
    lagr_monotone = bool((np.diff(np.asarray(lagrs)[order]) >= -1e-9).all())
    emit(
        "PASS" if rate_monotone and lagr_monotone else "FAIL",
        "dual-monotonicity",
        f"rate_non_increasing={rate_monotone} lagrangian_non_decreasing={lagr_monotone}",
    )

    classes, _, class_of = sensor_classes(network)
    value_ok = threshold_ok = True
    requests_obs = battery_obs = True
    for sensor, k in zip(classes, np.unique(class_of, return_index=True)[1]):
        rel = solution.lagrange.per_sensor_rel_values[k]
        rep = policy_structure_report(
            sensor, network.delta_max, solution.policies[k].lower, values=rel
        )
        value_ok &= rep.value_monotone_in_age
        threshold_ok &= rep.age_threshold
        requests_obs &= rep.requests_threshold
        battery_obs &= rep.battery_threshold
    emit("PASS" if value_ok else "FAIL", "value-monotone-age", f"all_classes={value_ok}")
    emit("PASS" if threshold_ok else "FAIL", "age-threshold", f"all_classes={threshold_ok}")
    emit(
        "INFO",
        "request-battery-structure",
        f"requests_threshold={requests_obs} battery_threshold={battery_obs} (observed, not asserted)",
    )

    # One simulation: the ordering chain and the gap bound read the same rtt
    # report, and the proposal spread is the relaxed policy's exact law.
    rtt = _fleet(network, ("rtt",), mixed=solution.policies)["rtt"]
    rtt_report = _simulate(spec, network, rtt)
    if math.prod(joint_state_sizes(network)) <= ANALYZE_EXACT_STATE_CAP:
        _, exact = solve_exact(network)
        ordering = check_ordering(solution.avg_cost, exact.avg_cost, rtt_report)
        emit("PASS" if ordering.holds else "FAIL", "ordering-chain", ordering.describe())
    else:
        emit("INFO", "ordering-chain", f"skipped: more than {ANALYZE_EXACT_STATE_CAP} joint states")

    _, mad = proposal_spread(solution)
    if network.budget >= network.num_sensors:
        # rtt never truncates: the gap is the start-state transient, not a penalty.
        emit("INFO", "truncation-gap-bound", "skipped: budget covers the fleet (M >= K)")
    else:
        bound = check_gap_bound(network.delta_max, network.budget, solution.avg_cost,
                                rtt_report, mad)
        emit("PASS" if bound.holds else "FAIL", "truncation-gap-bound", bound.describe())
    ratio = check_sqrt_k_mad(network.num_sensors, mad).ratio
    emit(
        "INFO",
        "proposal-mad-scaling",
        f"MAD/sqrt(K)={ratio:.4f} (<= 1 expected for large fleets)",
    )
    return 2 if failures else 0


def cmd_region_map(args) -> int:
    spec = _load_spec(args)
    network = build_network(spec)
    mixed, _ = load_mixed_policies(args.policy_file, network)
    sensor_index = args.sensor
    if not 0 <= sensor_index < network.num_sensors:
        raise AoischedError(f"sensor index {sensor_index} outside the fleet")
    policy = mixed[sensor_index]
    table = policy.lower if args.table == "lower" else policy.upper
    grid, closure = command_region_map(
        network.sensors[sensor_index], network.delta_max, table, args.requests
    )
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"region_sensor{sensor_index}_r{args.requests}_{args.table}.csv"
    lines = [
        "# aoisched-region-map v1",
        f"# config={config_hash(spec)} build={build_tag()}",
        f"# sensor={sensor_index} requests={args.requests} table={args.table} "
        + " ".join(f"{k}={int(v)}" for k, v in closure.items()),
        "battery\\age," + ",".join(str(a) for a in range(1, network.delta_max + 1)),
    ]
    for b in range(grid.shape[0]):
        lines.append(f"{b}," + ",".join(str(int(v)) for v in grid[b]))
    path.write_text("\n".join(lines) + "\n")
    for key, value in closure.items():
        print(f"{key} = {int(value)}")
    print(f"map_file = {path}")
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoisched",
        description="Solvers and simulator for budget-limited on-demand status updating",
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (overrides config)")

    common(sub.add_parser("solve-exact", help="solve the joint problem exactly"))
    common(sub.add_parser("solve-relaxed", help="solve the time-average relaxation"))

    sim = sub.add_parser("simulate", help="Monte Carlo evaluation of policies")
    common(sim)
    sim.add_argument(
        "--policy",
        action="append",
        choices=POLICY_NAMES,
        help="policy to simulate (repeatable; default: config 'policies')",
    )
    sim.add_argument("--exact-policy", help="joint policy file from solve-exact")
    sim.add_argument("--relaxed-policy", help="mixed policy file from solve-relaxed")

    common(sub.add_parser("sweep", help="grid over K and/or gamma"))
    common(sub.add_parser("analyze", help="run the structural and optimality checks"))

    region = sub.add_parser("region-map", help="export a command-region grid")
    common(region)
    region.add_argument("--policy-file", required=True, help="mixed policy file")
    region.add_argument("--sensor", type=int, default=0)
    region.add_argument("--requests", type=int, default=1)
    region.add_argument("--table", choices=("lower", "upper"), default="lower")
    return parser


_COMMANDS = {
    "solve-exact": cmd_solve_exact,
    "solve-relaxed": cmd_solve_relaxed,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "analyze": cmd_analyze,
    "region-map": cmd_region_map,
}


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except (AoischedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
