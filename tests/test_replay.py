"""Replay pins: the exact per-episode results and traces of short runs.

The values were recorded once and are compared for equality, so they hold
the simulator's consumption of its random streams fixed: the request and
energy blocks, the mixing draws and the truncation keys. A change that moves
any of them must update the pins here and say so in CHANGES.md.

Three fleets are pinned: ``configs/tiny2.cfg`` under all four policies; the
``configs/fig2a.cfg`` fleet driven by the paper tables of
``bench/data/fig2a_tables.npz`` under rtt, greedy and relaxed; and 100
TINY1 sensors, whose solved tables differ in states visited most slots, so
nearly every slot draws mixing uniforms, under rtt and relaxed. The horizon
crosses a 1024-slot block boundary.
"""

from pathlib import Path

import numpy as np
import pytest

from aoisched import (
    GreedyFleetPolicy,
    MixedPolicy,
    NetworkConfig,
    PolicyTable,
    SensorParams,
    SimConfig,
    build_exact_fleet_policy,
    build_relaxed_fleet_policy,
    run_experiment,
    solve_exact,
    solve_relaxed,
)
from aoisched.cli import build_network, parse_spec

ROOT = Path(__file__).resolve().parents[1]
HORIZON = 1500
EPISODES = 3
TRACE_POINTS = 4


def _network(name: str):
    return build_network(parse_spec((ROOT / "configs" / name).read_text()))


def _fixture_policies(network):
    with np.load(ROOT / "bench" / "data" / "fig2a_tables.npz") as data:
        lower, upper, eta = data["lower"], data["upper"], float(data["eta"])
        mu_minus, mu_plus = float(data["mu_minus"]), float(data["mu_plus"])
    classes = [
        MixedPolicy(PolicyTable(lo, mu_minus), PolicyTable(up, mu_plus), eta)
        for lo, up in zip(lower, upper)
    ]
    return tuple(classes[k % len(classes)] for k in range(network.num_sensors))


def _fleets():
    """(fleet name, policy name) -> (network, runtime policy)."""
    tiny2 = _network("tiny2.cfg")
    joint, _ = solve_exact(tiny2)
    mixed = solve_relaxed(tiny2).policies
    fig2a = _network("fig2a.cfg")
    paper = _fixture_policies(fig2a)
    tiny1 = SensorParams(harvest_rate=0.5, battery_capacity=1, request_probs=(0.5,))
    mixing = NetworkConfig(100, 1, 5, 2, (tiny1,) * 100)
    mixing_tables = solve_relaxed(mixing).policies
    return {
        ("tiny2", "exact"): (tiny2, build_exact_fleet_policy(tiny2, joint)),
        ("tiny2", "rtt"): (tiny2, build_relaxed_fleet_policy(tiny2, mixed, True)),
        ("tiny2", "greedy"): (tiny2, GreedyFleetPolicy(tiny2.budget, tiny2.num_sensors)),
        ("tiny2", "relaxed"): (tiny2, build_relaxed_fleet_policy(tiny2, mixed, False)),
        ("fig2a", "rtt"): (fig2a, build_relaxed_fleet_policy(fig2a, paper, True)),
        ("fig2a", "greedy"): (fig2a, GreedyFleetPolicy(fig2a.budget, fig2a.num_sensors)),
        ("fig2a", "relaxed"): (fig2a, build_relaxed_fleet_policy(fig2a, paper, False)),
        ("tiny1-100", "rtt"): (mixing, build_relaxed_fleet_policy(mixing, mixing_tables, True)),
        ("tiny1-100", "relaxed"): (
            mixing, build_relaxed_fleet_policy(mixing, mixing_tables, False)),
    }


def _replay(network, policy):
    report = run_experiment(
        SimConfig(network=network, horizon=HORIZON, episodes=EPISODES, seed=2022,
                  trace_points=TRACE_POINTS),
        policy,
    )
    episodes = tuple(
        (m.cost, m.command_rate, m.proposal_mean, m.proposal_mad) for m in report.per_episode
    )
    return episodes, report.trace


# (cost, command_rate, proposal_mean, proposal_mad) per episode, then the trace.
PINNED = {
    ('tiny2', 'exact'): (
        (
            (1.5013333333333334, 0.49966666666666665, 0.9993333333333333, 0.001332444444444482),
            (1.5013333333333334, 0.49966666666666665, 0.9993333333333333, 0.001332444444444482),
            (1.5013333333333334, 0.49966666666666665, 0.9993333333333333, 0.001332444444444482),
        ),
        ((1, 3.0), (500, 1.504), (1000, 1.502), (1500, 1.5013333333333334),),
    ),
    ('tiny2', 'rtt'): (
        (
            (1.5013333333333334, 0.49966666666666665, 1.0, 0.0013333333333333333),
            (1.5013333333333334, 0.49966666666666665, 1.0, 0.0013333333333333333),
            (1.5013333333333334, 0.49966666666666665, 1.0, 0.0013333333333333333),
        ),
        ((1, 3.0), (500, 1.504), (1000, 1.502), (1500, 1.5013333333333334),),
    ),
    ('tiny2', 'greedy'): (
        (
            (1.5013333333333334, 0.5, 1.0, 0.0),
            (1.5013333333333334, 0.5, 1.0, 0.0),
            (1.5013333333333334, 0.5, 1.0, 0.0),
        ),
        ((1, 3.0), (500, 1.504), (1000, 1.502), (1500, 1.5013333333333334),),
    ),
    ('tiny2', 'relaxed'): (
        (
            (1.5006666666666666, 0.5, 1.0, 1.0),
            (1.5006666666666666, 0.5, 1.0, 1.0),
            (1.5006666666666666, 0.5, 1.0, 1.0),
        ),
        ((1, 3.0), (500, 1.502), (1000, 1.501), (1500, 1.5006666666666666),),
    ),
    ('fig2a', 'rtt'): (
        (
            (14.447144444444444, 0.02285, 2.27, 1.1369333333333334),
            (14.373877777777778, 0.022833333333333334, 2.2546666666666666, 1.0773102222222222),
            (14.645405555555556, 0.022716666666666666, 2.272, 1.1121066666666666),
        ),
        ((1, 36.62222222222223), (500, 15.641705555555557), (1000, 14.763016666666667), (1500, 14.48880925925926),),
    ),
    ('fig2a', 'greedy'): (
        (
            (28.915783333333334, 0.025, 1.0, 0.0),
            (26.195922222222222, 0.025, 1.0, 0.0),
            (28.2994, 0.025, 1.0, 0.0),
        ),
        ((1, 36.62222222222223), (500, 32.40461666666667), (1000, 28.727788888888888), (1500, 27.80370185185185),),
    ),
    ('fig2a', 'relaxed'): (
        (
            (13.432738888888888, 0.024666666666666667, 0.9866666666666667, 0.7209244444444445),
            (13.411344444444444, 0.024583333333333332, 0.9833333333333333, 0.7316),
            (13.636372222222223, 0.024516666666666666, 0.9806666666666667, 0.727000888888889),
        ),
        ((1, 36.62222222222223), (500, 14.735822222222223), (1000, 13.830544444444444), (1500, 13.493485185185186),),
    ),
    ('tiny1-100', 'rtt'): (
        (
            (0.9586666666666667, 0.041813333333333334, 5.0633333333333335, 1.7134177777777777),
            (0.9595133333333333, 0.042006666666666664, 5.038666666666667, 1.6462524444444444),
            (0.9611266666666667, 0.041313333333333334, 4.999333333333333, 1.736744888888889),
        ),
        ((1, 0.94), (500, 0.95638), (1000, 0.9603266666666667), (1500, 0.959768888888889),),
    ),
    ('tiny1-100', 'relaxed'): (
        (
            (0.9503333333333334, 0.050146666666666666, 5.014666666666667, 1.7096195555555556),
            (0.9514866666666667, 0.05003333333333333, 5.003333333333333, 1.6654622222222224),
            (0.95268, 0.04976, 4.976, 1.7753813333333335),
        ),
        ((1, 0.94), (500, 0.9480066666666667), (1000, 0.95201), (1500, 0.9515),),
    ),
}


@pytest.fixture(scope="module")
def replays():
    return {key: _replay(*fleet) for key, fleet in _fleets().items()}


@pytest.mark.parametrize("key", list(PINNED), ids=lambda key: "-".join(key))
def test_replay_pinned(replays, key):
    episodes, trace = replays[key]
    assert episodes == PINNED[key][0]
    assert trace == PINNED[key][1]
