"""Discrete-time Monte Carlo engine.

Episodes advance in lockstep, vectorized over (episode, sensor). Within a
slot: requests arrive, the policy decides, transmissions happen and the slot
cost accrues, energy arrives, then battery and age update — harvested energy
becomes usable the next slot. Every episode owns private request / energy /
mixture / truncation streams spawned from its seed, so runs replay bit-exactly
and per-episode results do not depend on how many episodes run together.

Per sensor-slot, the request stream gives one uniform, turned into the
request count by inverse transform over its class's
``SensorModel.request_dist``, and the energy stream gives one uniform. The
policy's ``decide`` consumes the other two: the mixture stream one uniform
per sensor whose state is one where the two mixed tables differ, the
truncation stream one uniform per proposing sensor in a slot whose
proposals exceed the budget. Those two are served
from per-episode buffers (:class:`UniformStreams`), which hand out the same
uniforms in the same order as one draw per request would.

The request and energy uniforms are drawn per episode in blocks of 128 slots
into buffers that every block reuses (a 0.8 MB uniform buffer at K=800). A
generator's doubles drawn in chunks equal the same doubles drawn at once, so
the block size changes no value, only the memory and the time. Once a slot
has used its energy bits, its row of the (128, episodes, K) int8 energy
buffer is overwritten by the actions taken, so one sum per block gives the
command counts for the budget check and the command rate.

Each (episode, sensor) keeps one fleet index i = width * s, its (battery,
age) state s in the network's :func:`model.fleet_layout`. Three flat tables
share that layout, all written by ``FleetLayout.table``: the successor
table, from every class's ``SensorModel.succ``, holds width * s' for action
a and harvest e at i + 2a + e; the age table holds the age of s at i; and
the relaxed policy's tables hold its action for r requests at i + r. The
slot cost is the request count times the age after the step.

Episodes start pessimistically at empty batteries and capped ages with fresh
requests, and no burn-in is discarded, so a mean carries the start-state
transient. It falls as 1/horizon but is not negligible at the paper's
horizon: on the K=800, M=20 paper network the relaxed policy's mean over
100,000 slots lay +0.0099 (5.2 standard errors) above its exact cost, about
1,000 cost-slots of excess (ROADMAP item 10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .model import FleetLayout, NetworkConfig, fleet_layout

__all__ = [
    "SimConfig",
    "EpisodeMetrics",
    "SimReport",
    "UniformStreams",
    "run_experiment",
    "run_episode",
]

_BLOCK = 128


@dataclass(frozen=True)
class SimConfig:
    """Experiment shape: the network, horizon, episode count, and master seed.

    ``episode_seeds`` overrides the default derivation of per-episode seeds
    from the master seed (useful for replaying a single episode). If
    ``trace_points`` is positive, the report carries a running-average cost
    trace sampled at that many evenly spaced slots.
    """

    network: NetworkConfig
    horizon: int
    episodes: int
    seed: int
    episode_seeds: tuple[int, ...] | None = None
    trace_points: int = 0

    def __post_init__(self):
        if self.horizon < 1 or self.episodes < 1:
            raise ValueError("horizon and episodes must be >= 1")
        if self.episode_seeds is not None and len(self.episode_seeds) != self.episodes:
            raise ValueError("episode_seeds must have one entry per episode")


@dataclass(frozen=True)
class EpisodeMetrics:
    """Per-episode time averages."""

    cost: float
    command_rate: float
    proposal_mean: float
    proposal_mad: float


@dataclass(frozen=True)
class SimReport:
    """Across-episode summary; standard errors use the episode spread (ddof=1)."""

    policy: str
    episodes: int
    horizon: int
    cost_mean: float
    cost_se: float
    rate_mean: float
    rate_se: float
    proposal_mean: float
    proposal_mad: float
    proposal_mad_se: float
    per_episode: tuple[EpisodeMetrics, ...]
    trace: tuple[tuple[int, float], ...]


def _episode_streams(config: SimConfig):
    """One (requests, energy, mixture, truncation) stream quadruple per episode."""
    if config.episode_seeds is not None:
        sequences = [np.random.SeedSequence(s) for s in config.episode_seeds]
    else:
        sequences = np.random.SeedSequence(config.seed).spawn(config.episodes)
    streams = []
    for seq in sequences:
        children = seq.spawn(4)
        streams.append(tuple(np.random.default_rng(c) for c in children))
    return streams


class UniformStreams:
    """Uniforms in [0, 1) from one generator per episode, served from buffers.

    ``draw(rows)`` returns one uniform per entry of the sorted episode indices
    ``rows``: those of each episode are the next ones of its generator, in
    order. A generator's doubles drawn in chunks equal the same draws made one
    at a time, so the values do not depend on the buffer size. A buffer is
    refilled when a draw would run past its end; ``size`` must be at least
    the most uniforms one call asks of an episode.
    """

    def __init__(self, rngs, size: int):
        self._rngs = rngs
        self._size = int(size)
        self._buffer = np.empty(len(rngs) * self._size)
        self._end = (np.arange(len(rngs)) + 1) * self._size  # each row's end, flat
        self._next = self._end.copy()  # flat position of each row's next uniform: all used up

    def draw(self, rows: np.ndarray) -> np.ndarray:
        counts = np.bincount(rows, minlength=len(self._rngs))
        end = self._next + counts
        short = end > self._end
        if short.any():
            for e in short.nonzero()[0].tolist():
                stop = self._end[e]
                kept = stop - self._next[e]  # uniforms not yet handed out
                row = self._buffer[stop - self._size:stop]
                row[:kept] = row[self._size - kept:].copy()
                row[kept:] = self._rngs[e].random(self._size - kept)
                self._next[e] = stop - self._size
                end[e] = self._next[e] + counts[e]
        # Entry j of ``rows``, of episode e, reads position next[e] + j - f[e],
        # with f[e] = cumsum(counts)[e] - counts[e] the first entry of e in ``rows``.
        shift = end - counts.cumsum()
        self._next = end
        index = shift.take(rows)
        index += np.arange(rows.size)
        return self._buffer.take(index)


def _request_thresholds(layout: FleetLayout) -> np.ndarray:
    """Inverse-transform thresholds of each sensor's request count, shape (N, K).

    Row j holds P(count <= j); a count is the number of rows at or below one
    uniform in [0, 1). Where a count above j is impossible the row holds 1.0,
    which no uniform reaches, so degenerate probabilities give exact counts.
    """
    rows = []
    for model in layout.models:
        pmf = model.request_dist
        above = np.cumsum(pmf[::-1])[::-1][1:]  # P(count > j)
        rows.append(np.where(above > 0, np.cumsum(pmf)[:-1], 1.0))
    return np.array(rows)[layout.class_of].T.copy()


def run_experiment(config: SimConfig, policy) -> SimReport:
    """Run all episodes of one experiment under one fleet policy."""
    net = config.network
    n_sensors, n_users, delta_max = net.num_sensors, net.num_users, net.delta_max
    episodes, horizon = config.episodes, config.horizon
    layout = fleet_layout(net)
    thresholds = _request_thresholds(layout)
    rates = np.array([s.harvest_rate for s in net.sensors])
    # The successor of index i under action a and harvest e is succ[i + 2a + e],
    # the age at i is age_of[i]; sensor k's index stays in [low[k], high[k]).
    width, start = layout.width, layout.start
    succ = layout.table([width * (m.succ.reshape(-1, 4) + s)
                         for m, s in zip(layout.models, start)])
    age_of = layout.table([m.age_of[:m.succ.shape[0], None] for m in layout.models])
    low, high = width * start[layout.class_of], width * start[layout.class_of + 1]

    streams = _episode_streams(config)
    req_rngs = [s[0] for s in streams]
    energy_rngs = [s[1] for s in streams]
    buffer_size = max(_BLOCK, n_sensors)
    mix_streams = UniformStreams([s[2] for s in streams], buffer_size)
    trunc_streams = UniformStreams([s[3] for s in streams], buffer_size)

    # Battery 0 and the age capped: x = delta_max - 1.
    index = np.broadcast_to(layout.index(delta_max - 1), (episodes, n_sensors)).copy()
    age = age_of.take(index)
    cost_sum = np.zeros(episodes, dtype=np.int64)
    command_sum = np.zeros(episodes, dtype=np.int64)
    proposal_hist = np.zeros((episodes, n_sensors + 1), dtype=np.int64)
    hist_offset = np.arange(episodes) * (n_sensors + 1)

    if config.trace_points > 0:
        checkpoints = np.unique(
            np.linspace(1, horizon, config.trace_points).astype(np.int64)
        )
    else:
        checkpoints = np.empty(0, dtype=np.int64)
    trace: list[tuple[int, float]] = []

    # Per-block buffers, reused by every block; the last may use a prefix.
    uniform_buf = np.empty((_BLOCK, n_sensors))
    hit_buf = np.empty((_BLOCK, n_sensors), dtype=bool)
    requests_buf = np.empty((_BLOCK, episodes, n_sensors), dtype=np.int16)
    energy_buf = np.empty((_BLOCK, episodes, n_sensors), dtype=np.int8)
    record_buf = np.empty((3, _BLOCK, episodes), dtype=np.int64)

    slot = 0
    while slot < horizon:
        block = min(_BLOCK, horizon - slot)
        uniform, hit = uniform_buf[:block], hit_buf[:block]
        requests, energy = requests_buf[:block], energy_buf[:block]
        costs, commands, proposals = record_buf[:, :block]
        for e in range(episodes):
            counts = requests[:, e]
            req_rngs[e].random(out=uniform)
            np.greater_equal(uniform, thresholds[0], out=counts)
            for row in thresholds[1:]:
                counts += np.greater_equal(uniform, row, out=hit)
            energy_rngs[e].random(out=uniform)
            np.less(uniform, rates, out=energy[:, e])
        for t in range(block):
            r = requests[t]
            actions, proposals[t] = policy.decide(r, index, age, mix_streams, trunc_streams)
            index = succ.take(index + (2 * actions + energy[t]))
            age = age_of.take(index)
            costs[t] = np.vecdot(r, age)
            energy[t] = actions  # the spent energy row keeps the actions taken
        energy.sum(axis=2, out=commands)
        if policy.budget is not None and (commands > policy.budget).any():
            raise SimulationError("per-slot budget violated")
        if ((index < low) | (index >= high)).any():
            raise SimulationError("fleet index left its sensor's class block")
        proposal_hist += np.bincount(
            (proposals + hist_offset).ravel(), minlength=proposal_hist.size
        ).reshape(proposal_hist.shape)
        running = cost_sum + np.cumsum(costs, axis=0)
        for point in checkpoints[(checkpoints > slot) & (checkpoints <= slot + block)]:
            mean = running[point - slot - 1].mean()
            trace.append((int(point), float(mean / (n_users * n_sensors * point))))
        cost_sum = running[-1]
        command_sum += commands.sum(axis=0)
        slot += block

    values = np.arange(n_sensors + 1, dtype=np.float64)
    totals = proposal_hist.sum(axis=1)
    prop_means = proposal_hist @ values / totals
    prop_mads = (
        np.abs(values[None, :] - prop_means[:, None]) * proposal_hist
    ).sum(axis=1) / totals
    costs = cost_sum / (n_users * n_sensors * horizon)
    rates_out = command_sum / (n_sensors * horizon)

    per_episode = tuple(
        EpisodeMetrics(
            cost=float(costs[e]),
            command_rate=float(rates_out[e]),
            proposal_mean=float(prop_means[e]),
            proposal_mad=float(prop_mads[e]),
        )
        for e in range(episodes)
    )

    def spread(vals: np.ndarray) -> float:
        if episodes < 2:
            return float("nan")
        return float(vals.std(ddof=1) / np.sqrt(episodes))

    return SimReport(
        policy=policy.name,
        episodes=episodes,
        horizon=horizon,
        cost_mean=float(costs.mean()),
        cost_se=spread(costs),
        rate_mean=float(rates_out.mean()),
        rate_se=spread(rates_out),
        proposal_mean=float(prop_means.mean()),
        proposal_mad=float(prop_mads.mean()),
        proposal_mad_se=spread(prop_mads),
        per_episode=per_episode,
        trace=tuple(trace),
    )


def run_episode(config: SimConfig, policy, seed: int) -> EpisodeMetrics:
    """Run a single episode with an explicit seed; bit-exact under replay."""
    single = SimConfig(
        network=config.network,
        horizon=config.horizon,
        episodes=1,
        seed=seed,
        episode_seeds=(seed,),
        trace_points=0,
    )
    return run_experiment(single, policy).per_episode[0]
