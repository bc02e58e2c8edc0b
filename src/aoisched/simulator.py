"""Discrete-time Monte Carlo engine.

Episodes advance in lockstep, vectorized over (episode, sensor). Within a
slot: requests arrive, the policy decides, transmissions happen and the slot
cost accrues, energy arrives, then battery and age update — harvested energy
becomes usable the next slot. Every episode owns private request / energy /
mixture / truncation streams spawned from its seed, so runs replay bit-exactly
and per-episode results do not depend on how many episodes run together.

Per sensor-slot, the request stream gives one uniform, turned into the
request count by inverse transform over :func:`model.request_pmf`, and the
energy stream gives one uniform. The policy's ``decide`` consumes the other
two: the mixture stream one uniform per sensor whose state is one where the
two mixed tables differ, the truncation stream one uniform per proposing
sensor in a slot whose proposals exceed the budget. Those two are served
from per-episode buffers (:class:`UniformStreams`), which hand out the same
uniforms in the same order as one draw per request would.

Each sensor's (battery, age) state is one index x = battery * delta_max +
age - 1, stepped every slot through its class's successor table
``SensorModel.succ``; the slot cost is the request count times the age
after the step.

Episodes start pessimistically at empty batteries and capped ages with fresh
requests; no burn-in is discarded, long horizons wash out the transient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .model import NetworkConfig, request_pmf, sensor_classes, sensor_model

__all__ = [
    "SimConfig",
    "EpisodeMetrics",
    "SimReport",
    "UniformStreams",
    "run_experiment",
    "run_episode",
    "mean_abs_deviation",
]

_BLOCK = 1024


def mean_abs_deviation(samples) -> tuple[float, float]:
    """Two-pass mean and mean absolute deviation about the mean."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size == 0:
        raise ValueError("mean_abs_deviation needs at least one sample")
    mean = float(samples.mean())
    return mean, float(np.abs(samples - mean).mean())


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
        self._buffer = np.empty((len(rngs), self._size))
        self._cursor = np.full(len(rngs), self._size, dtype=np.intp)  # all used up
        self._row_start = np.arange(len(rngs)) * self._size  # in the flat buffer

    def draw(self, rows: np.ndarray) -> np.ndarray:
        counts = np.bincount(rows, minlength=len(self._rngs))
        end = self._cursor + counts
        for e in np.flatnonzero(end > self._size).tolist():
            start, row = self._cursor[e], self._buffer[e]
            kept = self._size - start
            row[:kept] = row[start:].copy()
            row[kept:] = self._rngs[e].random(start)
            self._cursor[e], end[e] = 0, counts[e]
        # Flat position of each episode's next uniform, less the position of
        # its first entry in ``rows``.
        shift = self._row_start + self._cursor - (np.cumsum(counts) - counts)
        self._cursor = end
        return self._buffer.take(shift.take(rows) + np.arange(rows.size))


def _request_thresholds(network: NetworkConfig) -> np.ndarray:
    """Inverse-transform thresholds of each sensor's request count, shape (N, K).

    Row j holds P(count <= j); a count is the number of rows at or below one
    uniform in [0, 1). Where a count above j is impossible the row holds 1.0,
    which no uniform reaches, so degenerate probabilities give exact counts.
    """
    classes, _, class_of = sensor_classes(network)
    rows = []
    for sensor in classes:
        pmf = request_pmf(sensor)
        above = np.cumsum(pmf[::-1])[::-1][1:]  # P(count > j)
        rows.append(np.where(above > 0, np.cumsum(pmf)[:-1], 1.0))
    return np.array(rows)[class_of].T.copy()


def run_experiment(config: SimConfig, policy) -> SimReport:
    """Run all episodes of one experiment under one fleet policy."""
    net = config.network
    n_sensors, n_users, delta_max = net.num_sensors, net.num_users, net.delta_max
    episodes, horizon = config.episodes, config.horizon
    thresholds = _request_thresholds(net)
    rates = np.array([s.harvest_rate for s in net.sensors])
    # Every class's successor table, flat, and each sensor's offset into it:
    # the successor of x under action a and harvest e is succ[base + 4x + 2a + e].
    classes, _, class_of = sensor_classes(net)
    tables = [sensor_model(c, delta_max).succ.ravel() for c in classes]
    starts = np.cumsum([0] + [t.size for t in tables[:-1]])
    succ = np.concatenate(tables)
    base = starts[class_of]
    # The age of index x is the same in every class; sensor k's x stays below limit[k].
    age_of = np.tile(np.arange(1, delta_max + 1), max(c.battery_capacity for c in classes) + 1)
    limit = np.array([t.size // 4 for t in tables])[class_of]

    streams = _episode_streams(config)
    req_rngs = [s[0] for s in streams]
    energy_rngs = [s[1] for s in streams]
    buffer_size = max(_BLOCK, n_sensors)
    mix_streams = UniformStreams([s[2] for s in streams], buffer_size)
    trunc_streams = UniformStreams([s[3] for s in streams], buffer_size)

    x = np.full((episodes, n_sensors), delta_max - 1, dtype=np.intp)  # battery 0, age capped
    age = age_of.take(x)
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

    slot = 0
    while slot < horizon:
        block = min(_BLOCK, horizon - slot)
        requests = np.zeros((block, episodes, n_sensors), dtype=np.int16)
        energy = np.empty((block, episodes, n_sensors), dtype=np.int8)
        for e in range(episodes):
            uniform = req_rngs[e].random((block, n_sensors))
            counts = requests[:, e]
            for row in thresholds:
                counts += uniform >= row
            energy[:, e] = energy_rngs[e].random((block, n_sensors)) < rates
        costs = np.empty((block, episodes), dtype=np.int64)
        commands = np.empty((block, episodes), dtype=np.int64)
        proposals = np.empty((block, episodes), dtype=np.int64)
        for i in range(block):
            r = requests[i]
            actions, proposals[i] = policy.decide(r, x, age, mix_streams, trunc_streams)
            x = succ.take(base + 4 * x + 2 * actions + energy[i])
            age = age_of.take(x)
            costs[i] = (r * age).sum(axis=1)
            commands[i] = actions.sum(axis=1)
        if policy.budget is not None and (commands > policy.budget).any():
            raise SimulationError("per-slot budget violated")
        if (x >= limit).any():
            raise SimulationError("(battery, age) index left its feasible range")
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
