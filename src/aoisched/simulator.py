"""Discrete-time Monte Carlo engine.

Episodes advance in lockstep, vectorized over (episode, sensor). Within a
slot: requests arrive, the policy decides, transmissions happen and the slot
cost accrues, energy arrives, then battery and age update — harvested energy
becomes usable the next slot. Every episode owns private request / energy /
mixture / truncation streams spawned from its seed, so runs replay bit-exactly
and per-episode results do not depend on how many episodes run together.

Episodes start pessimistically at empty batteries and capped ages with fresh
requests; no burn-in is discarded, long horizons wash out the transient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError
from .model import NetworkConfig, slot_step

__all__ = [
    "SimConfig",
    "EpisodeMetrics",
    "SimReport",
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
    wall_time: float


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


def run_experiment(config: SimConfig, policy) -> SimReport:
    """Run all episodes of one experiment under one fleet policy."""
    net = config.network
    n_sensors, n_users, delta_max = net.num_sensors, net.num_users, net.delta_max
    episodes, horizon = config.episodes, config.horizon
    capacities = np.array([s.battery_capacity for s in net.sensors], dtype=np.int64)
    probs = np.array([s.request_probs for s in net.sensors])  # (K, N)
    rates = np.array([s.harvest_rate for s in net.sensors])

    streams = _episode_streams(config)
    req_rngs = [s[0] for s in streams]
    energy_rngs = [s[1] for s in streams]
    mix_rngs = [s[2] for s in streams]
    trunc_rngs = [s[3] for s in streams]
    draw_mixture = policy.mixture_eta is not None

    battery = np.zeros((episodes, n_sensors), dtype=np.int64)
    age = np.full((episodes, n_sensors), delta_max, dtype=np.int64)
    cost_sum = np.zeros(episodes, dtype=np.int64)
    command_sum = np.zeros(episodes, dtype=np.int64)
    proposal_hist = np.zeros((episodes, n_sensors + 1), dtype=np.int64)
    episode_rows = np.arange(episodes)

    if config.trace_points > 0:
        checkpoints = np.unique(
            np.linspace(1, horizon, config.trace_points).astype(np.int64)
        )
    else:
        checkpoints = np.empty(0, dtype=np.int64)
    trace: list[tuple[int, float]] = []
    next_checkpoint = 0

    started = time.perf_counter()
    slot = 0
    while slot < horizon:
        block = min(_BLOCK, horizon - slot)
        requests = np.empty((block, episodes, n_sensors), dtype=np.int16)
        energy = np.empty((block, episodes, n_sensors), dtype=np.int8)
        for e in range(episodes):
            requests[:, e] = (req_rngs[e].random((block, n_sensors, n_users)) < probs).sum(axis=2)
            energy[:, e] = energy_rngs[e].random((block, n_sensors)) < rates
        if draw_mixture:
            mix_lower = np.empty((block, episodes, n_sensors), dtype=bool)
            for e in range(episodes):
                mix_lower[:, e] = mix_rngs[e].random((block, n_sensors)) < policy.mixture_eta
        for i in range(block):
            r = requests[i]
            actions, proposals = policy.decide(
                r, battery, age, mix_lower[i] if draw_mixture else None, trunc_rngs
            )
            proposal_hist[episode_rows, proposals] += 1
            if policy.budget is not None:
                counts = actions.sum(axis=1)
                if (counts > policy.budget).any():
                    raise SimulationError("per-slot budget violated")
            _, battery, age = slot_step(battery, age, actions, energy[i], capacities, delta_max)
            cost_sum += np.sum(r * age, axis=1, dtype=np.int64)
            command_sum += actions.sum(axis=1, dtype=np.int64)
            slot += 1
            if next_checkpoint < checkpoints.size and slot == checkpoints[next_checkpoint]:
                trace.append((slot, float(cost_sum.mean() / (n_users * n_sensors * slot))))
                next_checkpoint += 1
        if (battery < 0).any() or (battery > capacities).any():
            raise SimulationError("battery left its feasible range")

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
        wall_time=time.perf_counter() - started,
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
