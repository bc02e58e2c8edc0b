"""Versioned CSV serialization for solved policies.

Both formats start with four header lines: a version tag, a network
fingerprint (so a policy cannot silently be replayed on a different
instance), solve metadata, and the column names. The body is integers only:
row-index columns followed by 0/1 action columns, with the bytes
``np.savetxt(fmt="%d", delimiter=",")`` would give. Both bodies are laid out
as bytes from a table of the row indices' digits (:func:`_index_digits`): the
joint body in chunks of ``_CHUNK_ROWS`` rows, its row i being i's digits and
then ``,a`` per sensor; the mixed body one sensor class at a time, its row
(c, i) being ``f"{c},"``, state i's digits and the two action bits. Floats in
the metadata round-trip through repr.

The writer alone defines the format: the reader accepts only the bytes the
writer gives for the network, with each action byte ``0`` or ``1``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PolicyFileError
from .exact_solver import JOINT_STATE_CAP, JointPolicy
from .model import NetworkConfig, joint_state_sizes, sensor_classes, sensor_model
from .relaxed_solver import MixedPolicy, PolicyTable, RelaxedSolution
from .runtime_policies import class_policies

__all__ = [
    "network_fingerprint",
    "save_mixed_policies",
    "load_mixed_policies",
    "save_joint_policy",
    "load_joint_policy",
]

MIXED_TAG = "# aoisched-mixed-policy v2"
JOINT_TAG = "# aoisched-joint-policy v2"
MIXED_COLUMNS = "class,state_index,action_lower,action_upper"
_CHUNK_ROWS = 1 << 14  # joint body rows laid out at once


def network_fingerprint(config: NetworkConfig) -> str:
    """Short stable hash of a problem instance."""
    parts = [
        f"K={config.num_sensors}",
        f"N={config.num_users}",
        f"M={config.budget}",
        f"delta_max={config.delta_max}",
    ]
    # One text per sensor class; ``SensorParams`` stores no -0.0, so every
    # sensor of a class has its class's text.
    classes, _, class_of = sensor_classes(config)
    texts = [
        f"({s.harvest_rate!r},{s.battery_capacity},[{','.join(map(repr, s.request_probs))}])"
        for s in classes
    ]
    parts.extend(map(texts.__getitem__, class_of.tolist()))
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def _joint_columns(num_sensors: int) -> str:
    return "state_index," + ",".join(f"action_{k}" for k in range(num_sensors))


def _index_digits(start: int, stop: int, width: int) -> np.ndarray:
    """The decimal digits of the indices ``start`` to ``stop`` - 1 as character
    codes, one row of ``width`` each, most significant digit first; zeros pad
    the shorter indices, to be dropped. The table stays int64, as numpy
    computes it: with a uint8 copy the mixed writer frees other block sizes,
    and simulations run after a hand-off faulted in more fresh pages."""
    place = 10 ** np.arange(width)[::-1]
    index = np.arange(start, stop)[:, None]
    return np.where((index < place) & (place > 1), 0, ord("0") + index // place % 10)


def _joint_rows(actions: np.ndarray) -> Iterator[bytes]:
    """The joint body of the (states, K) 0/1 ``actions``, in chunks of
    ``_CHUNK_ROWS`` rows: row i is i's digits, ``,a`` per sensor and a newline,
    laid out as fixed-width bytes with no object per row."""
    total, k = actions.shape
    width = len(str(total - 1))
    for start in range(0, total, _CHUNK_ROWS):
        bits = actions[start:start + _CHUNK_ROWS]
        rows = np.empty((bits.shape[0], width + 2 * k + 1), dtype=np.uint8)
        rows[:, :width] = _index_digits(start, start + bits.shape[0], width)
        rows[:, width:-1:2] = ord(",")
        rows[:, width + 1::2] = ord("0") + bits
        rows[:, -1] = ord("\n")
        text = rows.ravel()
        yield text[text != 0].tobytes()


def _mixed_rows(per_class: Sequence[tuple[np.ndarray, np.ndarray]]) -> Iterator[bytes]:
    """The mixed body of per-class (lower, upper) int8 bits, one text per class.

    Row (c, i) is ``f"{c},"``, state i's index from a digit table shared by
    the classes, ``",lower,upper"`` and a newline. Each row is laid out in
    one fixed-width row of bytes, with no object per row; zero bytes pad the
    shorter indices and are dropped.
    """
    n = max(lower.size for lower, _ in per_class)
    digits = _index_digits(0, n, len(str(n - 1)))
    for c, (lower, upper) in enumerate(per_class):
        lead = f"{c},".encode()
        rows = np.zeros((lower.size, len(lead) + digits.shape[1] + 5), dtype=np.uint8)
        rows[:, :len(lead)] = np.frombuffer(lead, dtype=np.uint8)
        rows[:, len(lead):-5] = digits[:lower.size]
        rows[:, -5:] = np.frombuffer(b",0,0\n", dtype=np.uint8)
        rows[:, -4] += lower.view(np.uint8)
        rows[:, -2] += upper.view(np.uint8)
        text = rows.ravel()
        yield text[text != 0].tobytes()


def _write(
    path: str | Path, tag: str, config: NetworkConfig, meta: str, columns: str,
    body: Iterable[bytes],
) -> None:
    """Write the four header lines, then the bytes of ``body``."""
    with open(path, "wb") as fh:
        fh.write(f"{tag}\n# network={network_fingerprint(config)}\n# {meta}\n{columns}\n".encode())
        fh.writelines(body)


def _read(
    path: str | Path, tag: str, config: NetworkConfig, columns: str, blank: bytes, bits: int
) -> tuple[np.ndarray, dict[str, str]]:
    """The 0/1 action columns and the header metadata of a policy file.

    Only the writer's bytes are accepted: the body must equal ``blank``, the
    writer's body for this network with every bit 0, except that the last
    ``bits`` one-byte fields of each row may each be ``0`` or ``1``. The file
    is read as bytes, so CRLF line ends are not translated.
    """
    path = Path(path)
    if not path.exists():
        raise PolicyFileError(f"policy file not found: {path}")
    *head, body = (path.read_bytes().split(b"\n", 4) + [b""] * 4)[:5]
    try:
        head = [line.decode() for line in head]
        body.decode()  # checked only: the body is compared as bytes
    except UnicodeDecodeError as exc:
        raise PolicyFileError(f"{path}: not a text file: {exc}") from None
    if head[0] != tag:
        raise PolicyFileError(f"{path}: expected header '{tag}', found {head[0]!r}")
    if head[3] != columns:
        raise PolicyFileError(f"{path}: expected columns '{columns}', found {head[3]!r}")
    meta = dict(token.split("=", 1) for token in " ".join(head[1:3]).split() if "=" in token)
    if meta.get("network") != network_fingerprint(config):
        raise PolicyFileError(f"{path}: policy was solved for a different network")
    if not body:
        raise PolicyFileError(f"{path}: no policy rows")
    expected = np.frombuffer(blank, dtype=np.uint8)
    got = np.frombuffer(body, dtype=np.uint8)
    ends = np.flatnonzero(expected == ord("\n"))
    at = (ends[:, None] - np.arange(2 * bits - 1, 0, -2)).ravel()  # action bytes, in order
    n = min(got.size, expected.size)
    bad = got[:n] != expected[:n]
    bad[at[:np.searchsorted(at, n)]] = False
    if got.size != expected.size or bad.any():
        line = 5 + np.searchsorted(ends, np.argmax(np.append(bad, True)))
        raise PolicyFileError(f"{path}: line {line} differs from the writer's rows for this network")
    actions = got[at].reshape(-1, bits) - ord("0")
    if (actions > 1).any():
        raise PolicyFileError(f"{path}: action bits must be 0 or 1")
    return actions.view(np.int8), meta


def save_mixed_policies(
    path: str | Path, config: NetworkConfig, solution: RelaxedSolution
) -> None:
    """Write the mixed tables: one row per (sensor class, state).

    Classes are numbered as by :func:`sensor_classes`; identical sensors share
    one table.
    """
    _, per_class = class_policies(config, solution.policies)
    meta = (
        f"eta={solution.eta!r} mu_star={solution.mu_star!r} "
        f"mu_minus={solution.lagrange.mu_minus!r} mu_plus={solution.lagrange.mu_plus!r} "
        f"active={int(solution.constraint_active)} avg_cost={solution.avg_cost!r} "
        f"command_rate={solution.command_rate!r}"
    )
    tables = [(p.lower.actions, p.upper.actions) for p in per_class]
    _write(path, MIXED_TAG, config, meta, MIXED_COLUMNS, _mixed_rows(tables))


def load_mixed_policies(
    path: str | Path, config: NetworkConfig
) -> tuple[tuple[MixedPolicy, ...], dict[str, str]]:
    """Read mixed tables back, validate them, and hand one to every sensor."""
    classes, _, class_of = sensor_classes(config)
    sizes = [sensor_model(s, config.delta_max).num_states for s in classes]
    blank = b"".join(_mixed_rows([(np.zeros(n, np.int8),) * 2 for n in sizes]))
    actions, meta = _read(path, MIXED_TAG, config, MIXED_COLUMNS, blank, 2)
    numbers = []
    for key in ("eta", "mu_minus", "mu_plus", "avg_cost"):
        if key not in meta:
            raise PolicyFileError(f"{path}: metadata lacks {key}")
        try:
            numbers.append(float(meta[key]))
        except ValueError:
            raise PolicyFileError(f"{path}: metadata {key}={meta[key]!r} is not a number") from None
    eta, mu_minus, mu_plus, _ = numbers
    splits = np.cumsum(sizes)[:-1]
    try:
        per_class = [
            MixedPolicy(
                lower=PolicyTable(actions=lo, mu=mu_minus),
                upper=PolicyTable(actions=up, mu=mu_plus),
                eta=eta,
            )
            for lo, up in zip(np.split(actions[:, 0], splits), np.split(actions[:, 1], splits))
        ]
    except ValueError as exc:
        raise PolicyFileError(f"{path}: {exc}") from exc
    return tuple(map(per_class.__getitem__, class_of.tolist())), meta


def save_joint_policy(
    path: str | Path, config: NetworkConfig, policy: JointPolicy, avg_cost: float
) -> None:
    """Write a joint policy: one row per joint state, one column per action bit."""
    meta = f"avg_cost={avg_cost!r} budget={policy.budget}"
    _write(path, JOINT_TAG, config, meta, _joint_columns(config.num_sensors),
           _joint_rows(policy.actions))


def load_joint_policy(
    path: str | Path, config: NetworkConfig
) -> tuple[JointPolicy, dict[str, str]]:
    sizes = joint_state_sizes(config)
    total = math.prod(sizes)
    if total > JOINT_STATE_CAP:  # no joint solve writes such a file
        raise PolicyFileError(f"{path}: no joint policy exists above {JOINT_STATE_CAP} states")
    k = config.num_sensors
    blank = b"".join(_joint_rows(np.zeros((total, k), np.int8)))
    actions, meta = _read(path, JOINT_TAG, config, _joint_columns(k), blank, k)
    try:
        policy = JointPolicy(actions=actions, budget=config.budget, state_sizes=sizes)
    except ValueError as exc:
        raise PolicyFileError(f"{path}: {exc}") from exc
    return policy, meta
