"""Versioned CSV serialization for solved policies.

Both formats start with four header lines: a version tag, a network
fingerprint (so a policy cannot silently be replayed on a different
instance), solve metadata, and the column names. The body is integers only:
row-index columns followed by 0/1 action columns, written in chunks of
``_CHUNK_ROWS`` rows with the bytes ``np.savetxt(fmt="%d", delimiter=",")``
would give. Floats in the metadata round-trip through repr.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from pathlib import Path

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
_CHUNK_ROWS = 1024  # body rows formatted by one % each


def network_fingerprint(config: NetworkConfig) -> str:
    """Short stable hash of a problem instance."""
    parts = [
        f"K={config.num_sensors}",
        f"N={config.num_users}",
        f"M={config.budget}",
        f"delta_max={config.delta_max}",
    ]
    # Equal sensors share one text, formatted once; ``SensorParams`` stores no
    # -0.0, so equal sensors have equal texts.
    texts: dict[tuple, str] = {}
    for s in config.sensors:
        key = (s.harvest_rate, s.battery_capacity, s.request_probs)
        text = texts.get(key)
        if text is None:
            probs = ",".join(repr(p) for p in s.request_probs)
            text = texts[key] = f"({s.harvest_rate!r},{s.battery_capacity},[{probs}])"
        parts.append(text)
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def _joint_columns(num_sensors: int) -> str:
    return "state_index," + ",".join(f"action_{k}" for k in range(num_sensors))


def _class_rows(sizes: list[int]) -> np.ndarray:
    """(class, state_index) of every row of a mixed file, in file order."""
    return np.concatenate(
        [np.column_stack((np.full(n, c), np.arange(n))) for c, n in enumerate(sizes)]
    )


def _write(
    path: str | Path, tag: str, config: NetworkConfig, meta: str, columns: str,
    rows: np.ndarray,
) -> None:
    line = ",".join(["%d"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{tag}\n# network={network_fingerprint(config)}\n# {meta}\n{columns}\n")
        for start in range(0, rows.shape[0], _CHUNK_ROWS):
            chunk = rows[start:start + _CHUNK_ROWS]
            fh.write(line * chunk.shape[0] % tuple(chunk.ravel().tolist()))


def _read(
    path: str | Path, tag: str, config: NetworkConfig, columns: str, index: np.ndarray
) -> tuple[np.ndarray, dict[str, str]]:
    """The 0/1 action columns and the header metadata of a policy file.

    The body must have one row per row of ``index`` and one column per name
    in ``columns``; its leading row-index columns must equal ``index``, which
    checks completeness and order at once.
    """
    path = Path(path)
    if not path.exists():
        raise PolicyFileError(f"policy file not found: {path}")
    try:
        with path.open() as fh, warnings.catch_warnings():
            head = [fh.readline().rstrip("\n") for _ in range(4)]
            if head[0] != tag:
                raise PolicyFileError(f"{path}: expected header '{tag}'")
            if head[3] != columns:
                raise PolicyFileError(f"{path}: expected columns '{columns}'")
            meta = dict(
                token.split("=", 1) for token in " ".join(head[1:3]).split() if "=" in token
            )
            if meta.get("network") != network_fingerprint(config):
                raise PolicyFileError(f"{path}: policy was solved for a different network")
            warnings.filterwarnings("error", ".*input contained no data", UserWarning)
            try:
                body = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2)
            except UserWarning:
                raise PolicyFileError(f"{path}: no policy rows") from None
            except ValueError as exc:
                raise PolicyFileError(f"{path}: malformed policy row: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PolicyFileError(f"{path}: not a text file: {exc}") from None
    shape = (index.shape[0], columns.count(",") + 1)
    if body.shape != shape or not np.array_equal(body[:, : index.shape[1]], index):
        raise PolicyFileError(f"{path}: incomplete or misordered policy table")
    actions = body[:, index.shape[1]:]
    if not np.isin(actions, (0, 1)).all():
        raise PolicyFileError(f"{path}: action bits must be 0 or 1")
    return actions, meta


def save_mixed_policies(
    path: str | Path, config: NetworkConfig, solution: RelaxedSolution
) -> None:
    """Write the mixed tables: one row per (sensor class, state).

    Classes are numbered as by :func:`sensor_classes`; identical sensors share
    one table.
    """
    _, per_class = class_policies(config, solution.policies)
    rows = np.column_stack((
        _class_rows([p.num_states for p in per_class]),
        np.concatenate([p.lower.actions for p in per_class]),
        np.concatenate([p.upper.actions for p in per_class]),
    ))
    meta = (
        f"eta={solution.eta!r} mu_star={solution.mu_star!r} "
        f"mu_minus={solution.lagrange.mu_minus!r} mu_plus={solution.lagrange.mu_plus!r} "
        f"active={int(solution.constraint_active)} avg_cost={solution.avg_cost!r} "
        f"command_rate={solution.command_rate!r}"
    )
    _write(path, MIXED_TAG, config, meta, MIXED_COLUMNS, rows)


def load_mixed_policies(
    path: str | Path, config: NetworkConfig
) -> tuple[tuple[MixedPolicy, ...], dict[str, str]]:
    """Read mixed tables back, validate them, and hand one to every sensor."""
    classes, _, class_of = sensor_classes(config)
    sizes = [sensor_model(s, config.delta_max).num_states for s in classes]
    actions, meta = _read(path, MIXED_TAG, config, MIXED_COLUMNS, _class_rows(sizes))
    numbers = []
    for key in ("eta", "mu_minus", "mu_plus"):
        if key not in meta:
            raise PolicyFileError(f"{path}: metadata lacks {key}")
        try:
            numbers.append(float(meta[key]))
        except ValueError:
            raise PolicyFileError(f"{path}: metadata {key}={meta[key]!r} is not a number") from None
    eta, mu_minus, mu_plus = numbers
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
    return tuple(per_class[c] for c in class_of), meta


def save_joint_policy(
    path: str | Path, config: NetworkConfig, policy: JointPolicy, avg_cost: float
) -> None:
    """Write a joint policy: one row per joint state, one column per action bit."""
    rows = np.column_stack((np.arange(policy.num_states), policy.actions))
    meta = f"avg_cost={avg_cost!r} budget={policy.budget}"
    _write(path, JOINT_TAG, config, meta, _joint_columns(config.num_sensors), rows)


def load_joint_policy(
    path: str | Path, config: NetworkConfig
) -> tuple[JointPolicy, dict[str, str]]:
    sizes = joint_state_sizes(config)
    total = math.prod(sizes)
    if total > JOINT_STATE_CAP:  # no joint solve writes such a file
        raise PolicyFileError(f"{path}: no joint policy exists above {JOINT_STATE_CAP} states")
    index = np.arange(total)[:, None]
    actions, meta = _read(
        path, JOINT_TAG, config, _joint_columns(config.num_sensors), index
    )
    try:
        policy = JointPolicy(actions=actions, budget=config.budget, state_sizes=sizes)
    except ValueError as exc:
        raise PolicyFileError(f"{path}: {exc}") from exc
    return policy, meta
