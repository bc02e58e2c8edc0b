"""Versioned CSV serialization for solved policies.

Both formats start with four header lines: a version tag, a network
fingerprint (so a policy cannot silently be replayed on a different
instance), solve metadata, and the column names. The body is integers only:
row-index columns followed by 0/1 action columns, with the bytes
``np.savetxt(fmt="%d", delimiter=",")`` would give. Both bodies are laid out
as bytes from a table of the row indices' digits (:func:`_index_digits`). The
joint body comes in chunks of ``_CHUNK_ROWS`` rows, its row i being i's digits
and then ``,a`` per sensor. The mixed body, its row (c, i) being ``f"{c},"``,
state i's digits and the two action bits, has one all-zero layout
(:func:`_mixed_layout`) that the writer and the reader share: each distinct
row shape is laid out once and copied per class, and the layout gives the
offset of every row's action bits, where the writer adds the bits and the
reader takes them. Floats in the metadata round-trip through repr.

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
    the shorter indices, to be dropped. The joint body takes one table per
    chunk; the mixed layout takes one for its largest class, and every row
    shape slices it. The table stays int64: with a uint8 copy the mixed
    writer freed other block sizes, and simulations run after a hand-off
    faulted in more fresh pages."""
    index = np.arange(start, stop)
    digits = np.empty((width, index.size), dtype=np.int64)  # one place per row
    for k, row in enumerate(digits):
        place = 10 ** (width - 1 - k)
        np.floor_divide(index, place, out=row)
        row %= 10
        row += ord("0")
        if place > 1:
            row[index < place] = 0
    return digits.T


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


def _mixed_layout(sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The mixed body of classes of ``sizes`` states with every bit 0, as a
    uint8 array, and the offset of each row's lower bit; the upper bit is 2
    bytes later.

    Row (c, i) is ``f"{c},"``, state i's digits, ``",lower,upper"`` and a
    newline. Each distinct (class size, class-number width) shape is laid out
    once from one digit table, with the padding zeros dropped; each class
    copies its shape and writes its number at the row starts.
    """
    digits = _index_digits(0, max(sizes), len(str(max(sizes) - 1)))
    shapes: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    texts, lowers, at = [], [], 0
    for c, n in enumerate(sizes):
        lead = str(c).encode()
        if (n, len(lead)) not in shapes:
            rows = np.zeros((n, len(lead) + digits.shape[1] + 6), dtype=np.uint8)
            rows[:, :len(lead)] = ord("0")  # the class number's places
            rows[:, len(lead)] = ord(",")
            rows[:, len(lead) + 1:-5] = digits[:n]
            rows[:, -5:] = np.frombuffer(b",0,0\n", dtype=np.uint8)
            text = rows.ravel()[rows.ravel() != 0]
            ends = np.flatnonzero(text == ord("\n"))
            shapes[n, len(lead)] = text, np.append(0, ends[:-1] + 1), ends - 3
        shape, starts, lower = shapes[n, len(lead)]
        # A copy per class and one concatenate: with the classes written into
        # one preallocated body, simulations run after a hand-off faulted in
        # about 2 MB of fresh pages per bench round (glibc trimmed the heap).
        text = shape.copy()
        for j, code in enumerate(lead):
            text[starts + j] = code
        texts.append(text)
        lowers.append(lower + at)
        at += text.size
    return np.concatenate(texts), np.concatenate(lowers)


def _write(
    path: str | Path, tag: str, config: NetworkConfig, meta: str, columns: str,
    body: Iterable[bytes | np.ndarray],
) -> None:
    """Write the four header lines, then the bytes of ``body``."""
    with open(path, "wb") as fh:
        fh.write(f"{tag}\n# network={network_fingerprint(config)}\n# {meta}\n{columns}\n".encode())
        fh.writelines(body)


def _read(
    path: str | Path, tag: str, config: NetworkConfig, columns: str, blank: np.ndarray,
    first: np.ndarray, bits: int,
) -> tuple[np.ndarray, dict[str, str]]:
    """The 0/1 action columns and the header metadata of a policy file.

    Only the writer's bytes are accepted: the body must equal ``blank``, the
    writer's body for this network with every bit 0 as a uint8 array, except
    that the ``bits`` one-byte fields of each row, from the row's offset in
    ``first`` on and 2 bytes apart, may each be ``0`` or ``1``. The file is
    read as bytes, so CRLF line ends are not translated.
    """
    path = Path(path)
    if not path.exists():
        raise PolicyFileError(f"policy file not found: {path}")
    *head, body = (path.read_bytes().split(b"\n", 4) + [b""] * 4)[:5]
    try:
        head = [line.decode() for line in head]
        if not body.isascii():  # checked only: the body is compared as bytes
            body.decode()
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
    got = np.frombuffer(body, dtype=np.uint8)
    at = np.empty((first.size, bits), dtype=np.int64)  # action bytes, in order
    for j in range(bits):  # column by column: numpy loops run along the rows
        np.add(first, 2 * j, out=at[:, j])
    at = at.ravel()
    actions = got[at] if got.size == blank.size else None
    # The blank's action bytes are "0", so the bytes that differ from it are
    # the action bytes other than "0" exactly when no other byte differs.
    if actions is None or (
        np.count_nonzero(got != blank) != np.count_nonzero(actions != ord("0"))
    ):
        n = min(got.size, blank.size)
        bad = got[:n] != blank[:n]
        bad[at[:np.searchsorted(at, n)]] = False
        differs = np.argmax(np.append(bad, True))
        line = 5 + np.searchsorted(first + 2 * bits - 1, differs)  # row ends, after the last bit
        raise PolicyFileError(f"{path}: line {line} differs from the writer's rows for this network")
    actions = actions.reshape(-1, bits)
    actions -= ord("0")
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
    body, lower = _mixed_layout([p.num_states for p in per_class])
    body[lower] += np.concatenate([p.lower.actions for p in per_class]).view(np.uint8)
    lower += 2  # the upper bits
    body[lower] += np.concatenate([p.upper.actions for p in per_class]).view(np.uint8)
    _write(path, MIXED_TAG, config, meta, MIXED_COLUMNS, [body])


def load_mixed_policies(
    path: str | Path, config: NetworkConfig
) -> tuple[tuple[MixedPolicy, ...], dict[str, str]]:
    """Read mixed tables back, validate them, and hand one to every sensor."""
    classes, _, class_of = sensor_classes(config)
    sizes = [sensor_model(s, config.delta_max).num_states for s in classes]
    blank, lower = _mixed_layout(sizes)
    actions, meta = _read(path, MIXED_TAG, config, MIXED_COLUMNS, blank, lower, 2)
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
    blank = np.frombuffer(b"".join(_joint_rows(np.zeros((total, k), np.int8))), np.uint8)
    first = np.flatnonzero(blank == ord("\n")) - (2 * k - 1)
    actions, meta = _read(path, JOINT_TAG, config, _joint_columns(k), blank, first, k)
    try:
        policy = JointPolicy(actions=actions, budget=config.budget, state_sizes=sizes)
    except ValueError as exc:
        raise PolicyFileError(f"{path}: {exc}") from exc
    return policy, meta
