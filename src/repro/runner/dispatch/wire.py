"""Wire protocol for dispatcher <-> host traffic.

One JSON object per line, both directions.  The vocabulary is small on
purpose so an ssh- or queue-backed transport can speak it later
without touching the dispatcher: requests are ``hello`` (version
handshake), ``run`` (a work unit), ``ping`` (liveness probe), and
``exit``; replies are ``record`` (a completed
:class:`~repro.runner.sweep.PointRecord`), ``error`` (the point
function raised), ``pong``, and the ``hello`` echo.

Work units carry the full ``(point, params, seed)`` triple plus the
point index and attempt number, so a host needs no sweep context
beyond an importable point registry -- the same placement-independence
contract the executors rely on (see :mod:`repro.runner.sweep`).

Versioning: the pool opens each host with a ``hello`` carrying
:data:`WIRE_VERSION`; the worker echoes its own version back.  A
mismatch (or a pre-versioned worker that answers "unknown op") raises
:class:`WireVersionError` -- a named, explained failure instead of
whatever decode error a silently incompatible stream would eventually
produce.  Replies may additionally carry a ``telemetry`` dict (see
:mod:`repro.obs.telemetry`); readers ignore unknown keys, so telemetry
is forward-compatible chatter, never load-bearing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.runner.sweep import PointRecord

#: Bump on incompatible wire changes; the hello handshake compares it.
WIRE_VERSION = 1

#: Request ops.
OP_HELLO = "hello"
OP_RUN = "run"
OP_PING = "ping"
OP_EXIT = "exit"

#: Reply ops (plus the OP_HELLO echo).
OP_RECORD = "record"
OP_ERROR = "error"
OP_PONG = "pong"


class WireVersionError(RuntimeError):
    """A host speaks a different wire protocol version (or none)."""


def hello_to_wire() -> Dict[str, Any]:
    """The handshake message either side opens with."""
    return {"op": OP_HELLO, "version": WIRE_VERSION}


def check_hello(message: Mapping[str, Any], host: int) -> None:
    """Validate a host's handshake reply.

    Raises :class:`WireVersionError` with both versions named on a
    mismatch -- including the pre-versioned-worker case, where an old
    worker answers the hello itself with an "unknown op" error.
    """
    op = message.get("op")
    if op == OP_ERROR and "unknown op" in str(message.get("error", "")):
        raise WireVersionError(
            f"host {host} runs a pre-versioned hostworker (it rejected the "
            f"hello handshake: {message.get('error')!r}); this dispatcher "
            f"speaks wire version {WIRE_VERSION} -- update the host"
        )
    if op != OP_HELLO:
        raise WireVersionError(
            f"host {host} answered the hello handshake with op {op!r} "
            f"instead of echoing it; expected wire version {WIRE_VERSION}"
        )
    version = message.get("version")
    if version != WIRE_VERSION:
        raise WireVersionError(
            f"host {host} speaks wire version {version!r}, dispatcher "
            f"speaks {WIRE_VERSION}; align the repro versions on both ends"
        )


@dataclass(frozen=True)
class WorkUnit:
    """One leased point execution: plain data, JSON-able both ways."""

    point: str
    params: Mapping[str, Any]
    seed: int
    index: int
    attempt: int
    capture: bool = False

    def to_wire(self) -> Dict[str, Any]:
        return {
            "op": OP_RUN,
            "point": self.point,
            "params": dict(self.params),
            "seed": self.seed,
            "index": self.index,
            "attempt": self.attempt,
            "capture": self.capture,
        }

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "WorkUnit":
        return cls(
            point=str(data["point"]),
            params=dict(data["params"]),
            seed=int(data["seed"]),
            index=int(data["index"]),
            attempt=int(data["attempt"]),
            capture=bool(data.get("capture", False)),
        )

    def task(self):
        """The executor-layer task tuple (see
        :func:`repro.runner.execute._execute_point`)."""
        return (
            self.point,
            dict(self.params),
            self.seed,
            self.index,
            self.attempt,
            self.capture,
        )


def record_to_wire(
    record: PointRecord, telemetry: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "op": OP_RECORD,
        "index": record.index,
        "point": record.point,
        "params": dict(record.params),
        "seed": record.seed,
        "values": dict(record.values),
        "wall_time": record.wall_time,
        "worker": record.worker,
        "attempts": record.attempts,
    }
    if record.metrics is not None:
        out["metrics"] = dict(record.metrics)
    if telemetry is not None:
        out["telemetry"] = dict(telemetry)
    return out


def record_from_wire(data: Mapping[str, Any]) -> PointRecord:
    return PointRecord(
        index=int(data["index"]),
        point=str(data["point"]),
        params=dict(data["params"]),
        seed=int(data["seed"]),
        values=dict(data["values"]),
        wall_time=float(data.get("wall_time", 0.0)),
        worker=str(data.get("worker", "")),
        attempts=int(data.get("attempts", 1)),
        metrics=data.get("metrics"),
    )


def error_to_wire(index: int, error: str) -> Dict[str, Any]:
    return {"op": OP_ERROR, "index": index, "error": error}


def encode(message: Mapping[str, Any]) -> str:
    """One wire line (no trailing newline); keys sorted so identical
    messages are byte-identical on every host."""
    return json.dumps(message, sort_keys=True, separators=(",", ":"))


def decode(line: str) -> Optional[Dict[str, Any]]:
    """Parse one wire line; None for blank lines (keep-alive noise)."""
    line = line.strip()
    if not line:
        return None
    message = json.loads(line)
    if not isinstance(message, dict) or "op" not in message:
        raise ValueError(f"not a wire message: {line[:80]!r}")
    return message
