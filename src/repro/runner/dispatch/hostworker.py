"""Subprocess host entry point: ``python -m repro.runner.dispatch.hostworker``.

Reads wire messages (one JSON object per line, see
:mod:`repro.runner.dispatch.wire`) on stdin and writes replies to
stdout.  A host is stateless between work units: it resolves each
unit's point function from the import-time registry
(:mod:`repro.runner.points` registers the paper's library), runs it
with the unit's own ``(params, seed)``, and ships the record back.

Point prints are not a concern: point functions return mappings, and
stdout is reserved for the wire, so the worker redirects ``sys.stdout``
to stderr around point execution as a belt-and-braces guard.

Record and pong replies carry a small ``telemetry`` dict (points done,
RSS, wall-clock age) so the dispatcher can render a live fleet view
without extra round-trips; it is advisory chatter the dispatcher never
depends on.
"""

from __future__ import annotations

import contextlib
import sys
import time

# Importing the runner package registers the library point functions.
import repro.runner  # noqa: F401
from repro.obs.telemetry import current_rss_kb, peak_rss_kb
from repro.runner.dispatch import wire
from repro.runner.execute import _execute_point


def host_telemetry(points_done: int, started: float) -> dict:
    """Per-host snapshot attached to record/pong replies."""
    return {
        "points_done": points_done,
        "rss_kb": current_rss_kb(),
        "peak_rss_kb": peak_rss_kb(),
        "wall_s": round(time.perf_counter() - started, 3),
    }


def serve(stdin=None, stdout=None) -> int:
    """The worker loop; separated from ``main`` so tests can drive it
    over in-memory streams."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    started = time.perf_counter()
    points_done = 0

    def reply(message) -> None:
        stdout.write(wire.encode(message) + "\n")
        stdout.flush()

    for line in stdin:
        try:
            message = wire.decode(line)
        except ValueError as exc:
            reply(wire.error_to_wire(-1, f"bad wire line: {exc}"))
            continue
        if message is None:
            continue
        op = message["op"]
        if op == wire.OP_EXIT:
            break
        if op == wire.OP_HELLO:
            # Echo our own version; the pool compares (see
            # wire.check_hello) and rejects mismatches by name.
            reply(wire.hello_to_wire())
            continue
        if op == wire.OP_PING:
            reply({"op": wire.OP_PONG, "telemetry": host_telemetry(points_done, started)})
            continue
        if op == wire.OP_RUN:
            unit = wire.WorkUnit.from_wire(message)
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    record = _execute_point(unit.task())
            except Exception as exc:
                reply(wire.error_to_wire(unit.index, repr(exc)))
            else:
                points_done += 1
                reply(wire.record_to_wire(record, telemetry=host_telemetry(points_done, started)))
            continue
        reply(wire.error_to_wire(-1, f"unknown op {op!r}"))
    return 0


def main() -> int:  # pragma: no cover - exercised via subprocess tests
    return serve()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
