"""Subprocess-per-host transport: one real OS process per "host".

Each host is a ``python -m repro.runner.dispatch.hostworker`` child
speaking the line-oriented wire protocol over stdin/stdout.  This is
the smallest transport that crosses a genuine process boundary -- the
shape an ssh- or queue-backed transport will take -- and the one
``run_sweep(workers=N)`` and ``repro sweep --workers N`` run on.  Each
step first hands every live host without work in flight its next
queued unit, then waits on one host's reply, so hosts compute
concurrently.  Replies are awaited with ``select`` on the pipes, so
this transport runs on POSIX only.

Only importable point functions are visible to subprocess hosts (each
child starts from a fresh interpreter and imports
:mod:`repro.runner.points`); test-local registrations need
:class:`~repro.runner.dispatch.transport.LocalHostPool`.

Fault support: ``kill`` only (the process is SIGKILLed, which is the
real thing).  ``stall``/``partition`` need the deterministic stepped
transport -- a wall-clock stall in a live process would make recovery
timing-dependent, which is exactly what the fault seam exists to
avoid.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
from collections import deque
from typing import Deque, Dict, List, Optional

import repro

from repro.runner.dispatch import wire
from repro.runner.dispatch.faultplan import KILL, HostFault
from repro.runner.dispatch.transport import (
    REPLY_BUSY,
    REPLY_ERROR,
    REPLY_IDLE,
    REPLY_RECORD,
    HostPool,
    HostReply,
)
from repro.runner.dispatch.wire import WorkUnit


def worker_env() -> Dict[str, str]:
    """The child's environment: the parent's, with the directory that
    resolves ``import repro`` for *this* process prepended to
    ``PYTHONPATH``.

    The parent may have imported ``repro`` from a source checkout via
    ``sys.path`` manipulation (pytest's rootdir conftest, an IDE
    runner) without PYTHONPATH ever being set -- a bare inherited
    environment would then leave ``python -m
    repro.runner.dispatch.hostworker`` unable to import the package,
    and every host would be born dead.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH", "")
    parts = [package_root] + [p for p in existing.split(os.pathsep) if p]
    # Dedup while keeping order: the repro root must stay first.
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    return env


class _SubprocessHost:
    __slots__ = ("host_id", "proc", "queue", "in_flight")

    def __init__(self, host_id: int) -> None:
        self.host_id = host_id
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.runner.dispatch.hostworker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=worker_env(),
        )
        self.queue: Deque[WorkUnit] = deque()
        self.in_flight: Optional[WorkUnit] = None

    def alive(self) -> bool:
        return self.proc.poll() is None

    def send(self, message) -> bool:
        if not self.alive():
            return False
        try:
            self.proc.stdin.write(wire.encode(message) + "\n")
            self.proc.stdin.flush()
            return True
        except (BrokenPipeError, OSError, ValueError):
            return False

    def read_reply(self, timeout: float):
        """One decoded wire message, or None if nothing arrived in
        ``timeout`` seconds (or the pipe is gone)."""
        stdout = self.proc.stdout
        if stdout is None:
            return None
        ready, _, _ = select.select([stdout], [], [], timeout)
        if not ready:
            return None
        line = stdout.readline()
        if not line:  # EOF: the process died
            return None
        try:
            return wire.decode(line)
        except ValueError:
            return None

    def kill(self) -> None:
        if self.alive():
            self.proc.kill()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:  # pragma: no cover - kill is final
            pass
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:  # pragma: no cover
                    pass


class SubprocessHostPool(HostPool):
    """One subprocess per host; replies polled with a bounded wait.

    ``step_timeout`` bounds how long one dispatcher step waits for an
    in-flight result.  A live-but-slow host answers with ``busy``
    (liveness comes from ``poll()``), so slow points cost steps, never
    false host-loss verdicts; only a dead process goes silent.
    """

    supported_faults = (KILL,)

    def __init__(self, hosts: int, step_timeout: float = 5.0) -> None:
        if hosts < 1:
            raise ValueError("hosts must be >= 1")
        self.step_timeout = step_timeout
        self._hosts: Dict[int, _SubprocessHost] = {
            host_id: _SubprocessHost(host_id) for host_id in range(hosts)
        }
        try:
            self._handshake()
        except Exception:
            self.close()
            raise

    def _handshake(self) -> None:
        """Version-check every host before any work is leased.

        A mismatched worker fails here with a named
        :class:`~repro.runner.dispatch.wire.WireVersionError` instead
        of a confusing decode failure mid-sweep.  A host that says
        *nothing* is tolerated -- silence is the heartbeat path's
        verdict to make, not the handshake's.
        """
        for host_id, target in sorted(self._hosts.items()):
            if not target.send(wire.hello_to_wire()):
                continue
            message = target.read_reply(self.step_timeout)
            if message is None:
                continue
            wire.check_hello(message, host_id)

    def host_ids(self) -> List[int]:
        return sorted(self._hosts)

    def submit(self, host: int, unit: WorkUnit) -> None:
        target = self._hosts[host]
        if not target.alive():
            # Lost in transit (see LocalHostPool.submit): the ledger
            # keeps the point and heartbeat recovery re-leases it.
            return
        target.queue.append(unit)

    def step(self, host: int) -> Optional[HostReply]:
        # Feed every idle host before waiting on this one, so no host
        # sits without work while another host's reply is awaited.
        for other in self._hosts.values():
            if other.in_flight is None and other.queue and other.alive():
                unit = other.queue.popleft()
                if other.send(unit.to_wire()):
                    other.in_flight = unit
                else:
                    # The pipe died between poll() and write: put the
                    # unit back so the dispatcher's ledger and our
                    # queue agree.
                    other.queue.appendleft(unit)
        target = self._hosts[host]
        if not target.alive():
            return None
        if target.in_flight is None:
            if target.queue:  # the send above failed
                return None
            return HostReply(host=host, kind=REPLY_IDLE)
        message = target.read_reply(self.step_timeout)
        if message is None:
            if target.alive():
                return HostReply(host=host, kind=REPLY_BUSY)
            return None
        op = message.get("op")
        unit = target.in_flight
        if op == wire.OP_RECORD:
            target.in_flight = None
            return HostReply(
                host=host,
                kind=REPLY_RECORD,
                record=wire.record_from_wire(message),
                telemetry=message.get("telemetry"),
            )
        if op == wire.OP_ERROR:
            target.in_flight = None
            index = int(message.get("index", -1))
            if index < 0 and unit is not None:
                index = unit.index
            return HostReply(
                host=host,
                kind=REPLY_ERROR,
                index=index,
                error=str(message.get("error", "")),
            )
        # pongs / unknown chatter count as liveness (and may carry a
        # telemetry snapshot for the fleet view).
        return HostReply(host=host, kind=REPLY_BUSY, telemetry=message.get("telemetry"))

    def inject(self, fault: HostFault) -> None:
        if fault.kind != KILL:
            raise ValueError(
                f"subprocess transport supports only {KILL!r} faults "
                f"(got {fault.kind!r}); use LocalHostPool for "
                f"stall/partition scenarios"
            )
        self._hosts[fault.host].kill()

    def discard(self, host: int) -> None:
        self._hosts[host].kill()
        self._hosts[host].queue.clear()

    def close(self) -> None:
        for target in self._hosts.values():
            if target.alive():
                target.send({"op": wire.OP_EXIT})
            target.kill()
