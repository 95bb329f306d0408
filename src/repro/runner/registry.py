"""Point-function registry.

Sweep points reference their work by *name* rather than by callable so
a point can cross a process boundary as plain data.  Hosts resolve
the name back to a function at execution time.  A subprocess host
sees the functions its fresh interpreter registers on import (the
library's, :mod:`repro.runner.points`); one registered later in the
calling process, such as a test-local closure, resolves only in that
process: serially or on in-process hosts.

A point function has the signature::

    fn(params: Mapping[str, Any], seed: int) -> Mapping[str, Any]

It must draw all randomness from ``seed`` and return a plain
JSON-encodable mapping; the runner guarantees nothing else about its
environment.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping

PointFunction = Callable[[Mapping[str, Any], int], Mapping[str, Any]]

_POINTS: Dict[str, PointFunction] = {}


def register_point(name: str) -> Callable[[PointFunction], PointFunction]:
    """Decorator: register ``fn`` as the point function ``name``."""

    def wrap(fn: PointFunction) -> PointFunction:
        if name in _POINTS and _POINTS[name] is not fn:
            raise ValueError(f"point function {name!r} already registered")
        _POINTS[name] = fn
        return fn

    return wrap


def resolve_point(name: str) -> PointFunction:
    try:
        return _POINTS[name]
    except KeyError:
        raise KeyError(
            f"unknown point function {name!r}; registered: {sorted(_POINTS)}"
        ) from None


def registered_points() -> List[str]:
    return sorted(_POINTS)
