"""One execution of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload fig2-zeus --seed 1 [--trace]

``run.py`` starts one of these per execution, so module-level caches
(such as the shared RC4 keystream cache) start cold and ``peak_rss_mb``
is this execution's own high-water mark.  Interpreter start and imports
happen before the timed phases.  The last line of standard output is one
JSON object: ``setup_s``, ``run_s``, ``peak_rss_mb``, the wall time of
each chunk of the two phases (``setup_laps``, ``run_laps``), the SHA-256
of the output digest, the digest's self-check problems and, with
``--trace``, the per-layer metrics and the recorder's per-layer table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from typing import Any, Dict, Iterator, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs the src path above)


def digest_hash(digest: Dict[str, Any]) -> str:
    """SHA-256 of a digest's canonical JSON form."""
    canonical = json.dumps(digest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def timed_laps(phase: Iterator[None]) -> List[float]:
    """Run one workload phase; the wall time of each of its chunks."""
    laps = []
    last = time.perf_counter()
    for _ in phase:
        now = time.perf_counter()
        laps.append(now - last)
        last = now
    laps.append(time.perf_counter() - last)
    return laps


def execute(name: str, seed: int, size: str = "full", traced: bool = False) -> Dict[str, Any]:
    """Run one workload once; the result dict ``child.py`` prints."""
    workload = workloads.WORKLOADS[name]
    state: Dict[str, Any] = {"seed": seed, "size": workloads.SIZES[name][size]}
    recorder = instrumentation = None
    if traced:
        from instrument import Instrumentation, classify_callback
        from tracing import SpanRecorder

        recorder = SpanRecorder(classify=classify_callback)
        instrumentation = Instrumentation(recorder).install()
        recorder.start()
    try:
        setup_laps = timed_laps(workload.setup(state))
        run_laps = timed_laps(workload.run(state))
    finally:
        if recorder is not None:
            recorder.stop()
            instrumentation.uninstall()
    digest = workload.digest(state)
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "setup_s": sum(setup_laps),
        "run_s": sum(run_laps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_laps": setup_laps,
        "run_laps": run_laps,
        "hash": digest_hash(digest),
        "problems": workload.check(digest),
    }
    if recorder is not None:
        from instrument import UNITS, layer_metrics

        result["layers"] = {
            name: {"value": value, "unit": UNITS[name]}
            for name, value in layer_metrics(instrumentation, state).items()
        }
        result["table"] = recorder.table()
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = execute(args.workload, args.seed, traced=args.trace)
    except Exception:  # reported to run.py, which counts a failed run
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    status = main()
    # Skip tearing down the simulation's heap, up to a second on the
    # largest workload, so that more executions fit into a run.
    sys.stdout.flush()
    os._exit(status)
