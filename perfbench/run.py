"""The repository's benchmark: three simulation workloads timed end to
end, plus a traced per-layer table.  See perfbench/README.md.

    python3 perfbench/run.py --workload fig2-zeus --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload fig2-zeus --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --workload all --seconds 40

Every execution of a workload runs in a fresh interpreter (child.py),
one after another -- a closed loop with one client.  Another execution
starts while it is expected to end no later than half an execution past
``--seconds``, so a run lasts ``--seconds`` on average; at least one
always runs.  With ``--trace 0`` the report gives ``setup_s`` and
``run_s`` as the sum, over the phase's chunks, of each chunk's fastest
wall time among those executions (see :func:`fastest_chunks`), and their
median ``peak_rss_mb``.  With ``--trace 1`` the time left for one traced
execution is reserved, and the report gives its per-layer metrics,
``trace.overhead`` comparing its ``run_s`` with the untraced median.

Each execution hashes its simulated outputs.  A run fails when it
raises, when its outputs fail their self-check, or when its hash differs
from the one recorded in expected_hashes.json for its seed (for a seed
with no recorded hash, from the first execution's).  The last line of
standard output is the JSON result: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("fig2-zeus", "fig3-sality", "zeus-20k-churn")
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB"}
#: A traced execution's duration, as a multiple of an untraced one's,
#: reserved when deciding whether another untraced execution fits.
TRACED_FACTOR = 1.5
#: An execution still running this many seconds past ``--seconds`` is
#: killed and counted as failed, so with ``--seconds 40`` one workload's
#: run ends within three minutes.
GRACE_S = 110.0
DEFAULT_SEED = 1


def machine_line() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as stream:
            for line in stream:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"# machine: nproc={os.cpu_count()} cpu={cpu} python={platform.python_version()}"


def load_expected() -> Dict[str, Dict[str, str]]:
    with open(os.path.join(HERE, "expected_hashes.json"), "r", encoding="utf-8") as stream:
        return json.load(stream)["hashes"]


def run_child(workload: str, seed: int, traced: bool, deadline: float) -> Dict[str, Any]:
    """One execution in a fresh interpreter, killed if it is still
    running at ``deadline`` (a ``time.monotonic()`` reading); its JSON
    result, with ``wall_s`` (interpreter start to exit) added."""
    command = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    if traced:
        command.append("--trace")
    # A fixed hash seed keeps dict and set layouts, and so timings, from
    # varying between executions of the same seed.
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    timeout = max(deadline - started, 1.0)
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        result = {"error": f"timed out after {timeout:.0f} s"}
    else:
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        if proc.returncode != 0 and "error" not in result:
            result["error"] = f"exit {proc.returncode}"
    result["traced"] = traced
    result["wall_s"] = time.monotonic() - started
    return result


def fastest_chunks(results: List[Dict[str, Any]], laps: str) -> float:
    """A phase's wall time with the host's slow periods left out: the
    sum, over the phase's chunks, of each chunk's fastest wall time among
    ``results`` (executions of one seed, so a chunk does the same work in
    each).  ``laps`` names the phase's per-chunk wall times.

    On a shared host a slow period lasts seconds to minutes and only
    ever adds time.  Most chunks last well under a second, so while the
    host is slowed for part of a run, some execution usually runs each
    chunk at the host's normal speed; a whole execution's fastest or
    median time needs all of it, or half the run, to be.
    """
    return sum(min(chunk) for chunk in zip(*(result[laps] for result in results), strict=True))


def run_workload(
    workload: str, seed: int, seconds: float, traced: bool, expected: Dict[str, str]
) -> Dict[str, Any]:
    """The closed loop for one workload; returns its report."""
    started = time.monotonic()
    deadline = started + seconds + GRACE_S
    untraced: List[Dict[str, Any]] = []
    reserve = TRACED_FACTOR if traced else 0.0
    while True:
        untraced.append(run_child(workload, seed, False, deadline))
        elapsed = time.monotonic() - started
        longest = max(result["wall_s"] for result in untraced)
        if elapsed + longest * (0.5 + reserve) > seconds:
            break
    executions = list(untraced)
    if traced:
        executions.append(run_child(workload, seed, True, deadline))
    reference = expected.get(str(seed))
    failed = 0
    for result in executions:
        if "error" in result:
            result["verdict"] = "error"
        elif result["problems"]:
            result["verdict"] = "self-check failed: " + "; ".join(result["problems"])
        else:
            if reference is None:
                reference = result["hash"]
            result["verdict"] = "ok" if result["hash"] == reference else "output hash mismatch"
        if result["verdict"] != "ok":
            failed += 1
    ok = [result for result in untraced if "error" not in result]
    report: Dict[str, Any] = {
        "workload": workload,
        "executions": executions,
        "attempted": len(executions),
        "failed": failed,
        "recorded": str(seed) in expected,
        "metrics": {},
    }
    if not ok:
        return report
    if not traced:
        values = {
            "setup_s": fastest_chunks(ok, "setup_laps"),
            "run_s": fastest_chunks(ok, "run_laps"),
            "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in ok),
        }
        report["metrics"] = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()
        }
        return report
    traced_result = executions[-1]
    if "layers" in traced_result:
        untraced_run_s = statistics.median(result["run_s"] for result in ok)
        overhead = traced_result["run_s"] / untraced_run_s - 1.0
        report["metrics"] = dict(
            traced_result["layers"], **{"trace.overhead": {"value": overhead, "unit": "ratio"}}
        )
        report["table"] = traced_result["table"]
    return report


def describe(report: Dict[str, Any]) -> List[str]:
    """Human-readable lines for one workload's report."""
    lines = []
    for index, result in enumerate(report["executions"], 1):
        kind = "traced" if result["traced"] else "untraced"
        if "error" in result:
            lines.append(f"# {report['workload']} #{index} {kind}: {result['verdict']}")
            lines.extend("#   " + line for line in result["error"].strip().splitlines()[-6:])
            continue
        lines.append(
            f"# {report['workload']} #{index} {kind}: setup_s={result['setup_s']:.3f} s "
            f"run_s={result['run_s']:.3f} s peak_rss_mb={result['peak_rss_mb']:.1f} MiB "
            f"hash={result['hash'][:16]} {result['verdict']}"
        )
    source = "recorded" if report["recorded"] else "first execution"
    lines.append(f"# {report['workload']}: output hash checked against the {source}")
    for name, metric in report["metrics"].items():
        lines.append(f"# {report['workload']} {name} = {metric['value']:.6g} {metric['unit']}")
    return lines


def write_table(report: Dict[str, Any], seed: int) -> None:
    """Write the traced run's per-layer table out when the run ends."""
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{report['workload']}-seed{seed}-layers.json")
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report["table"], stream, indent=1, sort_keys=True)
        stream.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"run.py: no program source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    expected = load_expected()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(machine_line(), flush=True)
    reports = []
    for name in names:
        report = run_workload(
            name, args.seed, args.seconds, bool(args.trace), expected.get(name, {})
        )
        reports.append(report)
        for line in describe(report):
            print(line, flush=True)
        if "table" in report:
            write_table(report, args.seed)
    if not all(report["metrics"] for report in reports):
        print("run.py: no execution succeeded; nothing was measured", file=sys.stderr)
        return 1
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{report['workload']}.{name}": metric
            for report in reports
            for name, metric in report["metrics"].items()
        }
    failed = sum(report["failed"] for report in reports)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(report["attempted"] for report in reports),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
