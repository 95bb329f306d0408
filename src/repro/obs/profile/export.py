"""Profile exports: collapsed stacks, speedscope JSON, text rendering.

All exporters consume the JSON-able site tree produced by
:meth:`repro.obs.profile.SubsystemProfiler.tree`, so a profile can be
re-rendered from a saved document without the live profiler.

* :func:`collapsed_stacks` -- the ``flamegraph.pl`` line format
  (``subsystem;site;kind <microseconds>``), which speedscope, inferno,
  and the original flamegraph scripts all ingest;
* :func:`speedscope_document` -- a self-contained speedscope file
  (https://www.speedscope.app): one *sampled* profile whose samples
  are the three-frame subsystem/site/kind stacks weighted by
  microseconds;
* :func:`render_profile` -- the terminal breakdown a ``--profile``
  run prints on stderr.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Tuple

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def _leaves(tree: Mapping[str, Any]) -> List[Tuple[str, str, str, int, float]]:
    """Flatten the site tree to (subsystem, site, kind, calls, wall_s)
    leaves in deterministic order."""
    out: List[Tuple[str, str, str, int, float]] = []
    for subsystem, sub in sorted(tree.get("subsystems", {}).items()):
        for site, entry in sorted(sub.get("sites", {}).items()):
            for kind, cell in sorted(entry.get("kinds", {}).items()):
                out.append(
                    (subsystem, site, kind, int(cell["calls"]), float(cell["wall_s"]))
                )
    return out


def collapsed_stacks(tree: Mapping[str, Any]) -> str:
    """The profile in collapsed-stack format, weighted by microseconds."""
    lines = []
    for subsystem, site, kind, _calls, wall_s in _leaves(tree):
        weight = int(round(wall_s * 1e6))
        if weight > 0:
            lines.append(f"{subsystem};{site};{kind} {weight}")
    return "\n".join(lines)


def speedscope_document(tree: Mapping[str, Any], name: str = "repro profile") -> Dict[str, Any]:
    """The profile as a speedscope-loadable JSON document."""
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}

    def frame(label: str) -> int:
        index = frame_index.get(label)
        if index is None:
            index = frame_index[label] = len(frames)
            frames.append({"name": label})
        return index

    samples: List[List[int]] = []
    weights: List[int] = []
    for subsystem, site, kind, _calls, wall_s in _leaves(tree):
        weight = int(round(wall_s * 1e6))
        if weight <= 0:
            continue
        samples.append([frame(subsystem), frame(f"{subsystem}: {site}"), frame(kind)])
        weights.append(weight)
    total = sum(weights)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "exporter": "repro profile",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "microseconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }
        ],
    }


def write_speedscope(tree: Mapping[str, Any], path: str, name: str = "repro profile") -> None:
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(speedscope_document(tree, name=name), stream, indent=2, sort_keys=True)
        stream.write("\n")


def write_collapsed(tree: Mapping[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        text = collapsed_stacks(tree)
        if text:
            stream.write(text + "\n")


def render_profile(tree: Mapping[str, Any], title: str = "profile", top_sites: int = 8) -> str:
    """Terminal-friendly breakdown: per-subsystem table plus the most
    expensive sites with their per-event cost."""
    lines = [
        f"{title}: window {tree['window_s']:.3f}s, "
        f"attributed {tree['attributed_share'] * 100:.1f}%"
    ]
    subsystems = tree.get("subsystems", {})
    if not subsystems:
        lines.append("  (no callbacks recorded)")
        return "\n".join(lines)
    width = max(len(name) for name in subsystems)
    ranked = sorted(subsystems.items(), key=lambda kv: -kv[1]["wall_s"])
    for name, sub in ranked:
        lines.append(
            f"  {name:<{width}}  {sub['wall_s']:8.3f}s  {sub['share'] * 100:5.1f}%  "
            f"{sub['calls']:>10} calls"
        )
    leaves = sorted(_leaves(tree), key=lambda leaf: -leaf[4])
    shown = [leaf for leaf in leaves if leaf[3] > 0][:top_sites]
    if shown:
        lines.append("  hottest sites:")
        for subsystem, site, kind, calls, wall_s in shown:
            per_event = wall_s * 1e6 / calls
            lines.append(
                f"    {subsystem}/{site} [{kind}]  {wall_s:.3f}s  "
                f"{calls} calls  {per_event:.1f}us/event"
            )
    return "\n".join(lines)
