"""Metric declarations, run summaries and the parent/child comparison.

Metric names, units, directions and bounds come from BENCHMARK.json at the
root of the checkout, so the runner, the summary and the comparison cannot
disagree with it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = SPEC["run_seconds"]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


def units(trace: bool) -> dict[str, str]:
    return {name: m["unit"] for name, m in (PER_LAYER if trace else END_TO_END).items()}


def stats(values: list[float]) -> dict:
    """Median, quartiles as ``statistics.quantiles(n=4)`` gives them, and IQR/median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def summarize(entries: list[dict]) -> dict:
    """``{workload: {"end_to_end": {metric: stats}, "per_layer": {...}}}`` over successful runs."""
    out: dict[str, dict] = {}
    for entry in entries:
        res = entry.get("result")
        if entry["exit"] != 0 or not res:
            continue
        side = out.setdefault(entry["workload"], {"end_to_end": {}, "per_layer": {}})
        kind = "per_layer" if entry["trace"] else "end_to_end"
        for name, m in res["metrics"].items():
            side[kind].setdefault(name, []).append(m["value"])
    return {
        w: {kind: {name: stats(v) for name, v in metrics.items()} for kind, metrics in sides.items()}
        for w, sides in out.items()
    }


def format_summary(summary: dict) -> str:
    lines = [f"{'workload':12} {'metric':16} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}"]
    for w, sides in summary.items():
        for name, s in sides["end_to_end"].items():
            bound = END_TO_END[name]["bound"]
            flag = "" if s["spread"] < bound / 3 else "  (spread >= bound/3)"
            lines.append(
                f"{w:12} {name:16} {s['n']:>3} {s['median']:>12.5g} {s['q1']:>12.5g} "
                f"{s['q3']:>12.5g} {s['spread']:>7.3f} {bound:>6}{flag}"
            )
    return "\n".join(lines)


def verdict(name: str, parent: dict, child: dict) -> str:
    """Compare medians against the metric's bound.

    "unresolved" when the parent's own quartile spread exceeds the bound,
    unless every child run beats every parent run.
    """
    spec = END_TO_END[name]
    lower = spec["better"] == "lower"
    p, c = parent["median"], child["median"]
    worse = (c - p) / p if lower else (p - c) / p
    if parent["spread"] > spec["bound"]:
        if lower and max(child["values"]) < min(parent["values"]):
            return "better (every run)"
        if not lower and min(child["values"]) > max(parent["values"]):
            return "better (every run)"
        return "unresolved"
    if worse > spec["bound"]:
        return "REGRESSION"
    if -worse > parent["spread"]:
        return "better"
    return "within bound"


def format_compare(parent_doc: dict, child_doc: dict) -> str:
    parent, child = parent_doc["summary"], child_doc["summary"]
    lines = [
        f"{'workload':12} {'metric':16} {'parent median [q1, q3]':>34} "
        f"{'child median [q1, q3]':>34} {'ratio':>7}  verdict (bound)"
    ]
    for w in parent:
        if w not in child:
            lines.append(f"{w:12} (no child runs)")
            continue
        for name in END_TO_END:
            ps, cs = parent[w]["end_to_end"].get(name), child[w]["end_to_end"].get(name)
            if not ps or not cs:
                continue
            lines.append(
                f"{w:12} {name:16} {ps['median']:>12.5g} [{ps['q1']:.5g}, {ps['q3']:.5g}]".ljust(64)
                + f" {cs['median']:>12.5g} [{cs['q1']:.5g}, {cs['q3']:.5g}]".ljust(35)
                + f" {cs['median'] / ps['median']:>7.3f}  {verdict(name, ps, cs)} ({END_TO_END[name]['bound']})"
            )
    lines.append("")
    lines.append(f"{'workload':12} {'per-layer self time (traced runs)':40} {'parent s':>10} {'child s':>10} {'delta s':>10}")
    for w in parent:
        pl, cl = parent[w]["per_layer"], child.get(w, {}).get("per_layer", {})
        if not pl or not cl:
            lines.append(f"{w:12} (traced runs missing on one side)")
            continue
        for name in PER_LAYER:
            if not name.endswith("self_s") or name not in pl or name not in cl:
                continue
            p, c = pl[name]["median"], cl[name]["median"]
            if p or c:
                lines.append(f"{w:12} {name:40} {p:>10.4f} {c:>10.4f} {c - p:>+10.4f}")
    return "\n".join(lines)
