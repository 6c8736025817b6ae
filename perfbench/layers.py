"""Per-layer metrics from the spans of traced passes, and search counts
against the stored baseline.

Each metric is computed per traced pass and reported as the median over
those passes.  Metrics of a layer a workload does not reach read 0.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from workloads import REPRO_ROWS

HERE = Path(__file__).resolve().parent

# name -> unit of every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = {
    m["name"]: m["unit"]
    for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
}


def _pass_metrics(spans, selfs, first: int) -> dict[str, float]:
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans, start=first):
        by.setdefault(s.name, []).append(i)

    def group(name):
        return [spans[i - first] for i in by.get(name, [])]

    def wall(name):
        return sum(s.duration for s in group(name))

    m: dict[str, float] = {}
    finds = group("solver.find")
    ari_ids = set(by.get("solver.ari", []))
    nodes = sum(s.attrs["nodes"] for s in finds)
    prunes = sum(s.attrs["prunes"] for s in finds)
    find_wall = wall("solver.find")
    m["solver.find.calls"] = len(finds)
    m["solver.find.wall_s"] = find_wall
    m["solver.find.self_s"] = sum(selfs[i] for i in by.get("solver.find", []))
    m["solver.find.nodes"] = nodes
    m["solver.find.occupancy_prunes"] = prunes
    m["solver.find.nodes_per_s"] = nodes / find_wall if find_wall else 0.0
    m["solver.find.prune_ratio"] = prunes / (nodes + prunes) if nodes + prunes else 0.0
    m["solver.find.refuted_s"] = sum(s.duration for s in finds if s.attrs["verdict"] == "refuted")
    m["solver.find.witness_s"] = sum(s.duration for s in finds if s.attrs["verdict"] == "witness")
    m["solver.find.counting_refuted"] = sum(bool(s.attrs["counting_refuted"]) for s in finds)
    m["solver.find.file_nodes"] = sum(
        s.attrs["nodes"] for s in finds if (s.instance or "").startswith("file:")
    )
    m["solver.ari.calls"] = len(ari_ids)
    m["solver.ari.wall_s"] = wall("solver.ari")
    m["solver.ari.k_steps"] = sum(s.parent in ari_ids for s in finds)
    m["solver.bounds.wall_s"] = wall("solver.bounds")
    for layer in (
        "solver.wheel",
        "solver.cover",
        "es",
        "dss.enumerate",
        "dss.is_dss",
        "dss.collision",
        "check.verify",
        "graphs.load",
    ):
        m[f"{layer}.calls"] = len(group(layer))
        m[f"{layer}.wall_s"] = wall(layer)
    m["dss.enumerate.sets"] = sum(s.attrs["sets"] for s in group("dss.enumerate"))
    bitmaps = [s.attrs["bitmap_bytes"] for s in group("dss.is_dss") + group("dss.collision")]
    m["dss.bitmap_bytes"] = sum(bitmaps)
    m["dss.bitmap_bytes_max"] = max(bitmaps, default=0)
    verifies = group("check.verify")
    m["check.verify.ok_ratio"] = (
        sum(s.attrs["ok"] for s in verifies) / len(verifies) if verifies else 0.0
    )
    rows: dict[str, float] = {}
    for s in group("reproduce.run"):
        for row, seconds in s.attrs["rows"].items():
            rows[row] = rows.get(row, 0.0) + seconds
    for row in REPRO_ROWS:
        m[f"reproduce.row.{row}.s"] = rows.get(row, 0.0)
    return m


def per_layer(tracer, passes, imports: list[float], checks: dict | None) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run.  ``checks`` holds the verify
    workload's check latencies from the run's untraced passes."""
    selfs = tracer.self_times()
    traced = [p for p in passes if p.traced]
    per_pass = [
        _pass_metrics(tracer.spans[p.span_range[0] : p.span_range[1]], selfs, p.span_range[0])
        for p in traced
    ]
    out = {}
    for name, unit in PER_LAYER.items():
        if name in ("check.p50_us", "check.p99_us"):
            value = checks["check_" + name[6:]] if checks else 0.0
        elif name == "cli.import_s":
            value = statistics.median(imports)
        elif name == "trace.overhead_s":
            value = statistics.median(p.wall for p in traced) - statistics.median(
                p.wall for p in passes if not p.traced
            )
        else:
            value = statistics.median(m[name] for m in per_pass)
        out[name] = (value, unit)
    return out


def tree_changes(counts: dict[str, dict]) -> list[str]:
    """Instances whose search counts differ from the stored baseline."""
    baseline = json.loads((HERE / "baseline.json").read_text())
    lines = []
    for instance, base in baseline.items():
        now = counts.get(instance)
        if now is not None and now != base:
            parts = [f"{k} {base[k]:,} -> {now[k]:,}" for k in base if now.get(k) != base[k]]
            lines.append(f"{instance}: " + ", ".join(parts))
    return lines
