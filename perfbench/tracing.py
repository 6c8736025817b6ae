"""Spans recorded from outside the program.

``Tracer.install()`` rebinds the public functions listed in ``LAYERS`` in
every arlabel module that imported them, so calls between modules (for
example ``ari`` -> ``find_ar_labeling`` -> ``is_ar_labeling`` -> ``is_dss``)
each open a span.  The program's source is never edited, and
``Tracer.uninstall()`` puts the original functions back.

A span is (name, start, end, parent, instance, attrs); spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

perf = time.perf_counter


def _find_attrs(args, kwargs, out) -> dict:
    stats = out.stats
    if out.labeling is not None:
        verdict = "witness"
    else:
        verdict = "refuted" if out.exhausted else "timeout"
    return {
        "k": args[1] if len(args) > 1 else kwargs["k"],
        "nodes": stats.nodes,
        "prunes": stats.occupancy_prunes,
        "counting_refuted": stats.counting_refuted,
        "verdict": verdict,
    }


def _bitmap_bytes(values, stop: int | None = None) -> int:
    """Bytes of the occupancy bitmaps the DSS check builds, computed from
    the input: one bitmap of total+1 bits per prefix kept, up to ``stop``."""
    if stop is None:
        return (sum(values) + 8) // 8
    total, nbytes = 0, 1
    for a in values[:stop]:
        total += a
        nbytes += (total + 8) // 8
    return nbytes


def _is_dss_attrs(args, kwargs, out) -> dict:
    return {"bitmap_bytes": _bitmap_bytes(args[0])}


def _collision_attrs(args, kwargs, out) -> dict:
    vals = tuple(args[0])
    stop = len(vals) if out is None else max(out[0] + out[1]) + 1
    return {"bitmap_bytes": _bitmap_bytes(vals, stop)}


# span name -> (defining module, function names, result hook)
LAYERS = {
    "dss.is_dss": ("arlabel.dss", ("is_dss",), _is_dss_attrs),
    "dss.collision": ("arlabel.dss", ("subset_sum_collision",), _collision_attrs),
    "dss.enumerate": ("arlabel.dss", ("enumerate_dss_sets",), lambda a, k, out: {"sets": len(out)}),
    "es": ("arlabel.es", ("es",), None),
    "solver.find": ("arlabel.solver", ("find_ar_labeling",), _find_attrs),
    "solver.ari": ("arlabel.solver", ("ari",), None),
    "solver.bounds": ("arlabel.solver", ("ari_lower_bound", "counting_prune"), None),
    "solver.cover": ("arlabel.solver", ("disjoint_dss_cover",), None),
    "solver.wheel": ("arlabel.solver", ("label_wheel",), None),
    "check.labeling": ("arlabel.check", ("is_ar_labeling",), None),
    "check.verify": ("arlabel.check", ("verify_files",), lambda a, k, out: {"ok": out.ok}),
    "graphs.load": ("arlabel.graphs", ("load_graph",), None),
    "reproduce.run": (
        "arlabel.reproduce",
        ("run_reproduction",),
        lambda a, k, out: {"rows": {r.claim_id: r.seconds for r in out.rows}},
    ),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "instance", "attrs")

    def __init__(self, name, start, parent, instance):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.instance = instance
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, perf(), parent, self.instance))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = perf()
        self._stack.pop()

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            # A layer calling itself (ari_lower_bound -> counting_prune) is
            # one span, so wall times never count an interval twice.
            if stack and tracer.spans[stack[-1]].name == name:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                tracer.spans[idx].attrs = hook(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every listed function wherever an arlabel module holds it."""
        modules = [m for n, m in sys.modules.items() if n == "arlabel" or n.startswith("arlabel.")]
        for name, (home, funcs, hook) in LAYERS.items():
            for func in funcs:
                original = getattr(sys.modules[home], func)
                traced = self._wrap(name, original, hook)
                for mod in modules:
                    if getattr(mod, func, None) is original:
                        self._saved.append((mod, func, original))
                        setattr(mod, func, traced)

    def uninstall(self) -> None:
        for mod, func, original in reversed(self._saved):
            setattr(mod, func, original)
        self._saved.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        selfs = self.self_times()
        rows = [
            {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "self_s": selfs[i],
                "parent": s.parent,
                "instance": s.instance,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows) + "\n")

