"""AR-labeling verification with re-checkable failure certificates.

A vertex is an AR-vertex under an edge labeling when the labels on its
incident edges form a DSS set (every pair of distinct incident-edge subsets
has distinct sums).  An AR-labeling is a globally injective positive edge
labeling under which every vertex is an AR-vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .dss import subset_sum_collision
from .errors import ParseError
from .graphs import Graph, load_graph


@dataclass(frozen=True)
class Labeling:
    """Positive integer per edge, aligned to the graph's canonical edge order."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        for lab in labels:
            if lab < 1:
                raise ValueError(f"label {lab} is not a positive integer")
        object.__setattr__(self, "labels", labels)

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class DuplicateLabels:
    """Injectivity violation: two edge indices carrying the same label."""

    edges: tuple[int, int]
    label: int


@dataclass(frozen=True)
class SumCollision:
    """AR violation at ``vertex``: two incident-edge subsets with equal sums."""

    vertex: int
    subset_a: tuple[int, ...]  # edge indices
    subset_b: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    ok: bool
    failure: DuplicateLabels | SumCollision | None = None

    def describe(self) -> str:
        if self.ok:
            return "ok: AR-labeling verified"
        f = self.failure
        if isinstance(f, DuplicateLabels):
            return f"not injective: edges {f.edges[0]} and {f.edges[1]} both labeled {f.label}"
        assert isinstance(f, SumCollision)
        return (
            f"vertex {f.vertex} is not an AR-vertex: incident edge subsets "
            f"{list(f.subset_a)} and {list(f.subset_b)} have equal label sums"
        )


def _validate(g: Graph, labeling: Labeling) -> None:
    if len(labeling) != g.edge_count():
        raise ValueError(
            f"labeling has {len(labeling)} labels, graph has {g.edge_count()} edges"
        )


def is_ar_labeling(g: Graph, labeling: Labeling) -> Verdict:
    """Verify injectivity and the AR property at every vertex.

    The first violation (labels scanned in edge order, then vertices in
    ascending order) is returned with an explicit certificate; the colliding
    subset pair is reconstructed so it can be re-checked independently.
    """
    _validate(g, labeling)
    labels = labeling.labels
    first_seen: dict[int, int] = {}
    for i, lab in enumerate(labels):
        if lab in first_seen:
            return Verdict(False, DuplicateLabels((first_seen[lab], i), lab))
        first_seen[lab] = i
    for v in range(g.vertex_count):
        idxs = g.incident_edges(v)
        collision = subset_sum_collision([labels[e] for e in idxs])
        if collision is None:
            continue
        pos_a, pos_b = collision
        return Verdict(
            False,
            SumCollision(
                v,
                tuple(idxs[p] for p in pos_a),
                tuple(idxs[p] for p in pos_b),
            ),
        )
    return Verdict(True)


def load_labeling(path: str | Path) -> Labeling:
    """Load a labeling from its JSON file format (see save_labeling)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(
            str(path), f"line {exc.lineno} column {exc.colno}", exc.msg
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError(str(path), "top level", "expected a JSON object")
    unknown = set(doc) - {"labels"}
    if unknown:
        raise ParseError(str(path), sorted(unknown)[0], "unknown field")
    if "labels" not in doc:
        raise ParseError(str(path), "labels", "missing required field")
    raw = doc["labels"]
    if not isinstance(raw, list):
        raise ParseError(str(path), "labels", "expected an array of integers")
    for i, lab in enumerate(raw):
        if not isinstance(lab, int) or isinstance(lab, bool) or lab < 1:
            raise ParseError(str(path), f"labels[{i}]", "expected a positive integer")
    return Labeling(tuple(raw))


def save_labeling(labeling: Labeling, path: str | Path) -> None:
    Path(path).write_text(json.dumps({"labels": list(labeling.labels)}) + "\n")


def verify_files(graph_path: str | Path, labeling_path: str | Path) -> Verdict:
    """Load both files, check alignment, and verify the labeling."""
    g = load_graph(graph_path)
    labeling = load_labeling(labeling_path)
    return is_ar_labeling(g, labeling)
