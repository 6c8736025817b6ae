"""Simple undirected graphs: canonical edge order, named families, JSON file I/O.

Vertex numbering per family is frozen so labelings (stored as arrays aligned
to canonical edge order) are reproducible:

* star(n): center 0, leaves 1..n
* bistar(a, b): centers 0 and 1 (adjacent); pendants of 0 are 2..a+1,
  pendants of 1 are a+2..a+b+1
* path(n)/cycle(n): vertices 0..n-1 in walk order
* complete(n): vertices 0..n-1
* complete_bipartite(m, n): first part 0..m-1, second part m..m+n-1
* complete_multipartite(parts): parts occupy consecutive index ranges
* wheel(n): hub 0, rim 1..n-1 in cycle order

Canonical edge order: endpoints stored (u, v) with u < v, edges sorted
lexicographically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import ParseError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph with canonically ordered edges."""

    vertex_count: int
    edges: tuple[Edge, ...]
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = []
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop [{u}, {v}]")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < self.vertex_count):
                raise ValueError(f"edge [{u}, {v}] endpoint out of range")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge [{u}, {v}]")
            seen.add((u, v))
            canon.append((u, v))
        canon.sort()
        object.__setattr__(self, "edges", tuple(canon))

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex tuple of incident edge indices (canonical order)."""
        lists: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            lists[u].append(i)
            lists[v].append(i)
        return tuple(tuple(l) for l in lists)

    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.incidence[v])

    def max_degree(self) -> int:
        if self.vertex_count == 0:
            return 0
        return max(len(l) for l in self.incidence)

    def incident_edges(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self.incidence[v]

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} out of range 0..{self.vertex_count - 1}")


def star(n: int) -> Graph:
    if n < 1:
        raise ValueError("star needs at least one leaf")
    edges = tuple((0, i) for i in range(1, n + 1))
    return Graph(n + 1, edges, name=f"K_{{1,{n}}}")


def bistar(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("bistar needs at least one pendant per center")
    edges = [(0, 1)]
    edges += [(0, i) for i in range(2, a + 2)]
    edges += [(1, i) for i in range(a + 2, a + b + 2)]
    return Graph(a + b + 2, tuple(edges), name=f"B_{{{a},{b}}}")


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    edges = tuple((i, i + 1) for i in range(n - 1))
    return Graph(n, edges, name=f"P_{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    edges = tuple((i, (i + 1) % n) for i in range(n))
    return Graph(n, edges, name=f"C_{n}")


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    return Graph(n, edges, name=f"K_{n}")


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("complete bipartite graph needs nonempty parts")
    edges = tuple((u, v) for u in range(m) for v in range(m, m + n))
    return Graph(m + n, edges, name=f"K_{{{m},{n}}}")


def complete_multipartite(part_sizes: list[int] | tuple[int, ...]) -> Graph:
    parts = tuple(part_sizes)
    if len(parts) < 2:
        raise ValueError("complete multipartite graph needs at least two parts")
    if any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    starts = [0]
    for p in parts:
        starts.append(starts[-1] + p)
    total = starts[-1]
    part_of = [0] * total
    for i in range(len(parts)):
        for v in range(starts[i], starts[i + 1]):
            part_of[v] = i
    edges = tuple(
        (u, v)
        for u in range(total)
        for v in range(u + 1, total)
        if part_of[u] != part_of[v]
    )
    name = "K_{" + ",".join(str(p) for p in parts) + "}"
    return Graph(total, edges, name=name)


def wheel(n: int) -> Graph:
    """W_n: the cycle on rim vertices 1..n-1 plus hub 0 adjacent to all."""
    if n < 4:
        raise ValueError("wheel needs at least four vertices")
    spokes = [(0, i) for i in range(1, n)]
    rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
    return Graph(n, tuple(spokes + rim), name=f"W_{n}")


def load_graph(path: str | Path) -> Graph:
    """Load a graph from its JSON file format (see save_graph)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(
            str(path), f"line {exc.lineno} column {exc.colno}", exc.msg
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError(str(path), "top level", "expected a JSON object")
    unknown = set(doc) - {"vertices", "edges", "name"}
    if unknown:
        raise ParseError(str(path), sorted(unknown)[0], "unknown field")
    if "vertices" not in doc:
        raise ParseError(str(path), "vertices", "missing required field")
    if "edges" not in doc:
        raise ParseError(str(path), "edges", "missing required field")
    vertices = doc["vertices"]
    if not isinstance(vertices, int) or isinstance(vertices, bool) or vertices < 0:
        raise ParseError(str(path), "vertices", "expected a nonnegative integer")
    raw_edges = doc["edges"]
    if not isinstance(raw_edges, list):
        raise ParseError(str(path), "edges", "expected an array of [u, v] pairs")
    edges: list[Edge] = []
    seen: set[Edge] = set()
    for i, item in enumerate(raw_edges):
        where = f"edges[{i}]"
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise ParseError(str(path), where, "expected a pair of integers")
        u, v = item
        if u == v:
            raise ParseError(str(path), where, f"self-loop [{u}, {v}]")
        if not (0 <= min(u, v) and max(u, v) < vertices):
            raise ParseError(str(path), where, f"endpoint out of range in [{u}, {v}]")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(str(path), where, f"duplicate edge [{u}, {v}]")
        seen.add(key)
        edges.append((u, v))
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError(str(path), "name", "expected a string")
    try:
        return Graph(vertices, tuple(edges), name=name)
    except ValueError as exc:
        raise ParseError(str(path), "edges", str(exc)) from exc


def save_graph(g: Graph, path: str | Path) -> None:
    doc: dict = {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges]}
    if g.name is not None:
        doc["name"] = g.name
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
