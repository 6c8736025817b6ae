"""Edge orbits of a graph's automorphism group, from the graph alone.

Colour refinement plus individualisation (McKay & Piperno, "Practical graph
isomorphism, II", 2014).  Refinement splits vertex colour classes by their
neighbours' colours until no class splits; every automorphism maps each
class onto itself.  Two edges share an orbit only once a vertex permutation
that maps one onto the other has been found and checked edge by edge, so an
orbit is never larger than the true one.  The search for that permutation
is exhaustive, so it is never smaller either.
"""

from __future__ import annotations

import math
import time
from typing import Callable

from .errors import SearchTimeout
from .graphs import Edge, Graph


def _refine(
    adj: list[list[int]], colours: list[int]
) -> tuple[list[int], tuple[tuple, ...]]:
    """The coarsest equitable refinement of a vertex colouring, and its trace.

    Each round gives a vertex the signature (its colour, its neighbours'
    colours sorted) and renames the signatures by rank, until a round
    splits no class.  The trace lists each round's signatures, sorted.  A
    permutation that maps one colouring onto another maps their
    refinements onto each other, with equal traces.  Two colourings with
    equal traces name their classes alike, so only a vertex of colour c
    can be the image of a vertex of colour c.
    """
    classes = len(set(colours))
    trace = []
    while True:
        sigs = [(c, tuple(sorted(colours[w] for w in nbrs))) for c, nbrs in zip(colours, adj)]
        ranks = sorted(set(sigs))
        trace.append(tuple(sorted(sigs)))
        name = {sig: i for i, sig in enumerate(ranks)}
        colours = [name[sig] for sig in sigs]
        if len(ranks) == classes:
            return colours, tuple(trace)
        classes = len(ranks)


def _automorphism(
    adj: list[list[int]],
    edges: set[Edge],
    left: list[int],
    right: list[int],
    tick: Callable[[], None],
) -> list[int] | None:
    """An automorphism that maps every vertex of colour c in ``left`` to a
    vertex of colour c in ``right``, or None when there is none.

    Refines both colourings, then tries the permutation that pairs the
    vertices of each colour in index order: on a discrete colouring it is
    the only candidate, and on a symmetric graph it often works before.
    Otherwise it individualises the first vertex of the smallest colour
    class that is not a singleton against each vertex of that class on the
    right in turn.  A permutation is returned only if it maps every edge to
    an edge.  Each call first calls ``tick``, which watches the clock.
    """
    tick()
    left, trace = _refine(adj, left)
    right, other = _refine(adj, right)
    if trace != other:
        return None
    members: dict[int, list[int]] = {}
    for w, c in enumerate(right):
        members.setdefault(c, []).append(w)
    pick = {c: iter(ws) for c, ws in members.items()}
    perm = [next(pick[c]) for c in left]
    if all(tuple(sorted((perm[u], perm[v]))) in edges for u, v in edges):
        return perm
    cls = min((c for c, ws in members.items() if len(ws) > 1), default=None)
    if cls is None:
        return None
    fresh = len(left)
    v = left.index(cls)
    pinned = left[:v] + [fresh] + left[v + 1 :]
    for w in members[cls]:
        perm = _automorphism(adj, edges, pinned, right[:w] + [fresh] + right[w + 1 :], tick)
        if perm is not None:
            return perm
    return None


def edge_orbits(g: Graph, deadline: float = math.inf) -> tuple[int, ...]:
    """Per edge of g, the smallest edge index in its orbit under Aut(g).

    Edges are taken in index order.  An edge not yet in an earlier edge's
    orbit is compared with each earlier orbit's first edge whose refinement
    trace, with both endpoints given a fresh colour, is the same as its own
    (an automorphism keeps that trace).  The first automorphism found that
    maps that edge onto it merges, for every edge, the orbits of the edge
    and its image.

    Raises SearchTimeout once ``deadline``, a ``time.monotonic()`` reading,
    has passed.  The clock is read at every 16th automorphism search, which
    takes well under a millisecond with at most 40 edges.  A finished result
    is kept on g and returned by later calls; a search stopped by the
    deadline keeps nothing.
    """
    known = g.__dict__.get("_edge_orbits")
    if known is not None:
        return known
    n = g.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    edges = set(g.edges)
    index = {e: i for i, e in enumerate(g.edges)}
    base, _ = _refine(adj, [0] * n)
    traces = []
    for u, v in g.edges:
        c = base.copy()
        c[u] = c[v] = n
        traces.append(_refine(adj, c)[1])
    searches = 0

    def tick() -> None:
        nonlocal searches
        searches += 1
        if searches & 15 == 0 and time.monotonic() > deadline:
            raise SearchTimeout

    orbit = list(range(len(g.edges)))
    for f, (x, y) in enumerate(g.edges):
        if orbit[f] != f:
            continue
        for e in range(f):
            if orbit[e] != e or traces[e] != traces[f]:
                continue
            u, v = g.edges[e]
            left = base.copy()
            left[u], left[v] = n, n + 1
            right = base.copy()
            right[x], right[y] = n, n + 1
            perm = _automorphism(adj, edges, left, right, tick)
            if perm is None:
                right[x], right[y] = n + 1, n
                perm = _automorphism(adj, edges, left, right, tick)
            if perm is None:
                continue
            for i, (a, b) in enumerate(g.edges):
                j = index[tuple(sorted((perm[a], perm[b])))]
                lo, hi = sorted((orbit[i], orbit[j]))
                if lo != hi:
                    orbit = [lo if o == hi else o for o in orbit]
            break
    known = g.__dict__["_edge_orbits"] = tuple(orbit)
    return known


def twin_pairs(g: Graph) -> list[Edge]:
    """Pairs u < v of twins of g: N(u) - {v} == N(v) - {u}, with at least
    one neighbour in common.

    The swap of u and v is then an automorphism of g.  It exchanges the
    edges (u, w) and (v, w) for each common neighbour w and fixes every
    other edge, uv included.  Twins have equal neighbourhoods once each
    vertex counts as its own neighbour (adjacent twins) or not (the others),
    so each pair is found among the vertices with one such neighbourhood.
    """
    classes: dict[tuple[bool, frozenset[int]], list[int]] = {}
    for v, inc in enumerate(g.incidence):
        nbrs = frozenset(w for e in inc for w in g.edges[e] if w != v)
        classes.setdefault((False, nbrs), []).append(v)
        classes.setdefault((True, nbrs | {v}), []).append(v)
    pairs = []
    for (closed, nbrs), vs in classes.items():
        # A closed neighbourhood holds the pair itself; a common neighbour
        # must lie beyond it.
        if len(nbrs) > 2 * closed:
            pairs += [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]
    return sorted(pairs)

