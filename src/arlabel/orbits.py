"""Twin swaps of a graph and the edge orbits of the group they generate,
from the graph alone.

Vertices u and v are twins when N(u) - {v} == N(v) - {u} and they share a
neighbour; the swap of u and v is then an automorphism.  The twin swaps
generate a subgroup of Aut(g), so each of its edge orbits lies inside one
orbit of Aut(g), and two edges share an orbit only if an automorphism maps
one onto the other.  On stars, complete graphs, complete bipartite graphs
and K_{1,1,1,3} the two partitions are the same; on a graph with no twins,
such as W_n for n >= 6, every edge is its own orbit.
"""

from __future__ import annotations

from .graphs import Edge, Graph


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


def twin_swaps(g: Graph) -> list[list[tuple[int, int]]]:
    """Per pair (u, v) of ``twin_pairs(g)``, in that order, the edge pairs
    (e, f) its swap exchanges: e = (u, w) and f = (v, w) for each common
    neighbour w, in the order of u's incident edges."""
    edge_at = {}
    for e, (a, b) in enumerate(g.edges):
        edge_at[a, b] = edge_at[b, a] = e
    swaps = []
    for u, v in twin_pairs(g):
        moved = []
        for e in g.incidence[u]:
            a, b = g.edges[e]
            w = b if a == u else a
            if w != v:
                moved.append((e, edge_at[v, w]))
        swaps.append(moved)
    return swaps


def edge_orbits(g: Graph) -> tuple[int, ...]:
    """Per edge of g, the smallest edge index in its orbit under the group
    the twin swaps generate (module docstring).

    An orbit is a class of the union-find over the edge pairs each swap
    exchanges; every class is named by its smallest edge.
    """
    parent = list(range(g.edge_count()))

    def root(e: int) -> int:
        while parent[e] != e:
            e = parent[e]
        return e

    for moved in twin_swaps(g):
        for e, f in moved:
            a, b = sorted((root(e), root(f)))
            parent[b] = a
    return tuple(map(root, range(len(parent))))
