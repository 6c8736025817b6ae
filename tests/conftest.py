"""Shared independent oracles for the test suite.

Most of them avoid the package's bitset machinery: subset sums are
materialized into hash sets, and the brute-force AR-index search assigns
labels in plain canonical edge order.  They are slow and obviously correct,
which is the point.  ``reference_find_ar_labeling`` is the solver's first,
plain scan-and-test edge search, kept so that the pruned search can be
required to return the very same first witness.
"""

from __future__ import annotations

import random
import time
from functools import lru_cache
from itertools import combinations

import pytest

from arlabel.graphs import (
    Graph,
    bistar,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    path,
    star,
    wheel,
)


@pytest.fixture
def slow_clock(monkeypatch):
    """Make every read of ``time.monotonic`` advance the clock by one second.

    A budget below a second then expires at the first deadline check after
    the search starts, so a timeout test does not depend on how fast the
    host or the search is.
    """
    reads = [0.0]

    def monotonic() -> float:
        reads[0] += 1.0
        return reads[0]

    monkeypatch.setattr(time, "monotonic", monotonic)


@lru_cache(maxsize=200_000)
def _sums_distinct_cached(values: tuple[int, ...]) -> bool:
    seen = set()
    for r in range(len(values) + 1):
        for comb in combinations(values, r):
            s = sum(comb)
            if s in seen:
                return False
            seen.add(s)
    return True


def naive_is_dss(values) -> bool:
    """Materialize all 2^n subset sums and compare counts."""
    return _sums_distinct_cached(tuple(sorted(values)))


def naive_collision(values) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The certificate ``subset_sum_collision`` must give, by enumeration.

    For each prefix in order, list the index subsets of every sum.  At the
    first prefix where a sum has two subsets, take the smallest such sum;
    exactly one of its two subsets holds the prefix's last index.  Drop the
    indices they share and return (the other one, that one).
    """
    vals = list(values)
    for j in range(len(vals)):
        by_sum: dict[int, list[tuple[int, ...]]] = {}
        for r in range(j + 2):
            for c in combinations(range(j + 1), r):
                by_sum.setdefault(sum(vals[i] for i in c), []).append(c)
        repeated = [s for s, subs in by_sum.items() if len(subs) > 1]
        if repeated:
            without, with_last = sorted(by_sum[min(repeated)], key=lambda c: j in c)
            common = set(without) & set(with_last)
            return (
                tuple(i for i in without if i not in common),
                tuple(i for i in with_last if i not in common),
            )
    return None


def naive_subset_sums(values) -> list[int]:
    return sorted(sum(c) for r in range(len(values) + 1) for c in combinations(values, r))


def naive_ari(g: Graph, k_cap: int = 40) -> int | None:
    """Brute-force AR-index: for increasing k, try injective assignments from
    {1..k} in canonical edge order, screening each partial assignment with the
    hash-set subset-sum check at both endpoints."""
    m = g.edge_count()
    inc = [g.incident_edges(v) for v in range(g.vertex_count)]

    for k in range(m, k_cap + 1):
        labels = [0] * m

        def endpoint_ok(edge_idx: int) -> bool:
            u, v = g.edges[edge_idx]
            for vert in (u, v):
                vals = tuple(sorted(labels[e] for e in inc[vert] if labels[e]))
                if len(set(vals)) != len(vals):
                    return False
                if not _sums_distinct_cached(vals):
                    return False
            return True

        def dfs(i: int, used: frozenset[int]) -> bool:
            if i == m:
                return True
            for lab in range(1, k + 1):
                if lab in used:
                    continue
                labels[i] = lab
                if endpoint_ok(i) and dfs(i + 1, used | {lab}):
                    return True
                labels[i] = 0
            return False

        if dfs(0, frozenset()):
            return k
    return None


def reference_find_ar_labeling(g: Graph, k: int) -> tuple[tuple[int, ...] | None, bool]:
    """The edge search as first written: the solver's edge order (decreasing
    endpoint-degree sum, then edge index), labels scanned 1..k, one
    subset-sum occupancy bitmap per vertex, no other prune.  Returns the
    first labeling in that order, or None, and True for an exhausted search
    (it has no budget, so always True)."""
    m = g.edge_count()
    if k < m:
        return None, True
    deg = [g.degree(v) for v in range(g.vertex_count)]
    order = sorted(range(m), key=lambda e: (-(deg[g.edges[e][0]] + deg[g.edges[e][1]]), e))
    occ = [1] * g.vertex_count
    assigned = [0] * m

    def dfs(i: int, used: int) -> bool:
        if i == m:
            return True
        u, v = g.edges[order[i]]
        ou, ov = occ[u], occ[v]
        for lab in range(1, k + 1):
            if (used >> lab) & 1 or ou & (ou << lab) or ov & (ov << lab):
                continue
            occ[u] = ou | (ou << lab)
            occ[v] = ov | (ov << lab)
            assigned[i] = lab
            if dfs(i + 1, used | (1 << lab)):
                return True
            occ[u], occ[v] = ou, ov
        return False

    if not dfs(0, 0):
        return None, True
    labels = [0] * m
    for pos, e in enumerate(order):
        labels[e] = assigned[pos]
    return tuple(labels), True


def small_family_graphs(max_edges: int = 6, include_slow: bool = True) -> list[Graph]:
    """Every generated family instance with at most ``max_edges`` edges."""
    graphs = [path(n) for n in range(2, max_edges + 2)]
    graphs += [cycle(n) for n in range(3, max_edges + 1)]
    graphs += [star(n) for n in range(1, max_edges + 1)]
    graphs += [
        bistar(a, b)
        for a in range(1, max_edges)
        for b in range(a, max_edges)
        if a + b + 1 <= max_edges
    ]
    graphs += [complete(n) for n in range(2, 5)]
    graphs += [
        complete_bipartite(a, b)
        for a in range(1, max_edges + 1)
        for b in range(a, max_edges + 1)
        if a * b <= max_edges
    ]
    graphs += [wheel(4)]
    out = []
    seen = set()
    for g in graphs:
        key = (g.vertex_count, g.edges)
        if key in seen or not (1 <= g.edge_count() <= max_edges):
            continue
        if not include_slow and g.name == "K_{1,6}":
            continue
        seen.add(key)
        out.append(g)
    return out


def naive_twins(g: Graph) -> list[tuple[int, int]]:
    """Pairs u < v whose swap maps every edge onto an edge and moves one."""
    edges = set(g.edges)
    pairs = []
    for u, v in combinations(range(g.vertex_count), 2):
        swap = {u: v, v: u}
        images = {tuple(sorted((swap.get(a, a), swap.get(b, b)))) for a, b in edges}
        if images == edges and any(u in e or v in e for e in edges - {(u, v)}):
            pairs.append((u, v))
    return pairs


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """g with vertex v renamed perm[v]."""
    return Graph(g.vertex_count, tuple((perm[u], perm[v]) for u, v in g.edges), name=g.name)


def bench_file_graphs(seed: int = 1) -> list[Graph]:
    """Graphs like the benchmark's six files: B_{3,3}, K_{3,4}, K_{4,4},
    K_{2,2,2} and W_6 under vertex permutations drawn from ``seed``, and
    B_{4,4} with vertex v renamed v+1 mod 10."""
    rng = random.Random(seed)
    out = []
    for g in (bistar(3, 3), complete_bipartite(3, 4), complete_bipartite(4, 4),
              complete_multipartite([2, 2, 2]), wheel(6)):
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        out.append(relabeled(g, perm))
    out.append(relabeled(bistar(4, 4), [(v + 1) % 10 for v in range(10)]))
    return out
