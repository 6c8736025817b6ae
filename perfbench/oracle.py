"""Independent answer checks for the benchmark.

Nothing here imports arlabel.  Subset sums are enumerated naively (all 2^n of
them, as a Python set), edge lists are rebuilt from the family definitions,
and the expected values are pinned below.  Every function returns an error
string, or None when the answer is right, and runs outside every timed
region.
"""

from __future__ import annotations

from itertools import pairwise

# ES(n), n = 1..7: the published sequence (OEIS A276661).
ES_VALUES = {1: 1, 2: 2, 3: 4, 4: 7, 5: 13, 6: 24, 7: 44}

# ARI of the refutation instances.  B_{3,3}, B_{4,4}, W_6 = ES(5) and the AR
# graphs are published values; K_{2,5} and K_{1,1,1,3} were recorded from
# the arlabel search at the commit that added this benchmark.
ARI_VALUES = {
    "B_{3,3}": 8,
    "B_{4,4}": 14,
    "K_{3,4}": 12,
    "K_{4,4}": 16,
    "K_{2,2,2}": 12,
    "W_6": 13,
    "K_{2,5}": 15,  # recorded, not published
    "K_{1,1,1,3}": 15,  # recorded, not published
}

# Number of size-element DSS subsets of {1..cap}: published, exactly one
# set and exactly two sets.
ENUM_COUNTS = {(4, 7): 1, (5, 13): 2}

# disjoint_dss_cover(m, n): True when a cover exists.
COVER_EXISTS = {
    (2, 2): True,
    (2, 3): True,
    (2, 4): True,
    (3, 3): True,
    (3, 4): True,
    (3, 5): False,
    (4, 6): False,
    (5, 6): False,
}


def naive_is_dss(values) -> bool:
    """All 2^n subset sums distinct, by enumerating them."""
    sums = {0}
    for x in values:
        if x < 1:
            return False
        grown = {s + x for s in sums}
        if grown & sums:
            return False
        sums |= grown
    return True


def canonical_edges(vertex_count: int, edges) -> list[tuple[int, int]]:
    """The edge order labelings are aligned to: (min, max) pairs, sorted."""
    canon = sorted((min(u, v), max(u, v)) for u, v in edges)
    if any(u == v or v >= vertex_count for u, v in canon) or len(set(canon)) != len(canon):
        raise ValueError("not a simple graph")
    return canon


def check_labeling(vertex_count: int, edges, labels, top: int | None = None) -> str | None:
    """An AR-labeling of the graph with maximum label exactly ``top``."""
    canon = canonical_edges(vertex_count, edges)
    labels = list(labels)
    if len(labels) != len(canon):
        return f"{len(labels)} labels for {len(canon)} edges"
    if len(set(labels)) != len(labels) or min(labels, default=1) < 1:
        return "labels are not distinct positive integers"
    if top is not None and max(labels) != top:
        return f"largest label {max(labels)}, expected {top}"
    incident: list[list[int]] = [[] for _ in range(vertex_count)]
    for (u, v), lab in zip(canon, labels):
        incident[u].append(lab)
        incident[v].append(lab)
    for v, labs in enumerate(incident):
        if not naive_is_dss(labs):
            return f"vertex {v} labels {sorted(labs)} are not DSS"
    return None


def check_es(n: int, value, witness) -> str | None:
    if value != ES_VALUES[n]:
        return f"ES({n}) = {value}, expected {ES_VALUES[n]}"
    w = sorted(witness)
    if len(w) != n or len(set(w)) != n or w[-1] != value or not naive_is_dss(w):
        return f"ES({n}) witness {w} rejected"
    return None


def check_enumeration(size: int, cap: int, sets) -> str | None:
    tuples = [tuple(s) for s in sets]
    if len(tuples) != ENUM_COUNTS[(size, cap)]:
        return f"({size},{cap}): {len(tuples)} sets, expected {ENUM_COUNTS[(size, cap)]}"
    if any(a >= b for a, b in pairwise(tuples)):
        return f"({size},{cap}): sets not in strict lexicographic order"
    for t in tuples:
        if len(t) != size or list(t) != sorted(set(t)) or t[0] < 1 or t[-1] > cap:
            return f"({size},{cap}): malformed set {t}"
        if not naive_is_dss(t):
            return f"({size},{cap}): {t} is not DSS"
    return None


def check_cover(m: int, n: int, cover) -> str | None:
    if cover is None:
        return None if not COVER_EXISTS[(m, n)] else f"({m},{n}): no cover, expected one"
    if not COVER_EXISTS[(m, n)]:
        return f"({m},{n}): cover returned, expected none"
    sets = [tuple(s) for s in cover]
    flat = sorted(x for s in sets for x in s)
    if len(sets) != m or any(len(s) != n for s in sets):
        return f"({m},{n}): cover has the wrong shape"
    if flat != list(range(1, m * n + 1)):
        return f"({m},{n}): sets do not partition 1..{m * n}"
    for s in sets:
        if not naive_is_dss(s):
            return f"({m},{n}): {s} is not DSS"
    return None


def check_collision(values, collision) -> str | None:
    """Two disjoint, non-empty index subsets with equal sums."""
    a, b = (tuple(x) for x in collision)
    idx = range(len(values))
    if not a or not b or set(a) & set(b) or not all(i in idx for i in a + b):
        return f"collision {collision} is not two disjoint index sets"
    if sum(values[i] for i in a) != sum(values[i] for i in b):
        return f"collision {collision} has unequal sums"
    return None


# Edge lists of the graph families, in the constructors' vertex numbering.


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def multipartite_edges(parts) -> tuple[int, list[tuple[int, int]]]:
    owner = [i for i, p in enumerate(parts) for _ in range(p)]
    n = len(owner)
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if owner[u] != owner[v]]


def bistar_edges(a: int, b: int) -> tuple[int, list[tuple[int, int]]]:
    edges = [(0, 1)] + [(0, i) for i in range(2, a + 2)]
    edges += [(1, i) for i in range(a + 2, a + b + 2)]
    return a + b + 2, edges


def wheel_edges(n: int) -> list[tuple[int, int]]:
    rim = [(i, i + 1) for i in range(1, n - 1)] + [(1, n - 1)]
    return [(0, i) for i in range(1, n)] + rim
