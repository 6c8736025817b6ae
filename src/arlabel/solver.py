"""Exact AR-index search: branch-and-bound labeling, counting prunes, and the
special-purpose constructions (bipartite disjoint covers, and the wheel
labelings built from the Conway-Guy set).

The decision core is the edge kernel, ``_search``: backtracking over edges
ordered by decreasing endpoint-degree sum, trying labels in ascending
order.  Each vertex keeps a difference mask of its labels' subset sums (see
the dss module docstring), so the labels legal at both endpoints of an edge
come from one AND of the free labels against the two masks.  A forward
check then skips a label after which an endpoint with r unlabeled edges has
no r free labels that are DSS together with its labels so far
(``can_complete``, an exact search on the endpoint's mask; for r == 1 the
AND of the free labels against the new mask).  A kernel run remembers
those answers in a memo of at most ``_COMPLETION_MEMO_CAP`` entries, freed
when the run returns.  Both cuts remove only subtrees without a labeling.

The twin order is the kernel's third cut.  Vertices u and v are twins when
N(u) - {v} == N(v) - {u} and they share a neighbour (``orbits.twin_pairs``);
the swap of u and v is then an automorphism, which exchanges the edge
pairs ``orbits.twin_swaps`` lists.  For each swap that leaves
the pinned edge in place, the first edge it moves in search order, at
step p, must carry a smaller label than its image, at step q > p.  So at
step q the candidates lose every label up to the largest one placed
at such a p, with one AND per node.  This is the lex-leader constraint
(Crawford, Ginsberg, Luks & Roy, KR 1996) for the swap: labels are
distinct, so a labeling and its image under an automorphism first differ
at the first edge it moves.  It keeps the first witness: without the cut,
a run's first witness is the lex-least labeling (in search order) that
carries the pin, the one a plain 1..k scan would find.  Every automorphism
that fixes the pinned edge maps it to another such labeling, no smaller,
so it meets every constraint, and the cut search finds it first.  Only
the counts of a run change.

``find_ar_labeling`` runs the kernel once, or, when label k must be used,
once per edge orbit of the group the twin swaps generate, with k pinned to
the orbit's first edge (``orbits.edge_orbits``).  That group is a subgroup
of Aut(g), so every labeling is the image of one with k on such an edge and
the pin only skips symmetric copies; the witness is then the first of the
first orbit that has one.  A pin on an edge that an automorphism outside
the group maps to an earlier pin repeats that pin's refuted run, which
changes only the counts.  A completed assignment is an AR-labeling by
construction (and is re-verified); an exhausted search is a refutation
certificate for that label budget.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

from .check import Labeling, is_ar_labeling
from .dss import DssSet, _dss_sets_with_min
from .errors import SearchTimeout
from .es import _es_start, conway_guy_set, conway_guy_u, es, es_floor
from .graphs import Graph, wheel

EXACT = "exact"
BOUNDS_ONLY = "bounds-only"

# Edges one search accepts at most.
_EDGE_CAP = 40

# Completion answers one search remembers at most.  A full memo is cleared
# whole, which keeps it to a few MB; a cleared answer is only asked again.
_COMPLETION_MEMO_CAP = 1 << 14


@dataclass
class SearchConfig:
    """Solver knobs: the wall-clock budget."""

    budget_s: float = 60.0

    def __post_init__(self) -> None:
        # NaN fails both tests; an infinite budget would never expire.
        if not 0 < self.budget_s < math.inf:
            raise ValueError("budget must be positive and finite")


@dataclass
class SearchStats:
    """What a search did.

    ``nodes``: edges labeled.  ``occupancy_prunes``: labels illegal at an
    endpoint of the edge.  ``symmetry_prunes``: labels legal at both
    endpoints but cut by the twin order.  ``forward_prunes``: labels cut
    because an endpoint could not be completed to a DSS set.  ``probes``:
    difference-mask tests that completion check made (calls of
    ``can_complete``); an answer the search remembered makes none, and
    neither does the question whether one more label fits (r == 1), which
    the kernel answers from its own AND.
    ``counting_refuted``: the degree-counting argument refuted k before any
    search.
    """

    nodes: int = 0
    occupancy_prunes: int = 0
    symmetry_prunes: int = 0
    forward_prunes: int = 0
    probes: int = 0
    counting_refuted: bool = False


# The integer counters of SearchStats, which ``ari`` adds up over its runs.
# ``counting_refuted`` defaults to a bool, which is not an int here.
_COUNTERS = tuple(f.name for f in fields(SearchStats) if type(f.default) is int)


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one k-feasibility search.

    ``exhausted`` distinguishes a refutation (the whole space was searched)
    from a timeout; a missing labeling only certifies infeasibility when the
    search is exhausted.
    """

    labeling: Labeling | None
    exhausted: bool
    stats: SearchStats


@dataclass(frozen=True)
class AriResult:
    graph: Graph
    status: str  # EXACT | BOUNDS_ONLY
    lower: int
    upper: int
    witness: Labeling | None
    stats: SearchStats

    @property
    def value(self) -> int | None:
        return self.lower if self.status == EXACT else None


def counting_prune(g: Graph, k: int) -> bool:
    """True when label budget k survives the degree-counting argument.

    Every vertex of degree d carries an incident label >= ES(d), and a label
    value sits on one edge, serving at most its two endpoints.  k is refuted
    when some threshold t has more vertices demanding a label >= t than the
    2*(k - t + 1) endpoint slots the values t..k can offer.
    """
    if k < 1:
        raise ValueError("k must be positive")
    needs = [es_floor(g.degree(v)) for v in range(g.vertex_count) if g.degree(v) > 0]
    for t in sorted(set(needs)):
        demand = sum(1 for need in needs if need >= t)
        capacity = 2 * max(0, k - t + 1)
        if demand > capacity:
            return False
    return True


def ari_lower_bound(g: Graph) -> int:
    """Largest k0 such that every k < k0 is refuted by injectivity (k < m),
    the ES(max-degree) bound, or the counting prune.  Never exceeds the true
    AR-index."""
    if g.edge_count() < 1:
        raise ValueError("graph has no edges")
    k0 = max(g.edge_count(), es_floor(g.max_degree()))
    while not counting_prune(g, k0):
        k0 += 1
    return k0


def can_complete(
    z: int, off: int, cand: int, r: int, stats: SearchStats, deadline: float
) -> bool:
    """May some r labels of ``cand`` join, together, the set behind ``z``?

    ``z`` is the set's difference mask at offset ``off`` (dss module
    docstring) and ``cand`` a bitmask of distinct labels (bit a for label a).
    The answer is exact: a depth-first search picks the labels in increasing
    order, lowest bit first, screens each level's candidates with one AND
    and stops at the first success.  Each call is one probe; every 1024th
    probe checks ``deadline`` and raises SearchTimeout once it has passed.
    """
    stats.probes += 1
    if stats.probes & 1023 == 0 and time.monotonic() > deadline:
        raise SearchTimeout
    h = z >> off
    legal = cand & ~h
    if r == 1:
        return legal != 0
    r -= 1
    if r == 1:
        # The last two labels in one loop: after a, the legal labels above
        # it are the clear bits of (z | z << a | z >> a) >> off, computed
        # from h without the shift of z that does not reach them.
        while legal & (legal - 1):
            low = legal & -legal
            legal ^= low
            a = low.bit_length() - 1
            if legal & ~(z >> (off - a) | h >> a):
                return True
        return False
    # The smallest label of a completion leaves r more above it.
    while legal.bit_count() > r:
        low = legal & -legal
        legal ^= low
        a = low.bit_length() - 1
        if can_complete(z | z << a | z >> a, off, legal, r, stats, deadline):
            return True
    return False


def _search_order(g: Graph) -> list[int]:
    # Highest-degree endpoints first: their difference masks fill fastest,
    # so the DSS pruning bites as early as possible.
    deg = [g.degree(v) for v in range(g.vertex_count)]
    return sorted(
        range(g.edge_count()), key=lambda e: (-(deg[g.edges[e][0]] + deg[g.edges[e][1]]), e)
    )


def find_ar_labeling(
    g: Graph,
    k: int,
    cfg: SearchConfig | None = None,
    *,
    _require_label_k: bool = False,
) -> SearchOutcome:
    """Search for an AR-labeling of g with distinct labels from {1..k}.

    Returns the first labeling under the deterministic order, or an
    exhausted refutation, or a timeout (``exhausted`` False).  k smaller than
    the edge count is immediately infeasible (injectivity), not an error.

    When some edge must carry label k, the kernel runs once per edge orbit
    of the group the twin swaps generate (``orbits.edge_orbits``), with k on
    the orbit's first edge in search order, orbits in the order of those
    edges.  An automorphism maps a labeling with k on any edge of the orbit
    to one with k on that edge, so the runs together miss no labeling.
    Label k must be used when k == m (the labels are then 1..m) or when the
    caller sets ``_require_label_k`` because k-1 is already refuted, as
    iterative deepening does.  The runs share the budget and add up their
    stats; the orbits, found without a search, take no part of it.
    """
    cfg = cfg or SearchConfig()
    if k < 1:
        raise ValueError("k must be positive")
    m = g.edge_count()
    stats = SearchStats()
    if m == 0:
        return SearchOutcome(Labeling(()), True, stats)
    if m > _EDGE_CAP:
        raise ValueError(f"graph has {m} edges, above the configured cap {_EDGE_CAP}")
    if k < m:
        return SearchOutcome(None, True, stats)
    if not counting_prune(g, k):
        stats.counting_refuted = True
        return SearchOutcome(None, True, stats)

    pins: list[int | None] = [None]
    if _require_label_k or k == m:
        # Imported here: only this search needs it, so other commands do not
        # load it at start-up.
        from .orbits import edge_orbits

        orbits = edge_orbits(g)
        firsts: dict[int, int] = {}
        for e in _search_order(g):
            firsts.setdefault(orbits[e], e)
        pins = list(firsts.values())
    deadline = time.monotonic() + cfg.budget_s
    labels = None
    try:
        for pin in pins:
            labels = _search(g, k, pin, stats, deadline)
            if labels is not None:
                break
    except SearchTimeout:
        return SearchOutcome(None, False, stats)
    if labels is None:
        return SearchOutcome(None, True, stats)
    labeling = Labeling(tuple(labels))
    verdict = is_ar_labeling(g, labeling)
    if not verdict.ok:  # pragma: no cover - solver invariant
        raise RuntimeError(f"internal: solver emitted an invalid labeling: {verdict.describe()}")
    return SearchOutcome(labeling, True, stats)


def _twin_order(g: Graph, free_edges: list[int]) -> list[list[int]]:
    """The twin order (module docstring) on the free edges in search order:
    per step q, the earlier steps p whose label must be below q's label.

    Each twin swap that moves only free edges gives one pair: p is the step
    of the first edge it moves and q the step of that edge's image.
    """
    from .orbits import twin_swaps  # imported as find_ar_labeling does

    step_of = {e: i for i, e in enumerate(free_edges)}
    below: list[list[int]] = [[] for _ in free_edges]
    for moved in twin_swaps(g):
        if all(e in step_of and f in step_of for e, f in moved):
            p, q = min(sorted((step_of[e], step_of[f])) for e, f in moved)
            below[q].append(p)
    return below


def _search(
    g: Graph, k: int, pin: int | None, stats: SearchStats, deadline: float
) -> list[int] | None:
    """The edge kernel: the first labeling of g from {1..k}, with label k on
    edge ``pin`` unless it is None, under the search order, or None when
    there is none.

    Adds its counts to ``stats`` and raises SearchTimeout once ``deadline``
    has passed.  ``find_ar_labeling`` checks the arguments, applies the
    counting prune and chooses the pin by orbit; this function does none of
    that.  It finds the twins of g itself and applies the twin order
    (module docstring) to the swaps that leave ``pin`` in place.
    """
    order = _search_order(g)
    # Difference masks (see the dss module docstring): off covers the
    # largest subset sum any vertex can reach.
    off = k * g.max_degree()
    z = [1 << off] * g.vertex_count
    used = 0
    if pin is not None:
        # One label is DSS alone: the pin breaks no vertex.
        for w in g.edges[pin]:
            z[w] |= z[w] << k | z[w] >> k
        used = 1 << k
    full = (1 << (k + 1)) - 2  # labels 1..k

    free_edges = [e for e in order if e != pin]
    depth = len(free_edges)
    below = _twin_order(g, free_edges)
    # One step per free edge: its endpoints, how many free edges each
    # endpoint still has after this one, for the forward check, and the
    # steps whose labels it must exceed.
    left = [0] * g.vertex_count
    steps = []
    for i in reversed(range(depth)):
        u, v = g.edges[free_edges[i]]
        steps.append((u, v, left[u], left[v], tuple(below[i])))
        left[u] += 1
        left[v] += 1
    steps.reverse()
    assigned = [0] * depth
    label_at = assigned.__getitem__
    monotonic = time.monotonic
    # can_complete's answers in this search.  A difference mask is symmetric
    # about off, so its upper half holds all of it, and only the legal free
    # labels matter: (z >> off, legal, r) fixes the answer.  One more label
    # (r == 1) needs only a legal one, which the AND itself shows.
    memo: dict[tuple[int, int, int], bool] = {}

    def completes(nz: int, rest: int, r: int) -> bool:
        high = nz >> off
        legal = rest & ~high
        if r == 1:
            return legal != 0
        key = (high, legal, r)
        ok = memo.get(key)
        if ok is None:
            if len(memo) >= _COMPLETION_MEMO_CAP:
                memo.clear()
            ok = memo[key] = can_complete(nz, off, legal, r, stats, deadline)
        return ok

    # dfs is handed itself rather than closing over its own name, so no
    # reference cycle outlives the search: its memo is freed on return.
    def dfs(i: int, used: int, dfs) -> bool:
        if i == depth:
            return True
        stats.nodes += 1
        if stats.nodes & 1023 == 0 and monotonic() > deadline:
            raise SearchTimeout
        u, v, ru, rv, before = steps[i]
        zu = z[u]
        zv = z[v]
        free = full & ~used
        blocked = free & ((zu | zv) >> off)
        cand = free ^ blocked
        if before:
            top = max(map(label_at, before))
            cut = cand & ((2 << top) - 1)
            if cut:
                stats.symmetry_prunes += cut.bit_count()
                cand ^= cut
        # Lowest label first: the order of a 1..k scan.
        while cand:
            low = cand & -cand
            cand ^= low
            lab = low.bit_length() - 1
            rest = free ^ low
            # Forward check: an endpoint with r free edges left needs r more
            # labels from the free ones that are DSS together with its own.
            # Any labeling below this node would give such labels, so a
            # failing label roots a dead subtree.
            nzu = zu | zu << lab | zu >> lab
            if ru and not completes(nzu, rest, ru):
                stats.forward_prunes += 1
                continue
            nzv = zv | zv << lab | zv >> lab
            if rv and not completes(nzv, rest, rv):
                stats.forward_prunes += 1
                continue
            z[u] = nzu
            z[v] = nzv
            assigned[i] = lab
            if dfs(i + 1, used | low, dfs):
                # The scan stopped at lab: only the blocked labels below it
                # were tested.
                stats.occupancy_prunes += (blocked & (low - 1)).bit_count()
                return True
            z[u] = zu
            z[v] = zv
        stats.occupancy_prunes += blocked.bit_count()
        return False

    if not dfs(0, used, dfs):
        return None
    labels = [k] * g.edge_count()  # every edge but the pin is overwritten
    for e, lab in zip(free_edges, assigned):
        labels[e] = lab
    return labels


def ari(g: Graph, cfg: SearchConfig | None = None) -> AriResult:
    """AR-index by iterative deepening from the certified lower bound.

    Exactness requires every smaller k refuted without timeout; on budget
    expiry the result degrades to the interval [first undecided k, ES upper
    bound from the edge count].
    """
    cfg = cfg or SearchConfig()
    if g.edge_count() < 1:
        raise ValueError("graph has no edges")
    lb = ari_lower_bound(g)
    m = g.edge_count()
    upper = conway_guy_u(m)
    deadline = time.monotonic() + cfg.budget_s
    total = SearchStats()
    k = lb
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return AriResult(g, BOUNDS_ONLY, k, upper, None, total)
        step_cfg = SearchConfig(budget_s=remaining)
        outcome = find_ar_labeling(g, k, step_cfg, _require_label_k=True)
        for name in _COUNTERS:
            setattr(total, name, getattr(total, name) + getattr(outcome.stats, name))
        if outcome.labeling is not None:
            return AriResult(g, EXACT, k, k, outcome.labeling, total)
        if not outcome.exhausted:
            return AriResult(g, BOUNDS_ONLY, k, upper, None, total)
        k += 1


def disjoint_dss_cover(m: int, n: int, deadline: float = math.inf) -> list[DssSet] | None:
    """m pairwise-disjoint n-element DSS subsets of {1..m*n}, or None.

    This is the necessary condition for K_{m,n} (m <= n, small side of degree
    n) to be an AR-graph: the m stars on the small side partition the m*n
    labels into m DSS sets.  Since m disjoint n-sets exhaust {1..m*n}, the
    search is an exact-cover walk that always covers the smallest unused
    element next.  So it only needs the sets whose smallest element is that
    one: they are listed when the walk first reaches it, and kept for the
    rest of the call.

    Each of the sets still to choose has its own largest element, at least
    ES(n).  So a node ends when fewer free elements reach a floor on ES(n)
    than sets remain.  The floor is C(n, n/2) (``_es_start``) when that
    already exceeds m*n, which ends the walk at its root for every n >= 8;
    otherwise it is the ``lower`` of ``es(n)`` run under the walk's
    deadline, a valid floor even when the record is bound-only.  No table
    of known values is read.

    Raises SearchTimeout once ``deadline``, a ``time.monotonic()`` reading,
    has passed.  The clock is read before ``es(n)`` runs, at every node of
    the walk, and every 1,024 nodes of each listing.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if m > n:
        raise ValueError(f"expected m <= n, got ({m}, {n})")
    ground = m * n
    if _es_start(n) > ground:
        return None
    budget = deadline - time.monotonic()
    if budget <= 0:
        raise SearchTimeout
    # Each chosen set's largest element is >= top.  Without a deadline es
    # runs under its default budget; a bound-only lower is a floor as well.
    top = (es(n) if budget == math.inf else es(n, budget)).lower
    full = (1 << (ground + 1)) - 2  # elements 1..ground
    by_min: dict[int, list[tuple[int, DssSet]]] = {}

    def with_min(low: int) -> list[tuple[int, DssSet]]:
        # (element bitmask, set) for each candidate set with minimum low.
        # At least n elements are free, so low <= ground - n + 1.
        found = by_min.get(low)
        if found is None:
            sets = _dss_sets_with_min(n, ground, low, deadline)
            found = by_min[low] = [(sum(1 << a for a in ds), ds) for ds in sets]
        return found

    chosen: list[DssSet] = []

    # cover is handed itself rather than closing over its own name, so no
    # reference cycle keeps the candidates alive after the call.
    def cover(used_mask: int, cover) -> bool:
        if len(chosen) == m:
            return True
        if time.monotonic() > deadline:
            raise SearchTimeout
        free = full & ~used_mask
        if (free >> top).bit_count() < m - len(chosen):
            return False
        for cand_mask, ds in with_min((free & -free).bit_length() - 1):
            if cand_mask & used_mask:
                continue
            chosen.append(ds)
            if cover(used_mask | cand_mask, cover):
                return True
            chosen.pop()
        return False

    return chosen if cover(0, cover) else None


def label_wheel(n: int) -> Labeling:
    """A verified AR-labeling of W_n with maximum label exactly ES(n-1).

    The spokes carry the Conway-Guy set for n-1, whose maximum u(n-1) is
    ES(n-1) for 6 <= n <= 10; other n raise ValueError.  The rim edges
    carry 1..n-1 in index order.  No search runs; the labeling is
    re-verified (``is_ar_labeling``).
    """
    if not 6 <= n <= 10:
        raise ValueError(f"wheel labeling construction needs 6 <= n <= 10, got {n}")
    g = wheel(n)
    spokes = g.incident_edges(0)
    labels = [0] * g.edge_count()
    for e, lab in zip(spokes, conway_guy_set(n - 1)):
        labels[e] = lab
    rim = [e for e in range(g.edge_count()) if e not in spokes]
    for lab, e in enumerate(rim, 1):
        labels[e] = lab
    labeling = Labeling(tuple(labels))
    verdict = is_ar_labeling(g, labeling)
    if not verdict.ok:  # pragma: no cover - construction invariant
        raise RuntimeError(f"internal: W_{n} construction is not AR: {verdict.describe()}")
    return labeling
