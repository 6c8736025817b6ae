"""Solver tests: bounds, the backtracking search, covers, wheels."""

from __future__ import annotations

import importlib
import math
import os
import random
import time
from dataclasses import asdict
from itertools import combinations

import pytest

from arlabel import dss, orbits, solver
from arlabel.check import Labeling, is_ar_labeling
from arlabel.dss import difference_mask, enumerate_dss_sets, is_dss
from arlabel.errors import SearchTimeout
from arlabel.es import KNOWN_ES, conway_guy_set, es_floor
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
from arlabel.solver import (
    BOUNDS_ONLY,
    EXACT,
    SearchConfig,
    SearchStats,
    ari,
    ari_lower_bound,
    can_complete,
    counting_prune,
    disjoint_dss_cover,
    find_ar_labeling,
    label_wheel,
)
from conftest import (
    bench_file_graphs,
    naive_ari,
    naive_is_dss,
    naive_twins,
    reference_find_ar_labeling,
    small_family_graphs,
)

FAST = SearchConfig(budget_s=30)


def unpinned(g, k, stats=None):
    """The edge kernel run once, with no label pinned: its first labeling
    of g from {1..k} (or None) and its stats."""
    stats = stats or SearchStats()
    return solver._search(g, k, None, stats, math.inf), stats


def _sizes(stats):
    return (stats.nodes, stats.occupancy_prunes, stats.symmetry_prunes, stats.forward_prunes)


def _plain_scan_cases():
    graphs = [path(n) for n in range(2, 8)] + [cycle(n) for n in range(3, 8)]
    graphs += [star(n) for n in range(1, 6)]
    graphs += [complete(4), complete(5), complete_bipartite(2, 3), complete_bipartite(3, 3)]
    graphs += [bistar(3, 3), wheel(5), wheel(6)]
    return [(g, k) for g in graphs for k in range(g.edge_count(), g.edge_count() + 5)]


class TestCountingPrune:
    def test_k333_at_27_refuted(self):
        assert counting_prune(complete_multipartite([3, 3, 3]), 27) is False

    def test_k333_at_28_survives(self):
        assert counting_prune(complete_multipartite([3, 3, 3]), 28) is True

    def test_star3_at_4_survives(self):
        assert counting_prune(star(3), 4) is True

    def test_monotone_in_k(self):
        g = complete_multipartite([3, 3, 3])
        for k in range(20, 40):
            if counting_prune(g, k):
                assert all(counting_prune(g, k2) for k2 in range(k, 41))
                break

    def test_refutation_implies_search_refutation(self):
        # soundness: a counting refutation is confirmed by exhaustive search
        cases = [(bistar(4, 4), 9), (star(3), 3), (star(4), 6)]
        for g, k in cases:
            assert counting_prune(g, k) is False
            outcome = find_ar_labeling(g, k, FAST)
            assert outcome.exhausted and outcome.labeling is None


class TestAriLowerBound:
    def test_star5(self):
        assert ari_lower_bound(star(5)) == 13

    def test_complete6(self):
        assert ari_lower_bound(complete(6)) >= 13

    def test_path4_injectivity(self):
        assert ari_lower_bound(path(4)) == 3

    def test_k333_counting_kicks_in(self):
        assert ari_lower_bound(complete_multipartite([3, 3, 3])) == 28

    def test_never_exceeds_exact_value(self):
        for g in (star(3), star(4), path(5), bistar(2, 2), complete(4), wheel(5)):
            result = ari(g, FAST)
            assert result.status == EXACT
            assert ari_lower_bound(g) <= result.value


class TestFindArLabeling:
    def test_path4_found_at_three(self):
        outcome = find_ar_labeling(path(4), 3, FAST)
        assert outcome.labeling is not None
        assert is_ar_labeling(path(4), outcome.labeling).ok

    def test_star3_refuted_at_three(self):
        outcome = find_ar_labeling(star(3), 3, FAST)
        assert outcome.labeling is None and outcome.exhausted

    def test_bistar33_refuted_at_seven(self):
        outcome = find_ar_labeling(bistar(3, 3), 7, FAST)
        assert outcome.labeling is None and outcome.exhausted
        assert outcome.stats.forward_prunes > 0

    def test_bistar33_found_at_eight(self):
        outcome = find_ar_labeling(bistar(3, 3), 8, FAST)
        assert outcome.labeling is not None
        assert max(outcome.labeling.labels) <= 8

    def test_k_below_edge_count_immediately_infeasible(self):
        outcome = find_ar_labeling(path(4), 2, FAST)
        assert outcome.labeling is None and outcome.exhausted
        assert outcome.stats.nodes == 0

    def test_found_labels_within_budget_and_injective(self):
        for g, k in [(complete(4), 6), (wheel(5), 8), (complete_bipartite(2, 3), 6)]:
            outcome = find_ar_labeling(g, k, FAST)
            assert outcome.labeling is not None
            labels = outcome.labeling.labels
            assert len(set(labels)) == len(labels)
            assert all(1 <= lab <= k for lab in labels)
            assert is_ar_labeling(g, outcome.labeling).ok

    def test_timeout_reported_not_exhausted(self, slow_clock):
        out = find_ar_labeling(complete(6), 16, SearchConfig(budget_s=0.02))
        assert out.labeling is None
        assert not out.exhausted

    def test_completion_check_honours_budget(self, slow_clock):
        # K_{1,7} at ES(7) = 44 takes 7 nodes, too few for the node loop's
        # deadline check; the completion check at the center does the work
        # and must stop on its own.
        out = find_ar_labeling(star(7), 44, SearchConfig(budget_s=0.5))
        assert out.labeling is None
        assert not out.exhausted
        assert out.stats.nodes < 1024 <= out.stats.probes

    def test_edge_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            find_ar_labeling(complete(10), 45, FAST)

    def test_counting_refutation_logged(self):
        out = find_ar_labeling(bistar(4, 4), 9, FAST)
        assert out.stats.counting_refuted
        assert out.exhausted

    def test_deterministic(self):
        a = find_ar_labeling(complete(4), 6, FAST)
        b = find_ar_labeling(complete(4), 6, FAST)
        assert a.labeling == b.labeling

    def test_same_first_witness_as_plain_scan(self):
        # Masks and the forward check cut only dead subtrees, so the
        # kernel's first witness (or refutation) is the plain 1..k scan's.
        for g, k in _plain_scan_cases():
            labels = unpinned(g, k)[0]
            got = (None if labels is None else tuple(labels), True)
            assert got == reference_find_ar_labeling(g, k), (g.name, k)

    def test_same_verdict_as_plain_scan(self):
        # With label k pinned by orbit the first witness may differ, but
        # not whether there is one.  Label k must be used at k == m, and
        # above m where the plain scan refutes k - 1, as in deepening.
        for g, k in _plain_scan_cases():
            below = k > g.edge_count() and reference_find_ar_labeling(g, k - 1)[0] is None
            out = find_ar_labeling(g, k, FAST, _require_label_k=below)
            expect = reference_find_ar_labeling(g, k)[0]
            assert out.exhausted
            assert (out.labeling is None) == (expect is None), (g.name, k)
            if out.labeling is not None:
                assert is_ar_labeling(g, out.labeling).ok

    def test_tree_sizes_pinned(self):
        # (nodes, occupancy prunes, symmetry prunes, forward prunes) of the
        # benchmark's kernel instances, summed over the k searched by the
        # unpinned kernel: for ari, each k from ari_lower_bound to the
        # index.  Remembering completion answers must not move them; only
        # probes may fall.  B_{2,3}@7 asks the same mask and legal labels
        # with two values of r, at the centers of degree 3 and 4.  Each
        # case: graph, the k searched, the k that finds a labeling, sizes.
        cases = [
            (bistar(2, 3), [7], 7, (6, 5, 2, 6)),
            (complete(6), [15], None, (352, 1720, 1854, 263)),
            (complete_bipartite(2, 5), [13, 14, 15], 15, (284, 1144, 1391, 225)),
            (complete_multipartite([1, 1, 1, 3]), [14, 15], 15, (1635, 6694, 2680, 3946)),
            (bistar(4, 4), [13, 14], 14, (487, 2166, 1721, 691)),
        ]
        for g, ks, found_at, sizes in cases:
            stats = SearchStats()
            found = [unpinned(g, k, stats)[0] is not None for k in ks]
            assert found == [k == found_at for k in ks], g.name
            assert _sizes(stats) == sizes, sizes

    def test_tree_sizes_with_orbit_pin(self):
        # The same instances through the public API: one kernel run per
        # edge orbit at each k whose label k must be used.  B_{2,3}@7 need
        # not use 7, so it keeps the unpinned tree.  B_{4,4} has three twin
        # orbits (its centres are not twins): the pin on the second centre's
        # pendants is one run more than Aut(B_{4,4})'s two orbits take.
        cases = [
            (find_ar_labeling(bistar(2, 3), 7, FAST), (6, 5, 2, 6)),
            (find_ar_labeling(complete(6), 15, FAST), (96, 511, 353, 138)),
            (ari(complete_bipartite(2, 5), FAST), (131, 597, 378, 214)),
            (ari(complete_multipartite([1, 1, 1, 3]), FAST), (1121, 4291, 815, 2409)),
            (ari(bistar(4, 4), FAST), (34, 114, 94, 64)),
        ]
        for out, sizes in cases:
            assert _sizes(out.stats) == sizes, sizes

    def test_completion_memo_cap_changes_only_probes(self, monkeypatch):
        # A memo cleared on every insert must give the same search as the
        # full-size one: remembered answers are can_complete's own.
        def run(g, k):
            out = find_ar_labeling(g, k, FAST)
            st = out.stats
            got = (None if out.labeling is None else out.labeling.labels, out.exhausted)
            return got, (st.nodes, st.occupancy_prunes, st.forward_prunes), st.probes

        cases = _plain_scan_cases()
        full = [run(g, k) for g, k in cases]
        monkeypatch.setattr(solver, "_COMPLETION_MEMO_CAP", 1)
        capped = [run(g, k) for g, k in cases]
        for (g, k), a, b in zip(cases, full, capped):
            assert a[:2] == b[:2], (g.name, k)
        # The cap took effect: the one-entry memo asks can_complete more.
        assert sum(b[2] for b in capped) > sum(a[2] for a in full)


class TestCanComplete:
    def test_matches_brute_force(self):
        # Every DSS set S within {1..12} of at most 3 elements, r = 1..3,
        # candidates: the labels of 1..16 outside S, and every other one of
        # them.  A false "no" would cut a live subtree, a false "yes" only
        # loses pruning; both directions must agree.
        off = 16 * 6  # largest total of S plus three labels
        stats = SearchStats()
        sets = [s for size in range(4) for s in combinations(range(1, 13), size) if is_dss(s)]
        for s in sets:
            free = [a for a in range(1, 17) if a not in s]
            z = difference_mask(s, off)
            for labels in (free, free[::2]):
                cand = sum(1 << a for a in labels)
                for r in range(1, 4):
                    expect = any(is_dss(s + c) for c in combinations(labels, r))
                    got = can_complete(z, off, cand, r, stats, float("inf"))
                    assert got == expect, (s, labels, r)
        assert stats.probes > 0


class TestAri:
    def test_stars_match_es(self):
        for n in range(1, 6):
            result = ari(star(n), FAST)
            assert result.status == EXACT
            assert result.value == KNOWN_ES[n]

    def test_star_six_finds_the_unique_witness(self):
        result = ari(star(6), SearchConfig(budget_s=120))
        assert result.value == 24
        # only one 6-element DSS set fits within {1..24}
        assert sorted(result.witness.labels) == [11, 17, 20, 22, 23, 24]

    def test_bistar33_is_eight(self):
        result = ari(bistar(3, 3), FAST)
        assert result.value == 8

    def test_wheel6_is_thirteen(self):
        result = ari(wheel(6), FAST)
        assert result.value == 13

    def test_witness_verifies_and_previous_k_refuted(self):
        for g in (star(4), bistar(3, 3), complete(4)):
            result = ari(g, FAST)
            assert result.status == EXACT
            assert is_ar_labeling(g, result.witness).ok
            assert max(result.witness.labels) <= result.value
            below = find_ar_labeling(g, result.value - 1, FAST)
            assert below.labeling is None and below.exhausted

    def test_degree_and_edge_count_sandwich(self):
        # ES(max degree) <= ARI(G) <= ES(edge count) on every exact result
        for g in small_family_graphs(include_slow=False):
            result = ari(g, FAST)
            assert result.status == EXACT
            assert result.value >= es_floor(g.max_degree())
            m = g.edge_count()
            if m <= 9:
                assert result.value <= KNOWN_ES[m]

    def test_timeout_gives_bounds(self, slow_clock):
        # ari reads the clock for its deadline and once per k, which leaves
        # the K_6@15 search 0.5 s: it times out at its first check.  Nodes
        # and probes each check the clock every 1024; the search must
        # reach one of them.
        result = ari(complete(6), SearchConfig(budget_s=1.5))
        assert result.status == BOUNDS_ONLY
        assert result.stats.nodes >= 1024 or result.stats.probes >= 1024
        assert result.value is None
        assert result.lower >= 15
        assert result.upper >= result.lower

    @pytest.mark.skipif(
        not os.environ.get("ARLABEL_HEAVY"),
        reason="exhaustive K_7 refutations, about 5 s; set ARLABEL_HEAVY=1",
    )
    def test_k7_refuted_at_27_and_28(self):
        # ari_lower_bound(K_7) is 27, so refuting 27 and 28, each with its
        # top label required, shows ARI(K_7) >= 29.
        g = complete(7)
        assert ari_lower_bound(g) == 27
        for k in (27, 28):
            out = find_ar_labeling(g, k, SearchConfig(budget_s=120), _require_label_k=True)
            assert out.exhausted and out.labeling is None, k

    def test_k7_witness_at_30(self):
        # With the refutations above, ARI(K_7) <= 30.  ari(complete(7))
        # finds this labeling after refuting 29 as well, in about a minute.
        g = complete(7)
        labels = (30, 1, 15, 17, 19, 24, 6, 26, 16, 11, 28, 25, 29, 27, 12, 18, 21, 9, 23, 20, 22)
        assert is_ar_labeling(g, Labeling(labels)).ok
        assert len(set(labels)) == len(labels) == g.edge_count() and max(labels) == 30
        for v in range(g.vertex_count):
            assert naive_is_dss([labels[e] for e in g.incident_edges(v)]), v

    def test_brute_force_oracle_agreement_sample(self):
        for g in (path(4), star(4), bistar(2, 2), complete(4), complete_bipartite(2, 3)):
            assert ari(g, FAST).value == naive_ari(g)


class TestArGraphDecision:
    """Is g an AR-graph: the search at label budget m(g) finds a labeling,
    or is exhausted without one."""

    def test_complete_graphs(self):
        for n, cfg in ((2, FAST), (3, FAST), (4, FAST), (5, SearchConfig(budget_s=120))):
            g = complete(n)
            out = find_ar_labeling(g, g.edge_count(), cfg)
            assert out.exhausted and out.labeling is not None, n

    def test_bistars(self):
        for a, is_ar in ((1, True), (2, True), (3, False), (4, False)):
            g = bistar(a, a)
            out = find_ar_labeling(g, g.edge_count(), FAST)
            assert out.exhausted and (out.labeling is not None) == is_ar, a

    def test_almost_ar(self):
        # Almost AR: the index is the edge count plus one.
        b33, b22 = bistar(3, 3), bistar(2, 2)
        assert ari(b33, FAST).value == b33.edge_count() + 1
        assert ari(b22, FAST).value == b22.edge_count()  # already AR

    def test_timeout_is_none(self, slow_clock):
        # The K_6@15 search reaches a clock check (every 1024 nodes or
        # probes) before it ends.
        out = find_ar_labeling(complete(6), 15, SearchConfig(budget_s=0.02))
        assert out.stats.nodes >= 1024 or out.stats.probes >= 1024
        assert out.labeling is None and not out.exhausted


class TestOrbitPin:
    def test_kernel_runs_once_per_orbit(self, monkeypatch):
        runs = []
        kernel = solver._search

        def recording(g, k, pin, stats, deadline):
            runs.append(pin)
            return kernel(g, k, pin, stats, deadline)

        monkeypatch.setattr(solver, "_search", recording)
        # Three twin orbits: the central edge 0 and each centre's three
        # pendant edges, 1-3 and 4-6, which are also the search order.
        # k == m uses label 7, so it is pinned to the first edge of each
        # orbit in search order.
        g = bistar(3, 3)
        assert solver._search_order(g) == list(range(7))
        assert orbits.edge_orbits(g) == (0, 1, 1, 1, 4, 4, 4)
        out = find_ar_labeling(g, 7, FAST)
        assert out.labeling is None and out.exhausted
        assert runs == [0, 1, 4]
        # Label 8 need not be used: one run, nothing pinned.
        runs.clear()
        assert find_ar_labeling(g, 8, FAST).labeling is not None
        assert runs == [None]

    @pytest.mark.parametrize("name", ["corpus", "bench files", "K_6@15"])
    def test_public_verdict_matches_unpinned_kernel(self, name):
        # At each k from ari_lower_bound to the index, the public search
        # (label k pinned by orbit) and the unpinned kernel agree, and every
        # witness passes the package check and the naive one.
        if name == "corpus":
            cases = [(g, None) for g in small_family_graphs()]
        elif name == "bench files":
            cases = [(g, None) for g in bench_file_graphs()]
        else:
            cases = [(complete(6), 15)]
        for g, stop in cases:
            k = ari_lower_bound(g)
            while True:
                _check_pin_agrees(g, k)
                if k == stop or unpinned(g, k)[0] is not None:
                    break
                k += 1

    @pytest.mark.skipif(
        not os.environ.get("ARLABEL_HEAVY"),
        reason="unpinned K_6@16 takes 470 k nodes; set ARLABEL_HEAVY=1",
    )
    def test_k6_at_16_and_17_match_unpinned_kernel(self):
        for k in (16, 17):
            _check_pin_agrees(complete(6), k)


def _check_pin_agrees(g, k):
    out = find_ar_labeling(g, k, SearchConfig(budget_s=120), _require_label_k=True)
    assert out.exhausted
    assert (out.labeling is None) == (unpinned(g, k)[0] is None), (g.name, k)
    if out.labeling is not None:
        assert is_ar_labeling(g, out.labeling).ok
        assert k in out.labeling.labels
        for v in range(g.vertex_count):
            assert naive_is_dss([out.labeling.labels[e] for e in g.incident_edges(v)])


class TestOrbitCost:
    def test_orbits_take_no_budget(self, slow_clock):
        # A perfect matching of 40 edges with shuffled vertex numbers has no
        # twins, so every edge is its own orbit, found without reading the
        # clock.  The first pinned run takes 39 nodes, below the kernel's
        # first clock check, so a budget that any clock reading exhausts
        # still ends in a witness.
        perm = list(range(80))
        random.Random(1).shuffle(perm)
        g = Graph(80, tuple((perm[2 * i], perm[2 * i + 1]) for i in range(40)))
        out = find_ar_labeling(g, 40, SearchConfig(budget_s=0.01))
        assert out.labeling is not None and out.exhausted
        assert out.stats.nodes == 39
        assert orbits.edge_orbits(g) == tuple(range(40))


class TestTwinOrder:
    def test_twin_pairs_are_edge_automorphisms(self):
        graphs = [complete(n) for n in range(3, 8)]
        graphs += [complete_bipartite(m, n) for m in range(1, 5) for n in range(max(m, 2), 6)]
        graphs += [star(n) for n in range(2, 7)]
        graphs += [bistar(a, b) for a in range(2, 5) for b in range(a, 5)]
        graphs += [wheel(4), wheel(5)]
        graphs += [g for g in bench_file_graphs() if g.name != "W_6"]
        for g in graphs:
            pairs = orbits.twin_pairs(g)
            assert pairs, g.name
            assert pairs == naive_twins(g), g.name
        # K_n: every pair; K_{m,n}: the pairs inside each part of size >= 2.
        assert orbits.twin_pairs(complete(5)) == list(combinations(range(5), 2))
        assert orbits.twin_pairs(complete_bipartite(2, 3)) == [(0, 1), (2, 3), (2, 4), (3, 4)]

    def test_no_twins_on_w6_or_cycles(self):
        for g in [wheel(6), wheel(7)] + [cycle(n) for n in range(5, 9)]:
            assert orbits.twin_pairs(g) == [], g.name
        (w6,) = [g for g in bench_file_graphs() if g.name == "W_6"]
        assert orbits.twin_pairs(w6) == []
        # Single edges, paths and the 4-cycle: only swaps that move an edge.
        assert orbits.twin_pairs(path(2)) == []
        assert orbits.twin_pairs(path(4)) == []
        assert orbits.twin_pairs(cycle(4)) == [(0, 2), (1, 3)]

    @pytest.mark.parametrize("name", ["corpus", "bench files", "K_6@15"])
    def test_same_verdict_and_witness_as_without_the_cut(self, name, monkeypatch):
        # With no twins the kernel runs without the twin order.  At each k
        # from ari_lower_bound to the index, pinned by orbit and unpinned,
        # both find the same first witness (or none), and the cut never
        # takes more nodes.
        if name == "corpus":
            cases = [(g, None) for g in small_family_graphs()]
        elif name == "bench files":
            cases = [(g, None) for g in bench_file_graphs()]
        else:
            cases = [(complete(6), 15)]
        twin_pairs = orbits.twin_pairs

        def run(g, k, twins):
            monkeypatch.setattr(orbits, "twin_pairs", twins)
            out = find_ar_labeling(g, k, FAST, _require_label_k=True)
            labels, stats = unpinned(g, k)
            return (out.labeling, out.exhausted, labels), out.stats.nodes, stats.nodes

        cut_anything = False
        for g, stop in cases:
            k = ari_lower_bound(g)
            while True:
                cut = run(g, k, twin_pairs)
                plain = run(g, k, lambda g: [])
                assert cut[0] == plain[0], (g.name, k)
                assert cut[1] <= plain[1] and cut[2] <= plain[2], (g.name, k)
                cut_anything |= cut[1:] != plain[1:]
                if k == stop or cut[0][2] is not None:
                    break
                k += 1
        # The corpus's trees are too small to cut; the others show that the
        # patched finder reached the kernel.
        assert cut_anything or name == "corpus"

    def test_swaps_moving_a_fixed_edge_are_not_used(self, monkeypatch):
        # Ordering a swap that moves the pinned edge would refute the stars:
        # in K_{1,2} with 2 on edge 0, edge 1 would need a label above 2, and
        # in K_{1,3} with 4 on edge 0, so would edge 1.  In K_4 minus the
        # edge 13 with 5 on edge 03, the swap of 0 and 2 moves 03 and the
        # free edges 01 and 12; ordering those two alone would skip the
        # first witness.  Each case keeps the witness the kernel finds
        # without twins.
        k4_minus_e = Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3)))
        cases = [
            (star(2), 2, 0, [2, 1]),
            (star(3), 4, 0, [4, 1, 2]),
            (k4_minus_e, 5, 2, [3, 1, 5, 2, 4]),
        ]

        def first_labeling(g, k, pin):
            return solver._search(g, k, pin, SearchStats(), math.inf)

        for g, k, pin, labels in cases:
            assert first_labeling(g, k, pin) == labels, g.name
        monkeypatch.setattr(orbits, "twin_pairs", lambda g: [])
        for g, k, pin, labels in cases:
            assert first_labeling(g, k, pin) == labels, g.name


class TestDisjointCover:
    def test_cover_2_2_found(self):
        cover = disjoint_dss_cover(2, 2)
        assert cover is not None and len(cover) == 2

    def test_cover_3_5_none(self):
        assert disjoint_dss_cover(3, 5) is None

    def test_cover_4_6_and_5_6_none(self):
        assert disjoint_dss_cover(4, 6) is None
        assert disjoint_dss_cover(5, 6) is None

    def test_positive_covers_partition_and_verify(self):
        for m, n in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]:
            cover = disjoint_dss_cover(m, n)
            assert cover is not None and len(cover) == m
            elements = [a for ds in cover for a in ds.elements]
            assert sorted(elements) == list(range(1, m * n + 1))
            assert all(naive_is_dss(ds.elements) for ds in cover)

    def test_cover_6_6_exists(self):
        # Six pairwise-disjoint 6-element DSS subsets of {1..36} do exist;
        # the witness is re-verified by the naive oracle below.
        cover = disjoint_dss_cover(6, 6)
        assert cover is not None
        elements = [a for ds in cover for a in ds.elements]
        assert sorted(elements) == list(range(1, 37))
        assert all(naive_is_dss(ds.elements) for ds in cover)

    def test_same_cover_as_walk_over_full_list(self):
        # The walk over every DSS n-subset of {1..mn}, covering the smallest
        # free element next, as the cover search did before it listed the
        # candidates by smallest element on demand.
        def reference(m, n):
            sets = [set(ds.elements) for ds in enumerate_dss_sets(n, m * n)]

            def walk(free):
                if not free:
                    return []
                for c in sets:
                    if min(c) == min(free) and c <= free:
                        rest = walk(free - c)
                        if rest is not None:
                            return [sorted(c)] + rest
                return None

            return walk(set(range(1, m * n + 1)))

        for n in range(1, 7):
            for m in range(1, min(n, 5) + 1):
                cover = disjoint_dss_cover(m, n)
                got = None if cover is None else [list(ds.elements) for ds in cover]
                assert got == reference(m, n), (m, n)

    def test_candidates_listed_by_minimum_on_demand(self, monkeypatch):
        # The (5,6) walk lists the sets with minimum 1, 3, 4, 5 and 2 as it
        # first reaches each, and no others: the ES(6) = 24 count cut ends
        # the nodes that would reach 6 and 7 first.  Each listing gets the
        # walk's deadline.
        asked = []
        listing = dss._dss_sets_with_min

        def recording(size, cap, low, deadline):
            asked.append((low, deadline))
            return listing(size, cap, low, deadline)

        monkeypatch.setattr(dss, "_dss_sets_with_min", recording)
        monkeypatch.setattr(solver, "_dss_sets_with_min", recording)
        deadline = time.monotonic() + 600
        assert disjoint_dss_cover(5, 6, deadline) is None
        assert asked == [(low, deadline) for low in (1, 3, 4, 5, 2)]

    def test_count_cut_refutes_4_6_at_the_root(self, monkeypatch):
        # Only element 24 of {1..24} reaches ES(6) = 24, and four sets each
        # need their own largest element there: nothing is listed.
        asked = []
        monkeypatch.setattr(solver, "_dss_sets_with_min", lambda *args: asked.append(args))
        assert disjoint_dss_cover(4, 6) is None
        assert asked == []

    def test_start_refutes_every_n_from_eight(self, monkeypatch):
        # C(n, n/2) > n*n >= m*n for n >= 8: no DSS n-subset of {1..m*n}
        # exists, with no listing and no ES search.
        def fail(*args):
            raise AssertionError(f"called with {args}")

        monkeypatch.setattr(solver, "_dss_sets_with_min", fail)
        monkeypatch.setattr(solver, "es", fail)
        for n in (8, 9):
            for m in range(1, n + 1):
                assert disjoint_dss_cover(m, n) is None, (m, n)

    def test_answers_need_no_table(self, monkeypatch):
        # The floor comes from es(n) run afresh, not from the published
        # values: with the table gone every answer stays the same.
        expected = {(m, n): disjoint_dss_cover(m, n) for n in range(1, 7) for m in range(1, n + 1)}

        def no_table(j: int) -> int:
            raise AssertionError(f"es_floor({j}) read")

        # The package's ``es`` function shadows the module of the same name.
        module = importlib.import_module("arlabel.es")
        monkeypatch.setattr(module, "KNOWN_ES", {})
        monkeypatch.setattr(module, "es_floor", no_table)
        monkeypatch.setattr(solver, "es_floor", no_table)
        for (m, n), cover in expected.items():
            assert disjoint_dss_cover(m, n) == cover, (m, n)

    def test_walk_honours_deadline(self, slow_clock):
        # Every clock read advances the clock one second: the read before
        # the ES(5) floor is already past a deadline half a second away.
        with pytest.raises(SearchTimeout):
            disjoint_dss_cover(3, 5, time.monotonic() + 0.5)

    def test_floor_runs_within_the_deadline(self, monkeypatch, slow_clock):
        # A deadline passed before the floor raises without an ES search;
        # one still ahead hands es the time that is left, never a
        # non-positive budget, and the walk stops at its next read.
        budgets = []
        floor = solver.es

        def recording(n, budget_s):
            budgets.append(budget_s)
            return floor(n, budget_s)

        monkeypatch.setattr(solver, "es", recording)
        for ahead in (0.5, 1.5, 2.5, 3.5):
            with pytest.raises(SearchTimeout):
                disjoint_dss_cover(3, 5, time.monotonic() + ahead)
        assert budgets and all(b > 0 for b in budgets)
        assert len(budgets) == 3

    def test_orientation_checked(self):
        with pytest.raises(ValueError):
            disjoint_dss_cover(3, 2)

    def test_star_side_condition(self):
        # one n-element DSS subset of {1..n} exists only while {1..n} is DSS
        assert disjoint_dss_cover(1, 2) is not None
        assert disjoint_dss_cover(1, 3) is None

    def test_deterministic(self):
        a = disjoint_dss_cover(3, 4)
        b = disjoint_dss_cover(3, 4)
        assert [s.elements for s in a] == [s.elements for s in b]

    def test_no_cover_implies_not_ar_small(self):
        # the cover condition is necessary: its failure must refute the graph
        assert disjoint_dss_cover(1, 3) is None
        out = find_ar_labeling(star(3), 3, FAST)
        assert out.exhausted and out.labeling is None

    @pytest.mark.skipif(
        not __import__("os").environ.get("ARLABEL_HEAVY"),
        reason="exhaustive 15-edge refutation; set ARLABEL_HEAVY=1",
    )
    def test_no_cover_implies_not_ar_3_5(self):
        assert disjoint_dss_cover(3, 5) is None
        out = find_ar_labeling(complete_bipartite(3, 5), 15, SearchConfig(budget_s=600))
        assert out.exhausted and out.labeling is None


class TestLabelWheel:
    def test_labelings_pinned(self):
        # The Conway-Guy spokes, then the rim edges 1..n-1 in index order.
        expected = {
            6: (6, 9, 11, 12, 13, 1, 2, 3, 4, 5),
            7: (11, 17, 20, 22, 23, 24, 1, 2, 3, 4, 5, 6),
            8: (20, 31, 37, 40, 42, 43, 44, 1, 2, 3, 4, 5, 6, 7),
            9: (40, 60, 71, 77, 80, 82, 83, 84, 1, 2, 3, 4, 5, 6, 7, 8),
            10: (77, 117, 137, 148, 154, 157, 159, 160, 161, 1, 2, 3, 4, 5, 6, 7, 8, 9),
        }
        for n, labels in expected.items():
            labeling = label_wheel(n)
            assert labeling.labels == labels
            assert is_ar_labeling(wheel(n), labeling).ok
            assert max(labels) == KNOWN_ES[n - 1]
            assert labels[: n - 1] == conway_guy_set(n - 1).elements

    def test_labelings_pass_a_naive_check(self):
        # Distinct labels, every vertex's labels DSS by plain subset-sum
        # enumeration, and the maximum at ES(n-1): the package check is not
        # consulted.
        for n in range(6, 11):
            g = wheel(n)
            labels = label_wheel(n).labels
            assert len(set(labels)) == len(labels) == g.edge_count()
            for v in range(g.vertex_count):
                assert naive_is_dss([labels[e] for e in g.incident_edges(v)]), (n, v)
            assert max(labels) == KNOWN_ES[n - 1]

    def test_built_without_search_or_clock(self, monkeypatch, slow_clock):
        # A construction, not a search: no kernel run, no budget to read.
        def no_search(*args):
            raise AssertionError("label_wheel ran the edge kernel")

        monkeypatch.setattr(solver, "_search", no_search)
        for n in range(6, 11):
            label_wheel(n)
        assert time.monotonic() == 1.0

    def test_spokes_carry_a_dss_set(self):
        labeling = label_wheel(9)
        g = wheel(9)
        hub_labels = [labeling.labels[e] for e in g.incident_edges(0)]
        assert is_dss(hub_labels)
        assert max(hub_labels) == KNOWN_ES[8]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            label_wheel(5)

    def test_unsupported_size_beyond_known_range(self, slow_clock):
        # Beyond W_10 the Conway-Guy spokes are not known to reach ES(n-1):
        # rejected at once, before any clock read.
        for n in (11, 12, 40):
            with pytest.raises(ValueError, match="6 <= n <= 10"):
                label_wheel(n)
        assert time.monotonic() == 1.0


class TestSearchConfig:
    def test_rejects_non_positive_budget(self):
        # NaN compares false with everything, so it must not pass as positive.
        # An infinite budget would never expire either.
        for budget in (0, -1, float("nan"), math.inf, float("1e400")):
            with pytest.raises(ValueError):
                SearchConfig(budget_s=budget)

    def test_stats_populated(self):
        out = find_ar_labeling(complete(4), 6, FAST)
        assert out.stats.nodes > 0
        assert asdict(out.stats)["nodes"] == out.stats.nodes
        assert asdict(out.stats)["probes"] == out.stats.probes > 0
        assert asdict(out.stats)["symmetry_prunes"] == out.stats.symmetry_prunes

    def test_ari_totals_include_probes(self):
        g = bistar(3, 3)
        result = ari(g, FAST)
        steps = [
            find_ar_labeling(g, k, FAST, _require_label_k=True)
            for k in range(ari_lower_bound(g), result.value + 1)
        ]
        totals = asdict(result.stats)
        assert totals.pop("counting_refuted") is False
        for name, total in totals.items():
            assert total == sum(asdict(out.stats)[name] for out in steps), name
        assert totals["probes"] > 0 and totals["symmetry_prunes"] > 0


def test_no_edge_graphs_rejected():
    lonely = Graph(3, ())
    with pytest.raises(ValueError):
        ari(lonely, FAST)
    with pytest.raises(ValueError):
        ari_lower_bound(lonely)
