"""Acceptance gate: every exit criterion, run at its stated budget.

Each test prints one PASS line on success (visible with ``pytest -s`` or in
the captured-output report).  Stretch rows and long refutations are gated
behind ARLABEL_HEAVY=1; one of those gated rows (the 6x6 disjoint-cover
claim) is expected to fail because the computed, oracle-verified answer
contradicts the published one - see the repository notes for the analysis.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from arlabel.check import is_ar_labeling
from arlabel.cli import main
from arlabel.dss import difference_mask, enumerate_dss_sets, is_dss
from arlabel.es import KNOWN_ES, conway_guy_set, conway_guy_u, es
from arlabel.graphs import (
    bistar,
    complete,
    complete_bipartite,
    complete_multipartite,
    star,
    wheel,
)
from arlabel.reproduce import run_reproduction
from arlabel.solver import (
    SearchConfig,
    ari,
    ari_lower_bound,
    counting_prune,
    disjoint_dss_cover,
    find_ar_labeling,
    label_wheel,
)
from conftest import naive_ari, small_family_graphs

HEAVY = bool(os.environ.get("ARLABEL_HEAVY"))
heavy_only = pytest.mark.skipif(
    not HEAVY, reason="stretch row; set ARLABEL_HEAVY=1 to run"
)


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


class TestCriterion1EsSequence:
    def test_es_one_to_six_under_ten_seconds_each(self):
        times = []
        for n in range(1, 7):
            t0 = time.perf_counter()
            rec = es(n, budget_s=10)
            dt = time.perf_counter() - t0
            assert dt < 10
            assert rec.value == KNOWN_ES[n]
            times.append(dt)
        report("criterion 1a", f"ES(1..6) computed, max {max(times):.2f}s per value")

    def test_es_seven_under_five_minutes(self):
        t0 = time.perf_counter()
        rec = es(7, budget_s=300)
        dt = time.perf_counter() - t0
        assert dt < 300
        assert rec.value == 44
        report("criterion 1b", f"ES(7) = 44 in {dt:.1f}s")

    @heavy_only
    def test_es_eight_stretch(self):
        t0 = time.perf_counter()
        rec = es(8, budget_s=3600)
        dt = time.perf_counter() - t0
        assert rec.value == 84
        assert rec.witness.elements == (40, 60, 71, 77, 80, 82, 83, 84)
        report("criterion 1c", f"ES(8) = 84 in {dt:.0f}s, {rec.nodes:,} nodes")

    def test_es_nine_may_be_bound_only(self):
        rec = es(9, budget_s=5)
        if rec.value is not None:
            assert rec.value == 161
        else:
            assert rec.lower <= 161 <= rec.upper
        report("criterion 1d", f"ES(9) -> {rec.status} [{rec.lower}, {rec.upper}]")


class TestCriterion2Lunnon:
    def test_two_five_element_sets_max_thirteen(self):
        t0 = time.perf_counter()
        sets = enumerate_dss_sets(5, 13)
        dt = time.perf_counter() - t0
        assert dt < 1
        assert len(sets) == 2
        common = set(sets[0].elements) & set(sets[1].elements)
        assert len(common) == 4
        report("criterion 2a", f"two 5-element sets under 13, 4 shared, {dt * 1e3:.0f}ms")

    def test_unique_four_element_set_max_seven(self):
        t0 = time.perf_counter()
        sets = enumerate_dss_sets(4, 7)
        dt = time.perf_counter() - t0
        assert dt < 1
        assert [s.elements for s in sets] == [(3, 5, 6, 7)]
        report("criterion 2b", f"unique 4-element set {{3,5,6,7}}, {dt * 1e3:.0f}ms")


class TestCriterion3Stars:
    def test_star_index_equals_es(self):
        t0 = time.perf_counter()
        for n in range(1, 6):
            result = ari(star(n), SearchConfig(budget_s=60))
            assert result.status == "exact"
            assert result.value == KNOWN_ES[n]
            assert is_ar_labeling(star(n), result.witness).ok
        dt = time.perf_counter() - t0
        assert dt < 60
        report("criterion 3", f"ARI(K_1n) = ES(n) for n = 1..5 in {dt:.2f}s")


class TestCriterion4Bistars:
    def test_bistar_classification(self):
        t0 = time.perf_counter()
        cfg = SearchConfig(budget_s=120)
        for a, is_ar in ((1, True), (2, True), (3, False), (4, False)):
            g = bistar(a, a)
            out = find_ar_labeling(g, g.edge_count(), cfg)
            assert out.exhausted and (out.labeling is not None) == is_ar, a
        res = ari(bistar(3, 3), cfg)
        assert res.value == 8
        assert res.value == bistar(3, 3).edge_count() + 1  # almost AR
        dt = time.perf_counter() - t0
        assert dt < 300
        report("criterion 4", f"bistar classification reproduced in {dt:.2f}s")


class TestCriterion5CompleteGraphs:
    def test_k2_to_k5_are_ar(self):
        t0 = time.perf_counter()
        for n in range(2, 6):
            g = complete(n)
            outcome = find_ar_labeling(g, g.edge_count(), SearchConfig(budget_s=300))
            assert outcome.labeling is not None
            assert is_ar_labeling(g, outcome.labeling).ok
        dt = time.perf_counter() - t0
        assert dt < 600
        report("criterion 5a", f"K_2..K_5 verified AR in {dt:.2f}s")

    def test_k6_refutation_or_ingredients(self):
        # The full refutation tries first; if the budget expires, the
        # documented fallback re-checks the argument ingredients and the row
        # counts as skipped-budget rather than a failure.
        t0 = time.perf_counter()
        budget = 7200 if HEAVY else 600
        outcome = find_ar_labeling(complete(6), 15, SearchConfig(budget_s=budget))
        dt = time.perf_counter() - t0
        if outcome.exhausted:
            assert outcome.labeling is None
            report("criterion 5b", f"K_6 refuted exhaustively at 15 in {dt:.1f}s")
        else:
            sets = enumerate_dss_sets(5, 13)
            assert len(sets) == 2
            assert len(set(sets[0].elements) & set(sets[1].elements)) == 4
            assert counting_prune(complete(6), 15)
            report("criterion 5b", "K_6 row skipped-budget; ingredients verified")


class TestCriterion6DisjointCovers:
    def test_no_cover_for_three_five_and_friends(self):
        t0 = time.perf_counter()
        assert disjoint_dss_cover(3, 5) is None
        assert disjoint_dss_cover(4, 6) is None
        assert disjoint_dss_cover(5, 6) is None
        dt = time.perf_counter() - t0
        assert dt < 1800
        report("criterion 6a", f"no covers for (3,5), (4,6), (5,6) in {dt:.2f}s")

    def test_covers_exist_for_small_pairs(self):
        t0 = time.perf_counter()
        for m, n in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]:
            cover = disjoint_dss_cover(m, n)
            assert cover is not None and len(cover) == m
        dt = time.perf_counter() - t0
        assert dt < 1800
        report("criterion 6b", f"covers found for the five small pairs in {dt:.2f}s")

    @heavy_only
    def test_no_cover_for_six_six(self):
        # Published claim: no such cover.  The computed answer is a cover
        # that partitions {1..36} and re-verifies set by set (see
        # test_solver.TestDisjointCover.test_cover_6_6_exists), so this
        # faithful assertion fails deliberately rather than being weakened.
        assert disjoint_dss_cover(6, 6) is None
        report("criterion 6c", "no (6,6) cover")


class TestCriterion7BipartiteWitnesses:
    def test_small_bipartite_ar_witnesses(self):
        t0 = time.perf_counter()
        for m, n in [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4)]:
            g = complete_bipartite(m, n)
            outcome = find_ar_labeling(g, g.edge_count(), SearchConfig(budget_s=600))
            assert outcome.labeling is not None
            assert is_ar_labeling(g, outcome.labeling).ok
        dt = time.perf_counter() - t0
        assert dt < 1800
        report("criterion 7", f"K_22..K_34 verified AR in {dt:.2f}s")

    @heavy_only
    def test_stretch_bipartite_witnesses(self):
        t0 = time.perf_counter()
        for m, n in [(4, 4), (4, 5), (5, 5)]:
            g = complete_bipartite(m, n)
            outcome = find_ar_labeling(g, g.edge_count(), SearchConfig(budget_s=1800))
            assert outcome.labeling is not None
            assert is_ar_labeling(g, outcome.labeling).ok
        report("criterion 7 stretch", f"K_44, K_45, K_55 verified AR in {time.perf_counter() - t0:.1f}s")


class TestCriterion8Multipartite:
    def test_multipartite_witnesses_and_prune(self):
        t0 = time.perf_counter()
        for parts in ([2, 2, 2], [2, 2, 3]):
            g = complete_multipartite(parts)
            outcome = find_ar_labeling(g, g.edge_count(), SearchConfig(budget_s=900))
            assert outcome.labeling is not None
            assert is_ar_labeling(g, outcome.labeling).ok
        assert counting_prune(complete_multipartite([3, 3, 3]), 27) is False
        dt = time.perf_counter() - t0
        assert dt < 1800
        report("criterion 8", f"K_222, K_223 verified; 27 refuted for K_333; {dt:.1f}s")


class TestCriterion9Wheels:
    def test_wheel_labelings_and_exact_index(self):
        t0 = time.perf_counter()
        for n in range(6, 11):
            labeling = label_wheel(n)
            assert is_ar_labeling(wheel(n), labeling).ok
            assert max(labeling.labels) == KNOWN_ES[n - 1]
            # the degree bound meets the witness, pinning the index exactly
            assert ari_lower_bound(wheel(n)) == KNOWN_ES[n - 1]
        dt = time.perf_counter() - t0
        assert dt < 1800
        report("criterion 9a", f"W_6..W_10 labeled at ES(n-1) and pinned exact in {dt:.1f}s")

    def test_only_w4_w5_are_ar(self):
        cfg = SearchConfig(budget_s=120)
        for n, is_ar in ((4, True), (5, True), (6, False)):
            g = wheel(n)
            out = find_ar_labeling(g, g.edge_count(), cfg)
            assert out.exhausted and (out.labeling is not None) == is_ar, n
        report("criterion 9b", "AR-wheels are exactly W_4 and W_5")


class TestCriterion10PropertySuites:
    def test_incremental_vs_full_exhaustive(self):
        t0 = time.perf_counter()
        universe = list(range(1, 11))
        checked = 0
        for mask in range(1 << len(universe)):
            elems = [universe[i] for i in range(len(universe)) if mask >> i & 1]
            if not is_dss(elems):
                continue
            z = difference_mask(elems, sum(elems))
            for label in range(1, 65):
                if label in elems:
                    continue
                # the search kernels' test: bit off + label of the difference mask
                assert (z >> (sum(elems) + label) & 1 == 0) == is_dss(elems + [label])
                checked += 1
        report(
            "criterion 10a",
            f"difference-mask/full equivalence on {checked} extensions"
            f" in {time.perf_counter() - t0:.1f}s",
        )

    def test_brute_force_index_agreement(self):
        t0 = time.perf_counter()
        graphs = small_family_graphs(include_slow=HEAVY)
        for g in graphs:
            result = ari(g, SearchConfig(budget_s=120))
            assert result.status == "exact"
            assert result.value == naive_ari(g), g.name
        report(
            "criterion 10b",
            f"brute-force index agreement on {len(graphs)} graphs in {time.perf_counter() - t0:.1f}s",
        )

    def test_sandwich_on_every_exact_result(self):
        from arlabel.es import es_floor

        for g in small_family_graphs(include_slow=False):
            result = ari(g, SearchConfig(budget_s=120))
            assert result.status == "exact"
            assert es_floor(g.max_degree()) <= result.value
            if g.edge_count() <= 9:
                assert result.value <= KNOWN_ES[g.edge_count()]
        report("criterion 10c", "degree/edge-count sandwich holds on every exact result")

    def test_conway_guy_sets(self):
        for n in range(1, 21):
            ds = conway_guy_set(n)
            assert is_dss(ds.elements)
            assert ds.largest == conway_guy_u(n)
            if n <= 9:
                assert ds.largest == KNOWN_ES[n]
        report("criterion 10d", "Conway-Guy sets verified DSS for n = 1..20")

    def test_three_label_rule_equals_dss_up_to_fifty(self):
        from itertools import combinations

        t0 = time.perf_counter()
        count = 0
        for x, y, z in combinations(range(1, 51), 3):
            assert is_dss((x, y, z)) == (z != x + y and z != abs(x - y))
            count += 1
        report(
            "criterion 10e",
            f"three-label rule matches DSS on {count} triples in {time.perf_counter() - t0:.1f}s",
        )


class TestReproductionHarness:
    def test_default_report_has_no_mismatch(self, capsys):
        code = main(["reproduce", "--format", "machine"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["ok"] is True
        rows = {row["claim"]: row for row in doc["rows"]}
        assert rows["es-8"]["status"] == "skipped-budget"
        assert rows["complete-6"]["status"] == "skipped-budget"
        assert rows["complete-6-ingredients"]["status"] == "skipped-budget"
        assert rows["bipartite-cover-6-6"]["status"] == "skipped-budget"
        assert rows["wheels-ar"]["status"] == "match"
        fast_rows = [
            "es-values-1-6", "es-7", "dss-unique-4-within-7", "dss-two-5-within-13",
            "star-index", "bistars", "complete-2-5", "bipartite-cover-none",
            "bipartite-cover-exists", "bipartite-ar", "multipartite-ar",
            "multipartite-3-3-3", "wheel-labelings", "wheel-index",
        ]
        for claim in fast_rows:
            assert rows[claim]["status"] == "match", claim
        report("harness", f"{len(doc['rows'])} reproduction rows, no mismatch")

    def test_report_rows_are_stable(self):
        cheap = {"dss-unique-4-within-7", "dss-two-5-within-13",
                 "multipartite-3-3-3", "bipartite-cover-none"}
        a = run_reproduction(only=cheap)
        b = run_reproduction(only=cheap)
        assert [r.computed for r in a.rows] == [r.computed for r in b.rows]
        assert [r.status for r in a.rows] == [r.status for r in b.rows]
        assert all(r.status == "match" for r in a.rows)
