"""ES-sequence tests: analytic bounds, the Conway-Guy construction, and the
exact search on the fast range."""

from __future__ import annotations

import importlib
import math
import time
from itertools import combinations

import pytest

from arlabel.dss import is_dss
from arlabel.es import (
    BOUND_ONLY,
    COMPUTED,
    KNOWN_ES,
    STOPPED_BY_BUDGET,
    STOPPED_BY_MASK_CAP,
    EsRecord,
    _es_start,
    _witness_with_max,
    conway_guy_set,
    conway_guy_u,
    erdos_counting_lb,
    erdos_moser_lb,
    es,
)

# The first witness of each ES(n) in search order, which pruning must not move.
FIRST_WITNESSES = {
    1: (1,),
    2: (1, 2),
    3: (2, 3, 4),
    4: (3, 5, 6, 7),
    5: (6, 9, 11, 12, 13),
    6: (11, 17, 20, 22, 23, 24),
    7: (20, 31, 37, 40, 42, 43, 44),
}


class TestCountingBound:
    def test_base(self):
        assert erdos_counting_lb(1) == 1

    def test_nine(self):
        assert erdos_counting_lb(9) == 57  # ceil(511 / 9)

    def test_five(self):
        assert erdos_counting_lb(5) == 7  # ceil(31 / 5)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            erdos_counting_lb(0)
        with pytest.raises(OverflowError):
            erdos_counting_lb(63)

    def test_below_known_values(self):
        for n, value in KNOWN_ES.items():
            assert erdos_counting_lb(n) <= value

    def test_exceeds_six_n_beyond_nine(self):
        # The slack the wheel construction relies on: more than 6j labels
        # are available at every rim length j from 7 on.
        for j in (7, 8, 9):
            assert KNOWN_ES[j] > 6 * j
        for j in range(9, 31):
            assert erdos_counting_lb(j) > 6 * j


class TestMoserBound:
    def test_examples(self):
        assert erdos_moser_lb(1) == 1
        assert erdos_moser_lb(5) == 4  # ceil(32 / (4*sqrt(5))) = ceil(3.577..)
        assert erdos_moser_lb(10) == 81  # ceil(1024 / (4*sqrt(10))) = ceil(80.95..)

    def test_exact_ceiling_property(self):
        # Returned k is the exact ceiling of 2^n / (4 sqrt n): one smaller
        # fails the squared inequality, k itself satisfies it.
        for n in range(1, 40):
            k = erdos_moser_lb(n)
            assert 16 * n * k * k >= 4**n
            if k > 1:
                assert 16 * n * (k - 1) * (k - 1) < 4**n

    def test_matches_float_evaluation(self):
        for n in range(1, 30):
            assert erdos_moser_lb(n) == math.ceil(2**n / (4 * math.sqrt(n)))

    def test_below_known_values(self):
        for n, value in KNOWN_ES.items():
            assert erdos_moser_lb(n) <= value


class TestConwayGuy:
    def test_sequence_prefix(self):
        assert [conway_guy_u(n) for n in range(12)] == [
            0, 1, 2, 4, 7, 13, 24, 44, 84, 161, 309, 594,
        ]

    def test_matches_known_es(self):
        for n, value in KNOWN_ES.items():
            assert conway_guy_u(n) == value

    def test_set_examples(self):
        assert conway_guy_set(1).elements == (1,)
        assert conway_guy_set(4).elements == (3, 5, 6, 7)
        assert conway_guy_set(4).largest == 7
        assert conway_guy_set(6).largest == 24

    def test_sets_dss_up_to_twenty(self):
        for n in range(1, 21):
            ds = conway_guy_set(n)
            assert len(ds) == n
            assert ds.largest == conway_guy_u(n)
            assert is_dss(ds.elements)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            conway_guy_u(-1)
        with pytest.raises(ValueError):
            conway_guy_set(0)


class TestEsSearch:
    def test_first_six_values(self):
        for n in range(1, 7):
            rec = es(n, budget_s=30)
            assert rec.status == COMPUTED
            assert rec.value == KNOWN_ES[n]
            assert rec.lower == rec.upper == rec.value

    def test_witness_invariants(self):
        for n in range(1, 7):
            rec = es(n, budget_s=30)
            w = rec.witness
            assert w is not None and len(w) == n
            assert w.largest == rec.value
            assert is_dss(w.elements)

    def test_value_within_analytic_sandwich(self):
        for n in range(1, 7):
            rec = es(n, budget_s=30)
            assert rec.value >= max(erdos_counting_lb(n), erdos_moser_lb(n))
            assert rec.value <= conway_guy_u(n)

    def test_strictly_monotone(self):
        values = [es(n, budget_s=30).value for n in range(1, 7)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_first_witnesses_pinned(self):
        for n, witness in FIRST_WITNESSES.items():
            assert es(n, budget_s=60).witness.elements == witness

    def test_needs_no_table(self, monkeypatch):
        # A computed value rests on proved bounds alone, not on the
        # published values it is compared against.
        def no_table(j: int) -> int:
            raise AssertionError(f"es_floor({j}) read")

        # The package's ``es`` function shadows the module of the same name.
        module = importlib.import_module("arlabel.es")
        monkeypatch.setattr(module, "KNOWN_ES", {})
        monkeypatch.setattr(module, "es_floor", no_table)
        recs = [es(n, budget_s=60) for n in FIRST_WITNESSES]
        assert [rec.value for rec in recs] == [1, 2, 4, 7, 13, 24, 44]
        assert [rec.witness.elements for rec in recs] == list(FIRST_WITNESSES.values())

    def test_node_counts_pinned(self):
        # Node counts are deterministic; a weakened or disabled prune grows
        # them (without the second-moment bound ES(7) takes 354,359).  The
        # search starts at C(n, n/2): from ES(n-1) + 1, ES(6) and ES(7) took
        # 21 and 127 more nodes below it.  No candidate at u(n) is searched:
        # the Conway-Guy set is its witness.
        expected = {5: 43, 6: 1_625, 7: 93_970}
        for n, nodes in expected.items():
            assert es(n, budget_s=60).nodes == nodes

    def test_deterministic_witness(self):
        a = es(5, budget_s=30)
        b = es(5, budget_s=30)
        assert a == b

    def test_timeout_degrades_to_interval(self):
        rec = es(9, budget_s=0.05)
        assert rec.status == BOUND_ONLY
        assert rec.value is None
        assert rec.witness is None
        # everything below C(9, 4) = 126 is refuted analytically up front
        assert 126 <= rec.lower <= 161
        assert rec.upper == 161
        assert rec.nodes > 0  # the work done before the budget ran out
        assert rec.stopped_by == STOPPED_BY_BUDGET

    def test_rejects_bad_budget(self):
        # A NaN or infinite budget would never expire: no clock reading
        # exceeds it.
        for budget in (0, float("nan"), math.inf, float("1e400")):
            with pytest.raises(ValueError):
                es(3, budget_s=budget)

    def test_start_needs_no_table(self):
        # The search starts at a proved bound, C(n, n/2) from n = 4 on
        # (Dubroff, Fox & Xu), not at the published ES(n-1) + 1.
        for n, value in KNOWN_ES.items():
            assert math.comb(n, n // 2) <= value
        assert [_es_start(n) for n in range(1, 10)] == [1, 2, 3, 6, 10, 20, 35, 70, 126]

    @pytest.mark.parametrize("n", [24, 40])
    def test_large_n_stops_within_budget(self, n):
        # The first candidate maximum's difference mask would take 16 MB at
        # n = 24 and about 10^12 bytes at n = 40: both must end on time as a
        # bound-only interval that names the mask cap, not the budget.
        start = time.monotonic()
        rec = es(n, budget_s=0.2)
        assert time.monotonic() - start < 1.0
        assert rec.status == BOUND_ONLY
        assert math.comb(n, n // 2) <= rec.lower <= rec.upper == conway_guy_u(n)
        assert rec.stopped_by == STOPPED_BY_MASK_CAP


def _first_by_brute_force(n: int, x: int) -> tuple[int, ...] | None:
    """The first n-element DSS subset of {1..x} containing x, in the witness
    search's order: elements compared from the largest down, larger first."""
    below = range(x - 1, 0, -1)
    for rest in combinations(below, n - 1):
        elems = tuple(sorted(rest + (x,)))
        if is_dss(elems):
            return elems
    return None


class TestWitnessSoundness:
    """The pruned witness search against plain enumeration, in both the
    found and the refuted direction: the witness pins alone cannot catch a
    prune that cuts a subtree holding only later DSS sets."""

    @staticmethod
    def _pruned(n: int, x: int) -> tuple[int, ...] | None:
        witness, _ = _witness_with_max(n, x, time.monotonic() + 60)
        return witness

    def test_matches_brute_force_up_to_five(self):
        for n in range(3, 6):
            for x in range(1, KNOWN_ES[n] + 4):
                assert self._pruned(n, x) == _first_by_brute_force(n, x), (n, x)

    def test_matches_brute_force_at_six(self):
        for x in range(1, KNOWN_ES[6] + 2):
            assert self._pruned(6, x) == _first_by_brute_force(6, x), x


class TestPerCandidateBounds:
    """The prefix and second-moment bounds, tested on each candidate.  No
    known witness is tight against the second-moment bound, so an
    off-by-one in it keeps every witness; the node count of each refuted
    candidate maximum moves instead."""

    def test_node_counts_per_candidate_maximum_pinned(self):
        expected = [302, 775, 1_641, 3_365, 5_706, 10_290, 14_949, 24_005, 32_937]
        for x, nodes in zip(range(35, 44), expected):
            assert _witness_with_max(7, x, math.inf) == (None, nodes), x

    def test_start_is_the_largest_proved_bound(self):
        # C(n, n/2) is at least the counting and Erdos-Moser bounds over the
        # whole supported range, so the search needs neither.
        for n in range(1, 63):
            assert _es_start(n) == math.comb(n, n // 2) >= max(erdos_counting_lb(n), erdos_moser_lb(n)), n


class TestEsTable:
    """The ES values es(n) gives, n by n."""

    def test_small_table_is_computed(self):
        recs = [es(n, budget_s=30) for n in (1, 2, 3)]
        assert [rec.value for rec in recs] == [1, 2, 4]
        assert all(rec.status == COMPUTED for rec in recs)

    def test_medium_table_computes_through_seven(self):
        recs = [es(n, budget_s=300) for n in range(1, 8)]
        assert [rec.value for rec in recs] == [1, 2, 4, 7, 13, 24, 44]
        assert all(rec.status == COMPUTED for rec in recs)
        for rec in recs:
            assert rec.witness.largest == rec.value

    def test_beyond_known_range_is_bound_only(self):
        for n in (10, 11, 12):
            rec = es(n, budget_s=0.05)
            assert rec.status == BOUND_ONLY
            assert rec.value is None
            assert rec.lower >= erdos_counting_lb(n)
            assert rec.upper == conway_guy_u(n)

    def test_record_value_property(self):
        rec = EsRecord(3, COMPUTED, 4, 4, conway_guy_set(3))
        assert rec.value == 4
        rec = EsRecord(10, BOUND_ONLY, 162, 309, None)
        assert rec.value is None
