"""DSS engine tests: frozen examples, incremental/full equivalence, and
agreement with the naive hash-set oracle."""

from __future__ import annotations

import math
import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arlabel import dss
from arlabel.dss import (
    DssSet,
    difference_mask,
    enumerate_dss_sets,
    is_dss,
    subset_sum_collision,
)
from conftest import naive_collision, naive_is_dss


class TestIsDss:
    def test_powers_of_two(self):
        assert is_dss({1, 2, 4, 8}) is True

    def test_small_collision(self):
        assert is_dss({1, 2, 3}) is False

    def test_conway_guy_four(self):
        assert is_dss({3, 5, 6, 7}) is True

    def test_empty_is_trivially_dss(self):
        assert is_dss([]) is True

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            is_dss([2, 2, 3])

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            is_dss([0, 1])
        with pytest.raises(ValueError, match="positive"):
            is_dss([-3, 1])

    def test_decides_dss_total_above_64_bits(self):
        # The meet in the middle decides it from a few signed sums.
        assert is_dss([2**62, 2**62 - 1, 2]) is True
        assert subset_sum_collision([2**62, 2**62 - 1, 2]) is None

    def test_decides_collision_total_above_64_bits(self):
        values = [2**62, 2**63, 2**63 + 2**62]
        assert is_dss(values) is False
        a, b = subset_sum_collision(values)
        assert not set(a) & set(b)
        assert sum(values[i] for i in a) == sum(values[i] for i in b)

    def test_exhaustive_agreement_with_naive_oracle(self):
        universe = list(range(1, 12))
        for mask in range(1, 1 << len(universe)):
            elems = [universe[i] for i in range(len(universe)) if mask >> i & 1]
            assert is_dss(elems) == naive_is_dss(elems), elems

    @settings(max_examples=150)
    @given(st.sets(st.integers(min_value=1, max_value=300), min_size=1, max_size=12))
    def test_random_agreement_with_naive_oracle(self, elems):
        assert is_dss(elems) == naive_is_dss(elems)

    @settings(max_examples=100)
    @given(st.data())
    def test_subsets_of_dss_sets_are_dss(self, data):
        elems = data.draw(
            st.sets(st.integers(min_value=1, max_value=500), min_size=1, max_size=10)
        )
        if not is_dss(elems):
            return
        subset = data.draw(st.sets(st.sampled_from(sorted(elems))))
        assert is_dss(subset) is True


def _subsets(universe):
    for mask in range(1 << len(universe)):
        yield [universe[i] for i in range(len(universe)) if mask >> i & 1]


class TestDifferenceMask:
    def test_empty_set_has_only_difference_zero(self):
        assert difference_mask([], 5) == 1 << 5

    def test_two_elements_all_differences(self):
        # sums 0, 1, 2, 3: every difference from -3 to 3
        assert difference_mask([1, 2], 3) == 0b1111111

    def test_centre_bit_set_and_span_is_total(self):
        for elems in ([], [4], [1, 2, 4], [3, 5, 6, 7], [1, 2, 3]):
            total = sum(elems)
            z = difference_mask(elems, total + 2)
            assert z >> (total + 2) & 1
            assert z.bit_length() - 1 == 2 * total + 2
            assert z & -z == 1 << 2

    def test_extension_matches_rebuild(self):
        z = difference_mask([3, 5, 6], 21)
        assert z | z << 7 | z >> 7 == difference_mask([3, 5, 6, 7], 21)

    def test_offset_below_element_sum_rejected(self):
        with pytest.raises(ValueError, match="below the element sum"):
            difference_mask([3, 5, 6], 13)

    def test_bits_are_naive_differences_exhaustive(self):
        # Every S within {1..10}: bit off + d is set iff d = s - t for two
        # subset sums s, t of S, collisions or not.
        for elems in _subsets(list(range(1, 11))):
            off = sum(elems)
            sums = {sum(c) for r in range(len(elems) + 1) for c in combinations(elems, r)}
            expected = 0
            for d in {s - t for s in sums for t in sums}:
                expected |= 1 << (off + d)
            assert difference_mask(elems, off) == expected, elems


class TestCanExtend:
    """May one more label join a DSS set?  Read from its difference mask:
    label a is legal iff bit off + a is clear."""

    @staticmethod
    def legal(elems, label):
        off = sum(elems)
        return difference_mask(elems, off) >> (off + label) & 1 == 0

    def test_collision_with_existing_sum(self):
        assert self.legal([1, 2], 3) is False

    def test_clean_extension(self):
        assert self.legal([1, 2], 4) is True

    def test_conway_guy_step(self):
        assert self.legal([3, 5, 6], 7) is True

    def test_exhaustive_incremental_vs_full(self):
        # Every DSS S within {1..10} and every label up to 64: the mask's
        # test agrees with deciding the extended set from scratch.
        for elems in _subsets(list(range(1, 11))):
            if not is_dss(elems):
                continue
            off = sum(elems)
            z = difference_mask(elems, off)
            for label in range(1, 65):
                if label in elems:
                    continue
                assert (z >> (off + label) & 1 == 0) == is_dss(elems + [label])


class TestEnumerate:
    def test_all_pairs_are_dss(self):
        sets = enumerate_dss_sets(2, 3)
        assert [s.elements for s in sets] == [(1, 2), (1, 3), (2, 3)]

    def test_unique_four_element_set_under_seven(self):
        sets = enumerate_dss_sets(4, 7)
        assert [s.elements for s in sets] == [(3, 5, 6, 7)]

    def test_two_five_element_sets_under_thirteen(self):
        # Expected values were frozen from the naive-oracle enumeration in
        # test_agreement_with_naive_enumeration below.
        sets = enumerate_dss_sets(5, 13)
        assert [s.elements for s in sets] == [
            (3, 6, 11, 12, 13),
            (6, 9, 11, 12, 13),
        ]
        assert len(set(sets[0].elements) & set(sets[1].elements)) == 4

    def test_agreement_with_naive_enumeration(self):
        from itertools import combinations

        for size, cap in [(2, 5), (3, 8), (4, 9), (5, 13), (5, 16)]:
            naive = [
                c for c in combinations(range(1, cap + 1), size) if naive_is_dss(c)
            ]
            assert [s.elements for s in enumerate_dss_sets(size, cap)] == naive

    def test_unique_six_element_set_under_twenty_four(self):
        assert enumerate_dss_sets(6, 24) == [DssSet((11, 17, 20, 22, 23, 24))]

    def test_six_element_sets_under_thirty_six(self):
        # Masks of 2 * 6 * 36 bits: wider than a machine word.
        sets = enumerate_dss_sets(6, 36)
        assert len(sets) == 20_929
        assert sets[0].elements == (1, 2, 4, 8, 16, 32)
        assert sets[-1].elements == (23, 29, 32, 34, 35, 36)

    def test_sorted_and_duplicate_free(self):
        sets = [s.elements for s in enumerate_dss_sets(3, 10)]
        assert sets == sorted(set(sets))
        assert all(is_dss(s) for s in sets)

    def test_results_are_not_checked_twice(self, monkeypatch):
        # The recursion proves each set DSS, so building the results runs
        # no second check (the scan behind is_dss and DssSet); each one
        # still passes is_dss and equals the DssSet a user would build from
        # it.
        sets = enumerate_dss_sets(5, 16)
        calls = []
        checked = dss._first_collision
        monkeypatch.setattr(dss, "_first_collision", lambda e: calls.append(e) or checked(e))
        assert enumerate_dss_sets(5, 16) == sets
        assert calls == []
        monkeypatch.undo()
        assert len(sets) > 100
        assert all(is_dss(s.elements) and s == DssSet(s.elements) for s in sets)

    def test_concatenation_of_lists_by_minimum(self):
        # The lists by smallest element are what disjoint_dss_cover reads;
        # in order of that element they make the whole enumeration.
        for size in range(1, 7):
            for cap in range(size, 31):
                by_min = [
                    dss._dss_sets_with_min(size, cap, low) for low in range(1, cap - size + 2)
                ]
                assert all(s.elements[0] == low for low, sets in enumerate(by_min, 1) for s in sets)
                assert enumerate_dss_sets(size, cap) == [s for sets in by_min for s in sets]

    def test_size_above_cap_rejected(self):
        with pytest.raises(ValueError):
            enumerate_dss_sets(4, 3)
        with pytest.raises(ValueError):
            enumerate_dss_sets(0, 3)


class TestDssSet:
    def test_sorts_input(self):
        assert DssSet((7, 3, 6, 5)).elements == (3, 5, 6, 7)

    def test_rejects_collisions(self):
        with pytest.raises(ValueError, match="not a distinct-subset-sum"):
            DssSet((1, 2, 3))

    def test_largest_and_container_protocol(self):
        ds = DssSet((3, 5, 6, 7))
        assert ds.largest == 7
        assert 5 in ds and 4 not in ds
        assert len(ds) == 4
        assert list(ds) == [3, 5, 6, 7]

    def test_total_above_64_bits(self):
        assert DssSet((3, 2**63 - 1)).elements == (3, 2**63 - 1)


class TestSubsetSumCollision:
    def test_none_for_dss(self):
        assert subset_sum_collision((1, 2, 4)) is None

    def test_simple_collision(self):
        a, b = subset_sum_collision((1, 2, 3))
        assert a == (0, 1) and b == (2,)

    def test_duplicate_values_collide(self):
        a, b = subset_sum_collision((5, 5))
        assert a == (0,) and b == (1,)

    @settings(max_examples=200)
    @given(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=10))
    def test_certificates_revalidate(self, values):
        result = subset_sum_collision(tuple(values))
        if result is None:
            assert len(set(values)) == len(values)
            assert naive_is_dss(values)
            return
        a, b = result
        assert a != b
        assert not set(a) & set(b)
        assert sum(values[i] for i in a) == sum(values[i] for i in b)


def scan_kind(values) -> str:
    """Which scan ``_first_collision`` runs on ``values``: "none" when the
    core is empty, else "bitmap" or "mitm" (meet in the middle), by the
    cost rule."""
    _, n, total = dss._core(tuple(values))
    if not n:
        return "none"
    return "bitmap" if dss._bitmap_is_cheaper(n, total) else "mitm"


def small_values(rng: random.Random) -> list[int]:
    """Up to ten values in 1..60, unsorted, duplicates allowed."""
    return [rng.randint(1, 60) for _ in range(rng.randint(1, 10))]


def large_values(rng: random.Random) -> list[int]:
    """Up to eight values below 2^40: small values scaled, so that their
    collisions survive, and some of them moved by one."""
    scale = rng.randint(2**30, 2**34)
    return [scale * v + (rng.random() < 0.2) for v in small_values(rng)[:8]]


class TestDispatch:
    """Which scan the cost rule picks; nothing here builds a large bitmap."""

    @pytest.mark.parametrize("n", [1, 3, 8, 16, 40])
    def test_both_sides_of_the_constant(self, n):
        # The bitmap is taken iff n * total < _BITS_PER_SUM * (3^(n//2) +
        # 3^(n - n//2)) for a core of n elements.
        signed_sums = 3 ** (n // 2) + 3 ** (n - n // 2)
        edge = -(-(dss._BITS_PER_SUM * signed_sums) // n)  # least total at the edge
        assert dss._bitmap_is_cheaper(n, edge - 1)
        assert not dss._bitmap_is_cheaper(n, edge)

    def test_huge_third_element_is_stripped(self):
        # No scan at all: 2^30, then 3, then 1 each exceed the rest.
        assert dss._core((1, 3, 2**30))[1:] == (0, 0)
        assert scan_kind([1, 3, 2**30]) == "none"
        # Under a colliding core, only the core's six bits are scanned.
        assert dss._core((2**30, 3, 1, 2))[1:] == (3, 6)
        assert scan_kind([2**30, 3, 1, 2]) == "bitmap"

    def test_cover_domain_sets_take_the_bitmap(self):
        # Every domain set of the (6, 6) cover search.
        assert all(scan_kind(s.elements) != "mitm" for s in enumerate_dss_sets(6, 36))

    def test_sixteen_elements_near_two_to_twenty_meet_in_the_middle(self):
        # 15 DSS elements 2^20 - 2^i and one that collides: the shape of the
        # heaviest set the verify benchmark checks.  Nothing is stripped,
        # and 2 * 3^8 signed sums cost less than bitmaps of 2^24 bits.
        values = [2**20 - 2**i for i in range(15)] + [2**20 - 5]
        assert dss._core(tuple(values))[1] == 16
        assert scan_kind(values) == "mitm"


class TestCore:
    """Elements larger than the sum of all smaller ones are stripped before
    any scan; the certificate stays the whole input's."""

    def test_duplicates_under_a_stripped_top(self):
        assert dss._core((5, 5, 2**40))[1:] == (2, 10)
        assert subset_sum_collision((5, 5, 2**40)) == ((0,), (1,))
        assert subset_sum_collision((2**40, 5, 2**50, 5)) == ((1,), (3,))
        # Equal tops are never stripped: neither exceeds the other.
        assert dss._core((2**40, 2**40))[1] == 2
        assert subset_sum_collision((2**40, 2**40)) == ((0,), (1,))

    def test_scans_skip_the_stripped_top(self):
        # A scan skips values above the core's top but keeps their places.
        assert dss._scan((1, 2, 3), [0, 1, 2], 2) is None
        assert dss._scan((1, 2, 3), [0, 1, 2], 3) == (2, 3)
        # A DSS core under a stripped 2^24: no bitmap of 2^24 bits (2 MiB).
        values = (2**24, 3, 5, 6, 7)
        assert scan_kind(values) == "bitmap"
        tracemalloc.start()
        try:
            assert is_dss(values) and subset_sum_collision(values) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_certificate_skips_the_stripped_prefix(self):
        # Thirty stripped elements before a colliding core: the subsets
        # are rebuilt from the elements up to the repeated sum, not from
        # 2 * 2^16 sums of the whole prefix.
        values = [2 ** (40 + i) for i in range(30)] + [1, 2, 3]
        tracemalloc.start()
        try:
            assert subset_sum_collision(values) == ((30, 31), (32,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize("seed", range(3))
    def test_superincreasing_top_above_colliding_core(self, seed):
        rng = random.Random(300 + seed)
        for _ in range(100):
            values = [rng.randint(1, 20) for _ in range(rng.randint(3, 6))]
            below = sum(values)
            for _ in range(rng.randint(1, 4)):
                top = below + rng.randint(1, 2 ** rng.choice([3, 40]))
                values.append(top)
                below += top
            core_size = dss._core(tuple(values))[1]
            rng.shuffle(values)
            assert dss._core(tuple(values))[1] == core_size <= len(values) - 1
            assert subset_sum_collision(values) == naive_collision(values), values
            if len(set(values)) == len(values):
                assert is_dss(values) == naive_is_dss(values), values

    @settings(max_examples=200)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=40),
                # multiples of 2^30 collide among themselves as small values do
                st.integers(min_value=1, max_value=12).map(lambda k: k << 30),
                st.integers(min_value=2**30, max_value=2**34),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_mixtures_of_small_and_large_match_naive(self, values):
        assert subset_sum_collision(values) == naive_collision(values)
        if len(set(values)) == len(values):
            assert is_dss(values) == naive_is_dss(values)


class TestCertificatesAcrossPaths:
    """Both scans give the certificate the naive enumeration gives."""

    @pytest.mark.parametrize("seed", range(4))
    def test_bitmap_path_matches_naive(self, seed):
        rng = random.Random(seed)
        for _ in range(150):
            values = small_values(rng)
            assert scan_kind(values) != "mitm"
            assert subset_sum_collision(values) == naive_collision(values), values
            if len(set(values)) == len(values):
                assert is_dss(values) == naive_is_dss(values), values

    @pytest.mark.parametrize("seed", range(4))
    def test_meet_in_the_middle_path_matches_naive(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(150):
            values = large_values(rng)
            assert scan_kind(values) != "bitmap"
            assert subset_sum_collision(values) == naive_collision(values), values
            if len(set(values)) == len(values):
                assert is_dss(values) == naive_is_dss(values), values

    @pytest.mark.parametrize("seed", range(4))
    def test_forced_meet_in_the_middle_matches_naive(self, seed, monkeypatch):
        # Small values, whose cores the cost rule sends to the bitmap, with
        # the meet in the middle forced: every core size and every place
        # of the colliding element relative to the two halves.
        monkeypatch.setattr(dss, "_bitmap_is_cheaper", lambda n, total: False)
        rng = random.Random(200 + seed)
        for _ in range(300):
            values = small_values(rng)
            assert subset_sum_collision(values) == naive_collision(values), values
            if len(set(values)) == len(values):
                assert is_dss(values) == naive_is_dss(values), values

    def test_both_paths_see_collisions_and_clean_sets(self):
        # The seeded inputs above are not all DSS and not all colliding,
        # and each family reaches its scan.
        rng = random.Random(0)
        for draw, kind in ((small_values, "bitmap"), (large_values, "mitm")):
            inputs = [draw(rng) for _ in range(200)]
            found = {subset_sum_collision(values) is None for values in inputs}
            assert found == {True, False}
            assert kind in map(scan_kind, inputs)


def caller_order_collision(values):
    """Reference certificate for sets too large for ``naive_collision``.

    The occupancy scan in the caller's order, adding one element at a time,
    gives (j, t); the two subsets are then read off every subset of the DSS
    prefix ``values[:j]``, each sum of which has exactly one subset.
    """
    vals = tuple(values)
    bits = 1
    for j, a in enumerate(vals):
        shifted = bits << a
        overlap = bits & shifted
        if overlap:
            t = (overlap & -overlap).bit_length() - 1
            break
        bits |= shifted
    else:
        return None
    subsets = {0: ()}
    for i in range(j):
        subsets.update([(s + vals[i], c + (i,)) for s, c in subsets.items()])
    return subsets[t], subsets[t - vals[j]] + (j,)


def colliding_sets(seed: int, count: int) -> list[list[int]]:
    """Unsorted sets of 13 to 16 elements, log-uniform in 2^4..2^22 like the
    verify benchmark's, each with one element replaced by a sum of two to
    four elements before it: the last element in every other set, an
    earlier one in the rest."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.randint(13, 16)
        vals = [int(2 ** rng.uniform(4, 22)) for _ in range(n)]
        at = n - 1 if k % 2 else rng.randrange(4, n - 1)
        vals[at] = sum(rng.sample(vals[:at], rng.randint(2, 4)))
        out.append(vals)
    return out


# The heaviest set the verify benchmark checks: 15 DSS elements 2^20 - 2^i
# and one that collides, (2^20-1) + (2^20-8) = (2^20-4) + (2^20-5).
GUARD_SHAPE = [2**20 - 2**i for i in range(15)] + [2**20 - 5]


class TestCertificatesAtScale:
    """The certificate is the caller-order scan's, whatever order the
    bitmaps are built in."""

    @pytest.mark.parametrize("seed", range(4))
    def test_unsorted_sets_match_caller_order_scan(self, seed):
        sets = colliding_sets(seed, 25)
        last = earlier = 0
        for values in sets:
            expected = caller_order_collision(values)
            assert subset_sum_collision(values) == expected, values
            if max(expected[1]) == len(values) - 1:
                last += 1
            else:
                earlier += 1
        assert last and earlier
        assert {scan_kind(values) for values in sets} == {"bitmap", "mitm"}

    @pytest.mark.parametrize("order", ["given", "ascending", "descending", "shuffled"])
    def test_guard_shape_in_every_order(self, order, monkeypatch):
        values = list(GUARD_SHAPE)
        if order == "ascending":
            values.sort()
        elif order == "descending":
            values.sort(reverse=True)
        elif order == "shuffled":
            random.Random(16).shuffle(values)
        assert scan_kind(values) == "mitm"
        expected = caller_order_collision(values)
        assert subset_sum_collision(values) == expected
        # The bitmap scans, forced, give the same certificate.
        monkeypatch.setattr(dss, "_bitmap_is_cheaper", lambda n, total: True)
        assert subset_sum_collision(values) == expected

    def test_smallest_repeated_sum_read_from_the_top_bit(self):
        # The scan reads t off the overlap's top bit; it must be the low
        # bit, on overlaps of up to 2^24 bits, in any order of the elements.
        rng = random.Random(24)
        wide = [2**20 - 2**i for i in range(16)]
        wide[9] = wide[2] + wide[7] - wide[4]  # collides with wide[4]
        inputs = [GUARD_SHAPE, wide] + colliding_sets(24, 20)
        inputs += [small_values(rng) for _ in range(300)]
        widths = []
        for values in inputs:
            for order in (
                sorted(range(len(values)), key=values.__getitem__),
                rng.sample(range(len(values)), len(values)),
            ):
                hit = dss._scan(values, order, max(values))
                if hit is None:
                    continue
                p, t = hit
                bits = 1
                for i in order[:p]:
                    bits |= bits << values[i]
                overlap = bits & bits << values[order[p]]
                assert t == (overlap & -overlap).bit_length() - 1, (values, order)
                widths.append(overlap.bit_length())
        assert 2**23 < max(widths) <= 2**24


class TestScanCost:
    """How many bitmaps the scans build, and how wide."""

    def test_scans_are_few_and_narrow(self, monkeypatch):
        # At most ceil(log2 n) + 2 scans a call, and a scan's bitmap after k
        # elements is no wider than the caller's first k elements make.
        orders = []
        scan = dss._scan
        monkeypatch.setattr(dss, "_scan", lambda v, o, c: orders.append(o) or scan(v, o, c))
        rng = random.Random(5)
        inputs = [small_values(rng) for _ in range(2000)] + [
            [rng.randint(1, 3 * n) for _ in range(n)] for n in range(2, 17) for _ in range(50)
        ]
        for values in inputs:
            assert scan_kind(values) != "mitm"
            orders.clear()
            subset_sum_collision(values)
            assert len(orders) <= math.ceil(math.log2(len(values))) + 2, values
            for order in orders:
                for k in range(1, len(order) + 1):
                    assert sum(values[i] for i in order[:k]) <= sum(values[:k]), values
            if len(set(values)) == len(values):
                orders.clear()
                is_dss(values)
                assert len(orders) == (scan_kind(values) == "bitmap")

    def test_descending_guard_shape_runs_no_scan(self, monkeypatch):
        # The meet in the middle finds (2^20-1) + (2^20-8) = (2^20-4) +
        # (2^20-5) within the first five elements; no bitmap is built.
        scans = []
        scan = dss._scan
        monkeypatch.setattr(dss, "_scan", lambda v, o, c: scans.append(o) or scan(v, o, c))
        values = sorted(GUARD_SHAPE, reverse=True)
        assert subset_sum_collision(values) == caller_order_collision(values)
        assert scans == []

    @pytest.mark.parametrize("check", [is_dss, subset_sum_collision])
    def test_guard_shape_peak_memory(self, check):
        # Two dicts of at most 3^8 signed sums, against 2 MiB for one
        # bitmap of the set's total.
        tracemalloc.start()
        try:
            check(GUARD_SHAPE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
