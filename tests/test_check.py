"""AR-labeling verifier tests: definition bridge to DSS, certificates, files."""

from __future__ import annotations

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arlabel.check import (
    DuplicateLabels,
    Labeling,
    SumCollision,
    is_ar_labeling,
    load_labeling,
    save_labeling,
    verify_files,
)
from arlabel.dss import is_dss, subset_sum_collision
from arlabel.errors import ParseError
from arlabel.graphs import complete, path, save_graph, star, wheel
from conftest import naive_is_dss


class TestIsArVertex:
    """A vertex is an AR-vertex iff its incident labels form a DSS set:
    ``is_dss`` on those labels, and ``is_ar_labeling`` over the graph."""

    def test_degree_one_always_ar(self):
        g = star(3)
        lab = Labeling((1, 2, 3))
        for leaf in (1, 2, 3):
            assert is_dss([lab.labels[e] for e in g.incident_edges(leaf)]) is True
        # Only the centre fails.
        assert is_ar_labeling(g, lab).failure.vertex == 0

    def test_degree_two_distinct_labels(self):
        g = path(3)
        assert g.incident_edges(1) == (0, 1)
        assert is_ar_labeling(g, Labeling((5, 9))).ok

    def test_degree_three_collision(self):
        verdict = is_ar_labeling(star(3), Labeling((1, 2, 3)))
        assert isinstance(verdict.failure, SumCollision)
        assert verdict.failure.vertex == 0
        assert is_dss((1, 2, 3)) is False

    def test_matches_dss_on_incident_labels(self):
        # The verdict holds iff every vertex's incident labels are DSS, and
        # a failure names the first vertex whose labels are not.
        g = wheel(5)
        for labels in ((1, 2, 4, 8, 16, 32, 64, 128), (1, 2, 3, 4, 5, 6, 7, 8)):
            lab = Labeling(labels)
            bad = [
                v
                for v in range(g.vertex_count)
                if not is_dss([labels[e] for e in g.incident_edges(v)])
            ]
            verdict = is_ar_labeling(g, lab)
            assert verdict.ok == (bad == [])
            if bad:
                assert verdict.failure.vertex == bad[0]

    def test_duplicate_incident_labels_fail(self):
        verdict = is_ar_labeling(star(2), Labeling((3, 3)))
        assert isinstance(verdict.failure, DuplicateLabels)
        # Equal labels collide as singleton subsets.
        assert subset_sum_collision((3, 3)) == ((0,), (1,))
        with pytest.raises(ValueError, match="duplicate"):
            is_dss((3, 3))


class TestIsArLabeling:
    def test_path_four_ok(self):
        verdict = is_ar_labeling(path(4), Labeling((1, 2, 3)))
        assert verdict.ok

    def test_star_three_low_labels_fail_at_center(self):
        verdict = is_ar_labeling(star(3), Labeling((1, 2, 3)))
        assert not verdict.ok
        f = verdict.failure
        assert isinstance(f, SumCollision)
        assert f.vertex == 0

    def test_star_three_with_ES_witness_ok(self):
        # {1, 2, 4} is DSS, so the star with three edges verifies at max 4.
        verdict = is_ar_labeling(star(3), Labeling((1, 2, 4)))
        assert verdict.ok

    def test_duplicate_labels_reported_first(self):
        verdict = is_ar_labeling(path(4), Labeling((2, 7, 2)))
        assert not verdict.ok
        f = verdict.failure
        assert isinstance(f, DuplicateLabels)
        assert f.edges == (0, 2)
        assert f.label == 2

    def test_length_mismatch_is_input_error(self):
        with pytest.raises(ValueError, match="labels"):
            is_ar_labeling(path(4), Labeling((1, 2)))

    def test_collision_certificate_revalidates(self):
        g = complete(4)
        verdict = is_ar_labeling(g, Labeling((1, 2, 3, 4, 5, 6)))
        assert not verdict.ok
        f = verdict.failure
        assert isinstance(f, SumCollision)
        labels = (1, 2, 3, 4, 5, 6)
        incident = set(g.incident_edges(f.vertex))
        assert set(f.subset_a) <= incident and set(f.subset_b) <= incident
        assert set(f.subset_a).isdisjoint(f.subset_b)
        assert sum(labels[e] for e in f.subset_a) == sum(labels[e] for e in f.subset_b)

    @settings(max_examples=120)
    @given(st.data())
    def test_random_certificates_revalidate(self, data):
        g = data.draw(st.sampled_from([star(4), path(5), complete(4), wheel(5)]))
        labels = tuple(
            data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=30),
                    min_size=g.edge_count(),
                    max_size=g.edge_count(),
                )
            )
        )
        verdict = is_ar_labeling(g, Labeling(labels))
        if verdict.ok:
            for v in range(g.vertex_count):
                assert naive_is_dss([labels[e] for e in g.incident_edges(v)])
            return
        f = verdict.failure
        if isinstance(f, DuplicateLabels):
            assert labels[f.edges[0]] == labels[f.edges[1]] == f.label
        else:
            assert sum(labels[e] for e in f.subset_a) == sum(labels[e] for e in f.subset_b)
            assert f.subset_a != f.subset_b


class TestThirdLabelFeasible:
    """Given incident labels x and y, a third incident edge may carry z iff
    z != x + y and z != |x - y|, that is iff {x, y, z} is DSS."""

    def test_sum_blocked(self):
        assert is_dss((2, 5, 7)) is False

    def test_difference_blocked(self):
        assert is_dss((2, 5, 3)) is False

    def test_feasible_triple(self):
        # brute-force: the 8 subset sums of {2, 5, 6} are pairwise distinct
        assert sorted(
            sum(c) for r in range(4) for c in combinations((2, 5, 6), r)
        ) == [0, 2, 5, 6, 7, 8, 11, 13]
        assert is_dss((2, 5, 6)) is True

    def test_rejects_non_distinct(self):
        with pytest.raises(ValueError):
            is_dss((2, 2, 5))
        with pytest.raises(ValueError):
            is_dss((1, 0, 5))

    def test_equivalence_with_dss_small_range(self):
        for x, y, z in combinations(range(1, 26), 3):
            expected = is_dss((x, y, z))
            for p, q, r in permutations((x, y, z)):
                assert (r != p + q and r != abs(p - q)) == expected


class TestFiles:
    def test_verify_fixture_ok(self, tmp_path):
        save_graph(path(4), tmp_path / "g.json")
        save_labeling(Labeling((1, 2, 3)), tmp_path / "l.json")
        assert verify_files(tmp_path / "g.json", tmp_path / "l.json").ok

    def test_verify_star_witness(self, tmp_path):
        save_graph(star(3), tmp_path / "g.json")
        save_labeling(Labeling((1, 2, 4)), tmp_path / "l.json")
        verdict = verify_files(tmp_path / "g.json", tmp_path / "l.json")
        assert verdict.ok

    def test_wrong_label_count_is_input_error(self, tmp_path):
        save_graph(path(4), tmp_path / "g.json")
        save_labeling(Labeling((1, 2)), tmp_path / "l.json")
        with pytest.raises(ValueError):
            verify_files(tmp_path / "g.json", tmp_path / "l.json")

    def test_labeling_round_trip(self, tmp_path):
        lab = Labeling((3, 5, 6, 7))
        save_labeling(lab, tmp_path / "l.json")
        assert load_labeling(tmp_path / "l.json") == lab

    def test_labeling_rejects_unknown_field(self, tmp_path):
        (tmp_path / "l.json").write_text('{"labels": [1], "graph": "x"}')
        with pytest.raises(ParseError, match="unknown field"):
            load_labeling(tmp_path / "l.json")

    def test_labeling_rejects_bad_entry(self, tmp_path):
        (tmp_path / "l.json").write_text('{"labels": [1, 0]}')
        with pytest.raises(ParseError, match=r"labels\[1\]"):
            load_labeling(tmp_path / "l.json")

    def test_labeling_type_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Labeling((1, -2))
