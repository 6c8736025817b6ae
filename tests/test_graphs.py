"""Graph model tests: family closed forms, canonical ordering, file I/O."""

from __future__ import annotations

import json
import random
from itertools import permutations

import pytest

from arlabel.errors import ParseError
from arlabel.graphs import (
    Graph,
    bistar,
    complete,
    complete_bipartite,
    complete_multipartite,
    cycle,
    load_graph,
    path,
    save_graph,
    star,
    wheel,
)
from arlabel.orbits import edge_orbits
from conftest import bench_file_graphs, naive_twins, relabeled, small_family_graphs


class TestFamilies:
    def test_star(self):
        g = star(3)
        assert g.vertex_count == 4
        assert g.edge_count() == 3
        assert g.max_degree() == 3
        assert g.degree(0) == 3

    def test_bistar(self):
        g = bistar(3, 3)
        assert g.vertex_count == 8
        assert g.edge_count() == 7
        degrees = sorted(g.degree(v) for v in range(8))
        assert degrees.count(4) == 2  # the two centers

    def test_wheel(self):
        g = wheel(6)
        assert g.vertex_count == 6
        assert g.edge_count() == 10
        assert g.max_degree() == 5
        assert g.degree(0) == 5  # hub

    def test_complete(self):
        g = complete(5)
        assert g.edge_count() == 10
        assert all(g.degree(v) == 4 for v in range(5))
        assert complete(6).edge_count() == 15

    def test_multipartite(self):
        g = complete_multipartite([3, 3, 3])
        assert g.max_degree() == 6
        assert g.edge_count() == 27

    def test_closed_form_edge_counts(self):
        for n in range(1, 8):
            assert star(n).edge_count() == n
        for n in range(1, 7):
            assert bistar(n, n).edge_count() == 2 * n + 1
        for n in range(1, 9):
            assert complete(n).edge_count() == n * (n - 1) // 2
        for m in range(1, 6):
            for n in range(1, 6):
                assert complete_bipartite(m, n).edge_count() == m * n
        for n in range(4, 12):
            assert wheel(n).edge_count() == 2 * (n - 1)

    def test_handshake_in_every_family(self):
        graphs = [
            star(4), bistar(2, 3), path(5), cycle(6), complete(5),
            complete_bipartite(3, 4), complete_multipartite([2, 2, 3]), wheel(7),
        ]
        for g in graphs:
            assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * g.edge_count()

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            star(0)
        with pytest.raises(ValueError):
            cycle(2)
        with pytest.raises(ValueError):
            wheel(3)
        with pytest.raises(ValueError):
            bistar(0, 1)
        with pytest.raises(ValueError):
            complete_multipartite([4])



def _orbit_partition(g: Graph) -> set[frozenset[int]]:
    classes: dict[int, set[int]] = {}
    for e, o in enumerate(edge_orbits(g)):
        classes.setdefault(o, set()).add(e)
    return {frozenset(c) for c in classes.values()}


def _edge_classes(g: Graph, group) -> set[frozenset[int]]:
    """The edge orbits of ``group``, a group of vertex permutations of g."""
    index = {e: i for i, e in enumerate(g.edges)}
    return {
        frozenset(index[tuple(sorted((perm[u], perm[v])))] for perm in group)
        for u, v in g.edges
    }


def _brute_force_orbits(g: Graph) -> set[frozenset[int]]:
    """Edge orbits of Aut(g): every vertex permutation that maps edges to
    edges."""
    edges = set(g.edges)
    automorphisms = [
        perm for perm in permutations(range(g.vertex_count))
        if {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges} == edges
    ]
    return _edge_classes(g, automorphisms)


def _twin_group_orbits(g: Graph) -> set[frozenset[int]]:
    """Edge orbits of the group the naive twin swaps generate: every
    product of swaps, closed by breadth-first search."""
    n = g.vertex_count
    swaps = []
    for u, v in naive_twins(g):
        perm = list(range(n))
        perm[u], perm[v] = v, u
        swaps.append(perm)
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        perm = frontier.pop()
        for swap in swaps:
            product = tuple(swap[w] for w in perm)
            if product not in group:
                group.add(product)
                frontier.append(product)
    return _edge_classes(g, group)


class TestEdgeOrbits:
    def test_orbit_counts(self):
        # Orbits of the group the twin swaps generate.  B_{a,b} keeps its
        # centres apart, as W_5 keeps apart its two pairs of opposite
        # spokes; W_n (n >= 6), paths from four vertices and cycles from
        # five have no twins; K_{2,2,3} has one orbit per pair of parts.
        cases = [(complete(n), 1) for n in range(2, 8)]
        cases += [(complete_bipartite(a, b), 1) for a in range(1, 5) for b in range(a, 6)]
        cases += [(wheel(4), 1), (wheel(5), 3)]  # W_4 is K_4
        cases += [(wheel(n), 2 * (n - 1)) for n in range(6, 11)]
        cases += [(bistar(a, b), 3) for a in range(1, 5) for b in range(a, 6)]
        cases += [(path(2), 1), (path(3), 1)]
        cases += [(path(n), n - 1) for n in range(4, 10)]
        cases += [(cycle(3), 1), (cycle(4), 1)]
        cases += [(cycle(n), n) for n in range(5, 9)]
        cases += [(complete_multipartite([1, 1, 1, 3]), 2), (complete_multipartite([2, 2, 3]), 3)]
        cases += [(complete_multipartite([3, 3, 3]), 3)]
        for g, count in cases:
            assert len(set(edge_orbits(g))) == count, g.name

    def test_orbit_ids_are_each_orbits_first_edge(self):
        for g in (bistar(2, 3), wheel(5), cycle(4), complete_multipartite([2, 2, 3])):
            orbits = edge_orbits(g)
            assert all(o <= e and orbits[o] == o for e, o in enumerate(orbits))

    def test_matches_brute_force_on_small_graphs(self):
        # Every corpus graph on at most 7 vertices, plus regular graphs with
        # one Aut orbit (two triangles) or two (the triangular prism:
        # triangle edges and rungs; a triangle beside a square), and a few
        # without regularity or connectivity.  Each twin orbit lies inside
        # one Aut orbit, and the twin orbits are those of the group the
        # naive twins generate.
        graphs = [g for g in small_family_graphs() if g.vertex_count <= 7]
        graphs += [
            Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5))),
            Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5))),
            Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6))),
            Graph(7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6))),
            Graph(7, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3))),
            Graph(5, ((0, 1), (2, 3))),
            bistar(2, 2),
            wheel(5),
            complete_multipartite([2, 2, 3]),
        ]
        assert [len(_brute_force_orbits(g)) for g in graphs[-9:-6]] == [1, 2, 2]
        for g in graphs:
            aut = _brute_force_orbits(g)
            twin = _orbit_partition(g)
            assert all(any(orbit <= big for big in aut) for orbit in twin), (g.name, g.edges)
            assert twin == _twin_group_orbits(g), (g.name, g.edges)

    def test_equals_aut_orbits_where_twins_generate_aut(self):
        # Twin swaps generate every permutation the orbits need on these.
        graphs = [complete(n) for n in range(2, 7)]
        graphs += [complete_bipartite(a, b) for a in range(1, 4) for b in range(a, 7 - a)]
        graphs += [star(n) for n in range(1, 7)]
        graphs += [complete_multipartite([1, 1, 1, 3])]
        for g in graphs:
            assert _orbit_partition(g) == _brute_force_orbits(g), g.name

    def test_relabeled_copies_keep_the_partition(self):
        rng = random.Random(7)
        families = [bistar(3, 3), bistar(4, 4), complete_bipartite(3, 4), wheel(6),
                    complete_multipartite([2, 2, 2]), complete_multipartite([1, 1, 1, 3]), path(7)]
        for g in families + bench_file_graphs():
            for _ in range(3):
                perm = list(range(g.vertex_count))
                rng.shuffle(perm)
                h = relabeled(g, perm)
                index = {e: i for i, e in enumerate(h.edges)}
                moved = {
                    frozenset(index[tuple(sorted((perm[g.edges[e][0]], perm[g.edges[e][1]])))]
                              for e in orbit)
                    for orbit in _orbit_partition(g)
                }
                assert _orbit_partition(h) == moved, g.name

    def test_edgeless_graph(self):
        assert edge_orbits(Graph(3, ())) == ()


class TestGraphModel:
    def test_canonical_order_is_input_independent(self):
        a = Graph(4, ((2, 3), (0, 1), (1, 2)))
        b = Graph(4, ((1, 0), (3, 2), (2, 1)))
        assert a == b
        assert a.edges == ((0, 1), (1, 2), (2, 3))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, ((1, 1),))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((0, 2),))

    def test_incidence_index(self):
        g = wheel(5)
        for i, (u, v) in enumerate(g.edges):
            assert i in g.incident_edges(u)
            assert i in g.incident_edges(v)
        for v in range(g.vertex_count):
            assert len(g.incident_edges(v)) == g.degree(v)

    def test_vertex_range_checked(self):
        g = path(3)
        with pytest.raises(ValueError):
            g.degree(3)
        with pytest.raises(ValueError):
            g.incident_edges(-1)

    def test_name_not_part_of_equality(self):
        assert Graph(2, ((0, 1),), name="a") == Graph(2, ((0, 1),), name="b")


class TestGraphFiles:
    def test_k2_fixture(self, tmp_path):
        f = tmp_path / "k2.json"
        f.write_text('{"vertices": 2, "edges": [[0, 1]]}')
        g = load_graph(f)
        assert g == complete(2)

    def test_round_trip_families(self, tmp_path):
        for g in (star(4), bistar(2, 3), wheel(6), complete_multipartite([2, 2, 2])):
            f = tmp_path / "g.json"
            save_graph(g, f)
            loaded = load_graph(f)
            assert loaded == g
            assert loaded.name == g.name
            # save(load(f)) round-trips to an identical document
            f2 = tmp_path / "g2.json"
            save_graph(loaded, f2)
            assert json.loads(f.read_text()) == json.loads(f2.read_text())

    def test_load_normalizes_edge_order(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"vertices": 3, "edges": [[2, 1], [1, 0]]}')
        assert load_graph(f).edges == ((0, 1), (1, 2))

    def test_self_loop_reports_position(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"vertices": 2, "edges": [[0, 1], [1, 1]]}')
        with pytest.raises(ParseError, match=r"edges\[1\].*self-loop"):
            load_graph(f)

    def test_duplicate_edge_reports_position(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"vertices": 3, "edges": [[0, 1], [1, 0]]}')
        with pytest.raises(ParseError, match=r"edges\[1\].*duplicate"):
            load_graph(f)

    def test_unknown_field_rejected(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"vertices": 2, "edges": [], "weight": 3}')
        with pytest.raises(ParseError, match="unknown field"):
            load_graph(f)

    def test_missing_fields_rejected(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"vertices": 2}')
        with pytest.raises(ParseError, match="edges"):
            load_graph(f)

    def test_malformed_json_reports_line(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"vertices": 2,\n  "edges": [[0 1]]}')
        with pytest.raises(ParseError, match="line 2"):
            load_graph(f)

    def test_bad_endpoint_type(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"vertices": 2, "edges": [[0, "1"]]}')
        with pytest.raises(ParseError, match=r"edges\[0\]"):
            load_graph(f)

    def test_bad_vertices_type(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text('{"vertices": "2", "edges": []}')
        with pytest.raises(ParseError, match="vertices"):
            load_graph(f)

    def test_non_object_top_level(self, tmp_path):
        f = tmp_path / "g.json"
        f.write_text("[1, 2]")
        with pytest.raises(ParseError, match="top level"):
            load_graph(f)
