import tracemalloc

import pytest

import graphdivisors.graphs as graphs
from graphdivisors import (
    DisconnectedError,
    Divisor,
    DuplicateEdgeError,
    DuplicateVertexError,
    Graph,
    GraphFamily,
    LoopEdgeError,
    ParameterOutOfRangeError,
    SizeCapExceededError,
    UnknownEndpointError,
    UnknownVertexError,
    build_graph,
    canonical_divisor,
    generate,
    genus,
    is_two_edge_connected,
    parse_family,
)

from oracles import find_bridges, is_connected


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(["P1", "P2"], [("P1", "P2")])
        assert g.vertices == ("P1", "P2")
        assert g.edges == (("P1", "P2"),)

    def test_single_vertex(self):
        g = build_graph(["P1"], [])
        assert len(g) == 1
        assert g.edges == ()

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError, match="P1"):
            build_graph(["P1", "P2"], [("P1", "P1")])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(DuplicateVertexError, match="P2"):
            build_graph(["P1", "P2", "P2"], [("P1", "P2")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(["P1", "P2"], [("P1", "P2"), ("P2", "P1")])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownEndpointError, match="P9"):
            build_graph(["P1", "P2"], [("P1", "P9")])

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError, match="P3"):
            build_graph(["P1", "P2", "P3", "P4"], [("P1", "P2"), ("P3", "P4")])

    def test_construction_errors_word_for_word(self):
        # The lowest-index vertex that vertex 0 cannot reach is named.
        cases = [
            (DisconnectedError, ["P1", "P2", "P3", "P4", "P5"], [("P1", "P4"), ("P5", "P3")],
             "vertex 'P2' is not reachable from 'P1'"),
            (DisconnectedError, ["P1", "P2", "P3", "P4"], [("P1", "P2"), ("P4", "P3")],
             "vertex 'P3' is not reachable from 'P1'"),
            (DuplicateVertexError, ["P1", "P2", "P1"], [("P1", "P2")], "duplicate vertex 'P1'"),
            (DuplicateEdgeError, ["P1", "P2", "P3"], [("P1", "P2"), ("P2", "P3"), ("P2", "P1")],
             "duplicate edge {'P2', 'P1'}"),
            (DuplicateEdgeError, ["P1", "P2"], [("P1", "P2"), ("P1", "P2")], "duplicate edge {'P1', 'P2'}"),
        ]
        for error, vertices, edges, text in cases:
            with pytest.raises(error) as exc:
                build_graph(vertices, edges)
            assert str(exc.value) == text

    def test_vertex_queries(self):
        g = generate("house4")
        assert g.degree("P1") == 3
        assert g.neighbors("P2") == ("P1", "P3")
        assert g.has_edge("P3", "P1")
        assert not g.has_edge("P2", "P4")
        with pytest.raises(UnknownVertexError):
            g.degree("Q1")

    def test_has_vertex_answers_false_for_any_other_label(self):
        g = generate("house4")
        assert g.has_vertex("P1")
        for label in ("Q1", "", 1, None, ("P1",), []):
            assert not g.has_vertex(label)
            with pytest.raises(UnknownVertexError):
                g.index_of(label)

    def test_degrees_in_families(self):
        k5 = generate("complete:5")
        assert all(k5.degree(v) == 4 for v in k5.vertices)
        w5 = generate("wheel:5")
        assert w5.degree("P1") == 4
        assert all(w5.degree(v) == 3 for v in w5.vertices[1:])
        house = generate("house4")
        assert [house.degree(v) for v in house.vertices] == [3, 2, 3, 2]

    def test_equality_and_hash(self):
        g1 = generate("house4")
        g2 = generate("house4")
        assert g1 == g2
        assert hash(g1) == hash(g2)
        assert g1 != generate("cycle:4")


def bridgeless_atlas_graphs():
    """One labeled graph per connected bridgeless class of networkx's
    atlas, labels descending so that label order is not index order."""
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    for h in graph_atlas_g():
        n = h.number_of_nodes()
        if n and nx.is_connected(h) and not nx.has_bridges(h):
            labels = [f"v{n - i}" for i in range(n)]
            yield Graph(labels, [(labels[u], labels[v]) for u, v in h.edges()])


class TestEdgeLookups:
    """`has_edge`, `edge_key` and `edges_at` read the neighbour lists;
    on every ordered pair of vertices they agree with `g.edges`."""

    @staticmethod
    def agree_with_edges(g):
        edges = set(g.edges)
        for u in g.vertices:
            assert g.edges_at(u) == tuple(e for e in g.edges if u in e)
            for v in g.vertices:
                key = (u, v) if (u, v) in edges else (v, u) if (v, u) in edges else None
                assert g.has_edge(u, v) == (key is not None)
                if key is None:
                    with pytest.raises(UnknownEndpointError, match="is not an edge"):
                        g.edge_key(u, v)
                else:
                    assert g.edge_key(u, v) == key

    @pytest.mark.parametrize("family", ["house4", "complete:5", "wheel:6"])
    def test_families(self, family):
        self.agree_with_edges(generate(family))

    def test_bridgeless_atlas_classes(self):
        count = 0
        for g in bridgeless_atlas_graphs():
            self.agree_with_edges(g)
            count += 1
        assert count > 100

    def test_unknown_vertex_named_first(self):
        g = generate("house4")
        for call in (g.has_edge, g.edge_key):
            with pytest.raises(UnknownVertexError, match="'Q1'"):
                call("Q1", "Q2")


def test_construction_memory_is_linear():
    # Twice the cycle takes at most 2.6 times the traced peak; adjacency
    # kept in Θ(n²) bits took about 3.5 times, and 189 MiB at 50,000.
    peaks = []
    for n in (25_000, 50_000):
        tracemalloc.start()
        try:
            generate(f"cycle:{n}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2.6 * peaks[0], peaks
    assert peaks[1] <= 64 * 2**20, peaks


class TestFamilies:
    def test_complete_4(self):
        g = generate("complete:4")
        assert len(g.vertices) == 4
        assert len(g.edges) == 6
        for u in g.vertices:
            for v in g.vertices:
                if u != v:
                    assert g.has_edge(u, v)

    def test_wheel_5_edge_set(self):
        g = generate("wheel:5")
        expected = {
            ("P1", "P2"), ("P1", "P3"), ("P1", "P4"), ("P1", "P5"),
            ("P2", "P3"), ("P3", "P4"), ("P4", "P5"), ("P2", "P5"),
        }
        assert {tuple(sorted(e)) for e in g.edges} == {tuple(sorted(e)) for e in expected}

    def test_house4_edge_list(self):
        g = generate("house4")
        expected = {("P1", "P2"), ("P2", "P3"), ("P3", "P4"), ("P1", "P4"), ("P1", "P3")}
        assert {tuple(sorted(e)) for e in g.edges} == expected

    def test_cycle(self):
        g = generate("cycle:5")
        assert all(g.degree(v) == 2 for v in g.vertices)
        assert len(g.edges) == 5

    def test_parameter_ranges(self):
        for bad in ("complete:2", "wheel:4", "cycle:2"):
            with pytest.raises(ParameterOutOfRangeError):
                generate(bad)

    def test_parse_family(self):
        assert parse_family("wheel:6") == GraphFamily("wheel", 6)
        assert parse_family("house4") == GraphFamily("house4")
        with pytest.raises(ValueError):
            parse_family("torus:3")
        with pytest.raises(ValueError):
            parse_family("wheel")
        with pytest.raises(ValueError):
            parse_family("house4:2")

    @pytest.mark.parametrize(
        "family",
        ["complete:3", "complete:6", "wheel:5", "wheel:8", "cycle:3", "cycle:7", "house4"],
    )
    def test_families_are_two_edge_connected(self, family):
        assert is_two_edge_connected(generate(family))


class TestTwoEdgeConnected:
    def test_complete_true(self):
        assert is_two_edge_connected(generate("complete:4"))

    def test_path_false(self):
        assert not is_two_edge_connected(build_graph(["P1", "P2"], [("P1", "P2")]))

    def test_house4_true(self):
        assert is_two_edge_connected(generate("house4"))

    def test_single_vertex_vacuous(self):
        assert is_two_edge_connected(build_graph(["P1"], []))

    def test_lollipop_false(self):
        g = build_graph(
            ["P1", "P2", "P3", "P4"],
            [("P1", "P2"), ("P2", "P3"), ("P3", "P1"), ("P3", "P4")],
        )
        assert not is_two_edge_connected(g)

    def test_matches_exhaustive_bridge_oracle(self):
        # every graph on <= 4 labeled vertices, via the remove-one-edge oracle
        import itertools

        labels = ["P1", "P2", "P3", "P4"]
        pairs = list(itertools.combinations(range(4), 2))
        checked = 0
        for mask in range(1 << 6):
            edges = [pairs[k] for k in range(6) if mask >> k & 1]
            if not is_connected(4, edges):
                continue
            g = Graph(labels, [(labels[a], labels[b]) for a, b in edges])
            assert is_two_edge_connected(g) == (not find_bridges(4, edges))
            checked += 1
        assert checked == 38  # connected labeled graphs on 4 vertices

    def test_scan_matches_networkx_on_the_atlas(self):
        # `_bridgeless` answers "connected and bridgeless" for any
        # adjacency lists, as the corpus asks it of each edge mask.
        nx = pytest.importorskip("networkx")
        from networkx.generators.atlas import graph_atlas_g

        atlas = [h for h in graph_atlas_g() if h.number_of_nodes()]
        assert len(atlas) == 1252
        for h in atlas:
            adj = [sorted(h[v]) for v in range(h.number_of_nodes())]
            assert graphs._bridgeless(adj) == (nx.is_connected(h) and not nx.has_bridges(h)), h.edges()


class TestGenusAndCanonical:
    def test_complete_genus(self):
        # (n-1)(n-2)/2
        assert genus(generate("complete:5")) == 6
        assert genus(generate("complete:4")) == 3

    def test_tree_genus_zero(self):
        g = build_graph(["P1", "P2", "P3"], [("P1", "P2"), ("P2", "P3")])
        assert genus(g) == 0

    def test_house4_genus_two(self):
        assert genus(generate("house4")) == 2

    def test_cycle_canonical_zero(self):
        g = generate("cycle:6")
        assert canonical_divisor(g) == Divisor.zero(g)

    def test_house4_canonical(self):
        g = generate("house4")
        assert canonical_divisor(g) == Divisor(g, {"P1": 1, "P3": 1})

    def test_complete4_canonical(self):
        g = generate("complete:4")
        assert canonical_divisor(g) == Divisor.all_ones(g)

    @pytest.mark.parametrize("family", ["complete:4", "complete:6", "wheel:5", "wheel:7", "cycle:5", "house4"])
    def test_canonical_degree_identity(self, family):
        g = generate(family)
        assert canonical_divisor(g).degree == 2 * genus(g) - 2


class TestJson:
    def test_round_trip(self):
        g = generate("wheel:6")
        assert Graph.from_json(g.to_json()) == g

    def test_edges_lexicographic(self):
        g = build_graph(["b", "a"], [("b", "a")])
        assert g.to_json()["edges"] == [["a", "b"]]

    @pytest.mark.parametrize("obj, problem", [
        ([], "must be an object"),
        ({"edges": []}, "no 'vertices' key"),
        ({"vertices": ["P1"]}, "no 'edges' key"),
        ({"vertices": "P1", "edges": []}, "'vertices' must be a list"),
        ({"vertices": ["P1", "P2"], "edges": "P1P2"}, "'edges' must be a list"),
        ({"vertices": ["P1", "P2"], "edges": ["P1P2"]}, "edge 'P1P2'"),
        ({"vertices": ["P1", "P2"], "edges": [["P1", "P2", "P1"]]}, "two endpoints"),
    ])
    def test_malformed_json_rejected(self, obj, problem):
        with pytest.raises(ValueError, match=problem):
            Graph.from_json(obj)

    def test_non_string_labels_rejected(self):
        with pytest.raises(ValueError, match="vertex label 1 is not a string"):
            build_graph([1, 2], [(1, 2)])
        with pytest.raises(UnknownEndpointError, match=r"\['P2'\]"):
            build_graph(["P1", "P2"], [("P1", ["P2"])])


@pytest.mark.parametrize("make, error, message", [
    (lambda: Graph([], []), ValueError, "a graph needs at least one vertex"),
    (lambda: generate("house4").edge_key("P4", "P2"), UnknownEndpointError, "{'P4', 'P2'} is not an edge"),
    (lambda: parse_family("complete:x"), ValueError, "family size 'x' is not an integer"),
    (lambda: generate(GraphFamily("bogus", 3)), ValueError, "unknown graph family 'bogus'"),
    (lambda: generate(GraphFamily("house4", 9)), ValueError, "family 'house4' takes no parameter"),
    (lambda: generate("complete:317"), SizeCapExceededError,
     "graph family is capped at 50000 vertices and edges, complete:317 has 317 vertices and 50086 edges"),
    (lambda: generate("wheel:25002"), SizeCapExceededError,
     "graph family is capped at 50000 vertices and edges, wheel:25002 has 25002 vertices and 50002 edges"),
    (lambda: Graph.from_json({"vertices": [str(i) for i in range(50_001)], "edges": []}),
     SizeCapExceededError, "graph JSON is capped at 50000 vertices and edges, it has 50001 vertices and 0 edges"),
], ids=["no vertices", "non-edge key", "size not an integer", "unknown family", "house4 with a size",
        "complete past the size cap", "wheel past the size cap", "graph JSON past the size cap"])
def test_input_checks(make, error, message):
    # Each refusal names what it refuses, as `errors` promises.
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message
