import random

import pytest

from mso2dd import Graph, parse_graph
from mso2dd.errors import GraphError
from mso2dd.graph import Edge, clique, clique_tree, complete_binary_tree, full_product

from checks import serialize_graph


def brute_product_edges(g, h):
    """Independent re-statement of the three product adjacency rules."""
    nh = h.n_vertices
    pairs = []
    for p in range(1, g.n_vertices * nh + 1):
        a, b = (p - 1) // nh + 1, (p - 1) % nh + 1
        for q in range(p + 1, g.n_vertices * nh + 1):
            c, d = (q - 1) // nh + 1, (q - 1) % nh + 1
            rule1 = g.has_edge(a, c) and b == d
            rule2 = a == c and h.has_edge(b, d)
            rule3 = g.has_edge(a, c) and h.has_edge(b, d)
            if rule1 or rule2 or rule3:
                pairs.append((p, q))
    return pairs


class TestParse:
    def test_smallest_graph(self):
        g = parse_graph("p gr 2 1\n1 2\n")
        assert g.n_vertices == 2
        assert [e.endpoints for e in g.edges] == [(1, 2)]

    def test_triangle(self):
        g = parse_graph("p gr 3 3\n1 2\n2 3\n1 3\n")
        assert g.n_vertices == 3
        # same edge set as the complete graph; ids follow line order
        assert {e.endpoints for e in g.edges} == {e.endpoints for e in clique(3).edges}
        assert [e.id for e in g.edges] == [1, 2, 3]

    def test_comments_ignored(self):
        g = parse_graph("c hello\np gr 1 0\nc bye\n")
        assert g.n_vertices == 1 and g.n_edges == 0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            parse_graph("p gr 2 1\n1 1\n")

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError):
            parse_graph("p gr 2 1\n1 3\n")

    def test_duplicate_edge(self):
        with pytest.raises(GraphError):
            parse_graph("p gr 2 2\n1 2\n2 1\n")

    def test_malformed_header(self):
        with pytest.raises(GraphError):
            parse_graph("p tw 2 1\n1 2\n")
        with pytest.raises(GraphError):
            parse_graph("1 2\n")

    def test_header_over_the_vertex_cap_rejected(self):
        # one more than graph.MAX_VERTICES: a graph keeps a list per vertex, so
        # the header alone must not size it
        with pytest.raises(GraphError, match="more than"):
            parse_graph("p gr 1000001 0\n")

    def test_count_mismatch(self):
        with pytest.raises(GraphError):
            parse_graph("p gr 3 2\n1 2\n")

    def test_roundtrip_is_identity(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(1, 6)
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            chosen = [p for p in pairs if rng.random() < 0.5]
            g = Graph(n, chosen)
            assert parse_graph(serialize_graph(g)) == g


class TestEdge:
    def test_edges_order_by_id_then_endpoints(self):
        edges = [Edge(2, 1, 3), Edge(1, 2, 3), Edge(1, 1, 4), Edge(1, 1, 3)]
        assert sorted(edges) == [Edge(1, 1, 3), Edge(1, 1, 4), Edge(1, 2, 3), Edge(2, 1, 3)]

    def test_equal_edges_hash_equal_and_cannot_change(self):
        e = Edge(1, 2, 3)
        assert e == Edge(1, 2, 3) and hash(e) == hash(Edge(1, 2, 3))
        with pytest.raises(AttributeError):
            e.u = 5


class TestGenerators:
    def test_clique_sizes(self):
        assert (clique(1).n_vertices, clique(1).n_edges) == (1, 0)
        assert (clique(3).n_vertices, clique(3).n_edges) == (3, 3)
        assert (clique(4).n_vertices, clique(4).n_edges) == (4, 6)
        with pytest.raises(GraphError):
            clique(0)

    def test_binary_tree_sizes(self):
        assert (complete_binary_tree(1).n_vertices, complete_binary_tree(1).n_edges) == (1, 0)
        assert (complete_binary_tree(2).n_vertices, complete_binary_tree(2).n_edges) == (3, 2)
        assert (complete_binary_tree(3).n_vertices, complete_binary_tree(3).n_edges) == (7, 6)
        with pytest.raises(GraphError):
            complete_binary_tree(0)

    def test_product_of_singletons(self):
        assert full_product(clique(1), clique(1)) == clique(1)

    def test_k2_squared_is_k4(self):
        g = full_product(clique(2), clique(2))
        expected = brute_product_edges(clique(2), clique(2))
        assert [e.endpoints for e in g.edges] == expected
        assert len(expected) == 6  # frozen from the brute-force rules
        assert g == clique(4)

    def test_k2_times_p2_is_k4(self):
        p2 = Graph(2, [(1, 2)])
        g = full_product(clique(2), p2)
        assert [e.endpoints for e in g.edges] == brute_product_edges(clique(2), p2)
        assert g == clique(4)

    def test_clique_tree_base_cases(self):
        assert clique_tree(1, 1) == clique(1)
        kt = clique_tree(2, 2)
        assert kt.n_vertices == 6
        # frozen from exhaustive application of the product rules
        assert kt.n_edges == len(brute_product_edges(clique(2), complete_binary_tree(2)))
        assert kt.n_edges == 11

    def test_product_edge_count_symmetric(self):
        rng = random.Random(11)
        for _ in range(25):
            def rand_graph():
                n = rng.randint(1, 4)
                pairs = [
                    (u, v)
                    for u in range(1, n + 1)
                    for v in range(u + 1, n + 1)
                    if rng.random() < 0.5
                ]
                return Graph(n, pairs)

            g, h = rand_graph(), rand_graph()
            assert full_product(g, h).n_edges == full_product(h, g).n_edges

    def test_clique_tree_vertex_counts(self):
        for k in range(1, 5):
            for r in range(1, 5):
                assert clique_tree(k, r).n_vertices == k * (2**r - 1)
