import random

import pytest

from mso2dd import (
    Graph,
    TreeDecomposition,
    desugar,
    good_coloring,
    is_path_decomposition,
    make_nice,
    min_fill_decomposition,
    parse_formula,
    parse_tree_decomposition,
    validate_decomposition,
)
from mso2dd.assignment import decision_variables
from mso2dd.decomposition import FORGET, JOIN
from mso2dd.errors import DecompositionError
from mso2dd.graph import clique, clique_tree, complete_binary_tree
from mso2dd.states import context_of

from checks import (
    as_tree_decomposition, good_coloring_reference, is_good_coloring, min_fill_reference,
    validate_nice,
)
from conftest import (
    corpus_graphs,
    cycle_graph,
    grid_chain_decomposition,
    grid_graph,
    path_decomposition,
    path_graph,
    star_graph,
)


def random_graph(rng, max_n=12):
    n = rng.randint(1, max_n)
    pairs = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < rng.choice((0.15, 0.3, 0.5))
    ]
    return Graph(n, pairs)


def walk_validate(g, t):
    """Reference validator: a stack walk for the tree check, and a walk over
    each vertex's bags from its first one for occurrence connectivity."""
    violations = []
    nodes = t.nodes
    if not nodes:
        return (False, -1, ("decomposition has no nodes",))
    if len(t.tree_edges) != len(nodes) - 1:
        violations.append("underlying graph is not a tree (wrong edge count)")
    seen, stack = {nodes[0]}, [nodes[0]]
    while stack:
        for m in t.neighbors[stack.pop()]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    if len(seen) != len(nodes):
        violations.append("underlying graph is not a tree (disconnected)")
    tree_ok = not violations
    occurrences = {v: [n for n in nodes if v in t.bags[n]] for v in g.vertices()}
    strangers = {v for b in t.bags.values() for v in b if v not in occurrences}
    violations.extend(f"bag vertex {v} is not in the graph" for v in sorted(strangers))
    for e in g.edges:
        if not any({e.u, e.v} <= t.bags[n] for n in nodes):
            violations.append(f"edge ({e.u}, {e.v}) not covered by any bag")
    if tree_ok:
        for v in g.vertices():
            occ = occurrences[v]
            if not occ:
                violations.append(f"vertex {v} appears in no bag")
                continue
            reach, stack = {occ[0]}, [occ[0]]
            while stack:
                for m in t.neighbors[stack.pop()]:
                    if m in occ and m not in reach:
                        reach.add(m)
                        stack.append(m)
            if len(reach) != len(occ):
                violations.append(f"occurrence of vertex {v} is disconnected")
    width = max(len(b) for b in t.bags.values()) - 1
    return (not violations, width, tuple(violations))


def with_intersection_bags(t):
    """`t` with one bag on every tree edge holding the intersection of its end
    bags, numbered after all others."""
    bags, edges = dict(t.bags), []
    for i, (a, b) in enumerate(t.tree_edges, start=max(t.bags) + 1):
        bags[i] = t.bags[a] & t.bags[b]
        edges += [(a, i), (i, b)]
    return TreeDecomposition(bags, edges)


class TestValidate:
    def test_valid_path(self):
        g = path_graph(3)
        t = TreeDecomposition({1: {1, 2}, 2: {2, 3}}, [(1, 2)])
        report = validate_decomposition(g, t)
        assert report.valid and report.width == 1

    def test_uncovered_edge(self):
        g = Graph(3, [(1, 2), (2, 3), (1, 3)])
        t = TreeDecomposition({1: {1, 2}, 2: {2, 3}}, [(1, 2)])
        report = validate_decomposition(g, t)
        assert not report.valid
        assert any("edge (1, 3)" in v for v in report.violations)

    def test_disconnected_occurrence(self):
        g = Graph(2, [])
        t = TreeDecomposition({1: {1}, 2: {2}, 3: {1}}, [(1, 2), (2, 3)])
        report = validate_decomposition(g, t)
        assert not report.valid
        assert any("vertex 1" in v for v in report.violations)

    def test_non_tree(self):
        g = Graph(1, [])
        t = TreeDecomposition({1: {1}, 2: {1}}, [])
        assert not validate_decomposition(g, t).valid

    def test_all_violations_reported(self):
        g = Graph(3, [(1, 3)])
        t = TreeDecomposition({1: {1}, 2: {2}, 3: {1}}, [(1, 2), (2, 3)])
        report = validate_decomposition(g, t)
        assert any("edge (1, 3)" in v for v in report.violations)
        assert any("vertex 1" in v for v in report.violations)

    def test_matches_the_walk_on_perturbed_min_fill(self):
        rng = random.Random(20)
        invalid = 0
        for _ in range(1000):
            g = random_graph(rng, max_n=14)
            t = min_fill_decomposition(g)
            bags = {n: set(b) for n, b in t.bags.items()}
            n = rng.choice(sorted(bags))
            if bags[n] and rng.random() < 0.5:
                bags[n].discard(rng.choice(sorted(bags[n])))
            else:
                bags[n].add(rng.randint(1, g.n_vertices + 1))  # maybe a stranger
            t = TreeDecomposition(bags, t.tree_edges)
            report = validate_decomposition(g, t)
            assert (report.valid, report.width, report.violations) == walk_validate(g, t)
            invalid += not report.valid
        assert 100 < invalid < 900  # both outcomes are exercised


class TestMinFill:
    def test_triangle_width(self):
        g = clique(3)
        t = min_fill_decomposition(g)
        report = validate_decomposition(g, t)
        assert report.valid and report.width == 2

    def test_path_width(self):
        g = path_graph(4)
        t = min_fill_decomposition(g)
        report = validate_decomposition(g, t)
        assert report.valid and report.width == 1

    def test_empty_graph_gets_one_empty_bag(self):
        g = Graph(0, [])
        t = min_fill_decomposition(g)
        assert (t.bags, t.tree_edges) == ({1: frozenset()}, [])
        assert validate_decomposition(g, t) == (True, -1, ())
        nice = make_nice(g, t)
        assert [n.kind for n in nice.nodes.values()] == ["leaf"]
        assert good_coloring(g, nice) == {}

    def test_single_vertex(self):
        t = min_fill_decomposition(clique(1))
        assert list(t.bags.values()) == [frozenset({1})]

    def test_random_graphs_valid(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng)
            assert validate_decomposition(g, min_fill_decomposition(g)).valid

    @staticmethod
    def assert_matches_reference(g):
        t, ref = min_fill_decomposition(g), min_fill_reference(g)
        assert (t.bags, t.tree_edges) == (ref.bags, ref.tree_edges)

    def test_matches_reference_on_random_graphs(self):
        rng = random.Random(22)
        for _ in range(1000):
            self.assert_matches_reference(random_graph(rng, max_n=16))

    def test_matches_reference_on_families(self):
        for n in (1, 2, 3, 10, 57):
            self.assert_matches_reference(path_graph(n))
        for n in (3, 4, 10, 57):
            self.assert_matches_reference(cycle_graph(n))
        for cols in (1, 2, 5, 30):
            self.assert_matches_reference(grid_graph(cols))
        self.assert_matches_reference(complete_binary_tree(6))
        self.assert_matches_reference(clique_tree(2, 3))
        for leaves in range(1, 61):  # a hub whose fill shrinks by one leaf a step
            self.assert_matches_reference(star_graph(leaves))
        # a random recursive tree with shuffled ids, as the benchmark draws them
        rng = random.Random(7)
        perm = list(range(1, 201))
        rng.shuffle(perm)
        pairs = [(perm[rng.randint(0, i - 1)], perm[i]) for i in range(1, 200)]
        self.assert_matches_reference(Graph(200, pairs))

    def test_grid_at_scale(self):
        g = grid_graph(1000)
        report = validate_decomposition(g, min_fill_decomposition(g))
        assert report.valid and report.width == 3


class TestMakeNice:
    def test_single_vertex(self):
        g = clique(1)
        nice = make_nice(g, min_fill_decomposition(g))
        assert len(nice) == 2
        kinds = sorted(n.kind for n in nice.nodes.values())
        assert kinds == ["forget", "leaf"]
        assert nice.nodes[nice.root].bag == frozenset()

    def test_single_bag_pair(self):
        g = path_graph(2)
        t = TreeDecomposition({1: {1, 2}}, [])
        nice = make_nice(g, t)
        assert len(nice) <= 5 * g.n_vertices
        assert nice.nodes[nice.root].bag == frozenset()
        assert validate_nice(g, nice).valid

    def test_triangle_single_bag(self):
        g = clique(3)
        t = TreeDecomposition({1: {1, 2, 3}}, [])
        nice = make_nice(g, t)
        report = validate_nice(g, nice)
        assert report.valid
        assert report.width == 2
        assert len(nice) <= 5 * g.n_vertices

    def test_invalid_input_rejected(self):
        g = clique(3)
        t = TreeDecomposition({1: {1, 2}}, [])
        with pytest.raises(DecompositionError):
            make_nice(g, t)

    def test_width_preserved_and_props_random(self):
        rng = random.Random(5)
        for _ in range(25):
            g = random_graph(rng, max_n=10)
            t = min_fill_decomposition(g)
            nice = make_nice(g, t)
            report = validate_nice(g, nice)
            assert report.valid, report.violations
            assert nice.width() == validate_decomposition(g, t).width
            assert len(nice) <= 5 * g.n_vertices
            # a nice form's bags sit inside their neighbours'; fed back, they merge
            again = make_nice(g, as_tree_decomposition(nice))
            assert validate_nice(g, again).valid
            assert again.width() == nice.width()

    @pytest.mark.parametrize(
        "g, t",
        [(path_graph(n), path_decomposition(n)) for n in (3, 10, 64)]
        + [(grid_graph(n), grid_chain_decomposition(n)) for n in (4, 16, 64)],
        ids=["P3", "P10", "P64", "3x4", "3x16", "3x64"],
    )
    def test_contained_bags_merge_away(self, g, t):
        plain = make_nice(g, t)
        merged = make_nice(g, with_intersection_bags(t))
        assert merged.nodes == plain.nodes
        assert merged.root == plain.root
        assert merged.postorder() == plain.postorder()
        assert good_coloring(g, merged) == good_coloring(g, plain)


class TestPathShape:
    def test_single_bag_is_path(self):
        g = clique(3)
        nice = make_nice(g, TreeDecomposition({1: {1, 2, 3}}, []))
        assert is_path_decomposition(nice)

    def test_star_has_join(self):
        g = star_graph(4)
        nice = make_nice(g, min_fill_decomposition(g))
        assert any(n.kind == JOIN for n in nice.nodes.values())
        assert not is_path_decomposition(nice)

    def test_single_vertex_is_path(self):
        nice = make_nice(clique(1), min_fill_decomposition(clique(1)))
        assert is_path_decomposition(nice)


class TestColoring:
    def test_single_vertex_gets_one(self):
        g = clique(1)
        nice = make_nice(g, min_fill_decomposition(g))
        assert good_coloring(g, nice) == {1: 1}

    def test_pair_distinct(self):
        g = path_graph(2)
        nice = make_nice(g, TreeDecomposition({1: {1, 2}}, []))
        col = good_coloring(g, nice)
        assert col[1] != col[2]
        assert set(col.values()) <= {1, 2}

    def test_triangle_all_distinct(self):
        g = clique(3)
        nice = make_nice(g, min_fill_decomposition(g))
        col = good_coloring(g, nice)
        assert len(set(col.values())) == 3
        assert is_good_coloring(g, nice, col)

    def test_random_good_and_proper(self):
        rng = random.Random(9)
        for _ in range(25):
            g = random_graph(rng, max_n=10)
            nice = make_nice(g, min_fill_decomposition(g))
            col = good_coloring(g, nice)
            assert is_good_coloring(g, nice, col)
            assert max(col.values()) <= nice.width() + 1
            for e in g.edges:
                assert col[e.u] != col[e.v]

    def test_equals_the_depth_ordered_reference(self):
        # colouring parents first gives the greedy by forget-node depth
        rng = random.Random(35)
        graphs = [random_graph(rng) for _ in range(200)] + list(corpus_graphs().values())
        graphs += [complete_binary_tree(r) for r in range(1, 7)]
        graphs += [clique_tree(2, 3), clique_tree(3, 2)]
        cases = [(g, min_fill_decomposition(g)) for g in graphs]
        for cols in (4, 16, 64):
            g, t = grid_graph(cols), grid_chain_decomposition(cols)
            cases += [(g, t), (g, with_intersection_bags(t))]
        cases.append((path_graph(64), with_intersection_bags(path_decomposition(64))))
        for g, t in cases:
            nice = make_nice(g, t)
            col = good_coloring(g, nice)
            assert col == good_coloring_reference(g, nice)
            assert is_good_coloring(g, nice, col)


def scan_forgotten_edges(g, nice, nid):
    """Direct application of the edge-forgetting definition."""
    n = nice.nodes[nid]
    child_bag = nice.nodes[n.children[0]].bag
    return {
        e.id
        for e in g.edges
        if {e.u, e.v} <= child_bag and not {e.u, e.v} <= n.bag
    }


class TestForgetOwnership:
    def test_single_vertex(self):
        g = clique(1)
        nice = make_nice(g, min_fill_decomposition(g))
        (nid,) = nice.forget_nodes()
        assert nice.nodes[nid].kind == FORGET
        assert nice.nodes[nid].vertex == 1 and nice.nodes[nid].edges == ()

    def test_matches_definition_scan(self):
        for g in (path_graph(2), clique(3), star_graph(3)):
            nice = make_nice(g, min_fill_decomposition(g))
            for nid in nice.forget_nodes():
                expect = scan_forgotten_edges(g, nice, nid)
                assert {e.id for e in nice.nodes[nid].edges} == expect

    def test_triangle_edges_split_over_first_two_forgets(self):
        g = clique(3)
        nice = make_nice(g, TreeDecomposition({1: {1, 2, 3}}, []))
        forgets = nice.forget_nodes()  # postorder: lowest first
        counts = [len(nice.nodes[f].edges) for f in forgets]
        assert counts == [2, 1, 0]

    def test_validate_nice_rejects_wrong_edges(self):
        g = clique(3)
        nice = make_nice(g, TreeDecomposition({1: {1, 2, 3}}, []))
        first = nice.nodes[nice.forget_nodes()[0]]
        nice.nodes[first.id] = first._replace(edges=first.edges[:1])
        report = validate_nice(g, nice)
        assert not report.valid
        assert f"node {first.id}: edges are not the ones it drops" in report.violations
        dropped = first.edges[1]
        assert f"edge ({dropped.u}, {dropped.v}) dropped 0 times" in report.violations


class TestContext:
    def test_single_free_vertex_variable(self):
        g = clique(1)
        phi = desugar(parse_formula("free vertex x; (x = x)"))
        nice = make_nice(g, min_fill_decomposition(g))
        nid = nice.forget_nodes()[0]
        assert [d.name for d in context_of(phi, nice, nid)] == ["x=v1"]

    def test_full_sort_spread_sixteen_variables(self):
        # vertex 1 with three incident edges all dropped at its forget node
        g = Graph(6, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 6), (4, 6), (5, 6)])
        t = TreeDecomposition(
            {1: {1, 2, 3, 4}, 2: {2, 3, 4, 5, 6}}, [(1, 2)]
        )
        phi = desugar(
            parse_formula(
                "free vertex x; free vertex y; free edge p; free edge q;"
                "free vset X; free vset Y; free eset P; free eset Q;"
                "((((x = y) & (p = q)) & ((x in X) & (y in Y))) & ((p in P) & (q in Q)))"
            )
        )
        nice = make_nice(g, t)
        (nid,) = [nid for nid in nice.forget_nodes() if nice.nodes[nid].vertex == 1]
        variables = context_of(phi, nice, nid)
        assert len(variables) == 16
        names = [d.name for d in variables]
        assert names[:4] == ["x=v1", "y=v1", "v1inX", "v1inY"]
        # per forgotten edge in id order, object then set variables
        edges = nice.nodes[nid].edges
        for i, e in enumerate(edges):
            chunk = names[4 + 4 * i : 8 + 4 * i]
            assert chunk == [
                f"p=e{e.id}",
                f"q=e{e.id}",
                f"e{e.id}inP",
                f"e{e.id}inQ",
            ]
        assert len(edges) == 3

    def test_not_a_forget_node(self):
        g = clique(1)
        phi = desugar(parse_formula("free vertex x; (x = x)"))
        nice = make_nice(g, min_fill_decomposition(g))
        leaf = [n.id for n in nice.nodes.values() if n.kind == "leaf"][0]
        with pytest.raises(DecompositionError):
            context_of(phi, nice, leaf)

    def test_size_bound_and_partition(self):
        from mso2dd import formula_size

        phi = desugar(
            parse_formula(
                "free vertex x; free edge p; free vset X; free eset P;"
                "(((x in X) & (p in P)) & adj(x, p))"
            )
        )
        rng = random.Random(13)
        for _ in range(15):
            g = random_graph(rng, max_n=8)
            nice = make_nice(g, min_fill_decomposition(g))
            width = nice.width()
            seen = []
            for nid in nice.forget_nodes():
                variables = context_of(phi, nice, nid)
                assert len(variables) <= formula_size(phi) * (width + 1)
                seen.extend(variables)
            assert len(seen) == len(set(seen))  # pairwise disjoint
            assert set(seen) == set(decision_variables(phi, g))


class TestTdIO:
    def test_roundtrip(self):
        t = TreeDecomposition({1: {1, 2}, 2: {2, 3}}, [(1, 2)])
        back = parse_tree_decomposition("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
        assert back.bags == t.bags
        assert sorted(back.tree_edges) == sorted(t.tree_edges)

    def test_header_mismatch(self):
        with pytest.raises(DecompositionError):
            parse_tree_decomposition("s td 2 2 3\nb 1 1 2\n")

    def test_missing_header(self):
        with pytest.raises(DecompositionError):
            parse_tree_decomposition("b 1 1 2\n")

    @pytest.mark.parametrize("text, message", [
        ("s td 1 2\n", "line 1: malformed header"),
        ("c x\ns tw 1 2 3\n", "line 2: malformed header"),
        ("s td 1 2 3\ns td 1 2 3\n", "line 2: duplicate header"),
        ("s td 1 2 3\nb\n", "line 2: malformed bag line"),
        ("s td 1 2 3\nb 1 x\n", "line 2: malformed bag line"),
        ("s td 1 2 3\nb 1 1\n\nb 1 2\n", "line 4: duplicate bag 1"),
        ("s td 1 2 3\n1\n", "line 2: malformed tree edge line"),
        ("s td 1 2 3\n1 y\n", "line 2: malformed tree edge line"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(DecompositionError) as exc:
            parse_tree_decomposition(text)
        assert str(exc.value) == message
