import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mso2dd import (
    Graph,
    TreeDecomposition,
    compile_obdd,
    compile_sdd,
    decision_variables,
    desugar,
    good_coloring,
    is_path_decomposition,
    make_nice,
    min_fill_decomposition,
    parse_formula,
    parse_tree_decomposition,
)
from mso2dd.assignment import dv_eq, dv_mem
from mso2dd.errors import FormulaError
from mso2dd.graph import clique
from mso2dd.oracle import KAPPA_TEXT, oracle_eval, truth_table, truth_table_oracle
from mso2dd.states import (
    BOT,
    INIT,
    TRUE,
    AdjacencySpace,
    ConjunctionSpace,
    ConsistencySpace,
    ForgetInfo,
    NegationSpace,
    QuantifierSpace,
    all_consistent_extensions,
    build_state_space,
    decision_space,
    forget_plan,
    forgotten_bits,
    minimize_states,
    reachable_states,
)

from checks import (
    all_mso_assignments, decode_assignment, encode_assignment, is_consistent, node_states,
    run_decision_procedure,
)
from conftest import (
    FORMULA_TEXTS, INDEPENDENT_SET_TEXT, all_deltas, cycle_graph, grid_chain_decomposition,
    grid_graph, nested_chain, path_decomposition, path_graph, star_graph,
)


def setup_instance(formula_text, g):
    phi = desugar(parse_formula(formula_text))
    nice = make_nice(g, min_fill_decomposition(g))
    coloring = good_coloring(g, nice)
    return phi, nice, coloring


class TestSpaceShapes:
    def test_equality_space(self):
        phi = desugar(parse_formula("free vertex x; free vertex y; (x = y)"))
        space = build_state_space(phi.root)
        assert space.initial == INIT
        assert space.is_accepting(TRUE) and not space.is_accepting(INIT)

    def test_negation_swaps_acceptance(self):
        phi = desugar(parse_formula("free vertex x; free vertex y; ~(x = y)"))
        space = build_state_space(phi.root)
        assert space.initial == INIT
        assert space.is_accepting(INIT) and not space.is_accepting(TRUE)

    def test_quantifier_space(self):
        phi = desugar(parse_formula("free vset X; exists vertex x. (x in X)"))
        space = build_state_space(phi.root)
        assert space.initial == frozenset([(INIT, (0,))])
        assert space.is_accepting(frozenset([(TRUE, (1,))]))
        assert not space.is_accepting(frozenset([(TRUE, (0,))]))
        assert not space.is_accepting(frozenset([(INIT, (1,))]))

    def test_independent_of_graph(self):
        phi = desugar(parse_formula("free vertex x; free edge p; adj(x, p)"))
        a = build_state_space(phi.root)
        b = build_state_space(phi.root)
        assert type(a) is type(b) is AdjacencySpace
        assert a.initial == b.initial
        x, p = phi.free_vars
        # the same transitions on two different graphs' forget nodes: the
        # bits read off either graph's ids are the same
        for g, vertex in ((path_graph(2), 1), (star_graph(3), 2)):
            edge = g.edges[0]
            variables = (dv_eq(x, vertex), dv_eq(p, edge.id))
            info = ForgetInfo((1, (3,)), variables, phi.free_vars)
            delta = {dv_eq(x, vertex): 0, dv_eq(p, edge.id): 1}
            bits = forgotten_bits(info, delta)
            assert bits == {x: (0,), p: (1,)}
            assert a.forget(INIT, info.shape, bits) == b.forget(INIT, info.shape, bits) == 3
        assert a.join(INIT, 2) == b.join(INIT, 2) == 2

    def test_compilers_reject_sugared_formula(self):
        # the core-form check is the state space's, and both compilers build one
        g = path_graph(4)
        phi = parse_formula(FORMULA_TEXTS["dom"])
        nice = make_nice(g, path_decomposition(4))
        col = good_coloring(g, nice)
        for compile_ in (compile_obdd, compile_sdd):
            with pytest.raises(FormulaError):
                compile_(phi, g, nice, col)


class TestForgetRules:
    def test_equality_hit(self):
        phi = desugar(parse_formula("free vertex x; free vertex y; (x = y)"))
        space = build_state_space(phi.root)
        x, y = phi.free_vars
        assert space.forget(INIT, (1, ()), {x: (1,), y: (1,)}) == TRUE
        # x placed on a forgotten vertex that y misses: the atom is decided
        bits = {x: (1,), y: (0,)}
        assert space.forget(INIT, (1, ()), bits) == BOT
        assert space.forget(TRUE, (1, ()), bits) == TRUE

    def test_membership_hit(self):
        phi = desugar(parse_formula("free vertex x; free vset X; (x in X)"))
        space = build_state_space(phi.root)
        x, xs = phi.free_vars
        assert space.forget(INIT, (1, ()), {x: (1,), xs: (1,)}) == TRUE
        # x placed on a forgotten vertex outside X: the atom is decided
        assert space.forget(INIT, (1, ()), {x: (1,), xs: (0,)}) == BOT

    def test_adjacency_delayed_endpoint(self):
        phi = desugar(parse_formula("free vertex x; free edge y; adj(x, y)"))
        space = build_state_space(phi.root)
        x, y = phi.free_vars
        # one forgotten edge whose far end has color 3
        with_edge = (1, (3,))
        # rule for a matched edge with the tracked vertex elsewhere: park its color
        out = space.forget(INIT, with_edge, {x: (0,), y: (1,)})
        assert out == 3
        # color matches the forgotten vertex but the vertex bit is off: the
        # edge's far end is gone without x, so the atom is decided
        assert space.forget(3, (3, ()), {x: (0,), y: ()}) == BOT
        # color matches and the vertex bit is on
        assert space.forget(3, (3, ()), {x: (1,), y: ()}) == TRUE
        # immediate hit: edge and its endpoint forgotten together
        assert space.forget(INIT, with_edge, {x: (1,), y: (1,)}) == TRUE
        # unrelated color passes through
        assert space.forget(3, (1, ()), {x: (1,), y: ()}) == 3

    def test_consistency_counts(self):
        phi = desugar(parse_formula("free vertex x; free vertex y; (x = y)"))
        space = ConsistencySpace(phi.free_object_vars)
        x, y = phi.free_vars
        bits = {x: (1,), y: (0,)}
        s1 = space.forget(space.initial, (1, ()), bits)
        assert s1 == (1, 0)
        # same variable assigned again
        assert space.forget(s1, (1, ()), bits) == BOT
        assert space.forget(BOT, (1, ()), bits) == BOT

    def test_consistency_two_edges_at_once(self):
        phi = desugar(parse_formula("free edge p; exists vertex v. adj(v, p)"))
        space = ConsistencySpace(phi.free_object_vars)
        p = phi.free_vars[0]
        # the middle of a 3-vertex path, both edges forgotten with it
        assert space.forget(space.initial, (2, (1, 1)), {p: (1, 1)}) == BOT


class TestJoinRules:
    def test_equality_join(self):
        phi = desugar(parse_formula("free vertex x; free vertex y; (x = y)"))
        space = build_state_space(phi.root)
        assert space.join(INIT, TRUE) == TRUE
        assert space.join(INIT, INIT) == INIT

    def test_adjacency_join(self):
        phi = desugar(parse_formula("free vertex x; free edge y; adj(x, y)"))
        space = build_state_space(phi.root)
        assert space.join(2, INIT) == 2
        assert space.join(INIT, 1) == 1
        assert space.join(TRUE, INIT) == TRUE

    @pytest.mark.parametrize("text", [
        "free vertex x; free vertex y; (x = y)",
        "free vertex x; free vset X; (x in X)",
        "free vertex x; free edge y; adj(x, y)",
    ])
    def test_decided_atom_join(self, text):
        # BOT wins over INIT; TRUE beside BOT needs a variable placed on both
        # sides, so TRUE is kept
        space = build_state_space(desugar(parse_formula(text)).root)
        for a, b, out in ((TRUE, BOT, TRUE), (BOT, INIT, BOT), (BOT, BOT, BOT)):
            assert space.join(a, b) == space.join(b, a) == out

    def test_adjacency_bot_beats_color(self):
        # x placed on a vertex with no matched edge on one side, the edge
        # matched with its far end pending on the other: a consistent run
        phi = desugar(parse_formula("free vertex x; free edge y; adj(x, y)"))
        space = build_state_space(phi.root)
        assert space.join(BOT, 2) == space.join(2, BOT) == BOT
        for a, b, out in ((TRUE, BOT, TRUE), (BOT, INIT, BOT), (BOT, BOT, BOT)):
            assert space.join(a, b) == space.join(b, a) == out
        # the edge matched on both sides is the cell consistent runs never
        # reach, so it is left unconstrained
        assert space.join(TRUE, 2) == INIT

    def test_consistency_join(self):
        space = ConsistencySpace(
            desugar(parse_formula("free vertex x; free vertex y; (x = y)")).free_object_vars
        )
        assert space.join((1, 0), (0, 1)) == (1, 1)
        assert space.join((1, 0), (1, 0)) == BOT
        assert space.join(BOT, (0, 0)) == BOT


class TestExtensions:
    def test_vertex_set_two_ways(self):
        phi = desugar(parse_formula("exists vset X. exists vertex v. (v in X)"))
        xvar = phi.root.variables[0]
        assert xvar.sort.value == "vset"
        out = all_consistent_extensions((xvar,), {}, (), (1, ()))
        assert len(out) == 2
        values = sorted(bits[xvar] for bits, _ in out)
        assert values == [(0,), (1,)]

    def test_assigned_vertex_object_only_skips(self):
        phi = desugar(parse_formula("free vset X; exists vertex v. (v in X)"))
        v = phi.root.variables[0]
        out = all_consistent_extensions((v,), {}, (1,), (1, ()))
        assert len(out) == 1
        bits, placed = out[0]
        assert bits[v] == (0,) and placed == (1,)

    def test_edge_object_skip_or_each_edge(self):
        phi = desugar(parse_formula("free vertex u; exists edge x. adj(u, x)"))
        xvar = phi.root.variables[0]
        # the middle of a 3-vertex path, both edges forgotten with it
        out = all_consistent_extensions((xvar,), {}, (0,), (1, (2, 2)))
        assert len(out) == 3
        patterns = sorted(bits[xvar] + placed for bits, placed in out)
        assert patterns == [(0, 0, 0), (0, 1, 1), (1, 0, 1)]

    def test_edge_set_every_pattern(self):
        # a bound edge set at a node forgetting two edges takes all four
        # membership patterns; the placed edge object only skips, and the
        # placed bits stay as they were
        phi = desugar(
            parse_formula("free vertex u; exists eset M. exists edge e. (adj(u, e) & (e in M))")
        )
        m, e = phi.root.variables
        u = phi.free_vars[0]
        assert m.sort.value == "eset" and e.sort.value == "edge"
        out = all_consistent_extensions((m, e), {u: (1,)}, (1,), (1, (2, 2)))
        assert len(out) == 4
        assert sorted(bits[m] for bits, _ in out) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for bits, placed in out:
            assert placed == (1,) and bits[e] == (0, 0) and bits[u] == (1,)


class TestRuns:
    def test_equality_on_singleton(self):
        g = clique(1)
        phi, nice, col = setup_instance("free vertex x; free vertex y; (x = y)", g)
        delta = encode_assignment(
            {phi.free_vars[0]: 1, phi.free_vars[1]: 1}, phi, g
        )
        assert run_decision_procedure(phi, g, nice, col, delta)

    def test_adjacency_endpoint(self):
        g = path_graph(2)
        phi, nice, col = setup_instance("free vertex x; free edge p; adj(x, p)", g)
        delta = encode_assignment({phi.free_vars[0]: 1, phi.free_vars[1]: 1}, phi, g)
        assert run_decision_procedure(phi, g, nice, col, delta)

    def test_product_root_state_shape(self):
        g = path_graph(2)
        phi, nice, col = setup_instance("free vertex x; free vertex y; (x = y)", g)
        space = decision_space(phi)
        plan = forget_plan(phi, nice, col)
        delta = encode_assignment({phi.free_vars[0]: 2, phi.free_vars[1]: 2}, phi, g)
        root = node_states(space, nice, plan, delta)[nice.root]
        assert root == (TRUE, (1, 1))
        # assigning x twice drives the consistency component to the sink
        bad = dict(delta)
        bad[dv_eq(phi.free_vars[0], 1)] = 1
        root_bad = node_states(space, nice, plan, bad)[nice.root]
        assert root_bad[1] == BOT
        assert not space.is_accepting(root_bad)

    def test_closed_formula_consistency_is_vacuous(self):
        g = path_graph(2)
        phi, nice, col = setup_instance(
            "exists vset X. ~ exists vertex v. (~(v in X) & (v in X))", g
        )
        space = decision_space(phi)
        assert space.right.initial == ()
        assert space.right.is_accepting(())
        assert run_decision_procedure(phi, g, nice, col, {})

    def test_determinism(self):
        g = clique(3)
        phi, nice, col = setup_instance("free vertex x; free edge p; adj(x, p)", g)
        dvars = decision_variables(phi, g)
        for _, delta in all_deltas(dvars):
            space = decision_space(phi)
            plan = forget_plan(phi, nice, col)
            a = node_states(space, nice, plan, delta)[nice.root]
            b = node_states(space, nice, plan, delta)[nice.root]
            assert a == b


class TestOracleEquivalence:
    FORMULAS = (
        "free vertex x; free vertex y; (x = y)",
        "free vertex x; free vset X; (x in X)",
        "free vertex x; free edge p; adj(x, p)",
        "free vertex x; free edge p; ~adj(x, p)",
        "free vset S; forall vertex u. exists vertex v. (((u = v) | nbr(u, v)) & (v in S))",
    )

    def test_exhaustive_desk_scale(self):
        graphs = [clique(1), path_graph(2), path_graph(3), clique(3), star_graph(3)]
        for text in self.FORMULAS:
            for g in graphs:
                if g.n_objects > 8:
                    continue
                phi, nice, col = setup_instance(text, g)
                dvars = decision_variables(phi, g)
                if len(dvars) > 14:
                    continue
                space = decision_space(phi)
                plan = forget_plan(phi, nice, col)
                for _, delta in all_deltas(dvars):
                    got = space.is_accepting(node_states(space, nice, plan, delta)[nice.root])
                    if is_consistent(delta, phi, g):

                        expected = oracle_eval(phi, g, decode_assignment(delta, phi, g))
                    else:
                        expected = False
                    assert got == expected, (text, g, delta)

    def test_adjacency_impossible_join_cells_untouched(self):
        # on consistent assignments no adjacency join pairs two states that
        # are neither INIT nor BOT, also inside negations and quantifiers
        g = star_graph(4)  # branching decomposition, so joins occur
        for name in ("adj", "nadj", "kappa"):
            phi, nice, col = setup_instance(FORMULA_TEXTS[name], g)
            dvars = decision_variables(phi, g)
            space = decision_space(phi)
            plan = forget_plan(phi, nice, col)
            adjacencies = adjacency_spaces(space)
            assert adjacencies
            reached = []  # the cells where neither side is INIT or BOT
            for adjacency in adjacencies:
                def join(left, right, inner=adjacency.join):
                    if not {left, right} & {INIT, BOT}:
                        reached.append((left, right))
                    return inner(left, right)

                adjacency.join = join
            checked = 0
            for _, delta in all_deltas(dvars):
                if not is_consistent(delta, phi, g):
                    continue
                node_states(space, nice, plan, delta)
                checked += 1
            assert checked > 0
            assert reached == [], name


@st.composite
def bounded_width_graphs(draw, max_vertices=6):
    """A random tree on at most `max_vertices` vertices, where each vertex may
    also see its parent's parent (so the width is at most 2), with shuffled
    vertex ids and edge order."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    parent = [None] + [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    edges = []
    for i in range(1, n):
        edges.append((i, parent[i]))
        if parent[parent[i]] is not None and draw(st.booleans()):
            edges.append((i, parent[parent[i]]))
    label = draw(st.permutations(range(1, n + 1)))
    return Graph(n, draw(st.permutations([(label[u], label[v]) for u, v in edges])))


@st.composite
def elimination_td_texts(draw):
    """A bounded-width graph and, as .td text, the decomposition of a drawn
    vertex elimination order: bag {v} plus v's later neighbours after fill,
    hung off the bag of its earliest-eliminated later neighbour, or else off
    the next bag. One more bag, a subset of a drawn bag, hangs off that bag,
    and the bag ids are shuffled."""
    g = draw(bounded_width_graphs())
    order = draw(st.permutations(list(g.vertices())))
    rank = {v: i for i, v in enumerate(order)}
    nbrs = {v: set() for v in order}
    for e in g.edges:
        nbrs[e.u].add(e.v)
        nbrs[e.v].add(e.u)
    bags, tree_edges = [], []
    for i, v in enumerate(order):
        later = nbrs.pop(v)
        for u in later:
            nbrs[u] |= later - {u}
            nbrs[u].discard(v)
        bags.append({v} | later)
        if later:
            tree_edges.append((i, min(rank[u] for u in later)))
        elif i + 1 < len(order):
            tree_edges.append((i, i + 1))
    host = draw(st.integers(min_value=0, max_value=len(bags) - 1))
    tree_edges.append((len(bags), host))
    bags.append(draw(st.sets(st.sampled_from(sorted(bags[host])), min_size=1)))
    ids = draw(st.permutations(range(1, len(bags) + 1)))
    lines = [f"s td {len(bags)} {max(map(len, bags))} {g.n_vertices}"]
    lines += [" ".join(map(str, ["b", ids[i], *sorted(bag)])) for i, bag in enumerate(bags)]
    lines += [f"{ids[a]} {ids[b]}" for a, b in tree_edges]
    return g, "\n".join(lines) + "\n"


DIFFERENTIAL_TEXTS = [
    *(FORMULA_TEXTS[name] for name in ("eq", "mem", "adj", "nadj", "kappa")),
    INDEPENDENT_SET_TEXT,
]


class TestDifferential:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(g=bounded_width_graphs())
    def test_sdd_matches_oracle(self, g):
        # min-fill branches on about a quarter of these graphs, which
        # exercises the decided atoms' join cells (BOT beside INIT, a parked
        # color or TRUE)
        for text in DIFFERENTIAL_TEXTS:
            phi, nice, col = setup_instance(text, g)
            dvars = decision_variables(phi, g)
            assert truth_table(compile_sdd(phi, g, nice, col), dvars) == truth_table_oracle(
                phi, g, dvars
            ), text

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(drawn=elimination_td_texts())
    def test_drawn_td_matches_oracle(self, drawn):
        # the .td parser and the bag merge on shapes min-fill never makes:
        # any elimination order, bag ids in any order, a bag inside another
        g, text = drawn
        nice = make_nice(g, parse_tree_decomposition(text))
        col = good_coloring(g, nice)
        for formula in DIFFERENTIAL_TEXTS:
            phi = desugar(parse_formula(formula))
            dvars = decision_variables(phi, g)
            expected = truth_table_oracle(phi, g, dvars)
            assert truth_table(compile_sdd(phi, g, nice, col), dvars) == expected, formula
            if is_path_decomposition(nice):
                assert truth_table(compile_obdd(phi, g, nice, col), dvars) == expected, formula


def adjacency_spaces(space) -> list:
    """Every adjacency atom's space inside a formula's space."""
    stack, found = [space], []
    while stack:
        sp = stack.pop()
        if isinstance(sp, AdjacencySpace):
            found.append(sp)
        elif isinstance(sp, ConjunctionSpace):
            stack += [sp.left, sp.right]
        elif isinstance(sp, (NegationSpace, QuantifierSpace)):
            stack.append(sp.inner)
    return found


class TestQuantifierSemantics:
    def test_state_sets_enumerate_extensions(self):
        # a quantifier state set at node p holds exactly the (state, bits) pairs
        # realized by extending the assignment with values for the bound
        # variables, less the dead ones, and settled to TRUE when a member
        # with all bits set has a sure inner state
        g = path_graph(2)
        phi = desugar(parse_formula("free vset X; exists vertex x. (x in X)"))
        inner = desugar(parse_formula("free vertex x; free vset X; (x in X)"))
        ix, ixs = inner.free_vars
        nice = make_nice(g, min_fill_decomposition(g))
        col = good_coloring(g, nice)

        phi_space = build_state_space(phi.root)
        phi_plan = forget_plan(phi, nice, col)
        inner_space = build_state_space(inner.root)
        inner_plan = forget_plan(inner, nice, col)

        below = {}
        for nid in nice.postorder():
            node = nice.nodes[nid]
            acc = set()
            for c in node.children:
                acc |= below[c]
            if node.kind == "forget":
                acc.add(node.vertex)
            below[nid] = acc

        for alpha in all_mso_assignments(phi, g):
            delta = encode_assignment(alpha, phi, g)
            sigma = node_states(phi_space, nice, phi_plan, delta)
            for nid in nice.postorder():
                expected = set()
                # partial extensions: the bound variable takes a vertex or stays
                # unassigned (all equality bits zero)
                for v in [None] + list(g.vertices()):
                    inner_delta = {
                        dv_mem(ixs, u): (1 if u in alpha[phi.free_vars[0]] else 0)
                        for u in g.vertices()
                    }
                    for u in g.vertices():
                        inner_delta[dv_eq(ix, u)] = 1 if u == v else 0
                    inner_states = node_states(inner_space, nice, inner_plan, inner_delta)
                    bit = 1 if (v is not None and v in below[nid]) else 0
                    expected.add((inner_states[nid], (bit,)))
                expected = {m for m in expected if not inner_space.dead(m[0])}
                if any(m[1] == (1,) and inner_space.sure(m[0]) for m in expected):
                    expected = TRUE
                # identify the bound variable's decision bits with the inner free ones
                assert sigma[nid] == expected, nid

    def test_reachable_count_graph_size_independent_shape(self):
        phi = desugar(parse_formula("free vset X; exists vertex x. (x in X)"))
        counts = []
        for n in (4, 6, 8):
            g = path_graph(n)
            nice = make_nice(g, min_fill_decomposition(g))
            col = good_coloring(g, nice)
            space = decision_space(phi)
            plan = forget_plan(phi, nice, col)
            reach = reachable_states(space, nice, plan)
            counts.append(max(len(v) for v in reach.per_node.values()))
        assert counts[1] == counts[2]  # per-node reachable width saturates


class TestMinimize:
    def quotient(self, text, g):
        phi, nice, col = setup_instance(text, g)
        space = decision_space(phi)
        raw = reachable_states(space, nice, forget_plan(phi, nice, col))
        return space, nice, raw, minimize_states(space, nice, raw)

    def test_classes_respect_transitions(self):
        # every raw transition lands in the class the representatives' one does
        for text, g in (
            (KAPPA_TEXT, star_graph(3)),
            ("free vset X; exists vertex x. (x in X)", path_graph(4)),
        ):
            space, nice, raw, quo = self.quotient(text, g)
            rep = quo.representative
            assert quo.count == raw.count
            # a state is first made at the first node, in postorder, that
            # reaches it, and each node's states follow that one global rank
            rank = {}
            for nid in nice.postorder():
                for s in raw.per_node[nid]:
                    rank.setdefault(s, len(rank))
            assert len(rank) == raw.count
            for nid, states in raw.per_node.items():
                reps = quo.per_node[nid]
                assert list(states) == sorted(states, key=rank.get)
                assert list(reps) == sorted(reps, key=rank.get)
                assert set(rep[nid].values()) == set(reps)
                for s in states:
                    assert rank[rep[nid][s]] <= rank[s]
            for nid, table in raw.forget_tables.items():
                child = nice.nodes[nid].children[0]
                for (s, idx), c in table.items():
                    assert rep[nid][c] == quo.forget_tables[nid][(rep[child][s], idx)]
            for nid, table in raw.join_tables.items():
                left, right = nice.nodes[nid].children
                for (a, b), c in table.items():
                    assert rep[nid][c] == quo.join_tables[nid][(rep[left][a], rep[right][b])]
            roots = quo.per_node[nice.root]
            assert sorted(map(space.is_accepting, roots)) == sorted(
                set(map(space.is_accepting, raw.per_node[nice.root]))
            )
            for s in raw.per_node[nice.root]:
                assert space.is_accepting(rep[nice.root][s]) == space.is_accepting(s)

    def test_kappa_classes_stay_few(self):
        _, _, raw, quo = self.quotient(KAPPA_TEXT, path_graph(8))
        assert max(map(len, quo.per_node.values())) <= 3
        assert quo.classes < raw.count == raw.classes


def dead_states(space, reach) -> list:
    """Each dead state a node holds, once per node."""
    return [s for states in reach.per_node.values() for s in states if space.dead(s)]


def check_shared_tables(phi, nice, coloring):
    """Every node's raw table, shared or not, equals the one computed afresh
    for that node, and its quotient table agrees with it through the node's
    own class maps. An entry from the dead stand-in, or one whose fresh value
    is dead, is the stand-in."""
    space = decision_space(phi)
    plan = forget_plan(phi, nice, coloring)
    raw = reachable_states(space, nice, plan)
    quo = minimize_states(space, nice, raw)
    rep = quo.representative
    dead = set(dead_states(space, raw))
    assert len(dead) <= 1
    sink = next(iter(dead), None)

    def expected(sources, step):
        if sink is not None and sink in sources:
            return sink
        value = step()
        return sink if space.dead(value) else value
    for nid, table in raw.forget_tables.items():
        (child,) = nice.nodes[nid].children
        info = plan[nid]
        rows = [
            forgotten_bits(info, dict(zip(info.variables, pattern)))
            for pattern in itertools.product((0, 1), repeat=len(info.variables))
        ]
        assert table == {
            (s, idx): expected((s,), lambda: space.forget(s, info.shape, bits))
            for s in raw.per_node[child]
            for idx, bits in enumerate(rows)
        }, nid
        for (s, idx), c in table.items():
            assert quo.forget_tables[nid][(rep[child][s], idx)] == rep[nid][c]
    for nid, table in raw.join_tables.items():
        left, right = nice.nodes[nid].children
        assert table == {
            (a, b): expected((a, b), lambda: space.join(a, b))
            for a in raw.per_node[left]
            for b in raw.per_node[right]
        }, nid
        for (a, b), c in table.items():
            assert quo.join_tables[nid][(rep[left][a], rep[right][b])] == rep[nid][c]
    for nid, states in raw.per_node.items():
        assert set(rep[nid]) == set(states)


class TestSharedTables:
    """Nodes that repeat an input, a forget's child states and shape or a
    join's child states, share one table object."""

    @pytest.mark.parametrize("g, td", [
        (grid_graph(300), grid_chain_decomposition(300)),
        (path_graph(1000), path_decomposition(1000)),
    ], ids=["3x300", "P1000"])
    def test_kappa_forget_tables_few(self, g, td):
        phi = desugar(parse_formula(KAPPA_TEXT))
        nice = make_nice(g, td)
        space = decision_space(phi)
        raw = reachable_states(space, nice, forget_plan(phi, nice, good_coloring(g, nice)))
        quo = minimize_states(space, nice, raw)
        for reach in (raw, quo):
            assert len(reach.forget_tables) == len(nice.forget_nodes())
            assert len({id(table) for table in reach.forget_tables.values()}) <= 30

    def test_shared_tables_equal_fresh_ones_on_corpus(self, corpus):
        for inst in corpus:
            check_shared_tables(inst.phi, inst.nice, inst.coloring)

    @pytest.mark.parametrize("name", sorted(FORMULA_TEXTS))
    def test_shared_tables_equal_fresh_ones_on_3x16_grid(self, name):
        phi, nice, col = setup_instance(FORMULA_TEXTS[name], grid_graph(16))
        assert any(n.kind == "join" for n in nice.nodes.values())
        check_shared_tables(phi, nice, col)


class TestDeadStandIn:
    """The first dead state the pass makes stands in for every later one,
    and no transition is computed from it."""

    def test_one_dead_state_on_corpus(self, corpus):
        for inst in corpus:
            space = decision_space(inst.phi)
            plan = forget_plan(inst.phi, inst.nice, inst.coloring)
            reach = reachable_states(space, inst.nice, plan)
            # one object wherever a node holds it
            dead = {id(s) for s in dead_states(space, reach)}
            assert len(dead) <= 1, (inst.formula_name, inst.graph_name)

    @pytest.mark.parametrize("name", sorted(FORMULA_TEXTS))
    def test_one_dead_state_on_3x16_grid(self, name):
        phi, nice, col = setup_instance(FORMULA_TEXTS[name], grid_graph(16))
        space = decision_space(phi)
        reach = reachable_states(space, nice, forget_plan(phi, nice, col))
        assert len({id(s) for s in dead_states(space, reach)}) <= 1

    @pytest.mark.parametrize("name", ["edge3", "adj", "kappa", "matching"])
    def test_no_transition_from_the_stand_in(self, name):
        phi, nice, col = setup_instance(FORMULA_TEXTS[name], grid_graph(16))
        space = decision_space(phi)
        sources = []
        forget, join = space.forget, space.join

        def wrapped_forget(s, shape, bits):
            sources.append(s)
            return forget(s, shape, bits)

        def wrapped_join(a, b):
            sources.extend((a, b))
            return join(a, b)

        space.forget, space.join = wrapped_forget, wrapped_join
        reach = reachable_states(space, nice, forget_plan(phi, nice, col))
        (sink,) = set(dead_states(space, reach))
        assert sources
        assert not any(space.dead(s) for s in sources)
        assert reach.join_tables and any(
            sink in (a, b) for table in reach.join_tables.values() for a, b in table
        )

    @pytest.mark.parametrize("name, g, td, count", [
        ("edge3", cycle_graph(4), None, 18),  # 64 when each dead state was kept
        ("adj", grid_graph(67), None, 11),  # 20
        ("edge3", grid_graph(16), None, 35),  # 132
        ("kappa", path_graph(64), path_decomposition(64), 9),  # 9
    ], ids=["edge3-C4", "adj-3x67", "edge3-3x16", "kappa-P64"])
    def test_raw_counts(self, name, g, td, count):
        phi = desugar(parse_formula(FORMULA_TEXTS[name]))
        nice = make_nice(g, td or min_fill_decomposition(g))
        space = decision_space(phi)
        raw = reachable_states(space, nice, forget_plan(phi, nice, good_coloring(g, nice)))
        assert raw.count == count == raw.classes
        assert len(set(dead_states(space, raw))) == 1


def quantifier_sets(space, state):
    """Every (quantifier space, set) pair nested in a state, outermost first."""
    stack = [(space, state)]
    while stack:
        sp, st = stack.pop()
        if isinstance(sp, QuantifierSpace):
            yield sp, st
            if st != TRUE:
                stack.extend((sp.inner, inner) for inner, _ in st)
        elif isinstance(sp, ConjunctionSpace):
            stack += [(sp.left, st[0]), (sp.right, st[1])]
        elif isinstance(sp, NegationSpace):
            stack.append((sp.inner, st))


class TestPrune:
    def space(self, text):
        return build_state_space(desugar(parse_formula(text)).root)

    def test_atom_true_is_sure(self):
        for text in (
            "free vertex x; free vertex y; (x = y)",
            "free vertex x; free vset X; (x in X)",
            "free vertex x; free edge p; adj(x, p)",
        ):
            space = self.space(text)
            assert space.sure(TRUE) and not space.dead(TRUE)
            assert not space.sure(INIT) and not space.dead(INIT)
        adjacency = self.space("free vertex x; free edge p; adj(x, p)")
        assert not adjacency.sure(2) and not adjacency.dead(2)

    def test_negation_swaps(self):
        space = self.space("free vertex x; free vertex y; ~(x = y)")
        assert space.dead(TRUE) and not space.sure(TRUE)
        assert not space.dead(INIT) and not space.sure(INIT)

    def test_conjunction(self):
        space = self.space("free vertex x; free vset X; ((x in X) & (x = x))")
        assert space.sure((TRUE, TRUE))
        assert not space.sure((TRUE, INIT)) and not space.dead((TRUE, INIT))
        space = self.space("free vertex x; free vset X; ((x in X) & ~(x = x))")
        assert space.dead((INIT, TRUE)) and space.dead((TRUE, TRUE))
        assert not space.dead((TRUE, INIT))

    def test_consistency_bot_is_dead(self):
        phi = desugar(parse_formula("free vertex x; free vertex y; (x = y)"))
        space = ConsistencySpace(phi.free_object_vars)
        assert space.dead(BOT)
        assert not space.dead((0, 0)) and not space.dead((1, 1))
        assert not space.sure((1, 1))

    def test_quantifier(self):
        space = self.space("free vset X; exists vertex x. (x in X)")
        assert space.dead(frozenset()) and not space.dead(space.initial)
        assert space.sure(TRUE) and not space.dead(TRUE) and space.is_accepting(TRUE)
        # placing x on a vertex in X makes a member with all bits set and a
        # sure inner state, so the set settles to TRUE, which forget keeps
        (xs,) = space.reads
        placed = space.forget(space.initial, (1, ()), {xs: (1,)})
        assert placed == TRUE
        assert space.forget(placed, (1, ()), {xs: (0,)}) == TRUE
        assert space.join(placed, space.initial) == space.join(space.initial, placed) == TRUE
        assert not space.sure(frozenset([(TRUE, (0,))]))  # x not placed yet
        assert not space.sure(frozenset([(INIT, (1,)), (TRUE, (0,))]))
        assert not space.sure(frozenset())

    def test_collapse_settles_to_true(self):
        # with Y a set variable every member has all (zero) bits set; on a
        # vertex in X both choices for Y satisfy the disjunction
        g = clique(1)
        phi, nice, col = setup_instance(
            "free vertex x; free vset X; exists vset Y. ((x in Y) | (x in X))", g
        )
        space = build_state_space(phi.root)
        (nid,) = nice.forget_nodes()
        info = forget_plan(phi, nice, col)[nid]
        x, xs = phi.free_vars
        bits = forgotten_bits(info, {dv_eq(x, 1): 1, dv_mem(xs, 1): 1})
        assert bits == {x: (1,), xs: (1,)}
        (y,) = phi.root.variables
        members = {
            (space.inner.forget(space.inner.initial, info.shape, {**bits, y: (b,)}), ())
            for b in (0, 1)
        }
        assert len(members) == 2 and all(space.inner.sure(m[0]) for m in members)
        assert space.forget(space.initial, info.shape, bits) == TRUE

    def test_reachable_sets_hold_no_dead_member(self):
        collapsed = 0
        for text, g in (
            (KAPPA_TEXT, star_graph(3)),
            (KAPPA_TEXT, path_graph(6)),
            (FORMULA_TEXTS["dom"], path_graph(5)),
            (nested_chain(4), path_graph(4)),
        ):
            phi, nice, col = setup_instance(text, g)
            space = decision_space(phi)
            reach = reachable_states(space, nice, forget_plan(phi, nice, col))
            for states in reach.per_node.values():
                for s in states:
                    for q, members in quantifier_sets(space, s):
                        if members == TRUE:
                            collapsed += 1
                            continue
                        assert not any(q.inner.dead(inner) for inner, _ in members)
                        assert not any(
                            bits == q._ones and q.inner.sure(inner) for inner, bits in members
                        )
        assert collapsed > 0

    def test_sure_sets_meet_at_join(self):
        # both subtrees below the star's join place x in X; neither collapsed
        # side keeps the all-clear member the other would pair with
        g = star_graph(4)
        for text in (
            "free vset X; exists vertex x. (x in X)",
            "free vset X; ~ exists vertex x. (x in X)",
            "free vset X; free eset Y; (exists edge e. (e in Y) & exists vertex x. (x in X))",
        ):
            phi, nice, col = setup_instance(text, g)
            assert any(n.kind == "join" for n in nice.nodes.values())
            dvars = decision_variables(phi, g)
            comp = compile_sdd(phi, g, nice, col)
            assert truth_table(comp, dvars) == truth_table_oracle(phi, g, dvars), text

    def test_kappa_on_24_vertex_path_few_states(self):
        g = path_graph(24)
        phi = desugar(parse_formula(KAPPA_TEXT))
        nice = make_nice(g, path_decomposition(24))
        col = good_coloring(g, nice)
        space = decision_space(phi)
        raw = reachable_states(space, nice, forget_plan(phi, nice, col))
        assert raw.count <= 100  # 1,841 without pruning
        quo = minimize_states(space, nice, raw)
        assert max(map(len, quo.per_node.values())) <= 3

    def test_forget_memo_flat_in_nesting_depth(self):
        # the memo key holds only the context bits the body reads, not those
        # of the outer bound variables
        g = path_graph(4)
        sizes = {}
        for depth in (4, 10):
            phi, nice, col = setup_instance(nested_chain(depth), g)
            space = decision_space(phi)
            reachable_states(space, nice, forget_plan(phi, nice, col))
            memos = [len(q._forget_memo) for q, _ in quantifier_sets(space, space.initial)]
            assert len(memos) == depth
            sizes[depth] = memos
        assert set(sizes[10]) == set(sizes[4])
        assert sizes[10][0] == sizes[4][0] and sizes[10][-1] == sizes[4][-1]

    def test_forget_memos_flat_in_graph_size(self):
        # an entry serves every node of its local shape, so a longer path
        # adds none
        phi = desugar(parse_formula(KAPPA_TEXT))
        sizes = {}
        for n in (64, 256):
            g = path_graph(n)
            nice = make_nice(g, path_decomposition(n))
            col = good_coloring(g, nice)
            space = decision_space(phi)
            reachable_states(space, nice, forget_plan(phi, nice, col))
            sizes[n] = [len(q._forget_memo) for q, _ in quantifier_sets(space, space.initial)]
        assert sizes[64] and all(sizes[64])
        assert sizes[64] == sizes[256]

    def test_quantifier_tables_linear_in_nesting_depth(self):
        # no block's forget memo or hash-consed sets grow with the depth of
        # the chain, so their totals grow linearly with it
        g = path_graph(4)
        memo, sets = {}, {}
        for depth in (12, 24):
            phi, nice, col = setup_instance(nested_chain(depth), g)
            space = decision_space(phi)
            reachable_states(space, nice, forget_plan(phi, nice, col))
            blocks = [q for q, _ in quantifier_sets(space, space.initial)]
            assert len(blocks) == depth
            memo[depth] = [len(q._forget_memo) for q in blocks]
            sets[depth] = [len(q._sets) for q in blocks]
        assert max(memo[24]) <= max(memo[12]) and max(sets[24]) <= max(sets[12])
        assert sum(sets[24]) <= 2 * sum(sets[12])
        assert sum(memo[24]) <= sum(memo[12]) + 12 * max(memo[12])

    @pytest.mark.parametrize("name", ["kappa", "dom"])
    def test_shuffled_path_matches_oracle(self, name):
        # memo entries are shared by local shape, never by vertex or edge id
        n = 7
        rng = random.Random(1)
        label = rng.sample(range(1, n + 1), n)
        edges = [(label[i], label[i + 1]) for i in range(n - 1)]
        rng.shuffle(edges)
        g = Graph(n, edges)
        td = TreeDecomposition(
            {i: {label[i - 1], label[i]} for i in range(1, n)},
            [(i, i + 1) for i in range(1, n - 1)],
        )
        phi = desugar(parse_formula(FORMULA_TEXTS[name]))
        nice = make_nice(g, td)
        col = good_coloring(g, nice)
        dvars = decision_variables(phi, g)
        expected = truth_table_oracle(phi, g, dvars)
        for compile_ in (compile_obdd, compile_sdd):
            assert truth_table(compile_(phi, g, nice, col), dvars) == expected
