import gc
import itertools
import weakref
from unittest import mock

import pytest

from mso2dd import (
    compile_obdd,
    compile_sdd,
    decision_variables,
    desugar,
    good_coloring,
    is_path_decomposition,
    load_diagram,
    make_nice,
    min_fill_decomposition,
    parse_formula,
    serialize_diagram,
)
from mso2dd.assignment import dv_dummy, dv_eq, dv_mem
from mso2dd.decomposition import FORGET, JOIN, LEAF
from mso2dd.errors import DiagramError, FormulaError
from mso2dd.graph import children_first, clique, complete_binary_tree
from mso2dd.mso import Sort, Var
from mso2dd import sdd
from mso2dd.oracle import (
    enumerate_models,
    kappa_formula,
    model_count,
    truth_table,
    truth_table_oracle,
)
from mso2dd.sdd import (
    DECOMP,
    FALSE,
    TRUE,
    Sdd,
    SddBuilder,
    StateSddMapping,
    context_assignment_mapping,
    state_table_mapping,
)
from mso2dd.states import decision_space, forget_plan, minimize_states, reachable_states

from checks import (
    compile_with_mappings, index_set_diagrams, node_states, run_decision_procedure,
    vtree_respected, whole_tree_fold,
)
from conftest import (
    FORMULA_TEXTS,
    HAMILTONIAN_CYCLE_TEXT,
    all_deltas,
    corpus_graphs,
    double_star_graph,
    grid_chain_decomposition,
    grid_graph,
    kappa_count_path,
    path_decomposition,
    path_graph,
    star_graph,
)


def sdd_at(store, uid: int) -> Sdd:
    """The diagram below node `uid` of a builder or a diagram."""
    return Sdd(store, uid, (), None)


def root_form(diagram: Sdd) -> str:
    return diagram.form[diagram.positions[-1]]


def build_example_sdd():
    """(a and not b and (c or d)) or (not a and c) over v-tree ((a,b),(c,d))."""
    builder = SddBuilder()
    a, b, c, d = (dv_eq(Var(n, Sort.VERTEX_OBJECT), 1) for n in "abcd")
    la, lb = builder.vtree.leaf(a), builder.vtree.leaf(b)
    lc, ld = builder.vtree.leaf(c), builder.vtree.leaf(d)
    left = builder.vtree.inner(la, lb)
    right = builder.vtree.inner(lc, ld)
    top = builder.vtree.inner(left, right)
    a_and_not_b = builder.decomposition(
        left, [(builder.literal(a, True), builder.literal(b, False))]
    )
    not_a = builder.decomposition(
        left, [(builder.literal(a, False), builder.true)]
    )
    a_and_b = builder.decomposition(
        left, [(builder.literal(a, True), builder.literal(b, True))]
    )
    c_or_d = builder.decomposition(
        right,
        [
            (builder.literal(c, True), builder.true),
            (builder.literal(c, False), builder.literal(d, True)),
        ],
    )
    just_c = builder.decomposition(
        right, [(builder.literal(c, True), builder.true), (builder.literal(c, False), builder.false)]
    )
    root = builder.decomposition(
        top, [(a_and_not_b, c_or_d), (not_a, just_c), (a_and_b, builder.false)]
    )
    return builder, sdd_at(builder, root), (a, b, c, d)


class TestEvaluate:
    def test_terminals(self):
        builder = SddBuilder()
        assert sdd_at(builder, builder.true).satisfiable({})
        assert not sdd_at(builder, builder.false).satisfiable({})

    def test_literal(self):
        builder = SddBuilder()
        x = dv_eq(Var("x", Sort.VERTEX_OBJECT), 1)
        builder.vtree.leaf(x)
        lit = sdd_at(builder, builder.literal(x, True))
        assert not lit.satisfiable({x: 0})
        assert lit.satisfiable({x: 1})

    def test_two_level_example(self):
        _, root, (a, b, c, d) = build_example_sdd()
        assert root.satisfiable({a: 1, b: 0, c: 0, d: 1})
        reference = lambda va, vb, vc, vd: (va and not vb and (vc or vd)) or (
            not va and vc
        )
        for bits in itertools.product((0, 1), repeat=4):
            delta = dict(zip((a, b, c, d), bits))
            assert root.satisfiable(delta) == bool(reference(*bits))

    def test_respects_vtree(self):
        _, root, _ = build_example_sdd()
        assert vtree_respected(root)


class TestSize:
    def test_terminal(self):
        builder = SddBuilder()
        assert sdd_at(builder, builder.true).size() == 1

    def test_single_decomposition(self):
        builder = SddBuilder()
        a = dv_eq(Var("a", Sort.VERTEX_OBJECT), 1)
        b = dv_eq(Var("b", Sort.VERTEX_OBJECT), 1)
        top = builder.vtree.inner(builder.vtree.leaf(a), builder.vtree.leaf(b))
        node = builder.decomposition(
            top,
            [
                (builder.literal(a, True), builder.literal(b, True)),
                (builder.literal(a, False), builder.literal(b, False)),
            ],
        )
        # two pairs plus four distinct terminal children
        assert sdd_at(builder, node).size() == 6

    def test_sharing_counts_once(self):
        builder = SddBuilder()
        a = dv_eq(Var("a", Sort.VERTEX_OBJECT), 1)
        b = dv_eq(Var("b", Sort.VERTEX_OBJECT), 1)
        top = builder.vtree.inner(builder.vtree.leaf(a), builder.vtree.leaf(b))
        shared = builder.literal(b, True)
        node = builder.decomposition(
            top,
            [
                (builder.literal(a, True), shared),
                (builder.literal(a, False), shared),
            ],
        )
        # unfolded this would be 2 + 4; the shared sub collapses to 2 + 3
        assert sdd_at(builder, node).size() == 5


def minterms(ctx):
    """A context's one-assignment diagrams, as a mapping from each index."""
    nodes = index_set_diagrams(ctx, [1 << idx for idx in range(1 << len(ctx.primes))])
    return StateSddMapping({idx: nodes[1 << idx] for idx in range(len(nodes))}, ctx.vtree_id)


class TestContextMapping:
    def test_single_variable(self):
        builder = SddBuilder()
        d1 = dv_eq(Var("x", Sort.VERTEX_OBJECT), 1)
        mapping = minterms(context_assignment_mapping(builder, (d1,)))
        assert builder.form[mapping.images[1]] == "lit"
        assert builder.polarity[mapping.images[1]] is True
        assert builder.polarity[mapping.images[0]] is False

    def test_two_variables_structure(self):
        builder = SddBuilder()
        x = Var("x", Sort.VERTEX_OBJECT)
        d1, d2 = dv_eq(x, 1), dv_eq(x, 2)
        mapping = minterms(context_assignment_mapping(builder, (d1, d2)))
        node = mapping.images[0b10]  # x=v1 set, x=v2 clear
        assert builder.form[node] == DECOMP
        var, polarity = builder.vtree.var, builder.polarity
        rendered = {
            (var[builder.vtree_id[p]].name, polarity[p], builder.form[s], polarity[s])
            for p, s in builder.pairs[node]
        }
        assert rendered == {
            ("x=v1", True, "lit", False),
            ("x=v1", False, "false", None),
        }

    def test_exactly_one_true_per_assignment(self):
        for k in range(1, 5):
            builder = SddBuilder()
            var = Var("x", Sort.VERTEX_OBJECT)
            ctx = tuple(dv_eq(var, i + 1) for i in range(k))
            mapping = minterms(context_assignment_mapping(builder, ctx))
            for _, delta in all_deltas(ctx):
                hits = [
                    idx
                    for idx in mapping.states()
                    if sdd_at(builder, mapping.images[idx]).satisfiable(delta)
                ]
                assert hits == [int("".join(str(delta[d]) for d in ctx), 2)]

    def test_size_bound(self):
        builder = SddBuilder()
        var = Var("x", Sort.VERTEX_OBJECT)
        ctx = tuple(dv_eq(var, i + 1) for i in range(4))
        mapping = minterms(context_assignment_mapping(builder, ctx))
        total = 0
        seen = set()
        for node in mapping.images.values():
            for sub in sdd_at(builder, node).positions:
                if sub in seen:
                    continue
                seen.add(sub)
                total += len(builder.pairs[sub]) if builder.form[sub] == DECOMP else 1
        assert total <= 2 * len(ctx) * 2 ** len(ctx)

    def test_every_index_set_is_its_reduced_diagram(self):
        # each set of assignments, a bitmask over their indices, gets a trimmed
        # diagram true exactly on it: no decomposition pairs two primes with
        # one sub or has one true sub among false ones. Equal sets share a
        # node, and different sets have different nodes
        var = Var("x", Sort.VERTEX_OBJECT)
        for k in range(4):
            builder = SddBuilder()
            ctx_vars = tuple(dv_eq(var, i + 1) for i in range(k))
            ctx = context_assignment_mapping(builder, ctx_vars)
            nodes = list(index_set_diagrams(ctx, range(1 << (1 << k))).values())
            assert len(set(nodes)) == len(nodes)
            for members, number in enumerate(nodes):
                assert index_set_diagrams(ctx, [members])[members] == number
                node = sdd_at(builder, number)
                for _, delta in all_deltas(ctx_vars):
                    idx = sum(delta[d] << (k - 1 - i) for i, d in enumerate(ctx_vars))
                    assert node.satisfiable(delta) == bool(members >> idx & 1)
                for sub in node.positions:
                    subs = [s for _, s in builder.pairs[sub]]
                    assert len(subs) == len(set(subs))
                    kinds = sorted(builder.form[s] for s in subs)
                    assert kinds != [FALSE] * (len(kinds) - 1) + [TRUE]
                assert vtree_respected(node)


class TestStateTableMapping:
    def setup_mappings(self):
        builder = SddBuilder()
        var = Var("x", Sort.VERTEX_OBJECT)
        a_vars = (dv_eq(var, 1),)
        b_vars = (dv_eq(var, 2),)
        g_a = minterms(context_assignment_mapping(builder, a_vars))
        g_b = minterms(context_assignment_mapping(builder, b_vars))
        return builder, g_a, g_b, a_vars + b_vars

    @staticmethod
    def table(g_a, g_b, rule):
        return {(a, b): rule(a, b) for a in g_a.states() for b in g_b.states()}

    def test_constant_table(self):
        builder, g_a, g_b, dvars = self.setup_mappings()
        out = state_table_mapping(
            builder, g_a, g_b, self.table(g_a, g_b, lambda a, b: "c0"), ("c0",), "t"
        )
        for _, delta in all_deltas(dvars):
            assert sdd_at(builder, out.images["c0"]).satisfiable(delta)

    def test_projection_table(self):
        builder, g_a, g_b, dvars = self.setup_mappings()
        table = self.table(g_a, g_b, lambda a, b: a)
        out = state_table_mapping(builder, g_a, g_b, table, g_a.states(), "t")
        for _, delta in all_deltas(dvars):
            for a in g_a.states():
                assert sdd_at(builder, out.images[a]).satisfiable(delta) == sdd_at(
                    builder, g_a.images[a]
                ).satisfiable(delta)

    def test_output_partition(self):
        builder, g_a, g_b, dvars = self.setup_mappings()
        table = self.table(g_a, g_b, lambda a, b: (a, b))
        states = [(i, j) for i in (0, 1) for j in (0, 1)]
        out = state_table_mapping(builder, g_a, g_b, table, states, "t")
        for _, delta in all_deltas(dvars):
            hits = [s for s in out.states() if sdd_at(builder, out.images[s]).satisfiable(delta)]
            assert len(hits) == 1

    def test_forget_form(self):
        # g_b a tuple of k context variables, whose b-states are its assignment
        # indices; with none the v-tree gets a `ctx` pad leaf, so that the
        # decompositions over g_a have a right side
        var = Var("x", Sort.VERTEX_OBJECT)
        for k in range(4):
            builder = SddBuilder()
            a_vars = (dv_eq(var, 1),)
            b_vars = tuple(dv_eq(var, i + 2) for i in range(k))
            g_a = minterms(context_assignment_mapping(builder, a_vars))
            table = {(a, b): (a + b) % 3 for a in g_a.states() for b in range(1 << k)}
            out = state_table_mapping(builder, g_a, b_vars, table, (0, 1, 2), "ctx")
            for _, delta in all_deltas(a_vars + b_vars):
                b = sum(delta[d] << (k - 1 - i) for i, d in enumerate(b_vars))
                hits = [
                    c for c in out.states() if sdd_at(builder, out.images[c]).satisfiable(delta)
                ]
                assert hits == [table[(delta[a_vars[0]], b)]]
            assert all(vtree_respected(sdd_at(builder, node)) for node in out.images.values())
            assert (dv_dummy("ctx") in builder.vtree.all_variables()) == (k == 0)

    def test_image_outside_declared_states(self):
        builder, g_a, g_b, _ = self.setup_mappings()
        with pytest.raises(DiagramError):
            state_table_mapping(
                builder, g_a, g_b, self.table(g_a, g_b, lambda a, b: "other"), ("c0",), "t"
            )


class TestCompile:
    def inputs(self, text, g):
        phi = desugar(parse_formula(text))
        nice = make_nice(g, min_fill_decomposition(g))
        return phi, nice, good_coloring(g, nice)

    def compile(self, text, g):
        phi, nice, coloring = self.inputs(text, g)
        return phi, compile_sdd(phi, g, nice, coloring)

    def test_equality_on_singleton_models(self):
        g = clique(1)
        phi, comp = self.compile("free vertex x; free vertex y; (x = y)", g)
        dvars = decision_variables(phi, g)
        assert truth_table(comp, dvars) == truth_table_oracle(phi, g, dvars)
        assert model_count(comp) == 1

    def test_kappa_on_triangle_counts(self):
        from mso2dd.oracle import kappa_formula

        g = clique(3)
        phi = desugar(kappa_formula())
        nice = make_nice(g, min_fill_decomposition(g))
        comp = compile_sdd(phi, g, nice, good_coloring(g, nice))
        assert model_count(comp) == truth_table_oracle(phi, g).bit_count() == 45

    def test_closed_tautology_is_constant_true(self):
        g = path_graph(3)
        phi, comp = self.compile(
            "exists vset X. ~ exists vertex v. (~(v in X) & (v in X))", g
        )
        assert comp.satisfiable({})
        assert model_count(comp) == 1  # one empty assignment

    def test_dummy_variables_are_irrelevant(self):
        g = path_graph(2)
        phi, comp = self.compile("free vertex x; free vertex y; (x = y)", g)
        dvars = decision_variables(phi, g)
        dummies = [v for v in comp.vtree.all_variables() if v.kind == "dummy"]
        for _, delta in all_deltas(dvars):
            base = comp.satisfiable(delta)
            for flip in (0, 1):
                noisy = dict(delta)
                for dummy in dummies:
                    noisy[dummy] = flip
                assert comp.satisfiable(noisy) == base

    def test_rejects_sugared_formula(self):
        g = clique(1)
        phi = parse_formula("free vset X; forall vertex v. (v in X)")
        nice = make_nice(g, min_fill_decomposition(g))
        with pytest.raises(FormulaError):
            compile_sdd(phi, g, nice, good_coloring(g, nice))

    def test_matches_decision_procedure_directly(self):
        for text, g in (
            ("free vertex x; free vertex y; (x = y)", path_graph(2)),
            ("free vertex x; free edge p; adj(x, p)", clique(3)),
            ("exists vset X. ~ exists vertex v. (~(v in X) & (v in X))", path_graph(2)),
        ):
            phi, nice, coloring = self.inputs(text, g)
            comp = compile_sdd(phi, g, nice, coloring)
            dvars = decision_variables(phi, g)
            for _, delta in all_deltas(dvars):
                assert comp.satisfiable(delta) == run_decision_procedure(
                    phi, g, nice, coloring, delta
                )

    def test_state_mapping_property(self):
        # at every node of a light subtree exactly one image is true, and it
        # names the representative of the state the procedure reaches there;
        # on the double star the stack fold builds a light subtree with a join
        g = double_star_graph()
        phi, nice, coloring = self.inputs(FORMULA_TEXTS["dom"], g)
        comp, mappings = compile_with_mappings(phi, g, nice, coloring)
        assert any(nice.nodes[nid].kind == JOIN for nid in mappings)
        dvars = decision_variables(phi, g)
        space = decision_space(phi)
        plan = forget_plan(phi, nice, coloring)
        representative = comp.reachable.representative
        for _, delta in all_deltas(dvars):
            states = node_states(space, nice, plan, delta)
            for nid, mapping in mappings.items():
                hits = [
                    s
                    for s in mapping.states()
                    if sdd_at(comp, mapping.images[s]).satisfiable(delta)
                ]
                assert hits == [representative[nid][states[nid]]]

    @pytest.mark.parametrize("name", ["3x16-min-fill", "T4-min-fill"])
    def test_mapping_dies_once_its_parent_reads_it(self, name):
        # only a node's parent reads its mapping, so the mappings alive at a
        # state_table_mapping call are the ones a postorder stack holds. The
        # stack fold runs here over the whole of each nice form, whose joins
        # nest, as compile_sdd runs it over each light subtree
        g = grid_graph(16) if name == "3x16-min-fill" else complete_binary_tree(4)
        nice = make_nice(g, min_fill_decomposition(g))
        assert not is_path_decomposition(nice)
        depth = deepest = 0
        for nid in nice.postorder():  # a leaf pushes, a join pops two and pushes one
            depth += {LEAF: 1, JOIN: -1}.get(nice.nodes[nid].kind, 0)
            deepest = max(deepest, depth)
        live = weakref.WeakSet()

        class Tracked(StateSddMapping):
            __hash__ = object.__hash__

            def __init__(self, *args):
                super().__init__(*args)
                live.add(self)

        counts = []
        original = sdd.state_table_mapping

        def counted(*args):
            gc.collect()
            counts.append(len(live))
            return original(*args)

        phi = desugar(kappa_formula())
        space, coloring = decision_space(phi), good_coloring(g, nice)
        plan = forget_plan(phi, nice, coloring)
        reach = minimize_states(space, nice, reachable_states(space, nice, plan))
        with (
            mock.patch.object(sdd, "StateSddMapping", Tracked),
            mock.patch.object(sdd, "state_table_mapping", counted),
        ):
            sdd.stack_fold(SddBuilder(), space, nice, plan, reach, nice.root)
        assert len(counts) == sum(n.kind in (FORGET, JOIN) for n in nice.nodes.values())
        assert max(counts) <= deepest + 1, (max(counts), deepest)

    def test_kappa_on_16_vertex_path_is_small(self):
        # built over state classes; over the raw states it had 2,227,084 nodes
        n = 16
        g = path_graph(n)
        phi = desugar(kappa_formula())
        nice = make_nice(g, path_decomposition(n))
        comp = compile_sdd(phi, g, nice, good_coloring(g, nice))
        assert comp.size() <= 1000
        assert model_count(comp) == kappa_count_path(n)
        assert comp.reachable.classes < comp.reachable.count


class TestTrimmed:
    """Forget subs are the reduced diagrams of their context sets, and every
    image is trimmed, so no v-tree carries a forget pad."""

    @staticmethod
    def compile(phi, g, td):
        nice = make_nice(g, td)
        return compile_sdd(phi, g, nice, good_coloring(g, nice))

    def test_closed_tautology_is_the_true_node(self):
        phi = desugar(parse_formula(FORMULA_TEXTS["taut"]))
        for name, g in corpus_graphs().items():
            comp = self.compile(phi, g, min_fill_decomposition(g))
            assert root_form(comp) == TRUE and comp.size() == 1, name

    def test_kappa_on_one_vertex_is_true(self):
        g = clique(1)
        comp = self.compile(desugar(kappa_formula()), g, min_fill_decomposition(g))
        assert root_form(comp) == TRUE

    def test_no_forget_pads(self, corpus):
        for inst in corpus:
            tags = [v.obj for v in inst.sdd.vtree.all_variables() if v.kind == "dummy"]
            assert not any(tag.startswith("forget") for tag in tags), inst.graph_name

    def test_kappa_size_on_path_and_tree(self):
        phi = desugar(kappa_formula())
        g = path_graph(64)
        for td in (path_decomposition(64), min_fill_decomposition(g)):
            comp = self.compile(phi, g, td)
            assert comp.size() <= 1100
            assert model_count(comp) == kappa_count_path(64)
        g = complete_binary_tree(3)
        comp = self.compile(phi, g, min_fill_decomposition(g))
        assert comp.size() <= 110
        assert vtree_respected(comp)


class TestLayered:
    """A join-free nice form gives the OBDD of the same decomposition in SDD
    form, over the right-linear v-tree of its order: an OBDD decision is a
    decomposition of two pairs or a literal, and a variable has two literals.
    So the SDD's size is at most twice the OBDD's plus two per variable."""

    @staticmethod
    def assert_obdd_in_sdd_form(phi, g, nice, coloring, exhaustive):
        assert is_path_decomposition(nice)
        sdd, obdd = compile_sdd(phi, g, nice, coloring), compile_obdd(phi, g, nice, coloring)
        assert sdd.size() <= 2 * obdd.size() + 2 * len(sdd.legend)
        assert model_count(sdd) == model_count(obdd)
        assert vtree_respected(sdd)
        if exhaustive:
            assert truth_table(sdd, sdd.legend) == truth_table(obdd, sdd.legend)

    @pytest.mark.parametrize("name", ["P64", "P256", "3x32"])
    def test_chain_decompositions(self, name):
        if name == "3x32":
            g, td = grid_graph(32), grid_chain_decomposition(32)
        else:
            n = int(name[1:])
            g, td = path_graph(n), path_decomposition(n)
        nice = make_nice(g, td)
        coloring = good_coloring(g, nice)
        for text in FORMULA_TEXTS.values():
            phi = desugar(parse_formula(text))
            self.assert_obdd_in_sdd_form(phi, g, nice, coloring, exhaustive=False)

    def test_corpus(self, corpus):
        checked = 0
        for inst in corpus:
            if inst.obdd is not None:
                self.assert_obdd_in_sdd_form(
                    inst.phi, inst.graph, inst.nice, inst.coloring, exhaustive=True
                )
                checked += 1
        assert checked > 100, checked

    def test_closed_formula_has_a_one_leaf_dummy_vtree(self):
        # no decision variable: the v-tree is one dummy leaf, and the diagram
        # the true node, through the file and back
        g = path_graph(4)
        nice = make_nice(g, min_fill_decomposition(g))
        phi = desugar(parse_formula(FORMULA_TEXTS["taut"]))
        comp = compile_sdd(phi, g, nice, good_coloring(g, nice))
        assert is_path_decomposition(nice) and comp.legend == ()
        assert len(comp.vtree) == 1 and comp.vtree.all_variables()[0].kind == "dummy"
        text = serialize_diagram(comp)
        loaded = load_diagram(text)
        for diagram in (comp, loaded):
            assert root_form(diagram) == TRUE and diagram.size() == 1
            assert model_count(diagram) == 1
        assert serialize_diagram(loaded) == text


class TestInterning:
    """A decomposition is interned on its pairs in the order given. The
    compiler lists a v-tree node's pairs in one fixed order, so interning on
    the set of pairs would share no more nodes."""

    @staticmethod
    def assert_one_node_per_pair_set(phi, g, nice, coloring):
        # one walk below a stand-in node, -1, whose children are every mapping
        # image and the diagram's root; returns the mappings
        comp, mappings = compile_with_mappings(phi, g, nice, coloring)
        images = [i for m in mappings.values() for i in m.images.values()]
        images.append(comp.positions[-1])
        walk = children_first(
            -1, lambda i: images if i == -1 else itertools.chain.from_iterable(comp.pairs[i])
        )
        groups: dict[tuple, list] = {}
        for i in walk[:-1]:
            if comp.form[i] == DECOMP:
                groups.setdefault((comp.vtree_id[i], frozenset(comp.pairs[i])), []).append(i)
        assert all(len(nodes) == 1 for nodes in groups.values())
        return mappings

    def test_corpus(self, corpus):
        # the corpus instances whose nice form has a join: the stack fold's
        checked = 0
        for inst in corpus:
            if inst.obdd is None:
                self.assert_one_node_per_pair_set(inst.phi, inst.graph, inst.nice, inst.coloring)
                checked += 1
        assert checked >= len(FORMULA_TEXTS), checked  # every formula on the star S4

    @pytest.mark.parametrize("name", ["kappa", "dom", "connected"])
    def test_3x16_grid(self, name):
        g = grid_graph(16)
        nice = make_nice(g, min_fill_decomposition(g))
        phi = desugar(parse_formula(FORMULA_TEXTS[name]))
        self.assert_one_node_per_pair_set(phi, g, nice, good_coloring(g, nice))

    @pytest.mark.parametrize("name", ["kappa", "dom", "connected"])
    def test_light_subtree_with_a_join(self, name):
        # on the double star and on T4 the fold maps a join of a light subtree
        for g in (double_star_graph(), complete_binary_tree(4)):
            nice = make_nice(g, min_fill_decomposition(g))
            phi = desugar(parse_formula(FORMULA_TEXTS[name]))
            mappings = self.assert_one_node_per_pair_set(phi, g, nice, good_coloring(g, nice))
            assert any(nice.nodes[nid].kind == JOIN for nid in mappings)


class TestSpine:
    """The layered builder runs down the heavy spine of every decomposition,
    and the stack fold builds only the subtrees that hang off it."""

    @staticmethod
    def min_fill(g):
        nice = make_nice(g, min_fill_decomposition(g))
        return nice, good_coloring(g, nice)

    def test_no_larger_than_the_whole_tree_fold(self, corpus):
        # every check-set SDD with a join: the corpus's, and six formulas on
        # the min-fill 3x16 grid and on T4
        cases = [(i.phi, i.graph, i.nice, i.coloring) for i in corpus if i.obdd is None]
        for g in (grid_graph(16), complete_binary_tree(4)):
            nice, coloring = self.min_fill(g)
            for name in ("kappa", "indep", "dom", "connected", "matching", "cover"):
                cases.append((desugar(parse_formula(FORMULA_TEXTS[name])), g, nice, coloring))
        assert len(cases) == len(FORMULA_TEXTS) + 12
        for phi, g, nice, coloring in cases:
            spine, fold = compile_sdd(phi, g, nice, coloring), whole_tree_fold(phi, g, nice, coloring)
            assert spine.size() <= fold.size()
            assert model_count(spine) == model_count(fold)
            assert vtree_respected(spine)

    @pytest.mark.parametrize("name, sizes", [("T6", (1032, 886)), ("3x16", (4598, 1481))])
    def test_kappa_shrinks(self, name, sizes):
        g = complete_binary_tree(6) if name == "T6" else grid_graph(16)
        nice, coloring = self.min_fill(g)
        phi = desugar(kappa_formula())
        fold = whole_tree_fold(phi, g, nice, coloring)
        assert (fold.size(), compile_sdd(phi, g, nice, coloring).size()) == sizes

    @pytest.mark.parametrize("cols", [16, 64])
    def test_min_fill_grid_is_near_the_chain(self, cols):
        # min-fill's nice form of a 3 x n grid has two joins with one-forget
        # arms; over the spine its SDD is within 5 % of the chain's OBDD in
        # SDD form (the worst is kappa on 3x16, 1,481 against 1,443)
        g = grid_graph(cols)
        nice, coloring = self.min_fill(g)
        chain = make_nice(g, grid_chain_decomposition(cols))
        assert not is_path_decomposition(nice) and is_path_decomposition(chain)
        names = ("kappa", "dom", "connected", "indep", "matching", "cover")
        texts = [FORMULA_TEXTS[name] for name in names] + [HAMILTONIAN_CYCLE_TEXT]
        for text in texts:
            phi = desugar(parse_formula(text))
            spine = compile_sdd(phi, g, nice, coloring)
            path = compile_sdd(phi, g, chain, good_coloring(g, chain))
            assert spine.size() <= 1.05 * path.size(), (text, spine.size(), path.size())
            assert model_count(spine) == model_count(path)

    @pytest.mark.parametrize("name", ["S4", "T4"])
    def test_closed_formula_pads_a_subtree_slot(self, name):
        # no variable: the spine's slots are its light subtrees, and the last
        # one's decompositions get a right side from a dummy pad leaf. The
        # diagram is the true node, through the file and back
        g = star_graph(4) if name == "S4" else complete_binary_tree(4)
        nice, coloring = self.min_fill(g)
        comp = compile_sdd(desugar(parse_formula(FORMULA_TEXTS["taut"])), g, nice, coloring)
        vtree, vid = comp.vtree, comp.vtree_root
        while vtree.kind[vid] == "inner":
            parent, vid = vid, vtree.right[vid]
        assert vtree.var[vid] == dv_dummy("order") and vtree.kind[vtree.left[parent]] == "inner"
        text = serialize_diagram(comp)
        loaded = load_diagram(text)
        for diagram in (comp, loaded):
            assert root_form(diagram) == TRUE and diagram.size() == 1
            assert model_count(diagram) == 1
        assert serialize_diagram(loaded) == text


class TestDeepEvaluation:
    """Evaluation walks the diagram without recursion."""

    N = 450

    def deep_sdd(self, text):
        n = self.N
        g = path_graph(n)
        phi = desugar(parse_formula(text))
        nice = make_nice(g, path_decomposition(n))
        return compile_sdd(phi, g, nice, good_coloring(g, nice))

    def test_enumerate_first_models(self):
        comp = self.deep_sdd("free vset X; exists vertex v. (v in X)")
        x = comp.legend[0].var
        for diagram in (comp, load_diagram(serialize_diagram(comp))):
            models = enumerate_models(diagram, 2)
            assert models == [{x: frozenset({self.N})}, {x: frozenset({self.N - 1})}]

    def test_evaluate_membership(self):
        text = "free vertex x; free vset X; (x in X)"
        comp = self.deep_sdd(text)
        x, big_x = parse_formula(text).free_vars
        for diagram in (comp, load_diagram(serialize_diagram(comp))):
            for member, expected in ((7, True), (8, False)):
                delta = {d: 0 for d in diagram.legend}
                delta[dv_eq(x, 7)] = delta[dv_mem(big_x, member)] = 1
                assert diagram.satisfiable(delta) is expected
