import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mso2dd import (
    Graph,
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
    parse_tree_decomposition,
    serialize_diagram,
)
from mso2dd.assignment import dv_mem
from mso2dd.errors import QueryError
from mso2dd.graph import clique, clique_tree
from mso2dd.mso import Sort, Var
from mso2dd.obdd import Obdd, ObddSpace, reduce_obdd
from mso2dd.oracle import (
    cnf_of_graph,
    enumerate_models,
    kappa_formula,
    min_cardinality_model,
    model_count,
    oracle_eval,
    truth_table_oracle,
    variable_masks,
)

from checks import all_mso_assignments, cnf_truth_table, encode_assignment, oracle_listing
from conftest import (
    FORMULA_TEXTS, corpus_graphs, nested_chain, path_decomposition, path_graph,
)


def compile_kappa(g, target="sdd"):
    phi = desugar(kappa_formula())
    nice = make_nice(g, min_fill_decomposition(g))
    coloring = good_coloring(g, nice)
    if target == "sdd":
        return phi, compile_sdd(phi, g, nice, coloring)
    from mso2dd import compile_obdd

    return phi, compile_obdd(phi, g, nice, coloring)


class TestEval:
    def test_adjacency_endpoint(self):
        g = path_graph(2)
        phi = desugar(parse_formula("free vertex x; free edge p; adj(x, p)"))
        x, p = phi.free_vars
        assert oracle_eval(phi, g, {x: 1, p: 1})

    def test_equality_mismatch(self):
        g = path_graph(2)
        phi = desugar(parse_formula("free vertex x; free vertex y; (x = y)"))
        x, y = phi.free_vars
        assert not oracle_eval(phi, g, {x: 1, y: 2})

    def test_kappa_vertex_cover(self):
        g = clique(3)
        phi = kappa_formula()
        xv, xe = phi.free_vars
        assert oracle_eval(phi, g, {xv: frozenset({1, 2}), xe: frozenset()})
        assert not oracle_eval(phi, g, {xv: frozenset({1}), xe: frozenset()})

    def test_set_variable_without_objects_left_out(self):
        # a diagram's legend holds no bit of X_E on an edgeless graph, so a
        # decoded witness has no value for it
        phi = kappa_formula()
        assert oracle_eval(phi, clique(1), {phi.free_vars[0]: frozenset()})

    def test_quantifier_cap_checked_before_any_domain(self):
        # 2**30 vertex sets: the cap is read off the sizes, so this raises
        # before a single set or table is built
        g = path_graph(30)
        phi = parse_formula("free vertex x; exists vset X. (x in X)")
        with pytest.raises(QueryError, match="cap"):
            oracle_eval(phi, g, {phi.free_vars[0]: 1})
        with pytest.raises(QueryError, match="cap"):
            truth_table_oracle(phi, g)


# every sugar node, once with free and once with bound arguments
SUGAR_TEXT = (
    "free vertex x; free vertex y; free edge p; free vset X; "
    "(((edge(p, x, y) | nbr(x, y)) -> ((x != y) & (x notin X))) & "
    "(forall vertex u. forall vertex v. forall edge q. "
    "((edge(q, u, v) & nbr(u, v)) -> (((u in X) | (v notin X)) & (u != v))) | "
    "exists vertex w. (edge(p, w, x) & (nbr(w, y) -> (w notin X)))))"
)


class TestBitsets:
    def test_table_matches_one_assignment_at_a_time(self):
        # the table runs every atom on free arguments, oracle_eval on bound ones
        texts = dict(FORMULA_TEXTS, sugar=SUGAR_TEXT)
        checked = 0
        for g in corpus_graphs().values():
            for text in texts.values():
                raw = parse_formula(text)
                for phi in (raw, desugar(raw)):
                    dvars = decision_variables(phi, g)
                    if len(dvars) > 12:
                        continue
                    expected = 0
                    for alpha in all_mso_assignments(phi, g):
                        if oracle_eval(phi, g, alpha):
                            delta = encode_assignment(alpha, phi, g)
                            expected |= 1 << sum(delta[d] << i for i, d in enumerate(dvars))
                    assert truth_table_oracle(phi, g, dvars) == expected, text
                    checked += 1
        assert checked > 100

    def test_formulas_nested_to_the_cap(self):
        # the evaluator takes a bounded number of frames per level of nesting
        g = path_graph(4)
        inner = "(x = x)"
        for _ in range(100):
            inner = f"~((x = x) & {inner})"
        x_is = [{Var("x", Sort.VERTEX_OBJECT): v} for v in (4, 3, 2, 1)]
        tables = set()
        for text in ("free vertex x; " + inner, nested_chain(66)):
            phi = parse_formula(text)
            assert oracle_listing(phi, g, decision_variables(phi, g)) == x_is
            tables.add(truth_table_oracle(phi, g))
        assert tables == {(1 << 1) | (1 << 2) | (1 << 4) | (1 << 8)}


class TestModels:
    def test_equality_two_models(self):
        g = path_graph(2)
        phi = desugar(parse_formula("free vertex x; free vertex y; (x = y)"))
        assert truth_table_oracle(phi, g).bit_count() == 2

    def test_unsatisfiable(self):
        g = path_graph(2)
        phi = desugar(parse_formula("free vertex x; ~(x = x)"))
        assert truth_table_oracle(phi, g).bit_count() == 0

    def test_kappa_triangle_matches_cnf(self):
        g = clique(3)
        phi = desugar(kappa_formula())
        assert truth_table_oracle(phi, g).bit_count() == 45
        cnf = cnf_of_graph(g)
        table = cnf_truth_table(cnf)
        count = bin(table).count("1")
        assert count == 45


class TestMasks:
    def test_variable_masks(self):
        masks = variable_masks(3)
        for idx in range(8):
            for i in range(3):
                assert ((masks[i] >> idx) & 1) == ((idx >> i) & 1)


class TestCounting:
    def test_constant_false(self):
        g = path_graph(2)
        phi = desugar(parse_formula("exists vertex v. ~(v = v)"))
        nice = make_nice(g, min_fill_decomposition(g))
        comp = compile_sdd(phi, g, nice, good_coloring(g, nice))
        assert model_count(comp) == 0
        assert not comp.satisfiable({})

    def test_constant_true_counts_full_space(self):
        g = path_graph(2)
        phi = desugar(parse_formula("free vset X; ~ exists vertex v. (~(v in X) & (v in X))"))
        nice = make_nice(g, min_fill_decomposition(g))
        comp = compile_sdd(phi, g, nice, good_coloring(g, nice))
        assert model_count(comp) == 4  # every subset of two vertices

    def test_kappa_sdd_count(self):
        phi, comp = compile_kappa(clique(3))
        assert model_count(comp) == 45


class TestEnumerate:
    def test_matches_count_and_order(self):
        g = path_graph(3)
        phi, comp = compile_kappa(g)
        models = enumerate_models(comp, limit=100)
        assert len(models) == model_count(comp) == 25
        keys = [
            tuple(encode_assignment(alpha, phi, g)[d] for d in comp.legend)
            for alpha in models
        ]
        assert keys == sorted(keys)
        assert all(oracle_eval(phi, g, alpha) for alpha in models)

    def test_limit(self):
        phi, comp = compile_kappa(path_graph(3))
        assert len(enumerate_models(comp, limit=4)) == 4
        with pytest.raises(QueryError):
            enumerate_models(comp, limit=0)

    def test_unsat_is_empty(self):
        g = path_graph(2)
        phi = desugar(parse_formula("exists vertex v. ~(v = v)"))
        nice = make_nice(g, min_fill_decomposition(g))
        comp = compile_sdd(phi, g, nice, good_coloring(g, nice))
        assert enumerate_models(comp, limit=5) == []

    def test_matches_oracle_on_corpus(self, corpus):
        # both targets, compiled and loaded, against the oracle's truth table
        checked, closed = 0, 0
        for inst in corpus:
            if len(inst.dvars) > 12:
                continue
            for comp in (inst.sdd, inst.obdd):
                if comp is None:
                    continue
                expected = oracle_listing(inst.phi, inst.graph, comp.legend)
                for diagram in (comp, load_diagram(serialize_diagram(comp))):
                    for limit in (1, 5, 10**6):
                        assert enumerate_models(diagram, limit) == expected[:limit], (
                            inst.formula_name, inst.graph_name, comp.kind, limit,
                        )
                    checked += 1
                if inst.formula_name == "taut":  # closed
                    assert expected == [{}]
                    closed += 1
        assert checked > 200 and closed > 0

    @pytest.mark.parametrize("text", [
        "exists vertex v. ~(v = v)",
        "free vertex x; free vset X; ((x in X) & ~(x in X))",
    ])
    def test_unsatisfiable_on_both_targets(self, text):
        for comp in compile_both(parse_formula(text), path_graph(3)):
            for diagram in (comp, load_diagram(serialize_diagram(comp))):
                assert enumerate_models(diagram, 10**6) == []

    def test_lex_first_model_beyond_any_scan(self):
        # legend x=1..120 then X∋1..120: the first model sets the last bit of
        # each block, at scan index 2^120 + 1
        n = 120
        phi = parse_formula("free vertex x; free vset X; (x in X)")
        x, big_x = phi.free_vars
        for comp in compile_both(phi, path_graph(n), path_decomposition(n)):
            for diagram in (comp, load_diagram(serialize_diagram(comp))):
                assert enumerate_models(diagram, 1) == [{x: n, big_x: frozenset({n})}]

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        parents=st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=5),
        as_path=st.booleans(),
        name=st.sampled_from(sorted(FORMULA_TEXTS)),
    )
    def test_random_small_graphs(self, parents, as_path, name):
        # vertex i + 2 hangs off vertex i + 1 (a path) or off a drawn earlier one
        edges = [(i + 1 if as_path else p % (i + 1) + 1, i + 2) for i, p in enumerate(parents)]
        g = Graph(len(parents) + 1, edges)
        phi = parse_formula(FORMULA_TEXTS[name])
        for comp in compile_both(phi, g):
            assert enumerate_models(comp, 10**6) == oracle_listing(desugar(phi), g, comp.legend)


class TestConditioning:
    """`satisfiable` on both targets against the oracle's table, on partial
    and on total assignments."""

    def test_matches_oracle_on_corpus(self, corpus):
        rng = random.Random(15)
        checked = 0
        for inst in corpus:
            dvars, n = inst.dvars, len(inst.dvars)
            table = truth_table_oracle(inst.phi, inst.graph, dvars)
            masks, ones = variable_masks(n), (1 << (1 << n)) - 1
            models = [idx for idx in range(1 << n) if table >> idx & 1]
            for diagram in (inst.sdd, inst.obdd):
                if diagram is None:
                    continue
                assert diagram.legend == dvars
                for _ in range(40):
                    # half the draws restrict a model, so both answers occur
                    idx = rng.randrange(1 << n)
                    if models and rng.random() < 0.5:
                        idx = rng.choice(models)
                    delta = {d: idx >> i & 1 for i, d in enumerate(dvars) if rng.random() < 0.5}
                    agree = table
                    for i, d in enumerate(dvars):
                        if d in delta:
                            agree &= masks[i] if delta[d] else ones ^ masks[i]
                    assert diagram.satisfiable(delta) == (agree != 0), (
                        inst.formula_name, inst.graph_name, diagram.kind, delta,
                    )
                    total = {d: idx >> i & 1 for i, d in enumerate(dvars)}
                    assert diagram.satisfiable(total) == bool(table >> idx & 1)
                checked += 1
        assert checked > 200


def compile_both(raw, g, td=None):
    """The SDD, and the OBDD when the nice form is join-free."""
    phi = desugar(raw)
    nice = make_nice(g, td or min_fill_decomposition(g))
    coloring = good_coloring(g, nice)
    comps = [compile_sdd(phi, g, nice, coloring)]
    if is_path_decomposition(nice):
        comps.append(compile_obdd(phi, g, nice, coloring))
    return comps


class TestMinCardinality:
    def brute_min_cover(self, g):
        best = None
        for r in range(g.n_vertices + 1):
            for subset in itertools.combinations(g.vertices(), r):
                chosen = set(subset)
                if all(e.u in chosen or e.v in chosen for e in g.edges):
                    return r
        return best

    def check_graph(self, g, expected):
        assert self.brute_min_cover(g) == expected
        phi, comp = compile_kappa(g)
        xv = next(v for v in phi.free_vars if v.name == "X_V")
        xe = next(v for v in phi.free_vars if v.name == "X_E")
        targets = [d for d in comp.legend if d.var == xv]
        forced = {d: 0 for d in comp.legend if d.var == xe}
        minimum, alpha = min_cardinality_model(comp, targets, forced)
        assert minimum == expected
        cover = set(alpha[xv])
        assert all(e.u in cover or e.v in cover for e in g.edges)
        assert alpha[xe] == frozenset()
        # the witness is itself a model, and no model scores lower
        assert oracle_eval(phi, g, alpha)
        best = min(
            len(m[xv]) for m in enumerate_models(comp, limit=10**6) if m[xe] == frozenset()
        )
        assert best == minimum

    def test_triangle_cover(self):
        self.check_graph(clique(3), 2)

    def test_path_cover_center(self):
        self.check_graph(path_graph(3), 1)

    def test_constant_true_minimum_zero(self):
        g = path_graph(2)
        phi = desugar(parse_formula("free vset X; ~ exists vertex v. (~(v in X) & (v in X))"))
        nice = make_nice(g, min_fill_decomposition(g))
        comp = compile_sdd(phi, g, nice, good_coloring(g, nice))
        minimum, alpha = min_cardinality_model(comp, set(comp.legend))
        assert minimum == 0
        assert alpha == {phi.free_vars[0]: frozenset()}

    def test_unsatisfiable_raises(self):
        g = path_graph(2)
        phi = desugar(parse_formula("exists vertex v. ~(v = v)"))
        nice = make_nice(g, min_fill_decomposition(g))
        comp = compile_sdd(phi, g, nice, good_coloring(g, nice))
        with pytest.raises(QueryError):
            min_cardinality_model(comp, set())


class TestDeepDiagrams:
    """Queries run without recursion, so diagram depth is no limit."""

    def test_membership_on_long_path(self):
        n = 450
        g = path_graph(n)
        phi = desugar(parse_formula("free vertex x; free vset X; (x in X)"))
        nice = make_nice(g, path_decomposition(n))
        comp = compile_sdd(phi, g, nice, good_coloring(g, nice))
        loaded = load_diagram(serialize_diagram(comp))
        assert model_count(comp) == model_count(loaded) == n * 2 ** (n - 1)
        targets = [d for d in loaded.legend if d.var.name == "X"]
        minimum, alpha = min_cardinality_model(loaded, targets)
        assert minimum == 1
        assert oracle_eval(phi, g, alpha)

    def test_membership_compiles_on_2000_vertex_path(self):
        # nice form and both compilers run without recursion
        n = 2000
        g = path_graph(n)
        phi = desugar(parse_formula("free vertex x; free vset X; (x in X)"))
        td = "\n".join(
            [f"s td {n - 1} 2 {n}"]
            + [f"b {i} {i} {i + 1}" for i in range(1, n)]
            + [f"{i} {i + 1}" for i in range(1, n - 1)]
        )
        nice = make_nice(g, parse_tree_decomposition(td))
        coloring = good_coloring(g, nice)
        for comp in (compile_obdd(phi, g, nice, coloring), compile_sdd(phi, g, nice, coloring)):
            loaded = load_diagram(serialize_diagram(comp))
            assert model_count(loaded) == n * 2 ** (n - 1)
            targets = [d for d in loaded.legend if d.var.name == "X"]
            assert min_cardinality_model(loaded, targets)[0] == 1

    @staticmethod
    def obdd_chain():
        # "some variable is 1" over 3,000 levels, one decision per level
        order = tuple(dv_mem(Var("X", Sort.VERTEX_SET), i) for i in range(1, 3001))
        space = ObddSpace(order)
        node = space.leaf(0)
        for level in reversed(range(len(order))):
            node = space.decision(level, node, space.leaf(1))
        return Obdd(space, node, space.order)

    def test_obdd_chain(self):
        chain = self.obdd_chain()
        order = chain.order
        assert model_count(chain) == 2 ** len(order) - 1
        minimum, alpha = min_cardinality_model(chain, order)
        assert minimum == 1
        assert alpha[order[0].var] == frozenset({3000})

    def test_obdd_chain_reduce_and_apply(self):
        chain = self.obdd_chain()
        expected = 2 ** len(chain.order) - 1
        reduced = reduce_obdd(chain)
        assert reduced.root is chain.root  # already reduced
        assert model_count(reduced) == expected


class TestCountAgreement:
    def test_sdd_obdd_oracle_counts_match(self, corpus):
        checked = 0
        for inst in corpus:
            expected = truth_table_oracle(inst.phi, inst.graph).bit_count()
            assert model_count(inst.sdd) == expected, (
                inst.formula_name,
                inst.graph_name,
            )
            if inst.obdd is not None:
                assert model_count(inst.obdd) == expected
            checked += 1
        assert checked > 50


class TestCnf:
    def test_singleton(self):
        cnf = cnf_of_graph(clique(1))
        assert len(cnf.variables) == 1 and cnf.clauses == ()

    def test_single_edge(self):
        cnf = cnf_of_graph(path_graph(2))
        assert len(cnf.variables) == 3 and len(cnf.clauses) == 1
        u, e, v = cnf.clauses[0]
        assert {cnf.variables[u].name, cnf.variables[v].name} == {"v1inX_V", "v2inX_V"}
        assert cnf.variables[e].name == "e1inX_E"

    def test_kappa_signature(self):
        phi = kappa_formula()
        assert [(v.name, v.sort) for v in phi.free_vars] == [
            ("X_V", Sort.VERTEX_SET),
            ("X_E", Sort.EDGE_SET),
        ]

    def test_identified_model_sets(self):
        # membership bits of the covering formula line up with the CNF variables
        for g in (clique(3), path_graph(3)):
            phi = desugar(kappa_formula())
            cnf = cnf_of_graph(g)
            assert cnf.variables == decision_variables(phi, g)
            assert cnf_truth_table(cnf) == truth_table_oracle(phi, g)

    def test_identified_model_sets_product_graph(self):
        # the 17-variable product-graph instance, checked by exhaustive enumeration
        g = clique_tree(2, 2)
        phi = desugar(kappa_formula())
        cnf = cnf_of_graph(g)
        table = cnf_truth_table(cnf)
        assert truth_table_oracle(phi, g, cnf.variables) == table
