import itertools
import random

import pytest

from mso2dd import (
    TreeDecomposition,
    compile_obdd,
    decision_variables,
    desugar,
    enumerate_models,
    good_coloring,
    load_diagram,
    make_nice,
    min_fill_decomposition,
    obdd_size,
    parse_formula,
    serialize_diagram,
)
from mso2dd.assignment import dv_eq, dv_mem
from mso2dd.errors import DiagramError
from mso2dd.graph import clique
from mso2dd.mso import Sort, Var
from mso2dd.obdd import Obdd, ObddSpace, reduce_obdd
from mso2dd.oracle import (
    Cnf,
    cnf_of_graph,
    cnf_to_obdd,
    is_satisfiable,
    kappa_formula,
    min_cardinality_model,
    model_count,
    truth_table,
    truth_table_oracle,
)
from mso2dd.serialize import diagram_to_dot

from checks import cnf_truth_table, is_ordered
from conftest import all_deltas, kappa_count_path, path_decomposition, path_graph, star_graph


def fig_order():
    return tuple(dv_eq(Var(n, Sort.VERTEX_OBJECT), 1) for n in "abc")


def build_example_obdd():
    """(a and not b) or (b and c) respecting the order a < b < c."""
    order = fig_order()
    space = ObddSpace(order)
    zero, one = space.leaf(0), space.leaf(1)
    b_left = space.decision(1, one, zero)  # after a=1: true unless b
    c_node = space.decision(2, zero, one)
    b_right = space.decision(1, zero, c_node)  # after a=0: need b and c
    # correction for a=1, b=1: (a & ~b) | (b & c) = c
    b_left = space.decision(1, one, c_node)
    root = space.decision(0, b_right, b_left)
    return Obdd(space, root, order), order


class TestEvaluate:
    def test_example_rows(self):
        obdd, (a, b, c) = build_example_obdd()
        for cv in (0, 1):
            assert obdd.satisfiable({a: 1, b: 0, c: cv})
        assert not obdd.satisfiable({a: 0, b: 1, c: 0})
        reference = lambda va, vb, vc: (va and not vb) or (vb and vc)
        for bits in itertools.product((0, 1), repeat=3):
            delta = dict(zip((a, b, c), bits))
            assert obdd.satisfiable(delta) == bool(reference(*bits))

    def test_constant_false(self):
        order = fig_order()
        space = ObddSpace(order)
        dd = Obdd(space, space.leaf(0), order)
        for _, delta in all_deltas(order):
            assert not dd.satisfiable(delta)


class TestReduce:
    def test_redundant_node_eliminated(self):
        order = fig_order()
        space = ObddSpace(order)
        one = space.leaf(1)
        redundant = space.decision(0, one, one)
        reduced = reduce_obdd(Obdd(space, redundant, order))
        assert reduced.label[reduced.positions[-1]] == 1

    def test_isomorphic_subgraphs_merged(self):
        order = fig_order()
        space = ObddSpace(order)
        zero, one = space.leaf(0), space.leaf(1)
        c1 = space.decision(2, zero, one)
        c2 = space.decision(2, zero, one)
        root = space.decision(1, c1, c2)
        reduced = reduce_obdd(Obdd(space, root, order))
        root = reduced.positions[-1]
        assert reduced.label[root] is None and reduced.level[root] == 2
        assert obdd_size(reduced) == 3

    def test_idempotent_and_semantics_preserved(self):
        obdd, order = build_example_obdd()
        once = reduce_obdd(obdd)
        twice = reduce_obdd(once)
        assert serialize_diagram(once) == serialize_diagram(twice)
        assert truth_table(once, order) == truth_table(obdd, order)
        assert is_ordered(once)


class TestApply:
    def test_cnf_conjunction_on_triangle(self):
        cnf = cnf_of_graph(clique(3))
        dd = cnf_to_obdd(cnf)
        # brute-force satisfying count over the 2^6 assignments
        count = 0
        for bits in itertools.product((0, 1), repeat=6):
            if all(any(bits[i] for i in clause) for clause in cnf.clauses):
                count += 1
        assert count == 45
        assert model_count(dd) == 45
        assert is_ordered(dd)


def assert_reduced(dd):
    decisions = [i for i in dd.positions if dd.label[i] is None]
    assert all(dd.lo[i] != dd.hi[i] for i in decisions)
    assert len({(dd.level[i], dd.lo[i], dd.hi[i]) for i in decisions}) == len(decisions)


class TestCnfBuilder:
    @staticmethod
    def variables(n):
        return tuple(dv_mem(Var("X", Sort.VERTEX_SET), i) for i in range(1, n + 1))

    def test_random_cnfs_match_truth_table(self):
        rng = random.Random(20261019)
        for _ in range(300):
            variables = self.variables(rng.randint(1, 8))
            clauses = tuple(
                tuple(rng.randrange(len(variables)) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 6))
            )
            order = list(variables)
            rng.shuffle(order)
            cnf = Cnf(variables, clauses)
            dd = cnf_to_obdd(cnf, order)
            assert dd.order == tuple(order)
            assert truth_table(dd, variables) == cnf_truth_table(cnf), (clauses, order)
            assert_reduced(dd)

    def test_no_clause_is_true_and_empty_clause_false(self):
        variables = self.variables(3)
        for clauses, label in (((), 1), (((0, 1), ()), 0)):
            dd = cnf_to_obdd(Cnf(variables, clauses))
            assert dd.label[dd.positions[-1]] == label
            assert truth_table(dd, variables) == cnf_truth_table(Cnf(variables, clauses))


class TestCompile:
    def compile(self, text, g, td=None):
        phi = desugar(parse_formula(text))
        nice = make_nice(g, td or min_fill_decomposition(g))
        coloring = good_coloring(g, nice)
        return phi, compile_obdd(phi, g, nice, coloring)

    def test_equality_on_singleton(self):
        g = clique(1)
        phi, comp = self.compile("free vertex x; free vertex y; (x = y)", g)
        dvars = decision_variables(phi, g)
        assert truth_table(comp, dvars) == truth_table_oracle(phi, g, dvars)

    def test_kappa_on_path(self):
        g = path_graph(3)
        phi = desugar(kappa_formula())
        nice = make_nice(
            g, TreeDecomposition({1: {1, 2}, 2: {2, 3}}, [(1, 2)])
        )
        comp = compile_obdd(phi, g, nice, good_coloring(g, nice))
        assert model_count(comp) == truth_table_oracle(phi, g).bit_count() == 25

    def test_kappa_on_2000_vertex_path(self):
        n = 2000
        g = path_graph(n)
        phi = desugar(kappa_formula())
        nice = make_nice(g, path_decomposition(n))
        comp = compile_obdd(phi, g, nice, good_coloring(g, nice))
        assert model_count(comp) == kappa_count_path(n)
        targets = [d for d in comp.legend if d.var.name == "X_V"]
        forced = {d: 0 for d in comp.legend if d.var.name == "X_E"}
        minimum, _ = min_cardinality_model(comp, targets, forced)
        assert minimum == n // 2

    def test_constant_formula_single_terminal(self):
        g = path_graph(2)
        phi, comp = self.compile(
            "exists vset X. ~ exists vertex v. (~(v in X) & (v in X))", g
        )
        assert comp.label[comp.positions[-1]] == 1
        assert comp.size() == 1

    def test_join_decomposition_rejected(self):
        g = star_graph(4)
        phi = desugar(parse_formula("free vertex x; free vertex y; (x = y)"))
        nice = make_nice(g, min_fill_decomposition(g))
        assert not all(n.kind != "join" for n in nice.nodes.values())
        with pytest.raises(DiagramError):
            compile_obdd(phi, g, nice, good_coloring(g, nice))

    def test_order_follows_contexts_leaf_to_root(self):
        g = path_graph(3)
        phi = desugar(parse_formula("free vertex x; free vset X; (x in X)"))
        nice = make_nice(g, min_fill_decomposition(g))
        coloring = good_coloring(g, nice)
        comp = compile_obdd(phi, g, nice, coloring)
        from mso2dd.states import forget_plan

        plan = forget_plan(phi, nice, coloring)
        expected = []
        for nid in nice.postorder():
            if nice.nodes[nid].kind == "forget":
                expected.extend(plan[nid].variables)
        assert list(comp.order) == expected


class TestQueries:
    def test_every_obdd_answers_every_query(self):
        # compiled, loaded from its file, reduced, and built from the cover CNF:
        # one type, so each answers each query, and alike
        g = path_graph(4)
        nice = make_nice(g, path_decomposition(4))
        comp = compile_obdd(desugar(kappa_formula()), g, nice, good_coloring(g, nice))
        diagrams = [
            comp,
            load_diagram(serialize_diagram(comp)),
            reduce_obdd(comp),
            cnf_to_obdd(cnf_of_graph(g), comp.order),
        ]
        answers = []
        for dd in diagrams:
            assert isinstance(dd, Obdd)
            assert diagram_to_dot(dd).startswith("digraph obdd {")
            targets = [d for d in dd.legend if d.var.name == "X_V"]
            answers.append((
                is_satisfiable(dd),
                model_count(dd),
                enumerate_models(dd, 5),
                min_cardinality_model(dd, targets)[0],
                serialize_diagram(dd),
            ))
        assert answers[0][1] == kappa_count_path(4) == 89
        assert answers == [answers[0]] * len(diagrams)


class TestSizes:
    def test_constant(self):
        space = ObddSpace(fig_order())
        assert obdd_size(Obdd(space, space.leaf(1), space.order)) == 1

    def test_single_literal(self):
        space = ObddSpace(fig_order())
        root = space.decision(0, space.leaf(0), space.leaf(1))
        assert obdd_size(Obdd(space, root, space.order)) == 3

    def test_ordered_invariant(self):
        obdd, _ = build_example_obdd()
        assert is_ordered(obdd)
