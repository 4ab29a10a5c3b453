import sys

import pytest

from mso2dd import desugar, formula_size, parse_formula
from mso2dd.errors import FormulaError
from mso2dd.mso import (
    MAX_NESTING,
    Adj,
    And,
    Eq,
    Exists,
    Forall,
    In,
    Neq,
    Not,
    Or,
    Sort,
    Var,
    occurring_variables,
)
from mso2dd.oracle import kappa_formula, oracle_eval, truth_table_oracle
from mso2dd.states import build_state_space

from conftest import FORMULA_TEXTS, corpus_graphs


class TestParser:
    def test_equality_atom(self):
        f = parse_formula("free vertex x; free vertex y; (x = y)")
        assert isinstance(f.root, Eq)
        assert [v.name for v in f.free_vars] == ["x", "y"]

    def test_forall_survives_parse(self):
        f = parse_formula("free vset X; forall vertex v. (v in X)")
        assert isinstance(f.root, Forall)

    def test_adj_sort_error(self):
        with pytest.raises(FormulaError):
            parse_formula("free vertex x; free edge e; adj(e, x)")

    @pytest.mark.parametrize("text, message", [
        ("free vertex x; adj(x)", "adj takes two arguments"),
        ("free vertex x; free edge e; adj(e, x)",
         "adj requires a vertex variable and an edge variable"),
        ("free vertex x; free edge e; edge(e, x)", "edge takes three arguments"),
        ("free vertex x; free vertex y; free edge e; edge(x, e, y)",
         "edge requires an edge variable and two vertex variables"),
        ("free vertex x; nbr(x)", "nbr takes two arguments"),
        ("free vertex x; free edge e; nbr(x, e)", "nbr requires two vertex variables"),
    ])
    def test_predicate_error_messages(self, text, message):
        with pytest.raises(FormulaError, match=f"^{message}$"):
            parse_formula(text)

    def test_eq_sort_error(self):
        with pytest.raises(FormulaError):
            parse_formula("free vertex x; free edge e; (x = e)")

    def test_membership_sort_error(self):
        with pytest.raises(FormulaError):
            parse_formula("free vertex x; free eset P; (x in P)")

    def test_unbound_variable(self):
        with pytest.raises(FormulaError):
            parse_formula("free vertex x; (x = y)")

    def test_rebinding_free_variable(self):
        with pytest.raises(FormulaError):
            parse_formula("free vertex x; exists vertex x. (x = x)")

    def test_unused_free_variable(self):
        with pytest.raises(FormulaError):
            parse_formula("free vertex x; free vertex y; (x = x)")

    def test_unused_bound_variable(self):
        with pytest.raises(FormulaError):
            parse_formula("free vertex x; exists vertex y. (x = x)")

    def test_binders_alpha_renamed(self):
        f = parse_formula(
            "free vset X; (exists vertex v. (v in X) & exists vertex v. (v in X))"
        )
        vars_ = occurring_variables(f.root.left.body) | occurring_variables(
            f.root.right.body
        )
        bound = {v for v in vars_ if v.name != "X"}
        assert len(bound) == 2  # the two binders got distinct identities

    def test_syntax_error(self):
        with pytest.raises(FormulaError):
            parse_formula("free vertex x; (x =")


class TestNodes:
    u, v, e = Var("u", Sort.VERTEX_OBJECT), Var("v", Sort.VERTEX_OBJECT), Var("e", Sort.EDGE_OBJECT)

    def test_class_decides_equality(self):
        a, b = Adj(self.u, self.e), Eq(self.u, self.v)
        assert And(a, b) != Or(a, b)
        assert Exists((self.u,), b) != Forall((self.u,), b)
        assert Eq(self.u, self.v) != Neq(self.u, self.v)
        assert And(a, b) == And(Adj(self.u, self.e), Eq(self.u, self.v))
        assert repr(a) == "Adj(vertex=u:vertex, edge=e:edge)"

    def test_equal_nodes_hash_equal(self):
        for text in FORMULA_TEXTS.values():
            for f, g in ((parse_formula(text), parse_formula(text)),
                         (desugar(parse_formula(text)), desugar(parse_formula(text)))):
                assert f.root is not g.root and f == g and hash(f) == hash(g)

    def test_fields_cannot_be_assigned(self):
        node = And(Adj(self.u, self.e), Eq(self.u, self.v))
        with pytest.raises(AttributeError):
            node.left = node.right
        with pytest.raises(AttributeError):
            del node.right
        with pytest.raises(AttributeError):
            node.extra = 1
        with pytest.raises(AttributeError):
            parse_formula(FORMULA_TEXTS["eq"]).root = node

    def test_deepest_formula_hashes_and_compares(self):
        # MAX_NESTING levels of negation, of conjunction, and of disjunction,
        # which desugaring deepens, at the default recursion limit
        inner_and = inner_or = "(x = x)"
        for _ in range(MAX_NESTING // 2):
            inner_and = f"~((x = x) & {inner_and})"
            inner_or = f"~((x = x) | {inner_or})"
        texts = ["~" * MAX_NESTING + "(x = x)", inner_and, inner_or]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            for text in texts:
                for make in (parse_formula, lambda t: desugar(parse_formula(t))):
                    f, g = make(f"free vertex x; {text}"), make(f"free vertex x; {text}")
                    assert f == g and hash(f) == hash(g)
        finally:
            sys.setrecursionlimit(limit)


class TestDesugar:
    def test_forall_becomes_negated_exists(self):
        f = desugar(parse_formula("free vset X; forall vertex v. (v in X)"))
        root = f.root
        assert isinstance(root, Not)
        assert isinstance(root.body, Exists)
        assert isinstance(root.body.body, Not)
        assert isinstance(root.body.body.body, In)

    def test_edge_predicate_expansion(self):
        f = desugar(
            parse_formula("free edge e; free vertex u; free vertex v; edge(e, u, v)")
        )
        root = f.root
        assert isinstance(root, And) and isinstance(root.right, Adj)
        assert isinstance(root.left, And)
        assert isinstance(root.left.left, Not) and isinstance(root.left.left.body, Eq)
        assert isinstance(root.left.right, Adj)

    def test_nbr_expansion(self):
        f = desugar(parse_formula("free vertex u; free vertex v; nbr(u, v)"))
        root = f.root
        assert isinstance(root, Exists)
        assert len(root.variables) == 1
        assert root.variables[0].sort is Sort.EDGE_OBJECT
        assert isinstance(root.body, And)

    def test_deterministic(self):
        # the edge variables nbr introduces are numbered per call
        f = parse_formula("free vertex u; free vertex v; nbr(u, v)")
        assert desugar(f) == desugar(f)

    def test_nbr_edge_variable_not_captured(self):
        # a bound variable named like the expansion's edge variable stays apart
        f = parse_formula(
            "free vertex u; free vertex v; exists edge _nbr. (adj(u, _nbr) & ~nbr(u, v))"
        )
        g = corpus_graphs()["P3"]
        assert truth_table_oracle(desugar(f), g).bit_count() == truth_table_oracle(f, g).bit_count()

    def test_quantifier_blocks_merge(self):
        f = desugar(kappa_formula())
        assert isinstance(f.root, Not)
        block = f.root.body
        assert isinstance(block, Exists)
        assert len(block.variables) == 3

    def test_idempotent(self):
        for text in FORMULA_TEXTS.values():
            once = desugar(parse_formula(text))
            build_state_space(once.root)  # raises FormulaError on a sugar node
            assert desugar(once) == once

    def test_preserves_oracle_semantics(self):
        from checks import all_mso_assignments

        graphs = [g for name, g in corpus_graphs().items() if g.n_vertices <= 5]
        for text in FORMULA_TEXTS.values():
            sugared = parse_formula(text)
            core = desugar(sugared)
            for g in graphs:
                for alpha in all_mso_assignments(sugared, g):
                    assert oracle_eval(sugared, g, alpha) == oracle_eval(core, g, alpha)


class TestSize:
    def test_atom(self):
        assert formula_size(parse_formula("free vertex x; free edge e; adj(x, e)")) == 3

    def test_negated_atom(self):
        assert formula_size(parse_formula("free vertex x; free vertex y; ~(x = y)")) == 4

    def test_merged_block_counts_per_variable(self):
        f = desugar(parse_formula("exists vertex x. exists vset X. (x in X)"))
        assert isinstance(f.root, Exists) and len(f.root.variables) == 2
        assert formula_size(f) == 5

    def test_desugared_size_within_constant_factor(self):
        for text in FORMULA_TEXTS.values():
            sugared = parse_formula(text)
            assert formula_size(desugar(sugared)) <= 8 * formula_size(sugared)

    def test_free_count_below_size(self):
        for text in FORMULA_TEXTS.values():
            f = desugar(parse_formula(text))
            assert len(f.free_vars) <= formula_size(f)


class TestFreeVariables:
    def test_kappa_signature(self):
        f = kappa_formula()
        assert [(v.name, v.sort) for v in f.free_vars] == [
            ("X_V", Sort.VERTEX_SET),
            ("X_E", Sort.EDGE_SET),
        ]

    def test_closed_sentence(self):
        f = parse_formula(FORMULA_TEXTS["taut"])
        assert f.free_vars == ()

    def test_declaration_order(self):
        f = parse_formula("free vertex x; free vertex y; (x = y)")
        assert [v.name for v in f.free_vars] == ["x", "y"]
