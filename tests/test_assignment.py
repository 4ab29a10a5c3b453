import random

import pytest

from mso2dd import decision_variables, desugar, parse_formula
from mso2dd.assignment import dv_eq, dv_mem
from mso2dd.graph import clique
from mso2dd.oracle import kappa_formula

from checks import (
    AssignmentError, all_mso_assignments, decode_assignment, encode_assignment, is_consistent,
)
from conftest import all_deltas, path_graph


EQ_XY = desugar(parse_formula("free vertex x; free vertex y; (x = y)"))
X, Y = EQ_XY.free_vars


class TestDecisionVariables:
    def test_equality_on_singleton(self):
        dvars = decision_variables(EQ_XY, clique(1))
        assert [d.name for d in dvars] == ["x=v1", "y=v1"]

    def test_kappa_on_triangle(self):
        phi = desugar(kappa_formula())
        dvars = decision_variables(phi, clique(3))
        assert len(dvars) == 6
        assert [d.name for d in dvars] == [
            "v1inX_V",
            "v2inX_V",
            "v3inX_V",
            "e1inX_E",
            "e2inX_E",
            "e3inX_E",
        ]

    def test_size_bound(self):
        from mso2dd import formula_size
        from conftest import FORMULA_TEXTS, corpus_graphs

        for text in FORMULA_TEXTS.values():
            phi = desugar(parse_formula(text))
            for g in corpus_graphs().values():
                assert len(decision_variables(phi, g)) <= formula_size(phi) * g.n_objects


class TestConsistency:
    def test_both_assigned_once(self):
        g = clique(1)
        delta = {dv_eq(X, 1): 1, dv_eq(Y, 1): 1}
        assert is_consistent(delta, EQ_XY, g)

    def test_zero_values(self):
        g = clique(1)
        delta = {dv_eq(X, 1): 0, dv_eq(Y, 1): 1}
        assert not is_consistent(delta, EQ_XY, g)

    def test_two_values_for_edge_variable(self):
        g = path_graph(3)
        phi = desugar(parse_formula("free edge p; free vertex x; adj(x, p)"))
        p = phi.free_vars[0]
        x = phi.free_vars[1]
        delta = {dv_eq(p, 1): 1, dv_eq(p, 2): 1, dv_eq(x, 1): 1, dv_eq(x, 2): 0, dv_eq(x, 3): 0}
        assert not is_consistent(delta, phi, g)


class TestEncodeDecode:
    def test_encode_object(self):
        delta = encode_assignment({X: 1, Y: 1}, EQ_XY, clique(1))
        assert delta == {dv_eq(X, 1): 1, dv_eq(Y, 1): 1}

    def test_encode_set(self):
        phi = desugar(kappa_formula())
        xv, xe = phi.free_vars
        g = clique(3)
        delta = encode_assignment({xv: frozenset({1, 3}), xe: frozenset()}, phi, g)
        assert [delta[dv_mem(xv, v)] for v in (1, 2, 3)] == [1, 0, 1]
        assert all(delta[dv_mem(xe, e)] == 0 for e in (1, 2, 3))

    def test_value_outside_universe(self):
        with pytest.raises(AssignmentError):
            encode_assignment({X: 5, Y: 1}, EQ_XY, clique(1))

    def test_decode_rejects_inconsistent(self):
        g = clique(1)
        with pytest.raises(AssignmentError):
            decode_assignment({dv_eq(X, 1): 0, dv_eq(Y, 1): 1}, EQ_XY, g)

    def test_roundtrip_random(self):
        rng = random.Random(2)
        phi = desugar(parse_formula("free vertex x; free vset X; (x in X)"))
        g = path_graph(4)
        for alpha in all_mso_assignments(phi, g):
            if rng.random() < 0.5:
                continue
            assert decode_assignment(encode_assignment(alpha, phi, g), phi, g) == alpha

    def test_bijection_exhaustive(self):
        # consistent assignments correspond one-to-one with variable assignments
        for text in (
            "free vertex x; free vertex y; (x = y)",
            "free vertex x; free vset X; (x in X)",
            "free edge p; free eset P; (p in P)",
        ):
            phi = desugar(parse_formula(text))
            for g in (path_graph(2), path_graph(4), clique(3)):
                dvars = decision_variables(phi, g)
                consistent = [
                    delta
                    for _, delta in all_deltas(dvars)
                    if is_consistent(delta, phi, g)
                ]
                alphas = list(all_mso_assignments(phi, g))
                assert len(consistent) == len(alphas)
                encoded = {tuple(sorted((d.name, b) for d, b in encode_assignment(a, phi, g).items())) for a in alphas}
                raw = {tuple(sorted((d.name, b) for d, b in delta.items())) for delta in consistent}
                assert encoded == raw

    def test_consistent_count_closed_form(self):
        phi = desugar(
            parse_formula(
                "free vertex x; free edge p; free vset X; free eset P;"
                "(((x in X) & (p in P)) & adj(x, p))"
            )
        )
        g = path_graph(3)
        dvars = decision_variables(phi, g)
        count = sum(
            1 for _, delta in all_deltas(dvars) if is_consistent(delta, phi, g)
        )
        nv, ne = g.n_vertices, g.n_edges
        assert count == nv * ne * 2**nv * 2**ne
