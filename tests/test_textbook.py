"""Textbook MSO2 properties at path and grid scale: 3-colourability,
independent set, perfect matching, connectivity and Hamiltonian cycle, on
graphs with known answers, and the linear growth of their diagrams."""

import pytest

from mso2dd import (
    compile_obdd,
    compile_sdd,
    desugar,
    good_coloring,
    make_nice,
    min_fill_decomposition,
    parse_formula,
)
from mso2dd.assignment import decision_variables
from mso2dd.graph import clique
from mso2dd.oracle import is_satisfiable, model_count, truth_table, truth_table_oracle

from conftest import (
    FORMULA_TEXTS, HAMILTONIAN_CYCLE_TEXT, INDEPENDENT_SET_TEXT, THREE_COLORING_TEXT,
    cycle_graph, grid_chain_decomposition, grid_graph, path_decomposition, path_graph,
)


def path_obdd(text, n):
    """The OBDD of `text` on the n-vertex path, over its width-1 decomposition."""
    g = path_graph(n)
    nice = make_nice(g, path_decomposition(n))
    return compile_obdd(desugar(parse_formula(text)), g, nice, good_coloring(g, nice))


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


class TestThreeColoring:
    def test_paths_are_colorable(self):
        # three nested set quantifiers; each block's sets stay small because
        # a decided atom leaves them as soon as a forget refutes it
        for n in (6, 64):
            assert is_satisfiable(path_obdd(THREE_COLORING_TEXT, n)), n

    def test_k4_is_not_colorable(self):
        g = clique(4)
        nice = make_nice(g, min_fill_decomposition(g))
        phi = desugar(parse_formula(THREE_COLORING_TEXT))
        assert not is_satisfiable(compile_sdd(phi, g, nice, good_coloring(g, nice)))


class TestIndependentSet:
    def test_count_on_path_is_fibonacci(self):
        # the n-vertex path has F(n + 2) independent sets
        assert model_count(path_obdd(INDEPENDENT_SET_TEXT, 64)) == fibonacci(66)

    def test_reachable_states_flat_in_path_length(self):
        counts = [path_obdd(INDEPENDENT_SET_TEXT, n).reachable.count for n in (64, 256)]
        assert counts[0] == counts[1]


class TestConnectivity:
    def test_count_on_path(self):
        # the connected vertex sets of a path are its n(n+1)/2 intervals and
        # the empty set
        for n in (4, 64):
            assert model_count(path_obdd(FORMULA_TEXTS["connected"], n)) == n * (n + 1) // 2 + 1


def min_fill_sdd(text, g):
    nice = make_nice(g, min_fill_decomposition(g))
    return compile_sdd(desugar(parse_formula(text)), g, nice, good_coloring(g, nice))


class TestHamiltonianCycle:
    def test_sdd_matches_oracle(self):
        phi = desugar(parse_formula(HAMILTONIAN_CYCLE_TEXT))
        for g in (cycle_graph(4), cycle_graph(6), clique(4), path_graph(4), grid_graph(2)):
            dvars = decision_variables(phi, g)
            sdd = min_fill_sdd(HAMILTONIAN_CYCLE_TEXT, g)
            assert truth_table(sdd, dvars) == truth_table_oracle(phi, g, dvars)

    def test_counts(self):
        # a cycle is its own only Hamiltonian cycle; K4 has 3, a path none
        for n in (4, 5, 12):
            assert model_count(min_fill_sdd(HAMILTONIAN_CYCLE_TEXT, cycle_graph(n))) == 1, n
        assert model_count(min_fill_sdd(HAMILTONIAN_CYCLE_TEXT, clique(4))) == 3
        assert model_count(min_fill_sdd(HAMILTONIAN_CYCLE_TEXT, path_graph(4))) == 0

    def test_count_on_grids_doubles_every_two_columns(self):
        # the 3 x n grid for even n has 2^(n/2 - 1) Hamiltonian cycles
        phi = desugar(parse_formula(HAMILTONIAN_CYCLE_TEXT))
        for cols in (2, 4, 8, 16, 32):
            g = grid_graph(cols)
            nice = make_nice(g, grid_chain_decomposition(cols))
            obdd = compile_obdd(phi, g, nice, good_coloring(g, nice))
            assert model_count(obdd) == 2 ** (cols // 2 - 1), cols


def extrapolation_ratio(xs, sizes) -> float:
    """The last size over the line through the first two points."""
    (x1, s1), (x2, s2), (x3, s3) = zip(xs, sizes)
    return s3 / (s1 + (s2 - s1) * (x3 - x1) / (x2 - x1))


@pytest.mark.parametrize("name", ["indep", "matching", "connected", "hamiltonian"])
def test_size_linear_in_graph(name):
    # fixed formula and width: the OBDD over width-1 paths and the SDD over
    # min-fill 3 x n grids grow linearly with the graph
    text = dict(FORMULA_TEXTS, hamiltonian=HAMILTONIAN_CYCLE_TEXT)[name]
    paths = (64, 256, 1024)
    obdd = [path_obdd(text, n).size() for n in paths]
    assert 1 / 1.1 <= extrapolation_ratio(paths, obdd) <= 1.1, obdd
    grids = (16, 32, 64)
    sdd = [min_fill_sdd(text, grid_graph(cols)).size() for cols in grids]
    assert 1 / 1.1 <= extrapolation_ratio(grids, sdd) <= 1.1, sdd
