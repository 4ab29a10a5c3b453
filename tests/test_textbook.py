"""Textbook MSO2 properties outside the corpus: 3-colourability and
independent set, at path scale and on graphs with known answers."""

from mso2dd import (
    clique,
    compile_obdd,
    compile_sdd,
    desugar,
    good_coloring,
    make_nice,
    min_fill_decomposition,
    parse_formula,
)
from mso2dd.oracle import is_satisfiable, model_count

from conftest import (
    INDEPENDENT_SET_TEXT, THREE_COLORING_TEXT, path_decomposition, path_graph,
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
