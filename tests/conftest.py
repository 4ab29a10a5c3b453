"""Shared corpus and helpers for the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from mso2dd import (
    Graph,
    compile_obdd,
    compile_sdd,
    desugar,
    good_coloring,
    is_path_decomposition,
    make_nice,
    min_fill_decomposition,
    parse_formula,
)
from mso2dd.assignment import decision_variables
from mso2dd.graph import clique, clique_tree
from mso2dd.oracle import KAPPA_TEXT


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(1, i + 2) for i in range(leaves)])


def double_star_graph() -> Graph:
    """Two stars with three leaves each, their centres 1 and 5 joined: the
    smallest tree whose min-fill nice form has a join off its spine."""
    return Graph(8, [(1, 2), (1, 3), (1, 4), (1, 5), (5, 6), (5, 7), (5, 8)])


def bowtie_graph() -> Graph:
    return Graph(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])


def kappa_count_path(n: int) -> int:
    """Models of kappa on the n-vertex path, by a transfer matrix over the
    vertices: an edge with an endpoint in X_V may be in X_E or not, any other
    edge must be in X_E."""
    ways = [1, 1]  # assignments so far, by whether the last vertex is in X_V
    for _ in range(n - 1):
        ways = [ways[0] + 2 * ways[1], 2 * (ways[0] + ways[1])]
    return sum(ways)


def grid_graph(cols: int) -> Graph:
    """The 3 x cols grid, vertex ids column by column."""
    vid = lambda r, c: 3 * c + r + 1  # noqa: E731
    return Graph(
        3 * cols,
        [(vid(r, c), vid(r + 1, c)) for c in range(cols) for r in range(2)]
        + [(vid(r, c), vid(r, c + 1)) for c in range(cols - 1) for r in range(3)],
    )


def path_decomposition(n: int):
    """Width-1 decomposition of the n-vertex path: bags {i, i+1} in a chain."""
    from mso2dd import TreeDecomposition

    bags = {i: frozenset({i, i + 1}) for i in range(1, n)}
    return TreeDecomposition(bags, [(i, i + 1) for i in range(1, n - 1)])


def grid_chain_decomposition(cols: int):
    """Width-3 decomposition of `grid_graph(cols)`: bags {i, ..., i+3} in a chain."""
    from mso2dd import TreeDecomposition

    n = 3 * cols
    bags = {i: frozenset(range(i, i + 4)) for i in range(1, n - 2)}
    return TreeDecomposition(bags, [(i, i + 1) for i in range(1, n - 3)])


def nested_chain(depth: int) -> str:
    """`exists vset Y0. ~((x in Y0) & exists vset Y1. ~(... (x = x)))`."""
    body = "(x = x)"
    for i in reversed(range(depth)):
        body = f"exists vset Y{i}. ~((x in Y{i}) & {body})"
    return "free vertex x; " + body


# Textbook MSO2 properties (Courcelle & Engelfriet, 2012). `nbr(u, v)` also
# holds for u = v on a vertex with an edge, so independent set spells adjacency
# with an explicit `u != v`.
INDEPENDENT_SET_TEXT = (
    "free vset S; forall vertex u. forall vertex v. "
    "((((u != v) & nbr(u, v)) & (u in S)) -> ~(v in S))"
)

FORMULA_TEXTS = {
    "eq": "free vertex x; free vertex y; (x = y)",
    "mem": "free vertex x; free vset X; (x in X)",
    "adj": "free vertex x; free edge p; adj(x, p)",
    "nadj": "free vertex x; free edge p; ~adj(x, p)",
    "edge3": "free edge e; free vertex u; free vertex v; edge(e, u, v)",
    "taut": "exists vset X. ~ exists vertex v. (~(v in X) & (v in X))",
    "kappa": KAPPA_TEXT,
    "dom": "free vset S; forall vertex u. exists vertex v. (((u = v) | nbr(u, v)) & (v in S))",
    # the only corpus formula binding an edge set
    "cover": "free vset S; exists eset M. (forall vertex v. ((v in S) -> exists edge e. "
    "(adj(v, e) & (e in M))) & forall edge f. ((f in M) -> forall vertex u. "
    "(adj(u, f) -> (u in S))))",
    "indep": INDEPENDENT_SET_TEXT,
    # perfect matching: "exactly one" is spelled with a universal over edges
    "matching": "free eset M; forall vertex v. exists edge e. ((adj(v, e) & (e in M)) & "
    "forall edge f. ((adj(v, f) & (f in M)) -> (f = e)))",
    # connectivity of a vertex set: every split of S into a part in Y and a
    # part outside Y has an edge across
    "connected": "free vset S; forall vset Y. ((exists vertex a. ((a in S) & (a in Y)) & "
    "exists vertex b. ((b in S) & (b notin Y))) -> exists vertex u. exists vertex w. "
    "((((u in S) & (u in Y)) & ((w in S) & (w notin Y))) & ((u != w) & nbr(u, w))))",
}


# 3-colourability stays outside the corpus: its exhaustive oracle check is slow
# on the larger corpus graphs. Like independent set, it spells adjacency with
# an explicit `u != v`.
THREE_COLORING_TEXT = (
    "exists vset R. exists vset G. exists vset B. ("
    "forall vertex v. (((v in R) | (v in G)) | (v in B)) & "
    "forall vertex u. forall vertex v. (((u != v) & nbr(u, v)) -> "
    "~((((u in R) & (v in R)) | ((u in G) & (v in G))) | ((u in B) & (v in B)))))"
)

# Hamiltonian cycle stays outside the corpus too: bench/workloads.py keeps a
# copy of the corpus, which would no longer match. It reads: an edge set H in
# which every vertex has exactly two edges, and every split of the vertices
# into Y and the rest has an edge of H across.
HAMILTONIAN_CYCLE_TEXT = (
    "free eset H; (forall vertex v. exists edge e. exists edge f. ((((e != f) & adj(v, e)) & "
    "adj(v, f)) & (((e in H) & (f in H)) & forall edge d. ((adj(v, d) & (d in H)) -> "
    "((d = e) | (d = f))))) & forall vset Y. ((exists vertex a. (a in Y) & exists vertex b. "
    "(b notin Y)) -> exists edge c. exists vertex u. exists vertex w. ((((c in H) & adj(u, c)) "
    "& adj(w, c)) & ((u in Y) & (w notin Y)))))"
)


def corpus_graphs() -> dict[str, Graph]:
    return {
        "K1": clique(1),
        "P2": path_graph(2),
        "P3": path_graph(3),
        "P4": path_graph(4),
        "K3": clique(3),
        "C4": cycle_graph(4),
        "S3": star_graph(3),
        "S4": star_graph(4),
        "bowtie": bowtie_graph(),
        "KT22": clique_tree(2, 2),
    }


@dataclass
class Instance:
    formula_name: str
    graph_name: str
    phi: object  # desugared formula
    graph: Graph
    nice: object
    coloring: dict
    dvars: tuple
    sdd: object
    obdd: object  # None when the decomposition has join nodes


MAX_UNIVERSE = 14


@pytest.fixture(scope="session")
def corpus() -> list[Instance]:
    """Every corpus formula crossed with every corpus graph, restricted to
    instances whose decision universe fits exhaustive checking."""
    instances = []
    formulas = {name: desugar(parse_formula(text)) for name, text in FORMULA_TEXTS.items()}
    for gname, g in corpus_graphs().items():
        nice = make_nice(g, min_fill_decomposition(g))
        coloring = good_coloring(g, nice)
        on_path = is_path_decomposition(nice)
        for fname, phi in formulas.items():
            dvars = decision_variables(phi, g)
            if len(dvars) > MAX_UNIVERSE:
                continue
            sdd = compile_sdd(phi, g, nice, coloring)
            obdd = compile_obdd(phi, g, nice, coloring) if on_path else None
            instances.append(
                Instance(fname, gname, phi, g, nice, coloring, dvars, sdd, obdd)
            )
    return instances


def all_deltas(dvars):
    """Every total assignment, in truth-table index order (variable i is bit i)."""
    n = len(dvars)
    for idx in range(1 << n):
        yield idx, {d: (idx >> i) & 1 for i, d in enumerate(dvars)}
