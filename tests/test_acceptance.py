"""Acceptance suite: one test per verification criterion.

Each test prints a `[PASS]` line with its measurements (visible under
`pytest -s`); a failing criterion fails its test.
"""

import itertools
import random
import time

from mso2dd import (
    Graph,
    compile_obdd,
    decision_variables,
    desugar,
    formula_size,
    good_coloring,
    make_nice,
    min_fill_decomposition,
    obdd_size,
    parse_formula,
    sdd_size,
    serialize_diagram,
)
from mso2dd.cli import _bound_obdd, _bound_sdd, _kt_variable_order
from mso2dd.decomposition import validate_decomposition
from mso2dd.graph import clique, clique_tree
from mso2dd.obdd import reduce_obdd
from mso2dd.oracle import (
    cnf_of_graph,
    cnf_to_obdd,
    enumerate_models,
    kappa_formula,
    min_cardinality_model,
    truth_table,
    truth_table_oracle,
)
from mso2dd.sdd import DECOMP, iter_sdd_nodes

from checks import (
    cnf_truth_table, is_good_coloring, is_ordered, level_counts, node_truth_tables,
    validate_nice, vtree_respected,
)
from conftest import (
    FORMULA_TEXTS,
    corpus_graphs,
    grid_chain_decomposition,
    grid_graph,
    path_decomposition,
    path_graph,
)


def report(criterion, detail):
    print(f"\n[PASS] {criterion}: {detail}")


def test_criterion_1_oracle_equivalence(corpus):
    started = time.time()
    formula_names = {i.formula_name for i in corpus}
    graph_names = {i.graph_name for i in corpus}
    assert len(FORMULA_TEXTS) >= 8 and len(formula_names) >= 8
    assert len(corpus_graphs()) >= 10
    checked_sdd = checked_obdd = 0
    total_assignments = 0
    for inst in corpus:
        assert len(inst.dvars) <= 14
        expected = truth_table_oracle(inst.phi, inst.graph, inst.dvars)
        got_sdd = truth_table(inst.sdd, inst.dvars)
        assert got_sdd == expected, (inst.formula_name, inst.graph_name)
        checked_sdd += 1
        total_assignments += 1 << len(inst.dvars)
        if inst.obdd is not None:
            got_obdd = truth_table(inst.obdd.obdd, inst.dvars)
            assert got_obdd == expected, (inst.formula_name, inst.graph_name)
            checked_obdd += 1
    elapsed = time.time() - started
    assert elapsed < 300
    report(
        "criterion 1 (oracle equivalence)",
        f"{checked_sdd} sdd + {checked_obdd} obdd instances over "
        f"{len(formula_names)} formulas x {len(graph_names)} graphs, "
        f"{total_assignments} assignments, exact match, {elapsed:.1f}s",
    )


def test_criterion_2_size_bounds(corpus):
    checked = 0
    for inst in corpus:
        n = inst.graph.n_objects
        k = inst.nice.width() + formula_size(inst.phi)
        states = inst.sdd.reachable.count
        assert sdd_size(inst.sdd.root) <= _bound_sdd(n, k, states), (
            inst.formula_name,
            inst.graph_name,
        )
        checked += 1
        if inst.obdd is not None:
            assert obdd_size(inst.obdd.obdd) <= _bound_obdd(n, k, states)
            checked += 1
    report("criterion 2 (size bounds)", f"{checked} diagrams within their bounds, exact")


def test_criterion_3_fixed_parameter_linearity():
    started = time.time()
    phi = desugar(kappa_formula())
    ratios = {}
    for n in (4, 8, 16, 32, 64):
        g = path_graph(n)
        nice = make_nice(g, path_decomposition(n))
        coloring = good_coloring(g, nice)
        comp = compile_obdd(phi, g, nice, coloring)
        ratios[n] = obdd_size(comp.obdd) / n
    spread = max(ratios.values()) / min(ratios.values())
    elapsed = time.time() - started
    assert spread <= 2, ratios
    assert elapsed < 60
    report(
        "criterion 3 (fixed-parameter linearity)",
        f"size/n over paths: {dict((n, round(r, 2)) for n, r in ratios.items())}, "
        f"spread {spread:.2f} <= 2, {elapsed:.1f}s",
    )


def test_criterion_4_lower_bound_consistency():
    started = time.time()
    k = 2
    sizes = {}
    for r in (2, 3, 4):
        g = clique_tree(k, r)
        cnf = cnf_of_graph(g)
        dd = reduce_obdd(cnf_to_obdd(cnf, _kt_variable_order(g, k, r, cnf)))
        sizes[r] = obdd_size(dd)
        assert sizes[r] >= 2 ** ((r * k) // 2), (r, sizes[r])
    growth = [sizes[r + 1] / sizes[r] for r in (2, 3)]
    assert all(ratio >= 2 for ratio in growth), sizes
    elapsed = time.time() - started
    assert elapsed < 120
    report(
        "criterion 4 (lower-bound consistency)",
        f"sizes {sizes} all >= 2^r, growth ratios "
        f"{[round(x, 2) for x in growth]} >= 2, {elapsed:.1f}s",
    )


def test_criterion_5_cover_formula_matches_cnf():
    phi = desugar(kappa_formula())
    checked = []
    for name, g in (("K3", clique(3)), ("P3", path_graph(3))):
        cnf = cnf_of_graph(g)
        assert cnf.variables == decision_variables(phi, g)
        oracle_table = truth_table_oracle(phi, g)
        assert cnf_truth_table(cnf) == oracle_table, name
        checked.append((name, oracle_table.bit_count()))

    # beyond the oracle's reach: a reduced OBDD is canonical for its order, so
    # kappa's compiled diagram and its CNF's diagram give the same file
    started = time.time()
    identical = []
    for name, g, td in (
        ("P64", path_graph(64), path_decomposition(64)),
        ("P256", path_graph(256), path_decomposition(256)),
        ("3x32", grid_graph(32), grid_chain_decomposition(32)),
    ):
        nice = make_nice(g, td)
        comp = compile_obdd(phi, g, nice, good_coloring(g, nice))
        cnf_dd = cnf_to_obdd(cnf_of_graph(g), comp.order)
        cnf_text = serialize_diagram(cnf_dd)
        assert serialize_diagram(comp) == cnf_text, name
        assert enumerate_models(cnf_dd, 5) == enumerate_models(comp, 5), name
        identical.append((name, obdd_size(comp.obdd)))
    report(
        "criterion 5 (cover formula = cover CNF)",
        f"identical model sets: {checked}; identical OBDD files (name, nodes): "
        f"{identical}, {time.time() - started:.1f}s",
    )


def _random_graph(rng):
    n = rng.randint(1, 12)
    density = rng.choice((0.15, 0.3, 0.5))
    pairs = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < density
    ]
    return Graph(n, pairs)


def test_criterion_6_structural_invariants(corpus):
    # nice-form properties on random graphs
    rng = random.Random(20260808)
    partition_formula = desugar(
        parse_formula(
            "free vertex x; free edge p; free vset X; free eset P;"
            "(((x in X) & (p in P)) & adj(x, p))"
        )
    )
    from mso2dd.states import context_of

    for _ in range(50):
        g = _random_graph(rng)
        td = min_fill_decomposition(g)
        nice = make_nice(g, td)
        nice_report = validate_nice(g, nice)
        assert nice_report.valid, nice_report.violations
        assert len(nice) <= 5 * g.n_vertices
        assert nice.width() == validate_decomposition(g, td).width
        coloring = good_coloring(g, nice)
        assert is_good_coloring(g, nice, coloring)
        for e in g.edges:
            assert coloring[e.u] != coloring[e.v]
        seen = []
        for nid in nice.forget_nodes():
            seen.extend(context_of(partition_formula, nice, nid))
        assert len(seen) == len(set(seen))
        assert set(seen) == set(decision_variables(partition_formula, g))

    # boolean partitions and v-tree respect on every compiled structured diagram
    decompositions = 0
    for inst in corpus:
        assert vtree_respected(inst.sdd.root, inst.sdd.vtree)
        tables = node_truth_tables(inst.sdd, inst.dvars)
        ones = (1 << (1 << len(inst.dvars))) - 1
        for node in iter_sdd_nodes(inst.sdd.root):
            if node.kind != DECOMP:
                continue
            union = 0
            for p, _ in node.pairs:
                bits = tables[p.uid]
                assert union & bits == 0, "primes overlap"
                union |= bits
            assert union == ones, "primes do not cover"
            decompositions += 1

    # orderedness and reduction idempotence on every compiled ordered diagram
    ordered = 0
    for inst in corpus:
        if inst.obdd is None:
            continue
        dd = inst.obdd.obdd
        assert is_ordered(dd)
        once = reduce_obdd(dd)
        # compiled output is already reduced
        assert serialize_diagram(once) == serialize_diagram(dd)
        assert serialize_diagram(reduce_obdd(once)) == serialize_diagram(once)
        k = inst.nice.width() + formula_size(inst.phi)
        width_cap = inst.sdd.reachable.count * 2 ** (
            formula_size(inst.phi) * (inst.nice.width() + 1)
        )
        assert all(c <= width_cap for c in level_counts(dd).values())
        ordered += 1

    report(
        "criterion 6 (structural invariants)",
        f"50 random nice decompositions, {decompositions} boolean partitions, "
        f"{ordered} ordered diagrams checked",
    )


def test_criterion_7_query_layer(corpus):
    phi = desugar(kappa_formula())
    results = {}
    for name, g, expected in (("K3", clique(3), 2), ("P3", path_graph(3), 1)):
        # independent exhaustive subset oracle
        brute = min(
            r
            for r in range(g.n_vertices + 1)
            for subset in itertools.combinations(g.vertices(), r)
            if all(e.u in subset or e.v in subset for e in g.edges)
        )
        assert brute == expected
        inst = next(
            i for i in corpus if i.formula_name == "kappa" and i.graph_name == name
        )
        xv = next(v for v in phi.free_vars if v.name == "X_V")
        xe = next(v for v in phi.free_vars if v.name == "X_E")
        targets = [d for d in inst.sdd.legend if d.var == xv]
        forced = {d: 0 for d in inst.sdd.legend if d.var == xe}
        minimum, alpha = min_cardinality_model(inst.sdd, targets, forced)
        assert minimum == expected
        cover = set(alpha[xv])
        assert alpha[xe] == frozenset()
        assert all(e.u in cover or e.v in cover for e in g.edges)
        results[name] = minimum
    report(
        "criterion 7 (query layer)",
        f"minimum vertex covers {results} match exhaustive enumeration",
    )
