import gc
import weakref

import pytest

from mso2dd import (
    compile_obdd,
    compile_sdd,
    decision_variables,
    desugar,
    good_coloring,
    load_diagram,
    make_nice,
    min_fill_decomposition,
    serialize_diagram,
)
from mso2dd import obdd, oracle, sdd, serialize
from mso2dd.cli import main
from mso2dd.errors import DiagramError, Mso2ddError
from mso2dd.graph import children_first, clique
from mso2dd.obdd import reduce_obdd
from mso2dd.oracle import (
    cnf_of_graph,
    cnf_to_obdd,
    enumerate_models,
    is_satisfiable,
    kappa_formula,
    min_cardinality_model,
    model_count,
    truth_table,
)
from mso2dd.serialize import diagram_to_dot

from checks import cnf_truth_table, line_mutants
from conftest import path_decomposition, path_graph, star_graph


OLD_KAPPA_P2_SDD = """\
mso2dd-diagram 1
kind sdd
var 0 vmem X_V 1
var 1 vmem X_V 2
var 2 emem X_E 1
var 3 dummy leaf1 0
var 4 dummy forget2 0
var 5 dummy forget3 0
vtree 0 leaf 3
vtree 1 leaf 0
vtree 2 leaf 2
vtree 3 inner 1 2
vtree 4 leaf 4
vtree 5 inner 3 4
vtree 6 inner 0 5
vtree 7 leaf 1
vtree 8 leaf 5
vtree 9 inner 7 8
vtree 10 inner 6 9
vtreeroot 10
node 0 true
node 1 lit 0 1
node 2 false
node 3 lit 0 0
node 4 lit 2 0
node 5 decomp 3 1:2 3:4
node 6 lit 2 1
node 7 decomp 3 1:2 3:6
node 8 decomp 3 1:4 3:2
node 9 decomp 3 1:6 3:2
node 10 decomp 5 5:2 7:0 8:0 9:0
node 11 decomp 6 0:10
node 12 lit 1 1
node 13 lit 1 0
node 14 decomp 9 12:0 13:0
node 15 decomp 5 5:0 7:2 8:2 9:2
node 16 decomp 6 0:15
node 17 decomp 9 12:0 13:2
node 18 decomp 10 11:14 16:17
root 18
"""


def compile_both(g):
    phi = desugar(kappa_formula())
    nice = make_nice(g, min_fill_decomposition(g))
    coloring = good_coloring(g, nice)
    sdd = compile_sdd(phi, g, nice, coloring)
    obdd = compile_obdd(phi, g, nice, coloring)
    return phi, sdd, obdd


class TestRoundtrip:
    def test_sdd(self):
        g = clique(3)
        phi, sdd, _ = compile_both(g)
        dvars = decision_variables(phi, g)
        text = serialize_diagram(sdd)
        loaded = load_diagram(text)
        assert loaded.kind == "sdd"
        assert loaded.legend == dvars
        assert truth_table(loaded, dvars) == truth_table(sdd, dvars)
        assert model_count(loaded) == 45
        # serialization of a fixed object is reproducible
        assert serialize_diagram(sdd) == text
        reloaded = load_diagram(serialize_diagram(loaded))
        assert truth_table(reloaded, dvars) == truth_table(sdd, dvars)

    def test_obdd(self):
        g = path_graph(3)
        phi, _, obdd = compile_both(g)
        dvars = decision_variables(phi, g)
        text = serialize_diagram(obdd)
        loaded = load_diagram(text)
        assert loaded.kind == "obdd"
        assert truth_table(loaded, dvars) == truth_table(obdd, dvars)
        assert model_count(loaded) == 25
        assert serialize_diagram(obdd) == text
        reloaded = load_diagram(serialize_diagram(loaded))
        assert truth_table(reloaded, dvars) == truth_table(obdd, dvars)

    def test_lines_load_like_the_text(self, tmp_path):
        # an open file or any other iterable of lines gives the text's diagram
        _, sdd, obdd = compile_both(path_graph(4))
        for comp in (sdd, obdd):
            text = serialize_diagram(comp)
            path = tmp_path / f"p4.{comp.kind}"
            path.write_text(text)
            with open(path) as f:
                from_file = load_diagram(f)
            for loaded in (from_file, load_diagram(text.splitlines())):
                assert serialize_diagram(loaded) == text
                assert model_count(loaded) == model_count(comp) == 89

    def test_obdd_keeps_legend_order(self):
        g = path_graph(4)
        _, _, obdd = compile_both(g)
        assert obdd.order != obdd.legend
        loaded = load_diagram(serialize_diagram(obdd))
        assert loaded.legend == obdd.legend
        assert loaded.order == obdd.order
        assert enumerate_models(loaded, 3) == enumerate_models(obdd, 3)

    def test_writing_a_loaded_file_gives_its_text(self, corpus):
        checked = 0
        for inst in corpus:
            for comp in (inst.sdd, inst.obdd):
                if comp is not None:
                    text = serialize_diagram(comp)
                    assert serialize_diagram(load_diagram(text)) == text, (
                        inst.formula_name, inst.graph_name, comp.kind,
                    )
                    checked += 1
        assert checked > 100

    def test_file_with_forget_pads_still_loads(self):
        # kappa on P2 as written when every forget node had a dummy pad leaf
        # and its subs were untrimmed: 19 node lines, where trimming gives 10
        text = OLD_KAPPA_P2_SDD
        loaded = load_diagram(text)
        assert model_count(loaded) == 7
        x_v, x_e = (var.var for var in loaded.legend[::2])
        assert enumerate_models(loaded, 3) == [
            {x_v: frozenset(), x_e: frozenset({1})},
            {x_v: frozenset({2}), x_e: frozenset()},
            {x_v: frozenset({2}), x_e: frozenset({1})},
        ]
        assert serialize_diagram(loaded) == text

    def test_pair_order_kept_apart(self):
        # a decomposition is interned on its pairs in the order given, so the
        # loader keeps both nodes and writes the file back as it was
        loaded = load_diagram(PAIR_ORDER_TEXT)  # defined with the malformed texts below
        (_, a), (_, b) = loaded.pairs[loaded.positions[-1]]
        assert a != b and loaded.pairs[a] == loaded.pairs[b][::-1]
        assert serialize_diagram(loaded) == PAIR_ORDER_TEXT
        assert model_count(loaded) == 2

    def test_equal_obdds_interned_in_different_orders(self):
        # kappa compiled along the path and its cover CNF under the same order:
        # one reduced diagram, whose nodes the two spaces intern in other orders
        g = path_graph(5)
        nice = make_nice(g, path_decomposition(5))
        comp = compile_obdd(desugar(kappa_formula()), g, nice, good_coloring(g, nice))
        cnf = cnf_of_graph(g)
        a, b = comp, cnf_to_obdd(cnf, comp.order)
        assert a.positions != b.positions
        texts = [serialize_diagram(dd) for dd in (a, b)]
        assert texts[0] == texts[1]
        assert model_count(load_diagram(texts[0])) == bin(cnf_truth_table(cnf)).count("1")

    def test_queries_on_loaded_sdd(self):
        g = clique(3)
        phi, sdd, _ = compile_both(g)
        loaded = load_diagram(serialize_diagram(sdd))
        targets = [d for d in loaded.legend if d.var.name == "X_V"]
        forced = {d: 0 for d in loaded.legend if d.var.name == "X_E"}
        minimum, alpha = min_cardinality_model(loaded, targets, forced)
        assert minimum == 2
        xv = next(v for v in alpha if v.name == "X_V")
        assert len(alpha[xv]) == 2


OBDD_TEXT = """mso2dd-diagram 1
kind obdd
var 0 vmem X 1
var 1 vmem X 2
order 0 1
node 0 leaf 0
node 1 leaf 1
node 2 dec {child} 0 1
node 3 dec {root} 2 1
root 3
"""

SDD_TEXT = """mso2dd-diagram 1
kind sdd
var 0 vmem X 1
var 1 dummy root 0
vtree 0 leaf 0
vtree 1 leaf 1
vtree 2 inner 0 1
vtreeroot 2
node 0 false
node 1 true
node 2 lit 0 1
node 3 lit 0 0
node 4 decomp {vtree} 2:1 3:0
root 4
"""

# the prime of node 7 lies under the right child of v-tree node 4, not the left
PAIR_OUTSIDE_VTREE_TEXT = """mso2dd-diagram 1
kind sdd
var 0 vmem X 1
var 1 vmem X 2
var 2 vmem X 3
vtree 0 leaf 0
vtree 1 leaf 1
vtree 2 leaf 2
vtree 3 inner 0 1
vtree 4 inner 2 3
vtreeroot 4
node 0 false
node 1 true
node 2 lit 0 1
node 3 lit 0 0
node 5 lit 1 1
node 6 decomp 3 2:5 3:0
node 7 decomp 4 6:1
root 7
"""

MALFORMED = {
    "level-past-order": OBDD_TEXT.format(child=2, root=0),
    "negative-level": OBDD_TEXT.format(child=1, root=-1),
    "child-on-parent-level": OBDD_TEXT.format(child=1, root=1),
    "decomp-on-vtree-leaf": SDD_TEXT.format(vtree=0),
    "pair-outside-vtree": PAIR_OUTSIDE_VTREE_TEXT,
    "vtree-node-with-two-parents": SDD_TEXT.format(vtree=2).replace(
        "vtree 2 inner 0 1", "vtree 2 inner 0 0"
    ),
    "vtreeroot-below-root-node": SDD_TEXT.format(vtree=2).replace("vtreeroot 2", "vtreeroot 0"),
    "legend-leaf-outside-vtreeroot": SDD_TEXT.format(vtree=2).replace(
        "vtreeroot 2", "vtreeroot 1"
    ).replace("root 4", "root 1"),
    "var-missing-from-order": OBDD_TEXT.format(child=1, root=0).replace(
        "order 0 1", "var 2 vmem X 3\norder 0 1"
    ),
    "leaf-label-outside-0-1": OBDD_TEXT.format(child=1, root=0).replace(
        "node 1 leaf 1", "node 1 leaf 7"
    ),
    "literal-polarity-outside-0-1": SDD_TEXT.format(vtree=2).replace(
        "node 3 lit 0 0", "node 3 lit 0 7"
    ),
    "repeated-node-id": OBDD_TEXT.format(child=1, root=0).replace(
        "node 2 dec", "node 1 leaf 0\nnode 2 dec"
    ),
    "repeated-var-id": OBDD_TEXT.format(child=1, root=0).replace(
        "order 0 1", "var 1 vmem X 3\norder 0 1"
    ),
    "repeated-vtree-id": SDD_TEXT.format(vtree=2).replace(
        "var 1 dummy root 0", "var 1 dummy root 0\nvar 2 dummy spare 0"
    ).replace("vtree 2 inner", "vtree 2 leaf 2\nvtree 2 inner"),
    # a second single line must not replace the first
    "repeated-root": OBDD_TEXT.format(child=1, root=0) + "root 0\n",
    "repeated-order": OBDD_TEXT.format(child=1, root=0).replace(
        "order 0 1", "order 0 1\norder 1 0"
    ),
    "missing-order": OBDD_TEXT.format(child=1, root=0).replace("order 0 1\n", ""),
    "order-in-sdd": SDD_TEXT.format(vtree=2).replace("vtreeroot 2", "vtreeroot 2\norder 0 1"),
    "repeated-vtreeroot": SDD_TEXT.format(vtree=2).replace(
        "vtreeroot 2", "vtreeroot 0\nvtreeroot 2"
    ),
    "dummy-var-in-obdd": OBDD_TEXT.format(child=1, root=0).replace(
        "var 1 vmem X 2", "var 1 dummy pad 0"
    ),
    # a line of fixed length takes no token after its last field
    "trailing-token-on-kind": OBDD_TEXT.format(child=1, root=0).replace(
        "kind obdd", "kind obdd 5"
    ),
    "trailing-token-on-root": OBDD_TEXT.format(child=1, root=0).replace("root 3", "root 3 5"),
    "trailing-token-on-var": OBDD_TEXT.format(child=1, root=0).replace(
        "var 1 vmem X 2", "var 1 vmem X 2 5"
    ),
    "trailing-token-on-vtree-leaf": SDD_TEXT.format(vtree=2).replace(
        "vtree 1 leaf 1", "vtree 1 leaf 1 5"
    ),
    "trailing-token-on-node-dec": OBDD_TEXT.format(child=1, root=0).replace(
        "node 3 dec 0 2 1", "node 3 dec 0 2 1 5"
    ),
}

# two decompositions at v-tree node 2 that list the same pairs in different
# orders, both reachable from the root; the file is in children-first order
PAIR_ORDER_TEXT = """mso2dd-diagram 1
kind sdd
var 0 vmem X 1
var 1 vmem X 2
var 2 vmem X 3
vtree 0 leaf 0
vtree 1 leaf 1
vtree 2 inner 0 1
vtree 3 leaf 2
vtree 4 inner 3 2
vtreeroot 4
node 0 lit 2 1
node 1 lit 0 1
node 2 lit 1 1
node 3 lit 0 0
node 4 false
node 5 decomp 2 1:2 3:4
node 6 lit 2 0
node 7 decomp 2 3:4 1:2
node 8 decomp 4 0:5 6:7
root 8
"""


def _node_lines(text: str):
    """The file's node lines as {id: (line, child ids)}, in file order, and
    its other lines before and after them."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("node "))
    last = max(i for i, line in enumerate(lines) if line.startswith("node "))
    nodes = {}
    for line in lines[first:last + 1]:
        parts = line.split()
        if parts[2] == "decomp":
            children = [int(c) for chunk in parts[4:] for c in chunk.split(":")]
        else:
            children = [int(c) for c in parts[4:6]] if parts[2] == "dec" else []
        nodes[int(parts[1])] = (line, children)
    return lines[:first], nodes, lines[last + 1:]


def _text(head, node_lines, tail) -> str:
    return "\n".join(head + node_lines + tail) + "\n"


def height_order(text: str) -> str:
    """The node lines sorted by height, the greatest id first among equals:
    children first, but not the walk's order."""
    head, nodes, tail = _node_lines(text)
    height = {}
    for nid, (_, children) in nodes.items():
        height[nid] = 1 + max((height[c] for c in children), default=0)
    order = sorted(nodes, key=lambda nid: (height[nid], -nid))
    return _text(head, [nodes[nid][0] for nid in order], tail)


def with_unreachable_node(text: str) -> str:
    """A fresh id on a node no other reads: the root's children in reverse
    order, placed before the root line."""
    head, nodes, tail = _node_lines(text)
    parts = list(nodes.values())[-1][0].split()
    if parts[2] == "decomp":
        parts[4:] = parts[:3:-1]
    else:
        parts[4:6] = parts[5], parts[4]
    parts[1] = str(max(nodes) + 1)
    lines = [line for line, _ in nodes.values()]
    return _text(head, lines[:-1] + [" ".join(parts)] + lines[-1:], tail)


def with_repeated_node(text: str) -> str:
    """The first node with children written twice in a row, the copy under a
    fresh id that every later reader names instead."""
    head, nodes, tail = _node_lines(text)
    nid = next(n for n, (_, children) in nodes.items() if children)
    copy = max(nodes) + 1
    lines = []
    for n, (line, _) in nodes.items():
        if n > nid and lines and int(lines[-1].split()[1]) >= nid:
            parts = line.split()
            if parts[2] == "decomp":
                parts[4:] = [
                    ":".join(str(copy if int(c) == nid else c) for c in chunk.split(":"))
                    for chunk in parts[4:]
                ]
            elif parts[2] == "dec":
                parts[4:6] = [str(copy if int(c) == nid else c) for c in parts[4:6]]
            line = " ".join(parts)
        lines.append(line)
        if n == nid:
            lines.append(line.replace(f"node {nid} ", f"node {copy} ", 1))
    return _text(head, lines, tail)


def answers(d):
    targets = d.legend[:2]
    return (
        is_satisfiable(d), model_count(d), enumerate_models(d, 5),
        min_cardinality_model(d, targets),
    )


class TestFileOrders:
    """A loaded diagram's positions are its file's order, less the nodes the
    root does not reach and the repeats of a node already listed."""

    @pytest.mark.parametrize("edit", [height_order, with_unreachable_node, with_repeated_node])
    @pytest.mark.parametrize("kind", ["sdd", "obdd"])
    def test_other_orders_answer_alike_and_reach_a_fixed_point(self, edit, kind):
        _, compiled_sdd, compiled_obdd = compile_both(path_graph(4))
        text = serialize_diagram(compiled_sdd if kind == "sdd" else compiled_obdd)
        edited = edit(text)
        assert edited != text
        canonical, d = load_diagram(text), load_diagram(edited)
        walk = children_first(d._root, d.children)
        assert len(set(d.positions)) == len(d.positions) == len(walk)
        assert set(d.positions) == set(walk) and d.positions[-1] == d._root
        assert answers(d) == answers(canonical)
        written = serialize_diagram(d)
        assert serialize_diagram(load_diagram(written)) == written
        if edit is not height_order:  # the program's own order comes back
            assert written == text

    @pytest.mark.parametrize("kind", ["sdd", "obdd"])
    def test_positions_follow_the_file(self, kind):
        # every node is reached and listed once, so writing only renumbers
        _, compiled_sdd, compiled_obdd = compile_both(path_graph(4))
        text = height_order(serialize_diagram(compiled_sdd if kind == "sdd" else compiled_obdd))
        head, nodes, _ = _node_lines(text)
        new = {str(old): str(pos) for pos, old in enumerate(nodes)}

        def renumbered(line):
            parts = line.split()
            parts[1] = new[parts[1]]
            if parts[2] == "decomp":
                parts[4:] = [":".join(new[c] for c in chunk.split(":")) for chunk in parts[4:]]
            elif parts[2] == "dec":
                parts[4:6] = new[parts[4]], new[parts[5]]
            return " ".join(parts)

        lines = [renumbered(line) for line, _ in nodes.values()]
        expected = _text(head, lines, [f"root {len(nodes) - 1}"])
        assert serialize_diagram(load_diagram(text)) == expected


class TestNodeStores:
    def test_no_store_outlives_its_diagram(self, monkeypatch):
        # a unique table serves while nodes are made: every diagram keeps its
        # node lists, its v-tree or order and its legend, and drops the table
        alive = []

        def recording(store):
            class Recording(store):
                def __init__(self, *args):
                    super().__init__(*args)
                    alive.append(weakref.ref(self))

            return Recording

        builder, space = recording(sdd.SddBuilder), recording(obdd.ObddSpace)
        for module in (sdd, serialize):
            monkeypatch.setattr(module, "SddBuilder", builder)
        for module in (obdd, serialize, oracle):
            monkeypatch.setattr(module, "ObddSpace", space)
        g = path_graph(4)
        nice = make_nice(g, path_decomposition(4))
        phi, coloring = desugar(kappa_formula()), good_coloring(g, nice)
        compiled = [compile_sdd(phi, g, nice, coloring), compile_obdd(phi, g, nice, coloring)]
        diagrams = compiled + [load_diagram(serialize_diagram(d)) for d in compiled] + [
            reduce_obdd(compiled[1]),
            cnf_to_obdd(cnf_of_graph(g), compiled[1].order),
        ]
        gc.collect()
        assert sum(ref() is not None for ref in alive) == 0
        assert len(alive) == len(diagrams) == 6  # each entry point made one store
        assert [model_count(d) for d in diagrams] == [89] * 6


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(DiagramError):
            load_diagram("not a diagram\n")

    def test_unknown_kind(self):
        with pytest.raises(DiagramError):
            load_diagram("mso2dd-diagram 1\nkind zdd\n")

    def test_missing_root(self):
        with pytest.raises(DiagramError):
            load_diagram("mso2dd-diagram 1\nkind obdd\norder\n")

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_rejected(self, name, tmp_path, capsys):
        with pytest.raises(DiagramError):
            load_diagram(MALFORMED[name])
        path = tmp_path / "bad.dd"
        path.write_text(MALFORMED[name])
        for query in ("count", "min-card"):
            assert main(["query", "--diagram", str(path), "--query", query]) == 2
        assert "error:" in capsys.readouterr().err

    def test_well_formed_variants_load(self):
        # the OBDD text lists its var lines in level order under the identity
        # permutation, as files did before var lines followed the legend
        obdd = load_diagram(OBDD_TEXT.format(child=1, root=0))
        assert obdd.legend == obdd.order
        assert model_count(obdd) == 3
        assert model_count(load_diagram(SDD_TEXT.format(vtree=2))) == 1

    def test_dangling_reference(self):
        g = path_graph(3)
        _, _, obdd = compile_both(g)
        text = serialize_diagram(obdd)
        broken = text.replace("root ", "root 99")
        with pytest.raises(DiagramError):
            load_diagram(broken)


# every text one token away from a compiled file, the token replaced by one of
# these: ids, labels, node forms and variable kinds in and out of place
SWEEP_TOKENS = "0 1 -1 7 x 0:0 leaf inner dec decomp lit true false dummy vmem veq eeq".split()


def one_token_mutants(text: str):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tokens = line.split()
        for j, token in enumerate(tokens):
            for new in SWEEP_TOKENS:
                if new != token:
                    mutated = " ".join(tokens[:j] + [new] + tokens[j + 1:])
                    yield "\n".join(lines[:i] + [mutated] + lines[i + 1:]) + "\n"


def swept_texts():
    """The files the sweeps mutate: kappa on P3, whose join-free nice form
    gives a layered SDD and an OBDD, and kappa's SDD on the star S4, whose
    nice form has a join, so the stack fold builds it with dummy leaves and a
    join pad."""
    phi, sdd, obdd = compile_both(path_graph(3))
    g = star_graph(4)
    nice = make_nice(g, min_fill_decomposition(g))
    fold = compile_sdd(phi, g, nice, good_coloring(g, nice))
    assert not any(v.kind == "dummy" for v in sdd.vtree.all_variables())
    assert {v.obj[:4] for v in fold.vtree.all_variables() if v.kind == "dummy"} >= {"leaf", "join"}
    return [serialize_diagram(comp) for comp in (sdd, obdd, fold)]


class TestMutationSweep:
    @staticmethod
    def assert_each_answers_or_is_rejected(texts):
        answered, crashes = 0, []
        for text in texts:
            try:
                d = load_diagram(text)
                model_count(d)
                is_satisfiable(d)
                enumerate_models(d, 3)
                min_cardinality_model(d, d.legend[:2])
                diagram_to_dot(d)
                answered += 1
            except Mso2ddError:
                pass
            except Exception as exc:  # anything but Mso2ddError is a crash
                crashes.append((repr(exc), text))
        assert not crashes, crashes[:3]
        assert answered > 0

    def test_every_one_token_mutant_loads_and_answers_or_is_rejected(self):
        texts = [t for text in swept_texts() for t in one_token_mutants(text)]
        assert len(texts) == 9652
        self.assert_each_answers_or_is_rejected(texts)

    def test_every_line_mutant_loads_and_answers_or_is_rejected(self):
        # every line drop, line duplicate and adjacent swap, the edits the
        # command-line sweep makes to text inputs
        texts = [t for text in swept_texts() for t in line_mutants(text)]
        assert len(texts) == 363
        self.assert_each_answers_or_is_rejected(texts)

    def test_a_token_appended_to_any_line_is_rejected(self):
        texts = []
        for text in swept_texts():
            lines = text.splitlines()
            texts.extend(
                "\n".join(lines[:i] + [line + " 5"] + lines[i + 1:]) + "\n"
                for i, line in enumerate(lines)
            )
        assert len(texts) == 122
        for text in texts:
            with pytest.raises(Mso2ddError):
                load_diagram(text)


class TestDot:
    def test_loaded_file_gives_the_same_dot(self, corpus):
        # DOT names nodes by file id, so the interning uids do not show
        checked = 0
        for inst in corpus:
            for comp in (inst.sdd, inst.obdd):
                if comp is not None:
                    loaded = load_diagram(serialize_diagram(comp))
                    assert diagram_to_dot(loaded) == diagram_to_dot(comp), (
                        inst.formula_name, inst.graph_name, comp.kind,
                    )
                    checked += 1
        assert checked > 100

    def test_obdd_dot_edge_styles(self):
        g = path_graph(3)
        _, _, obdd = compile_both(g)
        dot = diagram_to_dot(obdd)
        assert dot.startswith("digraph obdd")
        assert "style=dotted" in dot  # zero branches
        assert '[shape=box label="1"]' in dot

    def test_sdd_dot_paired_boxes(self):
        g = clique(3)
        _, sdd, _ = compile_both(g)
        dot = diagram_to_dot(sdd)
        assert dot.startswith("digraph sdd")
        assert "shape=record" in dot
        assert "shape=circle" in dot
