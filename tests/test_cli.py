import importlib.util
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mso2dd
from mso2dd import Graph, load_diagram
from mso2dd.cli import main
from mso2dd.graph import clique_tree
from mso2dd.mso import MAX_NESTING
from mso2dd.oracle import (
    KAPPA_TEXT, cnf_of_graph, cnf_to_obdd, kappa_formula, model_count, oracle_eval,
)
from mso2dd.sdd import DECOMP, iter_sdd_nodes

from checks import line_mutants, serialize_graph
from conftest import FORMULA_TEXTS, path_decomposition, path_graph, star_graph

K3_GR = "p gr 3 3\n1 2\n2 3\n1 3\n"
P4_GR = "p gr 4 3\n1 2\n2 3\n3 4\n"
P4_TD = "s td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\n1 2\n2 3\n"
EQ_MSO = "free vertex x; free vertex y; (x = y)\n"
C4_GR = "p gr 4 4\n1 2\n2 3\n3 4\n1 4\n"
P5_GR = "p gr 5 4\n1 2\n2 3\n3 4\n4 5\n"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "k3.gr").write_text(K3_GR)
    (tmp_path / "p4.gr").write_text(P4_GR)
    (tmp_path / "p4.td").write_text(P4_TD)
    (tmp_path / "kappa.mso").write_text(KAPPA_TEXT + "\n")
    (tmp_path / "eq.mso").write_text(EQ_MSO)
    (tmp_path / "c4.gr").write_text(C4_GR)
    (tmp_path / "p5.gr").write_text(P5_GR)
    (tmp_path / "dom.mso").write_text(FORMULA_TEXTS["dom"] + "\n")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def python_m(args):
    """`python -m mso2dd` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "mso2dd", *map(str, args)],
        env=env, capture_output=True, text=True,
    )


def test_python_m_help():
    proc = python_m(["--help"])
    assert proc.returncode == 0
    assert "compile" in proc.stdout


def test_import_generates_no_code():
    # records are NamedTuples and slotted classes: importing the package and
    # its command line pulls in neither `dataclasses` nor the `inspect` it uses
    script = (
        "import sys; before = set(sys.modules); import mso2dd, mso2dd.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_surface():
    # what the command line, the callers of the compilers and the benchmark
    # read; everything else is imported from its own module
    assert sorted(mso2dd.__all__) == [
        "DecisionVariable", "Formula", "Graph", "Mso2ddError", "NiceTreeDecomposition", "Sort",
        "TreeDecomposition", "Var", "compile_obdd", "compile_sdd", "decision_variables",
        "desugar", "enumerate_models", "formula_size", "good_coloring", "is_path_decomposition",
        "load_diagram", "make_nice", "min_cardinality_model", "min_fill_decomposition",
        "model_count", "obdd_size", "oracle_eval", "parse_formula", "parse_graph",
        "parse_tree_decomposition", "sdd_size", "serialize_diagram", "validate_decomposition",
    ]
    for name in mso2dd.__all__:
        getattr(mso2dd, name)


def test_tracer_patch_points_resolve():
    # bench/tracing.py wraps these functions where the compilers look them up;
    # a rename there would only show in a traced benchmark run
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.INNER_LAYERS
    for module_name, attr, _ in tracing.INNER_LAYERS:
        assert callable(getattr(importlib.import_module(module_name), attr))


def test_benchmark_diagram_reads_agree():
    # bench/worker.py reads a diagram's size through `sdd_size(comp.root)` and
    # `obdd_size(comp.obdd)`, and counts decompositions through
    # `iter_sdd_nodes`; only its traced runs reach the last
    phi = mso2dd.desugar(kappa_formula())
    s4, p4 = star_graph(4), path_graph(4)
    fold = mso2dd.make_nice(s4, mso2dd.min_fill_decomposition(s4))
    chain = mso2dd.make_nice(p4, path_decomposition(4))
    assert not mso2dd.is_path_decomposition(fold) and mso2dd.is_path_decomposition(chain)
    for g, nice in ((s4, fold), (p4, chain)):
        comp = mso2dd.compile_sdd(phi, g, nice, mso2dd.good_coloring(g, nice))
        assert mso2dd.sdd_size(comp.root) == comp.size()
        decompositions = sum(comp.form[i] == DECOMP for i in comp.positions)
        assert decompositions > 0
        assert sum(x.kind == DECOMP for x in iter_sdd_nodes(comp.root)) == decompositions
    comp = mso2dd.compile_obdd(phi, p4, chain, mso2dd.good_coloring(p4, chain))
    assert mso2dd.obdd_size(comp.obdd) == comp.size()


class TestCompile:
    def test_obdd_on_supplied_path_decomposition(self, workdir, capsys):
        out = workdir / "p4.obdd"
        code = run(
            ["compile", "--graph", workdir / "p4.gr", "--formula", workdir / "kappa.mso",
             "--td", workdir / "p4.td", "--target", "obdd", "--out", out]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "bound_ok: yes" in text
        assert out.exists()

    def test_sdd_default(self, workdir, capsys):
        out = workdir / "k3.sdd"
        code = run(
            ["compile", "--graph", workdir / "k3.gr", "--formula", workdir / "kappa.mso",
             "--target", "sdd", "--out", out]
        )
        assert code == 0
        assert "bound_ok: yes" in capsys.readouterr().out

    def test_obdd_requires_path_decomposition(self, workdir, tmp_path, capsys):
        star = tmp_path / "s4.gr"
        star.write_text("p gr 5 4\n1 2\n1 3\n1 4\n1 5\n")
        code = run(
            ["compile", "--graph", star, "--formula", workdir / "eq.mso", "--target", "obdd"]
        )
        assert code == 2
        assert "path decomposition required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "td, message",
        [
            (P4_TD.replace("b 1 1 2", "b 1 1 2 9"), "bag vertex 9 is not in the graph"),
            (P4_TD.replace("s td 3", "s td a"), "line 1: malformed header"),
            (P4_TD + "3 x\n", "line 7: malformed tree edge line"),
            (P4_TD.replace("b 3 3 4", "b 3 4"), "edge (3, 4) not covered by any bag"),
            (P4_TD.replace("s td 3 2 4", "s td 3 1 99"),
             "line 1: header declares largest bag 1, found 2"),
            (P4_TD.replace("s td 3 2 4", "s td 3 2 3"),
             "line 1: bag vertex 4 is not in the graph of 3 vertices the header declares"),
        ],
        ids=["bag-vertex-not-in-graph", "header-field", "tree-edge-endpoint", "uncovered-edge",
             "header-max-bag", "header-vertex-count"],
    )
    def test_malformed_td_rejected(self, workdir, tmp_path, capsys, td, message):
        bad = tmp_path / "bad.td"
        bad.write_text(td)
        code = run(
            ["compile", "--graph", workdir / "p4.gr", "--formula", workdir / "eq.mso",
             "--td", bad]
        )
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:") and message in line

    def test_deterministic_output(self, workdir, capsys):
        out1, out2 = workdir / "a.sdd", workdir / "b.sdd"
        for out in (out1, out2):
            assert run(
                ["compile", "--graph", workdir / "k3.gr", "--formula", workdir / "kappa.mso",
                 "--target", "sdd", "--out", out]
            ) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_independent_of_hash_seed(self, workdir):
        # set-valued states iterate in hash order, which the seed changes; in
        # dom the sure sets of the inner exists are dead members of the outer
        # one, and those of nbr's edge quantifier collapse
        script = "import sys; from mso2dd.cli import main; sys.exit(main(sys.argv[1:]))"
        cases = (("c4", "kappa"), ("p5", "dom"))
        texts = {}
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            for graph, formula in cases:
                for target in ("sdd", "obdd"):
                    out = workdir / f"{graph}-{formula}-{seed}.{target}"
                    subprocess.run(
                        [sys.executable, "-c", script, "compile",
                         "--graph", workdir / f"{graph}.gr",
                         "--formula", workdir / f"{formula}.mso",
                         "--target", target, "--out", out],
                        env=env, check=True, capture_output=True,
                    )
                    texts[seed, graph, target] = out.read_text()
        for graph, _ in cases:
            for target in ("sdd", "obdd"):
                assert texts["0", graph, target] == texts["1", graph, target]

    def test_kappa_sdd_on_3x4_grid(self, workdir, capsys):
        # width 3 under min-fill; the count is checked against the cover CNF
        # conjoined clause by clause under a column-major order
        rows, cols = 3, 4
        vid = lambda r, c: r * cols + c + 1
        edges = [(vid(r, c), vid(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
        edges += [(vid(r, c), vid(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
        gr = workdir / "grid.gr"
        gr.write_text(f"p gr {rows * cols} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
        out = workdir / "grid.sdd"
        assert run(
            ["compile", "--graph", gr, "--formula", workdir / "kappa.mso",
             "--target", "sdd", "--out", out]
        ) == 0
        machine = capsys.readouterr().out.split("-- stats --\n")[1]
        stats = dict(line.split(": ") for line in machine.splitlines())
        assert stats["width"] == "3" and stats["bound_ok"] == "yes"

        g = Graph(rows * cols, edges)
        cnf = cnf_of_graph(g)

        def column(dv):
            if dv.var.sort.is_vertex:
                return ((dv.obj - 1) % cols, 0, dv.obj)
            e = g.edges[dv.obj - 1]
            return ((min(e.u, e.v) - 1) % cols, 1, dv.obj)

        dd = cnf_to_obdd(cnf, sorted(cnf.variables, key=column))
        expected = model_count(dd)
        assert model_count(load_diagram(out.read_text())) == expected == 92_860_673

    def test_stats_report_classes_within_states(self, workdir, capsys):
        for target in ("sdd", "obdd"):
            assert run(
                ["compile", "--graph", workdir / "p4.gr", "--formula", workdir / "kappa.mso",
                 "--td", workdir / "p4.td", "--target", target]
            ) == 0
            machine = capsys.readouterr().out.split("-- stats --\n")[1]
            stats = dict(line.split(": ") for line in machine.splitlines())
            assert 1 <= int(stats["classes"]) <= int(stats["states"])

    def test_deep_formula_rejected_cleanly(self, workdir):
        deep = workdir / "deep.mso"
        deep.write_text("free vertex x; " + "~" * 3000 + "(x = x)\n")
        proc = python_m(["compile", "--graph", workdir / "k3.gr", "--formula", deep])
        assert proc.returncode == 2
        assert "nested deeper" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_formula_nested_to_the_cap_compiles(self, workdir, capsys):
        inner = "(x = x)"
        for _ in range(MAX_NESTING // 2):
            inner = f"~((x = x) & {inner})"
        deep = workdir / "cap.mso"
        deep.write_text("free vertex x; " + inner + "\n")
        for target in ("sdd", "obdd"):
            assert run(
                ["compile", "--graph", workdir / "p4.gr", "--formula", deep,
                 "--td", workdir / "p4.td", "--target", target]
            ) == 0
            assert "bound_ok: yes" in capsys.readouterr().out
        deeper = workdir / "over.mso"
        deeper.write_text("free vertex x; ~" + inner + "\n")
        assert run(["compile", "--graph", workdir / "p4.gr", "--formula", deeper]) == 2
        assert "nested deeper" in capsys.readouterr().err

    def test_huge_vertex_count_rejected_before_allocating(self, workdir, tmp_path, capsys):
        huge = tmp_path / "huge.gr"
        huge.write_text("p gr 100000000 0\n")  # 17 bytes declaring 10^8 vertices
        assert run(["compile", "--graph", huge, "--formula", workdir / "eq.mso"]) == 2
        assert "more than 1000000" in capsys.readouterr().err

    def test_parse_error_exit_code(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.gr"
        bad.write_text("p gr 2 1\n1 1\n")
        code = run(["compile", "--graph", bad, "--formula", workdir / "eq.mso"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_ok(self, workdir, capsys):
        out = workdir / "k3.sdd"
        run(["compile", "--graph", workdir / "k3.gr", "--formula", workdir / "kappa.mso",
             "--out", out])
        code = run(["verify", "--graph", workdir / "k3.gr", "--formula", workdir / "kappa.mso",
                    "--diagram", out])
        assert code == 0
        assert "OK (64 assignments checked)" in capsys.readouterr().out

    def test_seventeen_variables(self, workdir, capsys):
        graph, out = workdir / "kt22.gr", workdir / "kt22.sdd"
        graph.write_text(serialize_graph(clique_tree(2, 2)))
        assert run(["compile", "--graph", graph, "--formula", workdir / "kappa.mso",
                    "--out", out]) == 0
        capsys.readouterr()
        code = run(["verify", "--graph", graph, "--formula", workdir / "kappa.mso",
                    "--diagram", out, "--cap", "17"])
        assert code == 0
        assert "OK (131072 assignments checked)" in capsys.readouterr().out

    def test_corrupted_diagram_detected(self, workdir, capsys):
        out = workdir / "p4.obdd"
        run(["compile", "--graph", workdir / "p4.gr", "--formula", workdir / "kappa.mso",
             "--td", workdir / "p4.td", "--target", "obdd", "--out", out])
        text = out.read_text()
        # swap the two terminal labels
        corrupted = text.replace("leaf 0", "leaf X").replace("leaf 1", "leaf 0").replace("leaf X", "leaf 1")
        out.write_text(corrupted)
        code = run(["verify", "--graph", workdir / "p4.gr", "--formula", workdir / "kappa.mso",
                    "--diagram", out])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    def test_cap_exceeded(self, workdir, capsys):
        out = workdir / "k3.sdd"
        run(["compile", "--graph", workdir / "k3.gr", "--formula", workdir / "kappa.mso",
             "--out", out])
        code = run(["verify", "--graph", workdir / "k3.gr", "--formula", workdir / "kappa.mso",
                    "--diagram", out, "--cap", "3"])
        assert code == 2

    def test_td_is_a_usage_error(self, workdir, capsys):
        # verify reads no decomposition, so it takes no --td
        out = workdir / "p4.sdd"
        run(["compile", "--graph", workdir / "p4.gr", "--formula", workdir / "kappa.mso",
             "--td", workdir / "p4.td", "--out", out])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--graph", workdir / "p4.gr", "--formula", workdir / "kappa.mso",
                 "--diagram", out, "--td", workdir / "p4.td"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mso2dd ")
        assert "unrecognized arguments: --td" in err


class TestQuery:
    def compiled(self, workdir):
        out = workdir / "k3.sdd"
        run(["compile", "--graph", workdir / "k3.gr", "--formula", workdir / "kappa.mso",
             "--out", out])
        return out

    def test_count(self, workdir, capsys):
        out = self.compiled(workdir)
        capsys.readouterr()
        assert run(["query", "--diagram", out, "--query", "count"]) == 0
        assert capsys.readouterr().out.strip() == "45"

    def test_count_past_int_digit_limit(self, tmp_path, capsys):
        # the all-true OBDD over 14,300 set bits: 2^14300 has 4,305 digits,
        # past the interpreter's default 4,300-digit int-to-str limit
        n = 14_300
        dd = tmp_path / "wide.obdd"
        dd.write_text(
            "mso2dd-diagram 1\nkind obdd\n"
            + "".join(f"var {i} vmem X {i + 1}\n" for i in range(n))
            + "order " + " ".join(map(str, range(n))) + "\nnode 0 leaf 1\nroot 0\n"
        )
        assert run(["query", "--diagram", dd, "--query", "count"]) == 0
        digits = capsys.readouterr().out.strip()
        assert len(digits) == 4_305
        assert int(digits[:-5]) * 10**5 + int(digits[-5:]) == 1 << n

    def test_sat_and_unsat(self, workdir, tmp_path, capsys):
        out = self.compiled(workdir)
        capsys.readouterr()
        assert run(["query", "--diagram", out, "--query", "sat"]) == 0
        assert capsys.readouterr().out.strip() == "SAT"
        unsat = tmp_path / "unsat.mso"
        unsat.write_text("exists vertex v. ~(v = v)\n")
        dd = tmp_path / "unsat.sdd"
        run(["compile", "--graph", workdir / "k3.gr", "--formula", unsat, "--out", dd])
        capsys.readouterr()
        assert run(["query", "--diagram", dd, "--query", "sat"]) == 0
        assert capsys.readouterr().out.strip() == "UNSAT"

    def test_enumerate_limit(self, workdir, capsys):
        out = self.compiled(workdir)
        capsys.readouterr()
        assert run(["query", "--diagram", out, "--query", "enumerate", "--limit", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5

    def test_enumerate_kappa_on_64_vertex_path(self, tmp_path, capsys):
        # 127 legend variables: the first ten models come from the prefix walk
        n = 64
        g = Graph(n, [(i, i + 1) for i in range(1, n)])
        (tmp_path / "p.gr").write_text(serialize_graph(g))
        (tmp_path / "p.td").write_text(
            f"s td {n - 1} 2 {n}\n"
            + "".join(f"b {i} {i} {i + 1}\n" for i in range(1, n))
            + "".join(f"{i} {i + 1}\n" for i in range(1, n - 1))
        )
        (tmp_path / "kappa.mso").write_text(KAPPA_TEXT + "\n")
        out = tmp_path / "kappa.sdd"
        assert run(["compile", "--graph", tmp_path / "p.gr", "--formula", tmp_path / "kappa.mso",
                    "--td", tmp_path / "p.td", "--target", "sdd", "--out", out]) == 0
        capsys.readouterr()
        assert run(["query", "--diagram", out, "--query", "enumerate", "--limit", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 10
        phi = kappa_formula()
        x_v, x_e = phi.free_vars
        legend = load_diagram(out.read_text()).legend
        keys = []
        for line in lines:
            sets = dict(re.fullmatch(r"(\w+)=\{([\d,]*)\}", part).groups() for part in line.split())
            alpha = {var: frozenset(int(o) for o in sets[var.name].split(",") if o)
                     for var in (x_v, x_e)}
            assert oracle_eval(phi, g, alpha)
            keys.append(tuple(int(d.obj in alpha[d.var]) for d in legend))
        assert keys == sorted(set(keys))

    def test_min_card_vertex_cover(self, workdir, capsys):
        out = self.compiled(workdir)
        capsys.readouterr()
        code = run(
            ["query", "--diagram", out, "--query", "min-card",
             "--targets", "X_V", "--force-zero", "X_E"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "min-cardinality 2" in text
        assert "model: " in text and "X_E={}" in text

    def test_both_file_kinds_answer_alike(self, workdir, capsys):
        # kappa on P4 compiled to both targets over one path decomposition:
        # one function, so every query prints the same, and the DOT export
        # names each kind
        inputs = ["--graph", workdir / "p4.gr", "--formula", workdir / "kappa.mso",
                  "--td", workdir / "p4.td"]
        printed = {}
        for target in ("sdd", "obdd"):
            out = workdir / f"p4.{target}"
            assert run(["compile", *inputs, "--target", target, "--out", out]) == 0
            capsys.readouterr()
            for query in ("sat", "count", "enumerate", "min-card"):
                args = ["query", "--diagram", out, "--query", query]
                assert run(args + ["--targets", "X_V", "--force-zero", "X_E"]) == 0
                printed[target, query] = capsys.readouterr().out
            assert run(["export-dot", "--diagram", out]) == 0
            assert capsys.readouterr().out.startswith(f"digraph {target} {{")
        assert printed["sdd", "count"] == "89\n"
        for query in ("sat", "count", "enumerate", "min-card"):
            assert printed["sdd", query] == printed["obdd", query], query

    def test_malformed_diagram(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.sdd"
        bad.write_text("garbage\n")
        assert run(["query", "--diagram", bad, "--query", "sat"]) == 2

    def test_undecodable_diagram_rejected(self, tmp_path, capsys):
        # a byte that is no UTF-8 is a malformed file, not a traceback
        bad = tmp_path / "bad.obdd"
        bad.write_bytes(b"mso2dd-diagram 1\nkind obdd\xff\n")
        assert run(["query", "--diagram", bad, "--query", "count"]) == 2
        assert capsys.readouterr().err.startswith("error: malformed diagram file")


class TestBench:
    def test_growth_table(self, capsys):
        assert run(["bench-kt", "--k", "2", "--r-max", "3"]) == 0
        text = capsys.readouterr().out
        rows = [l for l in text.splitlines() if l and l[0].isdigit()]
        assert len(rows) == 3
        sizes = [int(r.split()[3]) for r in rows]
        floors = [int(r.split()[4]) for r in rows]
        assert all(s >= f for s, f in zip(sizes, floors))
        assert "min_fill_width:" in text and "width_bound: 3" in text

    @pytest.mark.parametrize("k, r_max, sizes", [
        (2, 4, [5, 59, 329, 1679]),
        (3, 3, [13, 365, 3576]),
    ])
    def test_sizes_pinned(self, capsys, k, r_max, sizes):
        # a reduced OBDD is canonical for its order, so these sizes are
        # those of any correct builder
        assert run(["bench-kt", "--k", str(k), "--r-max", str(r_max)]) == 0
        rows = [l.split() for l in capsys.readouterr().out.splitlines() if l and l[0].isdigit()]
        assert [int(r[3]) for r in rows] == sizes
        assert all(r[-1] == "yes" for r in rows)

    @pytest.mark.parametrize("r_max", [0, -1])
    def test_r_max_below_one_rejected_before_output(self, capsys, r_max):
        assert run(["bench-kt", "--r-max", r_max]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "--r-max" in out.err

    @pytest.mark.parametrize("r_max", [14_000, 15_000])
    def test_r_max_past_the_cap_refused_in_one_line(self, capsys, r_max):
        # the largest instance's vertex count has thousands of digits here,
        # past what int-to-str prints
        assert run(["bench-kt", "--r-max", r_max]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: --r-max {r_max} gives more than 500 vertices\n"

    def test_k_below_one_rejected(self, capsys):
        assert run(["bench-kt", "--k", 0, "--r-max", 20_000]) == 2
        assert capsys.readouterr().err == "error: --k must be at least 1\n"

    def test_degenerate_row_marked(self, capsys):
        assert run(["bench-kt", "--k", "1", "--r-max", "1"]) == 0
        assert "degenerate" in capsys.readouterr().out


class TestExportDot:
    def test_writes_dot(self, workdir, tmp_path, capsys):
        out = workdir / "k3.sdd"
        run(["compile", "--graph", workdir / "k3.gr", "--formula", workdir / "kappa.mso",
             "--out", out])
        dot = tmp_path / "k3.dot"
        assert run(["export-dot", "--diagram", out, "--out", dot]) == 0
        assert dot.read_text().startswith("digraph sdd")


TOKEN = re.compile(r"(\w+)|(->|!=|[^\w\s])")


def mutations(text: str, vocabulary: tuple[list[str], list[str]], rng):
    """Every one-token deletion; at every token, a drawn substitution by a
    token of its kind (word or symbol) and a drawn insertion of either kind;
    and every line drop, line duplicate and swap of adjacent lines."""
    for m in TOKEN.finditer(text):
        a, b = m.span()
        yield text[:a] + text[b:]
        yield text[:a] + rng.choice(vocabulary[m.lastindex - 1]) + text[b:]
        yield text[:a] + rng.choice(rng.choice(vocabulary)) + " " + text[a:]
    yield from line_mutants(text)


class TestMutatedInputs:
    """Small edits of valid inputs either compile or fail with one error line:
    no traceback and no exit code other than 0 or 2."""

    INPUTS = {
        "p4.gr": P4_GR,
        "p4.td": P4_TD,
        "kappa.mso": KAPPA_TEXT + "\n",
        "dom.mso": FORMULA_TEXTS["dom"] + "\n",
    }

    @pytest.mark.parametrize("name", INPUTS)
    def test_compile_refuses_or_succeeds(self, workdir, capsys, name):
        tokens = [m for text in self.INPUTS.values() for m in TOKEN.findall(text)]
        vocabulary = tuple(sorted({t[kind] for t in tokens} - {""}) for kind in (0, 1))
        mutated = workdir / f"mutated-{name}"
        flag = {"p4.gr": "--graph", "p4.td": "--td"}.get(name, "--formula")
        files = {"--graph": workdir / "p4.gr", "--formula": workdir / "kappa.mso", flag: mutated}
        flags = [x for pair in files.items() for x in pair]
        for text in mutations(self.INPUTS[name], vocabulary, random.Random(name)):
            mutated.write_text(text)
            for target in ("sdd", "obdd"):
                code = run(["compile", *flags, "--target", target])
                err = capsys.readouterr().err.splitlines()
                assert code in (0, 2), text
                assert len(err) == (code == 2) and all(e.startswith("error:") for e in err), text
