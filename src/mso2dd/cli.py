"""Command-line pipeline: compile, verify, query, export-dot, bench-kt."""

from __future__ import annotations

import argparse
import decimal
import math
import sys
from pathlib import Path

from . import oracle as q
from .assignment import decision_variables
from .decomposition import (
    good_coloring,
    make_nice,
    min_fill_decomposition,
    parse_tree_decomposition,
)
from .errors import Mso2ddError
from .graph import Graph, clique_tree, parse_graph
from .mso import desugar, formula_size, parse_formula
from .obdd import compile_obdd
from .sdd import compile_sdd
from .serialize import diagram_lines, diagram_to_dot, load_diagram


def _read(path: str) -> str:
    return Path(path).read_text()


def _load(path: str):
    with open(path) as f:  # read line by line: the whole text is never held
        return load_diagram(f)


def _load_inputs(args: argparse.Namespace):
    g = parse_graph(_read(args.graph))
    phi = desugar(parse_formula(_read(args.formula)))
    if args.td:
        td = parse_tree_decomposition(_read(args.td))
    else:
        td = min_fill_decomposition(g)
    nice = make_nice(g, td)
    return g, phi, nice


def _bound_sdd(n: int, k: int, states: int) -> int:
    return n * (12 * states**3 + 2 * k) * 2 ** (k * k)


def _bound_obdd(n: int, k: int, states: int) -> int:
    return n * 2 * k * states * 2 ** (k * k)


def _big(value: int) -> str:
    """Exact digits, or a rounded power of ten for numbers too long for `str`."""
    if value.bit_length() <= 10_000:
        return str(value)
    log = math.log10(value)
    return f"{10 ** (log % 1):.3f}e+{math.floor(log)}"


def _stats_block(pairs) -> str:
    width = max(len(key) for key, _ in pairs)
    human = "\n".join(f"  {key.ljust(width)}  {value}" for key, value in pairs)
    machine = "\n".join(f"{key}: {value}" for key, value in pairs)
    return human + "\n-- stats --\n" + machine


def cmd_compile(args: argparse.Namespace) -> int:
    g, phi, nice = _load_inputs(args)
    width = nice.width()
    coloring = good_coloring(g, nice)
    compile_ = compile_sdd if args.target == "sdd" else compile_obdd
    comp = compile_(phi, g, nice, coloring)
    size = comp.size()
    n = g.n_objects
    k = width + formula_size(phi)
    states = comp.reachable.count
    bound = _bound_sdd(n, k, states) if args.target == "sdd" else _bound_obdd(n, k, states)
    if args.out:
        with open(args.out, "w") as f:
            f.writelines(line + "\n" for line in diagram_lines(comp))
    print(
        _stats_block(
            [
                ("target", args.target),
                ("n", n),
                ("width", width),
                ("k", k),
                ("states", states),
                ("classes", comp.reachable.classes),
                ("size", size),
                ("bound", _big(bound)),
                ("bound_ok", "yes" if size <= bound else "no"),
            ]
        )
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    phi = desugar(parse_formula(_read(args.formula)))
    diagram = _load(args.diagram)
    dvars = decision_variables(phi, g)
    if len(dvars) > args.cap:
        raise Mso2ddError(f"{len(dvars)} decision variables exceed the cap of {args.cap}")
    if set(diagram.legend) != set(dvars):
        raise Mso2ddError("diagram legend does not match the instance")
    expected = q.truth_table_oracle(phi, g, dvars)
    actual = q.truth_table(diagram, dvars)
    if expected == actual:
        print(f"OK ({1 << len(dvars)} assignments checked)")
        return 0
    difference = expected ^ actual
    index = (difference & -difference).bit_length() - 1
    bits = {d: (index >> i) & 1 for i, d in enumerate(dvars)}
    rendering = ", ".join(f"{d.name}={bits[d]}" for d in dvars)
    print(f"MISMATCH at assignment {index}: {rendering}")
    return 1


def _query_targets(diagram, names):
    wanted = {n.strip() for n in names.split(",") if n.strip()}
    chosen = [d for d in diagram.legend if d.var.name in wanted]
    unknown = wanted - {d.var.name for d in chosen}
    if unknown:
        raise Mso2ddError(f"unknown target variables: {sorted(unknown)}")
    return chosen


def _render_assignment(legend, alpha) -> str:
    parts = []
    seen = set()
    for d in legend:
        var = d.var
        if var in seen:
            continue
        seen.add(var)
        value = alpha[var]
        if var.sort.is_object:
            parts.append(f"{var.name}={value}")
        else:
            inner = ",".join(str(o) for o in sorted(value))
            parts.append(f"{var.name}={{{inner}}}")
    return " ".join(parts) if parts else "(empty)"


def cmd_query(args: argparse.Namespace) -> int:
    diagram = _load(args.diagram)
    if args.query == "sat":
        print("SAT" if q.is_satisfiable(diagram) else "UNSAT")
    elif args.query == "count":
        # Decimal prints past the interpreter's 4,300-digit limit on int-to-str
        print(decimal.Decimal(q.model_count(diagram)))
    elif args.query == "enumerate":
        for alpha in q.enumerate_models(diagram, args.limit):
            print(_render_assignment(diagram.legend, alpha))
    elif args.query == "min-card":
        targets = _query_targets(diagram, args.targets or "")
        forced = {}
        for name in args.force_zero:
            for d in _query_targets(diagram, name):
                forced[d] = 0
        minimum, alpha = q.min_cardinality_model(diagram, targets, forced)
        print(f"min-cardinality {minimum}")
        print("model: " + _render_assignment(diagram.legend, alpha))
    else:
        raise Mso2ddError(f"unknown query {args.query!r}")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    diagram = _load(args.diagram)
    dot = diagram_to_dot(diagram)
    if args.out:
        Path(args.out).write_text(dot)
    else:
        print(dot, end="")
    return 0


def cmd_bench_kt(args: argparse.Namespace) -> int:
    """Reduced diagrams for the edge-cover CNF of clique-tree products; sizes are
    checked against the 2^(rk/2) floor, which any variable order must obey."""
    k = args.k
    if k < 1:
        raise Mso2ddError("--k must be at least 1")
    if args.r_max < 1:
        raise Mso2ddError("--r-max must be at least 1")
    # past the cap's bit length 2^r_max - 1 alone exceeds the cap, and the
    # vertex count may have too many digits to print
    if args.r_max > args.cap.bit_length():
        raise Mso2ddError(f"--r-max {args.r_max} gives more than {args.cap} vertices")
    if k * (2**args.r_max - 1) > args.cap:
        raise Mso2ddError(
            f"largest instance has {k * (2 ** args.r_max - 1)} vertices, cap is {args.cap}"
        )
    rows = []
    for r in range(1, args.r_max + 1):
        g = clique_tree(k, r)
        cnf = q.cnf_of_graph(g)
        size = q.cnf_to_obdd(cnf, _kt_variable_order(g, k, r, cnf)).size()
        threshold = 2 ** ((r * k) // 2) if (r * k) % 2 == 0 else None
        degenerate = r * k < 2
        rows.append((r, g.n_vertices, g.n_edges, size, threshold, degenerate))
    print("r  vertices  edges  obdd_size  floor  ok")
    for r, nv, ne, size, threshold, degenerate in rows:
        if degenerate:
            verdict = "degenerate, bound not asserted"
            floor_text = "-"
        else:
            floor = threshold if threshold is not None else 2 ** (r * k / 2)
            floor_text = str(floor)
            verdict = "yes" if size >= floor else "no"
        print(f"{r}  {nv}  {ne}  {size}  {floor_text}  {verdict}")
    width = min_fill_decomposition(clique_tree(k, args.r_max)).width()
    print(f"min_fill_width: {width}")
    print(f"width_bound: {2 * k - 1}")
    return 0


def _kt_variable_order(g: Graph, k: int, r: int, cnf):
    """Group variables by the tree coordinate of the product vertex, in preorder;
    an edge follows its later endpoint group."""
    n_tree = 2**r - 1
    preorder = []

    def visit(t: int) -> None:
        if t <= n_tree:
            preorder.append(t)
            visit(2 * t)
            visit(2 * t + 1)

    visit(1)
    pos = {t: i for i, t in enumerate(preorder)}

    def tree_coord(vertex: int) -> int:
        return (vertex - 1) % n_tree + 1

    def group(dv) -> tuple:
        if dv.var.sort.is_vertex:
            return (pos[tree_coord(dv.obj)], 0, dv.obj)
        e = g.edge(dv.obj)
        later = max(pos[tree_coord(e.u)], pos[tree_coord(e.v)])
        return (later, 1, dv.obj)

    return tuple(sorted(cnf.variables, key=group))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mso2dd",
        description="Compile graph-formula model sets into decision diagrams and query them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, needs_inputs=False, needs_diagram=False):
        if needs_inputs:
            p.add_argument("--graph", required=True, help=".gr graph file")
            p.add_argument("--formula", required=True, help=".mso formula file")
        if needs_diagram:
            p.add_argument("--diagram", required=True, help="serialized diagram file")

    p = sub.add_parser("compile", help="compile a formula/graph pair into a diagram")
    common(p, needs_inputs=True)
    p.add_argument("--td", help=".td decomposition file (default: min-fill)")
    p.add_argument("--target", choices=("sdd", "obdd"), default="sdd")
    p.add_argument("--out", help="where to write the serialized diagram")

    p = sub.add_parser("verify", help="exhaustively compare a diagram with the oracle")
    common(p, needs_inputs=True, needs_diagram=True)
    p.add_argument("--cap", type=int, default=20, help="most decision variables to check")

    p = sub.add_parser("query", help="query a compiled diagram")
    common(p, needs_diagram=True)
    p.add_argument("--query", required=True, choices=("sat", "count", "enumerate", "min-card"))
    p.add_argument("--limit", type=int, default=10)
    p.add_argument("--targets", help="comma-separated set-variable names for min-card")
    p.add_argument(
        "--force-zero",
        action="append",
        default=[],
        help="set-variable names whose membership bits are pinned to 0",
    )

    p = sub.add_parser("export-dot", help="render a diagram as DOT")
    common(p, needs_diagram=True)
    p.add_argument("--out", help="where to write the DOT file")

    p = sub.add_parser("bench-kt", help="size benchmark on clique-tree cover CNFs")
    p.add_argument("--cap", type=int, default=500, help="largest vertex count to build")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--r-max", type=int, default=3)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compile": cmd_compile,
        "verify": cmd_verify,
        "query": cmd_query,
        "export-dot": cmd_export_dot,
        "bench-kt": cmd_bench_kt,
    }
    try:
        return handlers[args.command](args)
    except (Mso2ddError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
