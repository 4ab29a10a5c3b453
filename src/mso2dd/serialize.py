"""Text serialization for compiled diagrams, and DOT export.

One format covers both diagram kinds. Lines:

    mso2dd-diagram 1
    kind sdd|obdd
    var <idx> <kind> <mso-var> <obj>      kind in veq eeq vmem emem dummy
    vtree <id> leaf <var-idx>             sdd only
    vtree <id> inner <left> <right>
    vtreeroot <id>
    order <var-idx>...                    obdd only
    node <id> false|true                  sdd terminals
    node <id> lit <var-idx> <0|1>
    node <id> decomp <vtree-id> <prime>:<sub>...
    node <id> leaf <0|1>                  obdd terminals
    node <id> dec <level> <lo> <hi>
    root <id>

The `var` lines list the legend in order (then, for an SDD, the dummy
variables of its v-tree), so a loaded diagram enumerates models in the order
of the compiled one. An OBDD's `order` line is a permutation of the var
indices: the variable decided at each level, from the root down; an OBDD
has no dummy variable. A node's children come before it, no var, vtree or
node id is defined twice, and no `root`, `order` or `vtreeroot` line appears
twice. Lines starting with `c` are comments.

Node ids are positions in the children-first walk (`iter_sdd_nodes`,
`Obdd.nodes`), not interning uids. The OBDD walk depends on the diagram's
shape only, so equal OBDDs give equal text however their nodes were
interned. Loading a compiled diagram's file and writing it again gives the
same text. DOT export names nodes by the same file ids, so a diagram and
its loaded file give the same DOT text.
"""

from __future__ import annotations

from .assignment import DecisionVariable, dv_dummy, dv_eq, dv_mem
from .errors import DiagramError
from .mso import Sort, Var
from .obdd import Obdd, ObddSpace
from .sdd import DECOMP, FALSE, LITERAL, TRUE, SddBuilder, SddCompilation, SddNode

_SORT_OF = {
    "veq": Sort.VERTEX_OBJECT,
    "eeq": Sort.EDGE_OBJECT,
    "vmem": Sort.VERTEX_SET,
    "emem": Sort.EDGE_SET,
}
_TAG_OF = {sort: tag for tag, sort in _SORT_OF.items()}  # a variable's sort fixes its kind
_BIT = {"0": 0, "1": 1}  # a leaf's label or a literal's polarity
# tokens on a line, by its tag or a vtree or node line's form; `order` and `decomp` run on
_LENGTH = {"kind": 2, "var": 5, "root": 2, "vtreeroot": 2, "inner": 5, "leaf": 4,
           "false": 3, "true": 3, "lit": 5, "dec": 6}


def _var_line(idx: int, var: DecisionVariable) -> str:
    if var.kind == "dummy":
        return f"var {idx} dummy {var.obj} 0"
    return f"var {idx} {_TAG_OF[var.var.sort]} {var.var.name} {var.obj}"


def _parse_var(parts) -> DecisionVariable:
    tag, name, obj = parts[0], parts[1], parts[2]
    if tag == "dummy":
        return dv_dummy(name)
    sort = _SORT_OF.get(tag)
    if sort is None:
        raise DiagramError(f"unknown variable kind {tag!r}")
    var = Var(name, sort)
    return dv_eq(var, int(obj)) if sort.is_object else dv_mem(var, int(obj))


def _split(line: str) -> list[str]:
    """The line's tokens, as many as its form takes if that is fixed."""
    parts = line.split()
    form = parts[2] if parts[0] in ("vtree", "node") and len(parts) > 2 else parts[0]
    if len(parts) != _LENGTH.get(form, len(parts)):
        raise DiagramError(f"wrong number of tokens in line {line!r}")
    return parts


def _new_id(token: str, taken: dict, what: str) -> int:
    """`token` as an id that no earlier `what` line defined."""
    if int(token) in taken:
        raise DiagramError(f"{what} id {token} is defined twice")
    return int(token)


def _numbered(diagram):
    """The diagram's nodes in file order, and each node's file id by uid."""
    nodes = diagram.nodes()
    return nodes, {node.uid: i for i, node in enumerate(nodes)}


def serialize_diagram(diagram) -> str:
    lines = ["mso2dd-diagram 1", f"kind {diagram.kind}"]
    nodes, nid = _numbered(diagram)
    if diagram.kind == "sdd":
        vtree = diagram.vtree
        variables = list(diagram.legend) + [
            v for v in vtree.all_variables() if v.kind == "dummy"
        ]
        index = {v: i for i, v in enumerate(variables)}
        lines.extend(_var_line(i, v) for i, v in enumerate(variables))
        for vid in range(len(vtree)):
            if vtree.kind[vid] == "leaf":
                lines.append(f"vtree {vid} leaf {index[vtree.var[vid]]}")
            else:
                lines.append(f"vtree {vid} inner {vtree.left[vid]} {vtree.right[vid]}")
        lines.append(f"vtreeroot {diagram.vtree_root}")
        for i, node in enumerate(nodes):
            if node.kind in (FALSE, TRUE):
                lines.append(f"node {i} {node.kind}")
            elif node.kind == LITERAL:
                lines.append(f"node {i} lit {index[node.var]} {1 if node.polarity else 0}")
            else:
                pairs = " ".join(f"{nid[p.uid]}:{nid[s.uid]}" for p, s in node.pairs)
                lines.append(f"node {i} decomp {node.vtree_id} {pairs}")
    else:
        index = {v: i for i, v in enumerate(diagram.legend)}
        lines.extend(_var_line(i, v) for i, v in enumerate(diagram.legend))
        lines.append("order " + " ".join(str(index[v]) for v in diagram.order))
        for i, node in enumerate(nodes):
            if node.is_leaf:
                lines.append(f"node {i} leaf {int(node.label)}")
            else:
                lines.append(f"node {i} dec {node.level} {nid[node.lo.uid]} {nid[node.hi.uid]}")
    lines.append(f"root {len(nodes) - 1}")  # the walks list the root last
    return "\n".join(lines) + "\n"


def load_diagram(text: str):
    lines = [s for s in map(str.strip, text.splitlines()) if s and s != "c" and s[:2] != "c "]
    if not lines or lines[0].split() != ["mso2dd-diagram", "1"]:
        raise DiagramError("not a diagram file (bad magic line)")
    if len(lines) < 2 or not lines[1].startswith("kind "):
        raise DiagramError("missing kind line")
    kind = _split(lines[1])[1]
    if kind not in ("sdd", "obdd"):
        raise DiagramError(f"unknown diagram kind {kind!r}")
    variables: dict[int, DecisionVariable] = {}
    body = []
    root_id = None
    try:
        for line in lines[2:]:
            tag = line.split(None, 1)[0]
            if tag == "var":
                parts = _split(line)
                variables[_new_id(parts[1], variables, "var")] = _parse_var(parts[2:])
            elif tag == "root":
                if root_id is not None:
                    raise DiagramError("root line repeated")
                root_id = int(_split(line)[1])
            else:
                body.append(line)
        load = _load_sdd if kind == "sdd" else _load_obdd
        return load(variables, body, root_id)
    except (KeyError, ValueError, IndexError) as exc:
        raise DiagramError(f"malformed diagram file: {exc}") from exc


def _load_sdd(variables, body, root_id) -> SddCompilation:
    builder = SddBuilder()
    vtree_ids: dict[int, int] = {}
    nodes: dict[int, SddNode] = {}
    vtree_root = None
    span = None  # the v-tree's preorder intervals, fixed at the first decomposition
    for line in body:
        parts = _split(line)
        if parts[0] == "vtree":
            if span is not None:
                raise DiagramError("v-tree line after a decomposition")
            fid = _new_id(parts[1], vtree_ids, "vtree")
            if parts[2] == "leaf":
                vtree_ids[fid] = builder.vtree.leaf(variables[int(parts[3])])
            else:
                vtree_ids[fid] = builder.vtree.inner(
                    vtree_ids[int(parts[3])], vtree_ids[int(parts[4])]
                )
        elif parts[0] == "vtreeroot":
            if vtree_root is not None:
                raise DiagramError("vtreeroot line repeated")
            vtree_root = vtree_ids[int(parts[1])]
        elif parts[0] == "node":
            nid = _new_id(parts[1], nodes, "node")
            if parts[2] == "false":
                nodes[nid] = builder.false
            elif parts[2] == "true":
                nodes[nid] = builder.true
            elif parts[2] == "lit":
                nodes[nid] = builder.literal(variables[int(parts[3])], _BIT[parts[4]] == 1)
            elif parts[2] == "decomp":
                vid = vtree_ids[int(parts[3])]
                if builder.vtree.kind[vid] != "inner":
                    raise DiagramError(f"decomposition {nid} on v-tree leaf {parts[3]}")
                pairs = []
                for chunk in parts[4:]:
                    p, s = chunk.split(":")
                    pairs.append((nodes[int(p)], nodes[int(s)]))
                if span is None:
                    span = builder.vtree.intervals()
                if not builder.vtree.respects(span, vid, pairs):
                    raise DiagramError(f"decomposition {nid} has a pair outside its v-tree slots")
                nodes[nid] = builder.decomposition(vid, pairs)
            else:
                raise DiagramError(f"unknown node form {parts[2]!r}")
        else:
            raise DiagramError(f"unknown line {line!r}")
    if root_id not in nodes or vtree_root is None:
        raise DiagramError("diagram file missing root")
    legend = tuple(
        variables[i] for i in sorted(variables) if variables[i].kind != "dummy"
    )
    # the queries fold scopes up to vtree_root, so everything must lie under it
    first, end = span or builder.vtree.intervals()
    under = [builder.vtree.leaf_of(var) for var in legend]
    if nodes[root_id].vtree_id is not None:
        under.append(nodes[root_id].vtree_id)
    if any(not first[vtree_root] <= first[vid] < end[vtree_root] for vid in under):
        raise DiagramError("the root or a legend variable lies outside vtreeroot")
    return SddCompilation(builder, nodes[root_id], legend, vtree_root)


def _load_obdd(variables, body, root_id) -> Obdd:
    orders = [parts[1:] for parts in map(str.split, body) if parts[0] == "order"]
    if len(orders) != 1:
        raise DiagramError("an OBDD file needs exactly one order line")
    order = tuple(variables[int(i)] for i in orders[0])
    legend = tuple(variables[i] for i in sorted(variables))
    if any(v.kind == "dummy" for v in legend):
        raise DiagramError("an OBDD file declares a dummy variable")
    if set(order) != set(legend):
        raise DiagramError("order does not list every variable")
    space = ObddSpace(order)
    nodes = {}
    for line in body:
        parts = _split(line)
        if parts[0] == "order":
            continue
        if parts[0] != "node":
            raise DiagramError(f"unknown line {line!r}")
        nid = _new_id(parts[1], nodes, "node")
        if parts[2] == "leaf":
            nodes[nid] = space.leaf(_BIT[parts[3]])
        elif parts[2] == "dec":
            level, lo, hi = int(parts[3]), nodes[int(parts[4])], nodes[int(parts[5])]
            if level not in range(len(order)) or any(
                not c.is_leaf and c.level <= level for c in (lo, hi)
            ):
                raise DiagramError(f"decision {nid} breaks the level order")
            nodes[nid] = space.decision(level, lo, hi)
        else:
            raise DiagramError(f"unknown node form {parts[2]!r}")
    if root_id not in nodes:
        raise DiagramError("diagram file missing root")
    return Obdd(space, nodes[root_id], legend)


# -- DOT export -----------------------------------------------------------------


def _dot_quote(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def diagram_to_dot(diagram) -> str:
    if diagram.kind == "sdd":
        return _sdd_dot(diagram)
    return _obdd_dot(diagram)


def _sdd_dot(diagram) -> str:
    # decompositions are circles feeding rows of paired prime|sub boxes
    out = ["digraph sdd {", "  node [fontname=monospace];"]
    nodes, nid = _numbered(diagram)

    def label(node) -> str:
        if node.kind == FALSE:
            return "F"
        if node.kind == TRUE:
            return "T"
        if node.kind == LITERAL:
            return ("" if node.polarity else "~") + node.var.name
        return ""

    for fid, node in enumerate(nodes):
        if node.kind != DECOMP:
            continue
        out.append(f"  n{fid} [shape=circle label={_dot_quote(str(fid))}];")
        for i, (p, s) in enumerate(node.pairs):
            box = f"n{fid}p{i}"
            left = label(p) if p.kind != DECOMP else "*"
            right = label(s) if s.kind != DECOMP else "*"
            out.append(
                f"  {box} [shape=record label={_dot_quote(f'{left}|{right}')}];"
            )
            out.append(f"  n{fid} -> {box};")
            if p.kind == DECOMP:
                out.append(f"  {box} -> n{nid[p.uid]} [style=dashed];")
            if s.kind == DECOMP:
                out.append(f"  {box} -> n{nid[s.uid]};")
    if diagram.root.kind != DECOMP:
        out.append(
            f"  n{nid[diagram.root.uid]} [shape=box label={_dot_quote(label(diagram.root))}];"
        )
    out.append("}")
    return "\n".join(out) + "\n"


def _obdd_dot(diagram) -> str:
    # dotted edges are 0-branches, solid edges 1-branches
    out = ["digraph obdd {", "  node [fontname=monospace];"]
    nodes, nid = _numbered(diagram)
    for i, node in enumerate(nodes):
        if node.is_leaf:
            out.append(f"  n{i} [shape=box label={_dot_quote(str(int(node.label)))}];")
        else:
            name = diagram.order[node.level].name
            out.append(f"  n{i} [shape=ellipse label={_dot_quote(name)}];")
            out.append(f"  n{i} -> n{nid[node.lo.uid]} [style=dotted];")
            out.append(f"  n{i} -> n{nid[node.hi.uid]};")
    out.append("}")
    return "\n".join(out) + "\n"
