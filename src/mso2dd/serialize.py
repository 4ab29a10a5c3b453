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

A node's file id is its position (`graph.Dag`), not its node number. A
compiled diagram's positions are a walk that depends on its shape only, so
equal OBDDs give equal text however their nodes were interned. A loaded one's
are its file's order, less the nodes the root does not reach and repeats: a
walk would cost more. So the program's own files load and write back the
same text, and any other file reaches that fixed point after one write. DOT
names nodes by file id, so a diagram and its loaded file give the same DOT.
"""

from __future__ import annotations

from .assignment import DecisionVariable, dv_dummy, dv_eq, dv_mem
from .errors import DiagramError
from .mso import Sort, Var
from .obdd import Obdd, ObddSpace
from .sdd import DECOMP, FALSE, LITERAL, TRUE, Sdd, SddBuilder

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


def diagram_lines(diagram):
    """The diagram's file text, line by line, without newlines."""
    yield "mso2dd-diagram 1"
    yield f"kind {diagram.kind}"
    positions = diagram.positions
    fid = dict(zip(positions, range(len(positions))))  # file id by node number
    if diagram.kind == "sdd":
        vtree, form, vtree_id = diagram.vtree, diagram.form, diagram.vtree_id
        variables = list(diagram.legend) + [
            v for v in vtree.all_variables() if v.kind == "dummy"
        ]
        index = {v: i for i, v in enumerate(variables)}
        yield from (_var_line(i, v) for i, v in enumerate(variables))
        for vid in range(len(vtree)):
            if vtree.kind[vid] == "leaf":
                yield f"vtree {vid} leaf {index[vtree.var[vid]]}"
            else:
                yield f"vtree {vid} inner {vtree.left[vid]} {vtree.right[vid]}"
        yield f"vtreeroot {diagram.vtree_root}"
        for pos, i in enumerate(positions):
            if form[i] == DECOMP:
                pairs = " ".join(f"{fid[p]}:{fid[s]}" for p, s in diagram.pairs[i])
                yield f"node {pos} decomp {vtree_id[i]} {pairs}"
            elif form[i] == LITERAL:
                yield f"node {pos} lit {index[vtree.var[vtree_id[i]]]} {int(diagram.polarity[i])}"
            else:
                yield f"node {pos} {form[i]}"
    else:
        index = {v: i for i, v in enumerate(diagram.legend)}
        yield from (_var_line(i, v) for i, v in enumerate(diagram.legend))
        yield "order " + " ".join(str(index[v]) for v in diagram.order)
        lo, hi = diagram.lo, diagram.hi
        for pos, i in enumerate(positions):
            if lo[i] is None:
                yield f"node {pos} leaf {int(diagram.label[i])}"
            else:
                yield f"node {pos} dec {diagram.level[i]} {fid[lo[i]]} {fid[hi[i]]}"
    yield f"root {len(positions) - 1}"


def serialize_diagram(diagram) -> str:
    return "\n".join([*diagram_lines(diagram), ""])


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
        for line in lines[2:]:  # then only `body` holds the lines it keeps
            tag = "node" if line[:5] == "node " else line.split(None, 1)[0]
            if tag == "var":
                parts = _split(line)
                variables[_new_id(parts[1], variables, "var")] = _parse_var(parts[2:])
            elif tag == "root":
                if root_id is not None:
                    raise DiagramError("root line repeated")
                root_id = int(_split(line)[1])
            else:
                body.append(line)
        del lines
        body.reverse()  # the loaders pop each line as they read it, and drop it
        load = _load_sdd if kind == "sdd" else _load_obdd
        return load(variables, body, root_id)
    except (KeyError, ValueError, IndexError) as exc:
        raise DiagramError(f"malformed diagram file: {exc}") from exc


def _load_sdd(variables, body, root_id) -> Sdd:
    builder = SddBuilder()
    vtree_ids: dict[int, int] = {}
    ids: dict[int, int] = {}  # each node line's node number, by file id
    vtree_root = None
    span = None  # the v-tree's preorder intervals, fixed at the first decomposition
    vtree = builder.vtree
    while body:
        line = body.pop()
        parts = _split(line)
        if parts[0] == "node":
            nid = _new_id(parts[1], ids, "node")
            if parts[2] == "decomp":
                vid = vtree_ids[int(parts[3])]
                if vtree.kind[vid] != "inner":
                    raise DiagramError(f"decomposition {nid} on v-tree leaf {parts[3]}")
                pairs = []
                for chunk in parts[4:]:
                    p, s = chunk.split(":")
                    pairs.append((ids[int(p)], ids[int(s)]))
                if span is None:
                    span = vtree.intervals()
                if not vtree.respects(span, vid, pairs, builder.vtree_id):
                    raise DiagramError(f"decomposition {nid} has a pair outside its v-tree slots")
                ids[nid] = builder.decomposition(vid, pairs)
            elif parts[2] == "lit":
                ids[nid] = builder.literal(variables[int(parts[3])], _BIT[parts[4]] == 1)
            elif parts[2] in (FALSE, TRUE):
                ids[nid] = builder.true if parts[2] == TRUE else builder.false
            else:
                raise DiagramError(f"unknown node form {parts[2]!r}")
        elif parts[0] == "vtree":
            if span is not None:
                raise DiagramError("v-tree line after a decomposition")
            fid = _new_id(parts[1], vtree_ids, "vtree")
            if parts[2] == "leaf":
                vtree_ids[fid] = vtree.leaf(variables[int(parts[3])])
            else:
                vtree_ids[fid] = vtree.inner(vtree_ids[int(parts[3])], vtree_ids[int(parts[4])])
        elif parts[0] == "vtreeroot":
            if vtree_root is not None:
                raise DiagramError("vtreeroot line repeated")
            vtree_root = vtree_ids[int(parts[1])]
        else:
            raise DiagramError(f"unknown line {line!r}")
    if root_id not in ids or vtree_root is None:
        raise DiagramError("diagram file missing root")
    root = ids[root_id]
    legend = tuple(
        variables[i] for i in sorted(variables) if variables[i].kind != "dummy"
    )
    # the queries fold scopes up to vtree_root, so everything must lie under it
    first, end = span or builder.vtree.intervals()
    under = [builder.vtree.leaf_of(var) for var in legend]
    if builder.vtree_id[root] is not None:
        under.append(builder.vtree_id[root])
    if any(not first[vtree_root] <= first[vid] < end[vtree_root] for vid in under):
        raise DiagramError("the root or a legend variable lies outside vtreeroot")
    diagram = Sdd(builder, root, legend, vtree_root)
    listing = list(ids.values())
    del builder, ids  # the unique table and the file ids die before the sweep
    diagram.last_reader = diagram.place(listing)
    return diagram


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
    level = space.level  # a leaf's is len(order), past every decision's
    ids: dict[int, int] = {}  # each node line's node number, by file id
    while body:
        line = body.pop()
        parts = _split(line)
        if parts[0] == "order":
            continue
        if parts[0] != "node":
            raise DiagramError(f"unknown line {line!r}")
        nid = _new_id(parts[1], ids, "node")
        if parts[2] == "leaf":
            ids[nid] = space.leaf(_BIT[parts[3]])
        elif parts[2] == "dec":
            lvl, lo, hi = int(parts[3]), ids[int(parts[4])], ids[int(parts[5])]
            if lvl not in range(len(order)) or level[lo] <= lvl or level[hi] <= lvl:
                raise DiagramError(f"decision {nid} breaks the level order")
            ids[nid] = space.decision(lvl, lo, hi)
        else:
            raise DiagramError(f"unknown node form {parts[2]!r}")
    if root_id not in ids:
        raise DiagramError("diagram file missing root")
    diagram = Obdd(space, ids[root_id], legend)
    listing = list(ids.values())
    del space, ids  # the unique table and the file ids die before the sweep
    diagram.last_reader = diagram.place(listing)
    return diagram


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
    form, fid = diagram.form, {i: pos for pos, i in enumerate(diagram.positions)}

    def label(i: int) -> str:
        if form[i] == LITERAL:
            sign = "" if diagram.polarity[i] else "~"
            return sign + diagram.vtree.var[diagram.vtree_id[i]].name
        return {FALSE: "F", TRUE: "T", DECOMP: "*"}[form[i]]

    for pos, i in enumerate(diagram.positions):
        if form[i] != DECOMP:
            continue
        out.append(f"  n{pos} [shape=circle label={_dot_quote(str(pos))}];")
        for k, (p, s) in enumerate(diagram.pairs[i]):
            box = f"n{pos}p{k}"
            out.append(f"  {box} [shape=record label={_dot_quote(f'{label(p)}|{label(s)}')}];")
            out.append(f"  n{pos} -> {box};")
            if form[p] == DECOMP:
                out.append(f"  {box} -> n{fid[p]} [style=dashed];")
            if form[s] == DECOMP:
                out.append(f"  {box} -> n{fid[s]};")
    root = diagram.positions[-1]
    if form[root] != DECOMP:
        out.append(f"  n{fid[root]} [shape=box label={_dot_quote(label(root))}];")
    out.append("}")
    return "\n".join(out) + "\n"


def _obdd_dot(diagram) -> str:
    # dotted edges are 0-branches, solid edges 1-branches
    out = ["digraph obdd {", "  node [fontname=monospace];"]
    lo, hi, fid = diagram.lo, diagram.hi, {i: pos for pos, i in enumerate(diagram.positions)}
    for pos, i in enumerate(diagram.positions):
        if lo[i] is None:
            out.append(f"  n{pos} [shape=box label={_dot_quote(str(int(diagram.label[i])))}];")
        else:
            name = diagram.order[diagram.level[i]].name
            out.append(f"  n{pos} [shape=ellipse label={_dot_quote(name)}];")
            out.append(f"  n{pos} -> n{fid[lo[i]]} [style=dotted];")
            out.append(f"  n{pos} -> n{fid[hi[i]]};")
    out.append("}")
    return "\n".join(out) + "\n"
