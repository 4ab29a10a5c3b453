"""Reference checkers the tests share.

None of these is on a path the command line, the compilers or the queries
take: structural invariants of nice decompositions and diagrams, the
decision procedure run on one whole assignment, the explicit encoding of
variable assignments as decision bits, truth tables computed without a
diagram, and brute-force model listings.
"""

from __future__ import annotations

import itertools
from unittest import mock

from mso2dd import sdd
from mso2dd.assignment import (
    DecisionVariable, _objects, decision_variables, decode_bits, domain, dv_dummy, dv_eq,
    dv_mem,
)
from mso2dd.decomposition import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    NiceTreeDecomposition,
    TreeDecomposition,
    ValidationReport,
    _dropped_edges,
    validate_decomposition,
)
from mso2dd.errors import Mso2ddError
from mso2dd.graph import Graph, children_first
from mso2dd.mso import Formula, Var
from mso2dd.obdd import Obdd, build_layers
from mso2dd.oracle import Cnf, _truth_fold, fold, truth_table_oracle, variable_masks
from mso2dd.sdd import DECOMP, Sdd, StateSddMapping
from mso2dd.states import (
    ForgetInfo, StateSpace, decision_space, forget_plan, forgotten_bits, minimize_states,
    reachable_states,
)

# -- decompositions ------------------------------------------------------------


def min_fill_reference(g: Graph) -> TreeDecomposition:
    """The min-fill decomposition by a full scan per step: every remaining
    vertex's fill is recomputed, and the first least fill in id order wins."""
    if g.n_vertices == 0:
        return TreeDecomposition({1: frozenset()}, [])
    # the vertices not yet eliminated, in id order: built in that order, only popped
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    order, saved_nbrs = [], []
    while adj:
        best = None
        for v, nbrs in adj.items():
            fill = sum(1 for a in nbrs for b in nbrs if a < b and b not in adj[a])
            if best is None or fill < best[0]:
                best = (fill, v)
        v = best[1]
        nbrs = adj.pop(v)
        order.append(v)
        saved_nbrs.append(nbrs)
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
            adj[a].discard(v)
    position = {v: i for i, v in enumerate(order, start=1)}
    bags = {i + 1: frozenset({order[i]} | saved_nbrs[i]) for i in range(len(order))}
    edges = [
        (i, min((position[w] for w in nbrs), default=i + 1))
        for i, nbrs in enumerate(saved_nbrs[:-1], start=1)
    ]
    return TreeDecomposition(bags, edges)


def as_tree_decomposition(t: NiceTreeDecomposition) -> TreeDecomposition:
    bags = {nid: n.bag for nid, n in t.nodes.items()}
    edges = [
        (nid, c) for nid, n in t.nodes.items() for c in n.children
    ]
    return TreeDecomposition(bags, edges)


def validate_nice(g: Graph, t: NiceTreeDecomposition) -> ValidationReport:
    """Check the nice-form conditions on top of ordinary validity, and that
    each forget node's `edges` are the edges it drops, every edge once."""
    base = validate_decomposition(g, as_tree_decomposition(t))
    violations = list(base.violations)
    if t.nodes[t.root].bag:
        violations.append("root bag is not empty")
    drops = dict.fromkeys(g.edges, 0)
    for n in t.nodes.values():
        kids = [t.nodes[c] for c in n.children]
        for e in n.edges:
            drops[e] = drops.get(e, 0) + 1
        if n.kind != FORGET and n.edges:
            violations.append(f"node {n.id}: only a forget node drops edges")
        if n.kind == LEAF:
            if kids:
                violations.append(f"leaf node {n.id} has children")
        elif n.kind in (INTRODUCE, FORGET):
            if len(kids) != 1:
                violations.append(f"node {n.id} needs exactly one child")
                continue
            child = kids[0]
            diff = n.bag ^ child.bag
            if len(diff) != 1:
                violations.append(f"node {n.id}: symmetric difference is not one vertex")
            expect = (
                child.bag | {n.vertex} if n.kind == INTRODUCE else child.bag - {n.vertex}
            )
            if n.bag != expect or n.vertex is None:
                violations.append(f"node {n.id}: bag does not match its {n.kind} vertex")
            elif n.kind == FORGET and n.vertex in g.vertices():
                if n.edges != _dropped_edges(g, n.vertex, n.bag):
                    violations.append(f"node {n.id}: edges are not the ones it drops")
        elif n.kind == JOIN:
            if len(kids) != 2 or any(k.bag != n.bag for k in kids):
                violations.append(f"join node {n.id}: children must copy its bag")
        else:
            violations.append(f"node {n.id}: unknown kind {n.kind!r}")
    for e, times in drops.items():
        if times != 1:
            violations.append(f"edge ({e.u}, {e.v}) dropped {times} times")
    return ValidationReport(not violations, base.width, tuple(violations))


def good_coloring_reference(g: Graph, t: NiceTreeDecomposition) -> dict[int, int]:
    """The greedy coloring by increasing depth of each vertex's forget node,
    ties by vertex id: each vertex takes the smallest color unused in the bag
    of its forget node."""
    forgets = {t.nodes[nid].vertex: nid for nid in t.forget_nodes()}
    depth = {t.root: 0}
    for nid in reversed(t.postorder()):  # each node before its children
        for child in t.nodes[nid].children:
            depth[child] = depth[nid] + 1
    color: dict[int, int] = {}
    for v in sorted(g.vertices(), key=lambda v: (depth[forgets[v]], v)):
        used = {color[u] for u in t.nodes[forgets[v]].bag if u in color}
        c = 1
        while c in used:
            c += 1
        color[v] = c
    return color


def is_good_coloring(g: Graph, t: NiceTreeDecomposition, color: dict[int, int]) -> bool:
    for n in t.nodes.values():
        seen = [color[v] for v in n.bag]
        if len(set(seen)) != len(seen):
            return False
    return True


# -- the decision procedure on one assignment ----------------------------------


def node_states(
    space: StateSpace, t: NiceTreeDecomposition, plan: dict[int, ForgetInfo], delta
) -> dict:
    """Run the procedure once on a whole assignment `delta`, recording the
    state assigned to every node."""
    states: dict = {}
    for nid in t.postorder():
        n = t.nodes[nid]
        if n.kind == LEAF:
            states[nid] = space.initial
        elif n.kind == INTRODUCE:
            states[nid] = states[n.children[0]]
        elif n.kind == FORGET:
            info = plan[nid]
            states[nid] = space.forget(
                states[n.children[0]], info.shape, forgotten_bits(info, delta)
            )
        elif n.kind == JOIN:
            states[nid] = space.join(states[n.children[0]], states[n.children[1]])
        else:
            raise Mso2ddError(f"unknown node kind {n.kind!r}")
    return states


def run_decision_procedure(
    phi: Formula, g: Graph, t: NiceTreeDecomposition, coloring: dict[int, int], delta
) -> bool:
    """Accept iff delta is consistent and encodes a model of phi on g."""
    space = decision_space(phi)
    plan = forget_plan(phi, t, coloring)
    states = node_states(space, t, plan, delta)
    return space.is_accepting(states[t.root])


# -- diagrams ------------------------------------------------------------------


def light_subtrees(t: NiceTreeDecomposition) -> list[int]:
    """The tops of the subtrees that hang off the spine of `t`, from its leaf
    up to the root: each spine join's child that is not on the spine."""
    path = t.spine()
    return [
        next(c for c in t.nodes[nid].children if c != below)
        for below, nid in zip(path, path[1:])
        if t.nodes[nid].kind == JOIN
    ]


def compile_with_mappings(
    phi: Formula, g: Graph, t: NiceTreeDecomposition, coloring: dict[int, int]
) -> tuple[Sdd, dict[int, StateSddMapping]]:
    """`compile_sdd(phi, g, t, coloring)` and the mapping from state classes to
    diagrams of every node in a light subtree (`light_subtrees`), the only
    nodes the stack fold maps. The forget and join mappings are the results
    of `compile_sdd`'s calls to `state_table_mapping`, recorded in the
    postorder of each subtree in turn; a leaf maps the initial state to true
    and an introduce node maps like its child."""
    calls = []  # (builder, mapping) per call
    original = sdd.state_table_mapping

    def recorded(*args):
        calls.append((args[0], original(*args)))
        return calls[-1][1]

    with mock.patch.object(sdd, "state_table_mapping", recorded):
        comp = sdd.compile_sdd(phi, g, t, coloring)
    assert calls, "no state_table_mapping call: the spine has no light subtree"
    results, initial = iter(calls), decision_space(phi).initial
    mappings: dict[int, StateSddMapping] = {}
    for top in light_subtrees(t):
        for nid in children_first(top, lambda i: t.nodes[i].children):
            node = t.nodes[nid]
            if node.kind == LEAF:
                vid = comp.vtree.leaf_of(dv_dummy(f"leaf{nid}"))
                mappings[nid] = StateSddMapping({initial: calls[0][0].true}, vid)
            elif node.kind == INTRODUCE:
                mappings[nid] = mappings[node.children[0]]
            else:
                mappings[nid] = next(results)[1]
    assert next(results, None) is None, "a state_table_mapping call without its node"
    return comp, mappings


def index_set_diagrams(ctx: sdd.ContextSets, masks) -> dict[int, int]:
    """The diagram of each set of assignments in `masks`, a bitmask over the
    assignment indices of the context `ctx`, a `context_assignment_mapping`
    of variables alone: one `build_layers` layer over them whose leaf j is bit
    j of the mask, as `state_table_mapping` builds a forget's subs."""
    k, builder = len(ctx.primes), ctx.builder
    bits = {(m, j): m >> j & 1 for m in masks for j in range(1 << k)}
    return build_layers(ctx, [(0, k, masks, bits)], {0: builder.false, 1: builder.true})


def whole_tree_fold(
    phi: Formula, g: Graph, t: NiceTreeDecomposition, coloring: dict[int, int]
) -> Sdd:
    """The SDD of `sdd.stack_fold` run at the root of `t`, over the whole
    decomposition: the accepting class's image. The spine's SDD is measured
    against it."""
    space = decision_space(phi)
    plan = forget_plan(phi, t, coloring)
    reach = minimize_states(space, t, reachable_states(space, t, plan))
    builder = sdd.SddBuilder()
    top = sdd.stack_fold(builder, space, t, plan, reach, t.root)
    root = next((top.images[s] for s in top.states() if space.is_accepting(s)), builder.false)
    return Sdd(builder, root, decision_variables(phi, g), top.vtree_id, reach)


def vtree_respected(diagram: Sdd) -> bool:
    """Structural check: primes live in the left subtree of their decomposition's
    v-tree node, subs in the right subtree."""
    vtree, vtree_id = diagram.vtree, diagram.vtree_id
    span = vtree.intervals()
    return all(
        vtree.respects(span, vtree_id[i], diagram.pairs[i], vtree_id)
        for i in diagram.positions
        if diagram.form[i] == DECOMP
    )


def level_counts(b: Obdd) -> dict[int, int]:
    counts: dict[int, int] = {}
    for i in b.positions:
        if b.label[i] is None:
            counts[b.level[i]] = counts.get(b.level[i], 0) + 1
    return counts


def is_ordered(b: Obdd) -> bool:
    """Every decision child of a decision sits on a later level."""
    return all(
        b.label[child] is not None or b.level[child] > b.level[i]
        for i in b.positions if b.label[i] is None
        for child in (b.lo[i], b.hi[i])
    )


# -- truth tables and model listings -------------------------------------------


def node_truth_tables(diagram, dvars) -> list:
    """The truth table of every node, by node number."""
    return fold(diagram, _truth_fold(dvars), keep=True)[1]


def cnf_truth_table(cnf: Cnf) -> int:
    masks = variable_masks(len(cnf.variables))
    ones = (1 << (1 << len(cnf.variables))) - 1
    table = ones
    for clause in cnf.clauses:
        clause_bits = 0
        for i in clause:
            clause_bits |= masks[i]
        table &= clause_bits
    return table


def oracle_listing(phi, g, legend):
    """The oracle's models in ascending order of the legend bit string, the
    first legend variable most significant."""
    legend = tuple(legend)
    digits = bin(truth_table_oracle(phi, g, legend))[:1:-1]  # bit i at index i
    rows = sorted(
        tuple((idx >> i) & 1 for i in range(len(legend)))
        for idx, digit in enumerate(digits)
        if digit == "1"
    )
    return [decode_bits(legend, dict(zip(legend, bits))) for bits in rows]


# -- assignments as decision bits ----------------------------------------------


class AssignmentError(Mso2ddError):
    """An assignment that names no value, or a value outside its universe, or
    decision bits that encode no assignment."""


def is_consistent(delta, phi: Formula, g: Graph) -> bool:
    """True iff every free object variable has exactly one satisfied equality bit."""
    for var in phi.free_object_vars:
        count = sum(delta[dv_eq(var, obj)] for obj in _objects(g, var.sort))
        if count != 1:
            return False
    return True


def encode_assignment(alpha, phi: Formula, g: Graph) -> dict[DecisionVariable, int]:
    """The unique consistent boolean assignment representing alpha."""
    delta = {}
    for var in phi.free_vars:
        if var not in alpha:
            raise AssignmentError(f"no value for free variable {var.name!r}")
        value = alpha[var]
        universe = set(_objects(g, var.sort))
        if var.sort.is_object:
            if value not in universe:
                raise AssignmentError(f"value {value!r} for {var.name!r} outside universe")
            for obj in _objects(g, var.sort):
                delta[dv_eq(var, obj)] = 1 if obj == value else 0
        else:
            members = set(value)
            if not members <= universe:
                raise AssignmentError(f"value for {var.name!r} outside universe")
            for obj in _objects(g, var.sort):
                delta[dv_mem(var, obj)] = 1 if obj in members else 0
    return delta


def decode_assignment(delta, phi: Formula, g: Graph) -> dict[Var, object]:
    """Inverse of encode_assignment; rejects inconsistent input."""
    if not is_consistent(delta, phi, g):
        raise AssignmentError("assignment is not consistent")
    alpha = decode_bits(decision_variables(phi, g), delta)
    # a set variable over an empty universe has no decision variable
    return {var: alpha.get(var, frozenset()) for var in phi.free_vars}


def all_mso_assignments(phi: Formula, g: Graph):
    """Iterate every assignment to the free variables, in a fixed order: each
    variable runs over `domain` of its sort, the last one fastest."""
    for values in itertools.product(*(domain(g, var.sort) for var in phi.free_vars)):
        yield dict(zip(phi.free_vars, values))


# -- graphs --------------------------------------------------------------------


def line_mutants(text: str):
    """Every line drop, line duplicate and swap of adjacent lines of `text`."""
    lines = text.splitlines(keepends=True)
    for i in range(len(lines)):
        yield "".join(lines[:i] + lines[i + 1:])
        yield "".join(lines[:i + 1] + lines[i:])
        if i + 1 < len(lines):
            yield "".join(lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:])


def serialize_graph(g: Graph) -> str:
    lines = [f"p gr {g.n_vertices} {g.n_edges}"]
    lines.extend(f"{e.u} {e.v}" for e in g.edges)
    return "\n".join(lines) + "\n"
