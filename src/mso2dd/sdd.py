"""Structured decision diagrams over v-trees, and their construction from the
decomposition dynamic program.

An `SddBuilder` numbers nodes as ints, keeps each field in a list and
hash-conses: equal terminals and literals, and decompositions that list the
same pairs in the same order at one v-tree node, are one node. A
decomposition's primes always respect the left subtree of its v-tree node and
form a boolean partition; subs respect the right subtree. The compiler trims
every decomposition it builds (`trimmed`, `ContextSets.reduced`); a loaded
file keeps its nodes as written. On a join-free decomposition the compiler
builds the OBDD of `obdd.compile_obdd` in SDD form, over a right-linear
v-tree; otherwise its v-tree mirrors the decomposition. An `Sdd` keeps the
lists and its positions (`graph.Dag`), which every reader indexes by node
number; `Sdd.satisfiable` decides in one sweep over them whether a model
extends a partial assignment; on a total assignment that is its value.
"""

from __future__ import annotations

from itertools import chain
from types import SimpleNamespace

from .assignment import DecisionVariable, decision_variables, dv_dummy
from .decomposition import FORGET, JOIN, LEAF, NiceTreeDecomposition, is_path_decomposition
from .errors import DiagramError
from .graph import Dag, Graph
from .mso import Formula
from .obdd import build_layers, layer_steps
from .states import (
    ReachableSets,
    decision_space,
    forget_plan,
    minimize_states,
    reachable_states,
)

FALSE = "false"
TRUE = "true"
LITERAL = "lit"
DECOMP = "decomp"


class VTree:
    """Full binary tree whose leaves carry the decision variables."""

    def __init__(self) -> None:
        self.kind: list[str] = []
        self.var: list[DecisionVariable | None] = []
        self.left: list[int | None] = []
        self.right: list[int | None] = []
        self._var_leaf: dict[DecisionVariable, int] = {}

    def leaf(self, var: DecisionVariable) -> int:
        if var in self._var_leaf:
            raise DiagramError(f"variable {var!r} already has a v-tree leaf")
        vid = self._new("leaf", var, None, None)
        self._var_leaf[var] = vid
        return vid

    def inner(self, left: int, right: int) -> int:
        return self._new("inner", None, left, right)

    def _new(self, kind, var, left, right) -> int:
        self.kind.append(kind)
        self.var.append(var)
        self.left.append(left)
        self.right.append(right)
        return len(self.kind) - 1

    def leaf_of(self, var: DecisionVariable) -> int:
        return self._var_leaf[var]

    def all_variables(self) -> tuple[DecisionVariable, ...]:
        return tuple(self._var_leaf)

    def intervals(self) -> tuple[list[int], list[int]]:
        """Preorder numbers over the v-tree forest: `first[v]` is v's position
        and `end[v]` one past its last descendant's, so u lies under v exactly
        when first[v] <= first[u] < end[v]. Children have smaller ids than
        their parents."""
        n = len(self.kind)
        size, parents = [1] * n, [0] * n
        for vid in range(n):
            if self.kind[vid] == "inner":
                for child in (self.left[vid], self.right[vid]):
                    parents[child] += 1
                    size[vid] += size[child]
        if max(parents, default=0) > 1:
            raise DiagramError("a v-tree node has two parents")
        first, pos = [0] * n, 0
        for vid in reversed(range(n)):
            if not parents[vid]:
                first[vid], pos = pos, pos + size[vid]
            if self.kind[vid] == "inner":
                first[self.left[vid]] = first[vid] + 1
                first[self.right[vid]] = first[vid] + 1 + size[self.left[vid]]
        return first, [f + k for f, k in zip(first, size)]

    def respects(self, span, vtree_id: int, pairs, node_vtree) -> bool:
        """Every prime lies under the left child of the node, every sub under
        its right child; constants fit anywhere. `span` is `intervals()`, and
        `node_vtree` a store's v-tree node of each node."""
        first, end = span
        left, right = self.left[vtree_id], self.right[vtree_id]
        lo_p, hi_p, lo_s, hi_s = first[left], end[left], first[right], end[right]
        for p, s in pairs:
            p, s = node_vtree[p], node_vtree[s]
            if p is not None and not lo_p <= first[p] < hi_p:
                return False
            if s is not None and not lo_s <= first[s] < hi_s:
                return False
        return True

    def __len__(self) -> int:
        return len(self.kind)


class SddBuilder:
    """Hash-consing store; owns the v-tree grown alongside the diagram and the
    landing plans. Node i's form, v-tree node, polarity and pairs are entry i
    of four lists. Its table lives while nodes are made: a diagram keeps the
    lists and the v-tree, not the table."""

    def __init__(self) -> None:
        self.vtree = VTree()
        self.plans: dict[int, tuple] = {}
        self.form, self.vtree_id, self.polarity, self.pairs = [], [], [], []
        self._table: dict[tuple, int] = {}
        self.false = self._intern((FALSE,), FALSE)
        self.true = self._intern((TRUE,), TRUE)

    def _intern(self, key, form, vtree_id=None, polarity=None, pairs=()) -> int:
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = len(self.form)
            self.form.append(form)
            self.vtree_id.append(vtree_id)
            self.polarity.append(polarity)
            self.pairs.append(pairs)
        return node

    def literal(self, var: DecisionVariable, polarity: bool) -> int:
        vid = self.vtree.leaf_of(var)
        return self._intern((LITERAL, vid, polarity), LITERAL, vid, polarity)

    def decomposition(self, vtree_id: int, pairs) -> int:
        """Prime-sub pairs, stored in the order given; constant-false primes are
        dropped. Interned on that sequence of pairs: the compiler lists a
        v-tree node's pairs in one fixed order, so it loses no sharing, while a
        loaded file whose decompositions at one v-tree node list the same pairs
        in different orders keeps them as separate nodes."""
        kept = tuple([pair for pair in pairs if pair[0] != self.false])
        if not kept:
            raise DiagramError("decomposition with no non-false primes")
        return self._intern((DECOMP, vtree_id, kept), DECOMP, vtree_id, pairs=kept)


def trimmed(builder: SddBuilder, vtree_id: int, pairs) -> int:
    """The decomposition of `pairs`, whose primes form a boolean partition, less
    its false primes, under Darwiche's trimming rules, decided in one pass:
    pairs that all share one sub are that sub, and a single true sub among
    false ones is its pair's prime."""
    true, false = builder.true, builder.false
    kept, sub, top = [], None, None
    shared = single = True  # all subs are the first one; all but at most one true are false
    for pair in pairs:
        p, s = pair
        if p != false:
            kept.append(pair)
            sub = s if sub is None else sub
            shared = shared and s == sub
            single = single and (s == false or s == true and top is None)
            top = p if s == true else top
    if not kept:
        raise DiagramError("decomposition with no non-false primes")
    if shared:
        return sub
    if single and top is not None:
        return top
    kept = tuple(kept)
    return builder._intern((DECOMP, vtree_id, kept), DECOMP, vtree_id, pairs=kept)


class StateSddMapping:
    """For one decomposition node: each state class to the diagram deciding
    `the run lands in this class`; exactly one image is true per assignment.
    The images' insertion order is the mapping's deterministic iteration order.
    """

    def __init__(self, images: dict, vtree_id: int) -> None:
        self.images = images
        self.vtree_id = vtree_id

    def states(self):
        return tuple(self.images)


class ContextSets:
    """The assignments of a forget node's context variables, and the diagram of
    any set of them. Assignment idx sets variable i to bit k-1-i of idx; with
    no variables there is one assignment, 0. Over the right-linear v-tree an
    SDD is an OBDD: the diagram at level i decides variable i under v-tree node
    `suffix_vids[i]`, built once per (i, truth vector over variables i, ...).
    So it is also the node store `obdd.build_layers` takes (`reduced`)."""

    def __init__(self, builder: SddBuilder, variables, suffix_vids) -> None:
        self.builder = builder
        self.suffix_vids = suffix_vids  # the v-tree node of variables i, i+1, ...
        self.vtree_id = suffix_vids[0]
        self.literals = [(builder.literal(v, False), builder.literal(v, True)) for v in variables]
        self._memo = {(len(variables), 0): builder.false, (len(variables), 1): builder.true}

    def states(self):
        return range(1 << len(self.literals))

    def diagram(self, members: int, i: int = 0) -> int:
        """The trimmed diagram over variables i, i+1, ... true exactly on the
        assignments whose index bits are set in `members`; variable i is 0 on
        the lower half of the bits."""
        node = self._memo.get((i, members))
        if node is None:
            half = 1 << (len(self.literals) - 1 - i)
            lo = self.diagram(members & ((1 << half) - 1), i + 1)
            node = self.reduced(i, lo, self.diagram(members >> half, i + 1))
            self._memo[i, members] = node
        return node

    def reduced(self, i: int, lo: int, hi: int) -> int:
        """The trimmed decomposition [(not x, lo), (x, hi)] of variable i = x,
        at the v-tree node of variables i, i+1, ...: `lo` when both are one
        node, x for false and true, and not x for true and false."""
        builder = self.builder
        if lo == hi:
            return lo
        neg, pos = self.literals[i]
        if lo == builder.false and hi == builder.true:
            return pos
        if lo == builder.true and hi == builder.false:
            return neg
        vid, pairs = self.suffix_vids[i], ((neg, lo), (pos, hi))
        return builder._intern((DECOMP, vid, pairs), DECOMP, vid, pairs=pairs)


def context_assignment_mapping(
    builder: SddBuilder, ctx_vars: tuple[DecisionVariable, ...], dummy_tag: str = "ctx"
) -> ContextSets:
    """A forget node's context: its variables' leaves under a right-linear
    v-tree, or a dummy leaf named `dummy_tag` when it has no variables."""
    leaves = [builder.vtree.leaf(v) for v in ctx_vars]
    suffix_vids = leaves[-1:] or [builder.vtree.leaf(dv_dummy(dummy_tag))]
    for vid in reversed(leaves[:-1]):
        suffix_vids.insert(0, builder.vtree.inner(vid, suffix_vids[0]))
    return ContextSets(builder, ctx_vars, suffix_vids)


def state_table_mapping(
    builder: SddBuilder, g_a: StateSddMapping, g_b, table: dict, out_states,
    dummy_tag: str | None = None,
) -> StateSddMapping:
    """Combine a mapping with a forget node's context, or at a join with the
    right child's mapping, through a transition table.

    `table[(a, b)]` is the state reached from a-state and b-state; the result
    maps each output state c, in `out_states` order, to a diagram true exactly
    when the combination lands in c: a's image paired with the diagram of the
    b-states that take a to c, a bitmask over the positions of `g_b.states()`.
    A context (`ContextSets`) builds that diagram itself. A mapping's b-states,
    given `dummy_tag`, are unioned by one decomposition over node(t_b, dummy).
    Respects node(t_a, right side), and every diagram is trimmed. The builder
    keeps each table's landing plan, with the table so that its id stays its
    own: nodes share a table by identity, and a table fixes its own states.
    """
    if dummy_tag is None:
        right_vid, union = g_b.vtree_id, g_b.diagram
    else:
        pad = builder.vtree.leaf(dv_dummy(dummy_tag))
        right_vid = builder.vtree.inner(g_b.vtree_id, pad)

        def union(members: int) -> int:
            return trimmed(builder, right_vid, [
                (image, builder.true if members >> j & 1 else builder.false)
                for j, image in enumerate(g_b.images.values())
            ])

    out_vid = builder.vtree.inner(g_a.vtree_id, right_vid)
    if id(table) not in builder.plans:
        # per output state c, the b-states taking each a-state to c, as a bitmask
        rows = {c: [0] * len(g_a.images) for c in out_states}
        for i, a in enumerate(g_a.images):
            for j, b in enumerate(g_b.states()):
                c = table[(a, b)]
                if c not in rows:
                    raise DiagramError(f"transition image outside declared states: {c!r}")
                rows[c][i] |= 1 << j
        masks = list(dict.fromkeys(chain.from_iterable(rows.values())))
        builder.plans[id(table)] = table, rows, masks
    _, rows, masks = builder.plans[id(table)]
    subs = {members: union(members) for members in masks}  # the empty mask's is false
    a_images = list(g_a.images.values())
    images = {
        c: trimmed(builder, out_vid, [(p, subs[m]) for p, m in zip(a_images, row)])
        for c, row in rows.items()
    }
    return StateSddMapping(images, out_vid)


class Sdd(Dag):
    """A structured diagram over its v-tree, with the legend of its decision
    variables: its store's lists, and its positions. A compiled diagram also
    keeps its reachable sets; a diagram loaded from text has None there."""

    def __init__(self, store, root, legend, vtree_root, reachable=None):
        self.kind = "sdd"
        self.vtree: VTree = store.vtree
        self.form, self.vtree_id = store.form, store.vtree_id
        self.polarity, self.pairs = store.polarity, store.pairs
        self.legend: tuple[DecisionVariable, ...] = legend
        self.vtree_root: int = vtree_root
        self.reachable: ReachableSets | None = reachable
        self._root = root

    # bench/worker.py reads `sdd_size(comp.root)`; this goes when the benchmark next changes
    root = property(lambda self: self)

    def children(self, i: int):
        return chain.from_iterable(self.pairs[i])

    def size(self) -> int:
        """A decomposition counts its pairs, any other node one; shared nodes once."""
        return sum(len(self.pairs[i]) or 1 for i in self.positions)

    def satisfiable(self, delta) -> bool:
        """One sweep over the positions. A decomposition holds when some pair's
        prime and sub both hold, as they mention disjoint variables, and a
        literal on a variable delta leaves out holds."""
        form, vtree_id, polarity, pairs = self.form, self.vtree_id, self.polarity, self.pairs
        var = self.vtree.var
        value = [False] * len(form)
        for i in self.positions:
            f = form[i]
            if f == DECOMP:
                for p, s in pairs[i]:
                    if value[p] and value[s]:
                        value[i] = True
                        break
            elif f == LITERAL:
                v = var[vtree_id[i]]
                value[i] = v not in delta or bool(delta[v]) == polarity[i]
            else:
                value[i] = f == TRUE
        return value[self._root]


sdd_size = Sdd.size


def iter_sdd_nodes(diagram: Sdd) -> list:
    # bench/worker.py reads the `kind` of each record; this goes when the benchmark next changes
    return [SimpleNamespace(kind=diagram.form[i]) for i in diagram.positions]


def compile_sdd(
    phi: Formula, g: Graph, t: NiceTreeDecomposition, coloring: dict[int, int]
) -> Sdd:
    """Bottom-up construction over the nice decomposition.

    A join-free one yields the OBDD of `compile_obdd` in SDD form: the layers
    of `obdd.build_layers` over the right-linear v-tree of its whole order.
    Otherwise every node gets a mapping from its state classes to diagrams,
    and the root's accepting class's diagram is true exactly on the accepted
    assignments. Only a node's parent reads its mapping, so a postorder fold
    keeps the mappings on a stack and drops each one as its parent pops it."""
    space = decision_space(phi)
    plan = forget_plan(phi, t, coloring)
    reach = minimize_states(space, t, reachable_states(space, t, plan))
    builder = SddBuilder()
    legend = decision_variables(phi, g)
    if is_path_decomposition(t):
        order, steps = layer_steps(t, plan, reach)
        levels = context_assignment_mapping(builder, order, "order")
        terminals = {
            s: builder.true if space.is_accepting(s) else builder.false
            for s in reach.per_node[t.root]
        }
        root = build_layers(levels, steps, terminals)[space.initial]
        return Sdd(builder, root, legend, levels.vtree_id, reach)
    stack: list[StateSddMapping] = []

    for nid in t.postorder():  # an introduce node keeps its child's mapping
        node = t.nodes[nid]
        if node.kind == LEAF:
            vid = builder.vtree.leaf(dv_dummy(f"leaf{nid}"))
            stack.append(StateSddMapping({space.initial: builder.true}, vid))
        elif node.kind == FORGET:
            context = context_assignment_mapping(builder, plan[nid].variables, f"ctx{nid}")
            stack.append(state_table_mapping(
                builder, stack.pop(), context, reach.forget_tables[nid], reach.per_node[nid]
            ))
        elif node.kind == JOIN:
            right = stack.pop()
            stack.append(state_table_mapping(
                builder, stack.pop(), right, reach.join_tables[nid], reach.per_node[nid],
                f"join{nid}",
            ))

    # the root's classes are its accepting and rejecting states, so the
    # accepting class's image is the diagram
    (g_root,) = stack
    root = next(
        (g_root.images[s] for s in g_root.states() if space.is_accepting(s)), builder.false
    )
    return Sdd(builder, root, legend, g_root.vtree_id, reach)
