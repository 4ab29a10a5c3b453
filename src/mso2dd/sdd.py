"""Structured decision diagrams over v-trees, and their construction from the
decomposition dynamic program.

An `SddBuilder` numbers nodes as ints, keeps each field in a list and
hash-conses: equal terminals and literals, and decompositions that list the
same pairs in the same order at one v-tree node, are one node. A
decomposition's primes always respect the left subtree of its v-tree node and
form a boolean partition; subs respect the right subtree. The compiler makes
every node with `obdd.build_layers` over a `ContextSets`, which trims what it
builds; a loaded file keeps its nodes as written. The layered builder runs
down the decomposition's heavy spine over a right-linear v-tree, so a
join-free decomposition gives the OBDD of `obdd.compile_obdd` in SDD form;
each subtree off the spine is folded into a mapping whose v-tree mirrors it,
in two layered steps per forget or join. An `Sdd` keeps the lists and its
positions (`graph.Dag`), which every reader indexes by node number;
`Sdd.satisfiable` decides in one sweep over them whether a model extends a
partial assignment; on a total assignment that is its value.
"""

from __future__ import annotations

from itertools import chain
from types import SimpleNamespace

from .assignment import DecisionVariable, decision_variables, dv_dummy
from .decomposition import FORGET, JOIN, LEAF, NiceTreeDecomposition
from .errors import DiagramError
from .graph import Dag, Graph, children_first
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


class StateSddMapping:
    """For one decomposition node: each state class to the diagram deciding
    `the run lands in this class`; exactly one image is true per assignment.
    The images' insertion order is the mapping's deterministic iteration order."""

    def __init__(self, images: dict, vtree_id: int) -> None:
        self.images = images
        self.vtree_id = vtree_id

    def states(self):
        return tuple(self.images)


class ContextSets:
    """Slots under a right-linear v-tree, as the node store `obdd.build_layers`
    takes: level i decides slot i under v-tree node `suffix_vids[i]`. A slot
    that is a decision variable is decided by a two-pair decomposition
    (`reduced`), so over variables alone an SDD is an OBDD; a slot that is a
    mapping has its images as the primes of its decompositions (`split`).
    Slots are the spine's variables and light subtrees, or a stack fold step's
    mapping and what it combines with (`state_table_mapping`)."""

    def __init__(self, builder: SddBuilder, slots, suffix_vids) -> None:
        self.builder, self.false, self.true = builder, builder.false, builder.true
        self.suffix_vids, self.vtree_id = suffix_vids, suffix_vids[0]
        self.primes = [
            (builder.literal(slot, False), builder.literal(slot, True))
            if isinstance(slot, DecisionVariable) else tuple(slot.images.values())
            for slot in slots
        ]

    def reduced(self, i: int, lo: int, hi: int) -> int:
        """The trimmed decomposition [(not x, lo), (x, hi)] of variable i = x,
        at the v-tree node of slots i, i+1, ...: `lo` when both are one node,
        x for false and true, and not x for true and false."""
        if lo == hi:
            return lo
        neg, pos = self.primes[i]
        if lo == self.false and hi == self.true:
            return pos
        if lo == self.true and hi == self.false:
            return neg
        vid, pairs = self.suffix_vids[i], ((neg, lo), (pos, hi))
        return self.builder._intern((DECOMP, vid, pairs), DECOMP, vid, pairs=pairs)

    def split(self, i: int, subs) -> int:
        """The decomposition of slot i, a mapping: the image of its j-th class
        paired with `subs[j]`, less its false primes, trimmed in one pass:
        pairs that all share one sub are that sub, and a single true sub
        among false ones is its pair's prime."""
        true, false = self.true, self.false
        kept, sub, top = [], None, None
        shared = single = True  # all subs are the first; all but at most one true are false
        for p, s in zip(self.primes[i], subs):
            if p != false:
                kept.append((p, s))
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
        vid, kept = self.suffix_vids[i], tuple(kept)
        return self.builder._intern((DECOMP, vid, kept), DECOMP, vid, pairs=kept)


def context_assignment_mapping(builder: SddBuilder, slots: tuple, tag: str = "ctx") -> ContextSets:
    """Variables' leaves and mappings' v-trees under a right-linear v-tree. A
    dummy leaf named `tag` ends it when there are no slots, or pads a last slot
    that is a mapping, so that its decompositions have a right side."""
    vtree = builder.vtree
    vids = [vtree.leaf(s) if isinstance(s, DecisionVariable) else s.vtree_id for s in slots]
    if not slots or not isinstance(slots[-1], DecisionVariable):
        vids.append(vtree.leaf(dv_dummy(tag)))
    suffix_vids = vids[-1:]
    for vid in reversed(vids[:-1]):
        suffix_vids.append(vtree.inner(vid, suffix_vids[-1]))
    return ContextSets(builder, slots, suffix_vids[::-1])


def state_table_mapping(
    builder: SddBuilder, g_a: StateSddMapping, g_b, table: dict, out_states, tag: str
) -> StateSddMapping:
    """Combine a mapping with a forget node's context variables (a tuple), or
    at a join with the right child's mapping, through a transition table.

    `table[(a, b)]` is the state reached from a-state a and b-state b, an
    assignment index of the context or a class of the right mapping. Each
    output state c, in `out_states` order, maps to the diagram true exactly
    when the combination lands in c: two `build_layers` steps over the slots
    (g_a, *g_b) or (g_a, g_b) of `context_assignment_mapping`, whose pad leaf
    is named `tag`. The first splits on g_a, pairing a's image with the mask
    of the b-states taking a to c; the second builds each mask's diagram, a
    layer over the context variables or a split on the right mapping. The
    builder keeps each table's landing plan, both steps, with the table so
    that its id stays its own: nodes share a table by identity, and a table
    fixes its own states.
    """
    forget = isinstance(g_b, tuple)
    levels = context_assignment_mapping(builder, (g_a, *g_b) if forget else (g_a, g_b), tag)
    if id(table) not in builder.plans:
        b_states = range(1 << len(g_b)) if forget else g_b.states()
        # per output state c, the b-states taking each a-state to c, as a bitmask
        rows = {c: [0] * len(g_a.images) for c in out_states}
        for i, a in enumerate(g_a.images):
            for j, b in enumerate(b_states):
                c = table[(a, b)]
                if c not in rows:
                    raise DiagramError(f"transition image outside declared states: {c!r}")
                rows[c][i] |= 1 << j
        masks = list(dict.fromkeys(chain.from_iterable(rows.values())))
        if forget:  # a layer whose leaf j is bit j of the mask
            second = (1, len(g_b), masks, {(m, j): m >> j & 1 for m in masks for j in b_states})
        else:  # a split whose sub j is bit j of the mask
            n = len(b_states)
            second = (1, None, masks, {m: [m >> j & 1 for j in range(n)] for m in masks})
        builder.plans[id(table)] = table, [(0, None, tuple(rows), rows), second]
    images = build_layers(levels, builder.plans[id(table)][1], {0: builder.false, 1: builder.true})
    return StateSddMapping(images, levels.vtree_id)


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


def stack_fold(builder: SddBuilder, space, t: NiceTreeDecomposition, plan, reach, top: int):
    """The mapping of the subtree under `top` from its state classes to
    diagrams. Only a node's parent reads its mapping, so a postorder fold
    keeps the mappings on a stack and drops each one as its parent pops it:
    a leaf pushes one, a forget combines the top with its context variables
    and a join the top two (`state_table_mapping`), and an introduce node
    keeps its child's."""
    stack: list[StateSddMapping] = []
    for nid in children_first(top, lambda i: t.nodes[i].children):
        node = t.nodes[nid]
        if node.kind == LEAF:
            vid = builder.vtree.leaf(dv_dummy(f"leaf{nid}"))
            stack.append(StateSddMapping({space.initial: builder.true}, vid))
        elif node.kind in (FORGET, JOIN):
            forget = node.kind == FORGET
            g_b = plan[nid].variables if forget else stack.pop()
            table = (reach.forget_tables if forget else reach.join_tables)[nid]
            tag = f"ctx{nid}" if forget else f"join{nid}"
            stack.append(state_table_mapping(
                builder, stack.pop(), g_b, table, reach.per_node[nid], tag
            ))
    (mapping,) = stack
    return mapping


def compile_sdd(
    phi: Formula, g: Graph, t: NiceTreeDecomposition, coloring: dict[int, int]
) -> Sdd:
    """The layers of `obdd.layer_steps` down the decomposition's spine, built
    by `obdd.build_layers` over the right-linear v-tree of its slots. A light
    subtree's slot has the images of its `stack_fold` mapping as primes. On a
    join-free decomposition this is the OBDD of `compile_obdd` in SDD form."""
    space = decision_space(phi)
    plan = forget_plan(phi, t, coloring)
    reach = minimize_states(space, t, reachable_states(space, t, plan))
    builder = SddBuilder()
    slots, steps = layer_steps(t, plan, reach)
    slots = [
        stack_fold(builder, space, t, plan, reach, slot) if isinstance(slot, int) else slot
        for slot in slots
    ]
    levels = context_assignment_mapping(builder, slots, "order")
    terminals = {
        s: builder.true if space.is_accepting(s) else builder.false
        for s in reach.per_node[t.root]
    }
    root = build_layers(levels, steps, terminals)[space.initial]
    return Sdd(builder, root, decision_variables(phi, g), levels.vtree_id, reach)
