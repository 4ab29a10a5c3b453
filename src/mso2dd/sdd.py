"""Structured decision diagrams over v-trees, and their construction from the
decomposition dynamic program.

Nodes are hash-consed: structurally identical terminals, literals and
decompositions are shared. A decomposition's primes always respect the left
subtree of its v-tree node and form a boolean partition; subs respect the right
subtree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .assignment import DecisionVariable, decision_variables, dv_dummy
from .decomposition import FORGET, INTRODUCE, LEAF, NiceTreeDecomposition
from .errors import DiagramError
from .graph import Graph
from .mso import Formula
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

    def respects(self, span, vtree_id: int, pairs) -> bool:
        """Every prime lies under the left child of the node, every sub under
        its right child; constants fit anywhere. `span` is `intervals()`."""
        first, end = span
        left, right = self.left[vtree_id], self.right[vtree_id]
        lo_p, hi_p, lo_s, hi_s = first[left], end[left], first[right], end[right]
        for p, s in pairs:
            if p.vtree_id is not None and not lo_p <= first[p.vtree_id] < hi_p:
                return False
            if s.vtree_id is not None and not lo_s <= first[s.vtree_id] < hi_s:
                return False
        return True

    def __len__(self) -> int:
        return len(self.kind)


class SddNode:
    __slots__ = ("uid", "kind", "var", "polarity", "pairs", "vtree_id")

    def __init__(self, uid, kind, var=None, polarity=None, pairs=(), vtree_id=None):
        self.uid = uid
        self.kind = kind
        self.var = var
        self.polarity = polarity
        self.pairs = pairs
        self.vtree_id = vtree_id

    def __repr__(self) -> str:
        if self.kind == LITERAL:
            sign = "" if self.polarity else "~"
            return f"<sdd {self.uid}: {sign}{self.var.name}>"
        if self.kind == DECOMP:
            return f"<sdd {self.uid}: decomp/{len(self.pairs)}>"
        return f"<sdd {self.uid}: {self.kind}>"


class SddBuilder:
    """Hash-consing factory; owns the v-tree being grown alongside the diagram."""

    def __init__(self) -> None:
        self.vtree = VTree()
        self._table: dict[tuple, SddNode] = {}
        self._nodes: list[SddNode] = []
        self.false = self._intern((FALSE,), FALSE)
        self.true = self._intern((TRUE,), TRUE)

    def _intern(self, key, kind, **fields) -> SddNode:
        node = self._table.get(key)
        if node is None:
            node = SddNode(len(self._nodes), kind, **fields)
            self._nodes.append(node)
            self._table[key] = node
        return node

    def literal(self, var: DecisionVariable, polarity: bool) -> SddNode:
        vid = self.vtree.leaf_of(var)
        return self._intern(
            (LITERAL, vid, polarity), LITERAL, var=var, polarity=polarity, vtree_id=vid
        )

    def decomposition(self, vtree_id: int, pairs) -> SddNode:
        """Prime-sub pairs; constant-false primes are dropped, pairs are stored in
        canonical (prime uid, sub uid) order so sharing is maximal."""
        kept = tuple(
            sorted(
                ((p, s) for p, s in pairs if p.kind != FALSE),
                key=lambda ps: (ps[0].uid, ps[1].uid),
            )
        )
        if not kept:
            raise DiagramError("decomposition with no non-false primes")
        key = (DECOMP, vtree_id, tuple((p.uid, s.uid) for p, s in kept))
        return self._intern(key, DECOMP, pairs=kept, vtree_id=vtree_id)


def iter_sdd_nodes(root: SddNode):
    """Distinct nodes reachable from the root, children first: each node's
    primes and subs in pair order, then the node."""
    seen = {root.uid}
    order = []
    stack = [(root, itertools.chain.from_iterable(root.pairs))]
    while stack:
        node, children = stack[-1]
        for child in children:
            if child.uid not in seen:
                seen.add(child.uid)
                stack.append((child, itertools.chain.from_iterable(child.pairs)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def sdd_size(root: SddNode) -> int:
    """Terminals count one, a decomposition counts its number of pairs; shared
    nodes are counted once."""
    total = 0
    for node in iter_sdd_nodes(root):
        total += len(node.pairs) if node.kind == DECOMP else 1
    return total


def evaluate_sdd(root: SddNode, delta) -> bool:
    """The diagram's value under a total assignment of its literals' variables."""
    return _decide(iter_sdd_nodes(root), delta, False)


def _decide(nodes, delta, partial: bool) -> bool:
    """One pass over children-first `nodes`; returns the last one's value. A
    decomposition holds when some pair's prime and sub both hold. With
    `partial`, a literal on a variable delta leaves out holds, so the pass
    decides satisfiability under delta: a prime and its sub mention disjoint
    variables, so a pair is satisfiable exactly when both are."""
    value: dict[int, bool] = {}
    for node in nodes:
        if node.kind == DECOMP:
            for p, s in node.pairs:
                if value[p.uid] and value[s.uid]:
                    value[node.uid] = True
                    break
            else:
                value[node.uid] = False
        elif node.kind == LITERAL:
            if node.var in delta:
                value[node.uid] = bool(delta[node.var]) == node.polarity
            elif partial:
                value[node.uid] = True
            else:
                raise DiagramError(f"assignment missing variable {node.var!r}")
        else:
            value[node.uid] = node.kind == TRUE
    return value[nodes[-1].uid]


@dataclass
class StateSddMapping:
    """For one decomposition node: each procedure state to the diagram deciding
    `the run lands in this state`; exactly one image is true per assignment.

    Keys are procedure states, except for context mappings where they are
    context-assignment indices in binary-counter order. The images' insertion
    order is the mapping's deterministic iteration order.
    """

    images: dict
    vtree_id: int

    def states(self):
        return tuple(self.images)


def context_assignment_mapping(
    builder: SddBuilder, ctx_vars: tuple[DecisionVariable, ...]
) -> StateSddMapping:
    """One diagram per context assignment, true exactly on that assignment,
    over a right-linear v-tree of the context variables. Assignment idx sets
    variable i to bit k-1-i of idx."""
    if not ctx_vars:
        raise DiagramError("context mapping needs at least one variable")
    leaves = [builder.vtree.leaf(v) for v in ctx_vars]
    spine = leaves[-1]
    for vid in reversed(leaves[:-1]):
        spine = builder.vtree.inner(vid, spine)

    # vtree node respected by the suffix starting at position i
    suffix_vid = [spine]
    for _ in range(len(ctx_vars) - 1):
        suffix_vid.append(builder.vtree.right[suffix_vid[-1]])

    k = len(ctx_vars)
    cache: dict[tuple, SddNode] = {}

    def build(i: int, bits: tuple) -> SddNode:
        got = cache.get((i, bits[i:]))
        if got is not None:
            return got
        var = ctx_vars[i]
        pos = builder.literal(var, True)
        neg = builder.literal(var, False)
        if i == k - 1:
            node = pos if bits[i] else neg
        else:
            rest = build(i + 1, bits)
            if bits[i]:
                pairs = [(pos, rest), (neg, builder.false)]
            else:
                pairs = [(pos, builder.false), (neg, rest)]
            node = builder.decomposition(suffix_vid[i], pairs)
        cache[(i, bits[i:])] = node
        return node

    images = {
        idx: build(0, bits)
        for idx, bits in enumerate(itertools.product((0, 1), repeat=k))
    }
    return StateSddMapping(images, spine)


def state_table_mapping(
    builder: SddBuilder,
    g_a: StateSddMapping,
    g_b: StateSddMapping,
    table: dict,
    out_states,
    dummy_tag: str,
) -> StateSddMapping:
    """Combine two mappings through a transition table.

    `table[(a, b)]` is the state reached from a-state and b-state; the result
    maps each output state c, in `out_states` order, to a diagram true exactly
    when the combination lands in c. Respects node(t_a, node(t_b, dummy)).
    """
    pad = builder.vtree.leaf(dv_dummy(dummy_tag))
    right_vid = builder.vtree.inner(g_b.vtree_id, pad)
    out_vid = builder.vtree.inner(g_a.vtree_id, right_vid)

    a_states = g_a.states()
    b_states = g_b.states()
    hits: dict[object, dict[object, set]] = {}
    for a in a_states:
        for b in b_states:
            hits.setdefault(table[(a, b)], {}).setdefault(a, set()).add(b)
    unknown = set(hits) - set(out_states)
    if unknown:
        raise DiagramError(f"transition image outside declared states: {unknown}")

    beta_cache: dict[tuple, SddNode] = {}

    def beta(selected: set) -> SddNode:
        key = tuple(b in selected for b in b_states)
        node = beta_cache.get(key)
        if node is None:
            pairs = [
                (g_b.images[b], builder.true if b in selected else builder.false)
                for b in b_states
            ]
            node = builder.decomposition(right_vid, pairs)
            beta_cache[key] = node
        return node

    images = {}
    for c in out_states:
        selected_by_a = hits.get(c, {})
        pairs = [(g_a.images[a], beta(selected_by_a.get(a, set()))) for a in a_states]
        images[c] = builder.decomposition(out_vid, pairs)
    return StateSddMapping(images, out_vid)


class SddCompilation:
    """A structured diagram over its builder's v-tree, with the legend of its
    decision variables. A compiled diagram also keeps its inputs and per-node
    mappings; a diagram loaded from text has None in those fields."""

    def __init__(self, builder, root, legend, vtree_root, phi=None, g=None, nice=None,
                 coloring=None, mappings=None, reachable=None):
        self.kind = "sdd"
        self.builder = builder
        self.root: SddNode = root
        self.legend: tuple[DecisionVariable, ...] = legend
        self.vtree_root: int = vtree_root
        self.formula = phi
        self.graph = g
        self.nice = nice
        self.coloring = coloring
        self.node_mappings: dict[int, StateSddMapping] | None = mappings
        self.reachable: ReachableSets | None = reachable
        self._nodes: list[SddNode] | None = None

    @property
    def vtree(self) -> VTree:
        return self.builder.vtree

    def nodes(self) -> list[SddNode]:
        """`iter_sdd_nodes(root)`, walked once and kept: every query reads it."""
        if self._nodes is None:
            self._nodes = iter_sdd_nodes(self.root)
        return self._nodes

    def evaluate(self, delta) -> bool:
        return _decide(self.nodes(), delta, False)

    def satisfiable(self, delta) -> bool:
        return _decide(self.nodes(), delta, True)


def compile_sdd(
    phi: Formula, g: Graph, t: NiceTreeDecomposition, coloring: dict[int, int]
) -> SddCompilation:
    """Bottom-up construction over the nice decomposition: every node gets a
    mapping from its state classes to diagrams, and the root's accepting
    class's diagram is true exactly on the accepted assignments."""
    if not phi.is_core:
        raise DiagramError("formula must be desugared before compilation")
    space = decision_space(phi)
    plan = forget_plan(phi, t, coloring)
    reach = minimize_states(space, t, reachable_states(space, t, plan))
    builder = SddBuilder()
    mappings: dict[int, StateSddMapping] = {}

    for nid in t.postorder():
        node = t.nodes[nid]
        if node.kind == LEAF:
            vid = builder.vtree.leaf(dv_dummy(f"leaf{nid}"))
            mappings[nid] = StateSddMapping({space.initial: builder.true}, vid)
        elif node.kind == INTRODUCE:
            mappings[nid] = mappings[node.children[0]]
        elif node.kind == FORGET:
            ctx_vars = plan[nid].variables
            if ctx_vars:
                g_b = context_assignment_mapping(builder, ctx_vars)
            else:
                vid = builder.vtree.leaf(dv_dummy(f"ctx{nid}"))
                g_b = StateSddMapping({0: builder.true}, vid)
            mappings[nid] = state_table_mapping(
                builder,
                mappings[node.children[0]],
                g_b,
                reach.forget_tables[nid],
                reach.per_node[nid],
                f"forget{nid}",
            )
        else:
            mappings[nid] = state_table_mapping(
                builder,
                mappings[node.children[0]],
                mappings[node.children[1]],
                reach.join_tables[nid],
                reach.per_node[nid],
                f"join{nid}",
            )

    # the root's classes are its accepting and rejecting states, so the
    # accepting class's image is the diagram
    g_root = mappings[t.root]
    root = next(
        (g_root.images[s] for s in g_root.states() if space.is_accepting(s)), builder.false
    )
    legend = decision_variables(phi, g)
    return SddCompilation(
        builder, root, legend, g_root.vtree_id, phi, g, t, coloring, mappings, reach
    )


def vtree_respected(root: SddNode, vtree: VTree) -> bool:
    """Structural check: primes live in the left subtree of their decomposition's
    v-tree node, subs in the right subtree."""
    span = vtree.intervals()
    return all(
        vtree.respects(span, node.vtree_id, node.pairs)
        for node in iter_sdd_nodes(root)
        if node.kind == DECOMP
    )
