"""Structured decision diagrams over v-trees, and their construction from the
decomposition dynamic program.

Nodes are hash-consed: equal terminals and literals, and decompositions that
list the same pairs in the same order at one v-tree node, are shared. A
decomposition's primes always respect the left subtree of its v-tree node and
form a boolean partition; subs respect the right subtree. The compiler trims
every decomposition it builds (`trimmed`); a loaded file keeps its nodes as
written. `Sdd.satisfiable` decides in one pass over the kept children-first
node list whether a model extends a partial assignment; on a total assignment
that is the diagram's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .assignment import DecisionVariable, decision_variables, dv_dummy
from .decomposition import FORGET, JOIN, LEAF, NiceTreeDecomposition
from .errors import DiagramError
from .graph import Graph, children_first
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
    """Hash-consing factory; owns the v-tree grown alongside the diagram and the
    landing plans. Nodes are interned on their children as given, by identity.
    It lives while nodes are made: a diagram keeps the v-tree, not the builder."""

    def __init__(self) -> None:
        self.vtree = VTree()
        self.plans: dict[int, tuple] = {}
        self._table: dict[tuple, SddNode] = {}
        self.false = self._intern((FALSE,), FALSE)
        self.true = self._intern((TRUE,), TRUE)

    def _intern(self, key, kind, **fields) -> SddNode:
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = SddNode(len(self._table), kind, **fields)
        return node

    def literal(self, var: DecisionVariable, polarity: bool) -> SddNode:
        vid = self.vtree.leaf_of(var)
        return self._intern(
            (LITERAL, vid, polarity), LITERAL, var=var, polarity=polarity, vtree_id=vid
        )

    def decomposition(self, vtree_id: int, pairs) -> SddNode:
        """Prime-sub pairs, stored in the order given; constant-false primes are
        dropped. Interned on that sequence of pairs: the compiler lists a
        v-tree node's pairs in one fixed order, so it loses no sharing, while a
        loaded file whose decompositions at one v-tree node list the same pairs
        in different orders keeps them as separate nodes."""
        kept = tuple((p, s) for p, s in pairs if p.kind != FALSE)
        if not kept:
            raise DiagramError("decomposition with no non-false primes")
        return self._intern((DECOMP, vtree_id, kept), DECOMP, pairs=kept, vtree_id=vtree_id)


def iter_sdd_nodes(root: SddNode):
    """Distinct nodes reachable from the root, children first: each node's
    primes and subs in pair order, then the node."""
    return children_first(root, lambda n: chain.from_iterable(n.pairs))


def sdd_size(root: SddNode) -> int:
    """Terminals count one, a decomposition counts its number of pairs; shared
    nodes are counted once."""
    total = 0
    for node in iter_sdd_nodes(root):
        total += len(node.pairs) if node.kind == DECOMP else 1
    return total


def _decide(nodes, delta) -> bool:
    """One pass over children-first `nodes`; returns the last one's value. A
    decomposition holds when some pair's prime and sub both hold, and a
    literal on a variable delta leaves out holds. So the pass decides
    satisfiability under delta: a prime and its sub mention disjoint
    variables, so a pair is satisfiable exactly when both are. On a total
    assignment that is the diagram's value."""
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
            var = node.var
            value[node.uid] = var not in delta or bool(delta[var]) == node.polarity
        else:
            value[node.uid] = node.kind == TRUE
    return value[nodes[-1].uid]


def trimmed(builder: SddBuilder, vtree_id: int, pairs) -> SddNode:
    """The decomposition of `pairs`, whose primes form a boolean partition, less
    its false primes, under Darwiche's trimming rules, decided in one pass:
    pairs that all share one sub are that sub, and a single true sub among
    false ones is its pair's prime."""
    true, false = builder.true, builder.false
    kept, sub, top = [], None, None
    shared = single = True  # all subs are the first one; all but at most one true are false
    for pair in pairs:
        p, s = pair
        if p is not false:
            kept.append(pair)
            sub = sub or s
            shared = shared and s is sub
            single = single and (s is false or s is true and top is None)
            top = p if s is true else top
    if not kept:
        raise DiagramError("decomposition with no non-false primes")
    if shared:
        return sub
    if single and top is not None:
        return top
    kept = tuple(kept)
    return builder._intern((DECOMP, vtree_id, kept), DECOMP, pairs=kept, vtree_id=vtree_id)


@dataclass
class StateSddMapping:
    """For one decomposition node: each state class to the diagram deciding
    `the run lands in this class`; exactly one image is true per assignment.
    The images' insertion order is the mapping's deterministic iteration order.
    """

    images: dict
    vtree_id: int

    def states(self):
        return tuple(self.images)


class ContextSets:
    """The assignments of a forget node's context variables, and the diagram of
    any set of them. Assignment idx sets variable i to bit k-1-i of idx; with
    no variables there is one assignment, 0. Over the right-linear v-tree an
    SDD is an OBDD: the diagram at level i decides variable i under v-tree node
    `suffix_vids[i]`, built once per (i, truth vector over variables i, ...)."""

    def __init__(self, builder: SddBuilder, variables, suffix_vids) -> None:
        self.builder = builder
        self.suffix_vids = suffix_vids  # the v-tree node of variables i, i+1, ...
        self.vtree_id = suffix_vids[0]
        self.literals = [(builder.literal(v, False), builder.literal(v, True)) for v in variables]
        self._memo = {(len(variables), 0): builder.false, (len(variables), 1): builder.true}

    def states(self):
        return range(1 << len(self.literals))

    def diagram(self, members: int, i: int = 0) -> SddNode:
        """The trimmed diagram over variables i, i+1, ... true exactly on the
        assignments whose index bits are set in `members`; variable i is 0 on
        the lower half of the bits."""
        node = self._memo.get((i, members))
        if node is None:
            half = 1 << (len(self.literals) - 1 - i)
            lo = self.diagram(members & ((1 << half) - 1), i + 1)
            (neg, pos), hi = self.literals[i], self.diagram(members >> half, i + 1)
            node = trimmed(self.builder, self.suffix_vids[i], [(neg, lo), (pos, hi)])
            self._memo[i, members] = node
        return node


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

        def union(members: int) -> SddNode:
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


class Sdd:
    """A structured diagram over its v-tree, with the legend of its decision
    variables. A compiled diagram also keeps its reachable sets; a diagram
    loaded from text has None there."""

    def __init__(self, vtree, root, legend, vtree_root, reachable=None):
        self.kind = "sdd"
        self.vtree: VTree = vtree
        self.root: SddNode = root
        self.legend: tuple[DecisionVariable, ...] = legend
        self.vtree_root: int = vtree_root
        self.reachable: ReachableSets | None = reachable
        self._nodes: list[SddNode] | None = None

    def nodes(self) -> list[SddNode]:
        """`iter_sdd_nodes(root)`, walked once and kept: every query reads it."""
        if self._nodes is None:
            self._nodes = iter_sdd_nodes(self.root)
        return self._nodes

    def satisfiable(self, delta) -> bool:
        return _decide(self.nodes(), delta)


def compile_sdd(
    phi: Formula, g: Graph, t: NiceTreeDecomposition, coloring: dict[int, int]
) -> Sdd:
    """Bottom-up construction over the nice decomposition: every node gets a
    mapping from its state classes to diagrams, and the root's accepting
    class's diagram is true exactly on the accepted assignments. Only a
    node's parent reads its mapping, so a postorder fold keeps the mappings
    on a stack and drops each one as its parent pops it."""
    space = decision_space(phi)
    plan = forget_plan(phi, t, coloring)
    reach = minimize_states(space, t, reachable_states(space, t, plan))
    builder = SddBuilder()
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
    legend = decision_variables(phi, g)
    return Sdd(builder.vtree, root, legend, g_root.vtree_id, reach)
