"""Ordered binary decision diagrams and the layered builder.

`build_layers` builds a reduced, hash-consed diagram from a state machine read
layer by layer. The path-decomposition compiler feeds it one layer per forget
node, over the reachable transition tables quotiented to state classes, and
`oracle.cnf_to_obdd` feeds it one level per CNF variable. `Obdd.nodes` lists a
diagram's nodes once and keeps them, through `graph.children_first`, the walk
SDDs and nice tree decompositions share. `Obdd.satisfiable` searches depth
first for a true leaf along the edges a partial assignment allows; on a total
assignment that is the diagram's value.
"""

from __future__ import annotations

from .assignment import DecisionVariable, decision_variables
from .decomposition import NiceTreeDecomposition, is_path_decomposition
from .errors import DiagramError
from .graph import Graph, children_first
from .mso import Formula
from .states import decision_space, forget_plan, minimize_states, reachable_states


class ObddNode:
    __slots__ = ("uid", "level", "label", "lo", "hi")

    def __init__(self, uid, level=None, label=None, lo=None, hi=None):
        self.uid = uid
        self.level = level
        self.label = label
        self.lo = lo
        self.hi = hi

    @property
    def is_leaf(self) -> bool:
        return self.level is None

    def __repr__(self) -> str:
        if self.is_leaf:
            return f"<leaf {self.label!r}>"
        return f"<dec v{self.level} uid={self.uid}>"


class ObddSpace:
    """Node store for one variable order; all diagrams built here share nodes.
    A leaf is interned on its label, a decision on its level and children. It
    lives while nodes are made: a diagram keeps its order, not its store."""

    def __init__(self, order: tuple[DecisionVariable, ...]) -> None:
        self.order = tuple(order)
        self.level_of = {v: i for i, v in enumerate(self.order)}
        if len(self.level_of) != len(self.order):
            raise DiagramError("variable order contains duplicates")
        self._table: dict[object, ObddNode] = {}

    def leaf(self, label) -> ObddNode:
        node = self._table.get(label)
        if node is None:
            node = self._table[label] = ObddNode(len(self._table), label=label)
        return node

    def decision(self, level: int, lo: ObddNode, hi: ObddNode) -> ObddNode:
        """Interned decision node; keeps redundant (lo == hi) nodes."""
        key = (level, lo, hi)
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = ObddNode(len(self._table), level=level, lo=lo, hi=hi)
        return node

    def reduced(self, level: int, lo: ObddNode, hi: ObddNode) -> ObddNode:
        return lo if lo is hi else self.decision(level, lo, hi)


class Obdd:
    """An ordered diagram over its variable order, with the legend of its
    decision variables. A compiled diagram also keeps its reachable sets; any
    other has None there."""

    def __init__(self, order, root: ObddNode, legend, reachable=None) -> None:
        self.kind = "obdd"
        self.order: tuple[DecisionVariable, ...] = tuple(order)
        self.root = root
        self.legend: tuple[DecisionVariable, ...] = legend
        self.reachable = reachable
        self._nodes: list[ObddNode] | None = None

    @property
    def obdd(self) -> Obdd:
        # bench/worker.py reads `compile_obdd(...).obdd`; this goes when the benchmark next changes
        return self

    def nodes(self) -> list[ObddNode]:
        """Distinct reachable nodes, each after its lo and then its hi subtree; kept."""
        if self._nodes is None:
            self._nodes = children_first(
                self.root, lambda n: () if n.level is None else (n.lo, n.hi)
            )
        return self._nodes

    def satisfiable(self, delta) -> bool:
        """Search for a true leaf along the edges delta allows: one edge of a
        decision on a variable delta assigns, both edges otherwise. So it
        decides satisfiability under delta, and on a total assignment the
        diagram's value."""
        order, seen, stack = self.order, {self.root.uid}, [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                if node.label:
                    return True
                continue
            v = order[node.level]
            children = (node.hi if delta[v] else node.lo,) if v in delta else (node.lo, node.hi)
            for child in children:
                if child.uid not in seen:
                    seen.add(child.uid)
                    stack.append(child)
        return False


def obdd_size(b: Obdd) -> int:
    """Distinct reachable nodes, decisions and terminals alike."""
    return len(b.nodes())


def reduce_obdd(b: Obdd) -> Obdd:
    """Canonical form for the given order: no redundant decisions, all shared."""
    space = ObddSpace(b.order)
    memo: dict[int, ObddNode] = {}
    for node in b.nodes():  # children first
        if node.is_leaf:
            memo[node.uid] = space.leaf(node.label)
        else:
            memo[node.uid] = space.reduced(node.level, memo[node.lo.uid], memo[node.hi.uid])
    return Obdd(b.order, memo[b.root.uid], b.legend)


def build_layers(space, steps, below: dict) -> dict:
    """Build a layered diagram from its terminals up.

    `steps` lists the layers from the top: each is `(base, k, states, table)`,
    covering levels base .. base + k - 1, with the states entering it and a
    table from (state, assignment index) to the state leaving it; the top
    level is the index's most significant bit. `below` maps every state
    leaving the last step to its node. Each state entering a step becomes a
    reduced tree over the step's levels whose leaves are the nodes of its
    successors; returns those nodes for the states entering the first step.

    `space.reduced(level, lo, hi)` makes the trees' inner nodes: the node
    deciding `level`, with `lo` where it is 0 and `hi` where it is 1. Its two
    callers, the path compiler and `cnf_to_obdd`, pass an `ObddSpace`.
    """
    for base, k, states, table in reversed(steps):
        entering = {}
        for state in states:
            layer = [below[table[(state, idx)]] for idx in range(1 << k)]
            for level in reversed(range(base, base + k)):
                layer = [
                    space.reduced(level, layer[i], layer[i + 1])
                    for i in range(0, len(layer), 2)
                ]
            entering[state] = layer[0]
        below = entering
    return below


def compile_obdd(
    phi: Formula, g: Graph, t: NiceTreeDecomposition, coloring: dict[int, int]
) -> Obdd:
    """Compile along a nice path decomposition; the variable order concatenates
    the forget-node contexts from the leaf up to the root, and each forget node
    is one layer of `build_layers` over its context variables.
    """
    if not is_path_decomposition(t):
        raise DiagramError("path decomposition required: join node present")
    space_dp = decision_space(phi)
    plan = forget_plan(phi, t, coloring)
    reach = minimize_states(space_dp, t, reachable_states(space_dp, t, plan))

    chain = t.forget_nodes()  # a path decomposition's postorder runs leaf upward
    order: list[DecisionVariable] = []
    steps = []
    for nid in chain:
        variables = plan[nid].variables
        entering = reach.per_node[t.nodes[nid].children[0]]
        steps.append((len(order), len(variables), entering, reach.forget_tables[nid]))
        order.extend(variables)
    space = ObddSpace(tuple(order))
    terminals = {
        s: space.leaf(1 if space_dp.is_accepting(s) else 0)
        for s in reach.per_node[t.root]
    }
    legend = decision_variables(phi, g)
    if set(order) != set(legend):
        raise DiagramError("context variables do not cover the decision universe")
    return Obdd(order, build_layers(space, steps, terminals)[space_dp.initial], legend, reach)
