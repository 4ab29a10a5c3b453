"""Ordered binary decision diagrams and the layered builder.

`build_layers` builds a reduced, hash-consed diagram from a state machine read
layer by layer, and makes every node the compilers make. The path compiler
feeds it one layer per forget node (`layer_steps`), over the reachable
transition tables quotiented to state classes; `sdd.compile_sdd` the same
layers down any decomposition's heavy spine, with a split step per subtree off
it, and two steps per forget or join inside those subtrees; and
`oracle.cnf_to_obdd` one level per CNF variable. An `ObddSpace` numbers nodes
as ints and keeps each field in a list; an `Obdd` keeps the lists and its
positions (`graph.Dag`), which every reader indexes by node number.
`Obdd.satisfiable` searches depth first for a true leaf along the edges a
partial assignment allows; on a total assignment that is its value.
"""

from __future__ import annotations

from .assignment import DecisionVariable, decision_variables
from .decomposition import FORGET, JOIN, NiceTreeDecomposition, is_path_decomposition
from .errors import DiagramError
from .graph import Dag, Graph
from .mso import Formula
from .states import decision_space, forget_plan, minimize_states, reachable_states


class ObddSpace:
    """Node store for one variable order; all diagrams built here share nodes.
    Node i's level, children and label are entry i of four lists: a leaf sits
    past the last level, with no children, and a decision has no label. A leaf
    is interned on its label, a decision on its level and children, in a table
    that lives while nodes are made: a diagram keeps the lists, not the table."""

    def __init__(self, order: tuple[DecisionVariable, ...]) -> None:
        self.order = tuple(order)
        self.level_of = {v: i for i, v in enumerate(self.order)}
        if len(self.level_of) != len(self.order):
            raise DiagramError("variable order contains duplicates")
        self.level, self.lo, self.hi, self.label = [], [], [], []
        self._table: dict[object, int] = {}

    def _new(self, key, level: int, lo, hi, label) -> int:
        node = self._table[key] = len(self.level)
        self.level.append(level)
        self.lo.append(lo)
        self.hi.append(hi)
        self.label.append(label)
        return node

    def leaf(self, label) -> int:
        node = self._table.get(label)
        return self._new(label, len(self.order), None, None, label) if node is None else node

    def decision(self, level: int, lo: int, hi: int) -> int:
        """Interned decision node; keeps redundant (lo == hi) nodes."""
        node = self._table.get((level, lo, hi))
        return self._new((level, lo, hi), level, lo, hi, None) if node is None else node

    def reduced(self, level: int, lo: int, hi: int) -> int:
        return lo if lo == hi else self.decision(level, lo, hi)


class Obdd(Dag):
    """An ordered diagram over its variable order, with the legend of its
    decision variables: its store's lists, and its positions. A compiled
    diagram also keeps its reachable sets; any other has None there."""

    def __init__(self, store, root: int, legend, reachable=None) -> None:
        self.kind = "obdd"
        self.order: tuple[DecisionVariable, ...] = store.order
        self.level, self.lo, self.hi, self.label = store.level, store.lo, store.hi, store.label
        self.legend: tuple[DecisionVariable, ...] = legend
        self.reachable = reachable
        self._root = root

    @property
    def obdd(self) -> Obdd:
        # bench/worker.py reads `compile_obdd(...).obdd`; this goes when the benchmark next changes
        return self

    def children(self, i: int):  # lo, then hi; none for a leaf
        return () if self.lo[i] is None else (self.lo[i], self.hi[i])

    def size(self) -> int:
        """Distinct reachable nodes, decisions and terminals alike."""
        return len(self.positions)

    def satisfiable(self, delta) -> bool:
        """Search for a true leaf along the edges delta allows: one edge of a
        decision on a variable delta assigns, both edges otherwise. So it
        decides satisfiability under delta, and on a total assignment the
        diagram's value."""
        order, level, lo, hi, label = self.order, self.level, self.lo, self.hi, self.label
        seen, stack = {self._root}, [self._root]
        while stack:
            i = stack.pop()
            if label[i] is not None:
                if label[i]:
                    return True
                continue
            v = order[level[i]]
            children = (hi[i] if delta[v] else lo[i],) if v in delta else (lo[i], hi[i])
            for child in children:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return False


obdd_size = Obdd.size


def reduce_obdd(b: Obdd) -> Obdd:
    """Canonical form for the given order: no redundant decisions, all shared."""
    space = ObddSpace(b.order)
    memo: dict[int, int] = {}
    for i in b.positions:  # children first
        if b.label[i] is not None:
            memo[i] = space.leaf(b.label[i])
        else:
            lo, hi = memo[b.lo[i]], memo[b.hi[i]]
            memo[i] = lo if lo == hi else space.decision(b.level[i], lo, hi)
    return Obdd(space, memo[b.positions[-1]], b.legend)


def build_layers(space, steps, below: dict) -> dict:
    """Build a layered diagram from its terminals up.

    `steps` lists the layers from the top: each is `(base, k, states, table)`,
    covering levels base .. base + k - 1, with the states entering it and a
    table from (state, assignment index) to the state leaving it; the top
    level is the index's most significant bit. `below` maps every state
    leaving the last step to its node. Each state entering a step becomes a
    reduced tree over the step's levels whose leaves are the nodes of its
    successors; returns those nodes for the states entering the first step.
    A split step has k None and one level, a mapping's: `table[state]` lists
    the state leaving by each class of that mapping.

    `space.reduced(level, lo, hi)` makes the trees' inner nodes: the node
    deciding `level`, with `lo` where it is 0 and `hi` where it is 1;
    `space.split(level, nodes)` a split step's, from one node per class. Its
    four callers: the path compiler and `cnf_to_obdd` pass an `ObddSpace`;
    `compile_sdd` a `ContextSets` over its spine's slots, whose nodes on a
    join-free decomposition are the OBDD's in SDD form; and
    `sdd.state_table_mapping` one over a stack fold step's slots.
    """
    reduced = space.reduced
    for base, k, states, table in reversed(steps):
        if k is None:
            below = {s: space.split(base, [below[c] for c in table[s]]) for s in states}
            continue
        entering, levels = {}, range(base + k - 1, base - 1, -1)
        for state in states:
            layer = [below[table[state, idx]] for idx in range(1 << k)]
            for level in levels:
                layer = [reduced(level, layer[i], layer[i + 1]) for i in range(0, len(layer), 2)]
            entering[state] = layer[0]
        below = entering
    return below


def layer_steps(t: NiceTreeDecomposition, plan, reach) -> tuple[tuple, list]:
    """The slots and the `build_layers` steps of a nice decomposition's spine,
    from its leaf up: a forget adds its context variables and a layer over
    them, a join its light child (the one off the spine) and a split step. A
    join-free decomposition is all spine, and its slots the variable order."""
    slots: list = []
    steps, path = [], t.spine()
    for below, nid in zip(path, path[1:]):
        node, entering = t.nodes[nid], reach.per_node[below]
        if node.kind == FORGET:
            variables = plan[nid].variables
            steps.append((len(slots), len(variables), entering, reach.forget_tables[nid]))
            slots.extend(variables)
        elif node.kind == JOIN:
            table, left = reach.join_tables[nid], node.children[0] == below
            light = node.children[left]
            rows = {
                x: tuple(table[(x, b) if left else (b, x)] for b in reach.per_node[light])
                for x in entering
            }
            steps.append((len(slots), None, entering, rows))
            slots.append(light)
    return tuple(slots), steps


def compile_obdd(
    phi: Formula, g: Graph, t: NiceTreeDecomposition, coloring: dict[int, int]
) -> Obdd:
    """Compile along a nice path decomposition in the order of `layer_steps`."""
    if not is_path_decomposition(t):
        raise DiagramError("path decomposition required: join node present")
    space_dp = decision_space(phi)
    plan = forget_plan(phi, t, coloring)
    reach = minimize_states(space_dp, t, reachable_states(space_dp, t, plan))
    order, steps = layer_steps(t, plan, reach)
    space = ObddSpace(order)
    terminals = {
        s: space.leaf(1 if space_dp.is_accepting(s) else 0)
        for s in reach.per_node[t.root]
    }
    legend = decision_variables(phi, g)
    if set(order) != set(legend):
        raise DiagramError("context variables do not cover the decision universe")
    return Obdd(space, build_layers(space, steps, terminals)[space_dp.initial], legend, reach)
