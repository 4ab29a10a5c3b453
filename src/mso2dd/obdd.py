"""Ordered binary decision diagrams and the path-decomposition compiler.

The compiler reads the reachable transition tables, quotiented to state
classes, from the root down to the leaf: each class entering a forget node
becomes a tree over the node's context variables whose leaves are the diagrams
of the successor classes, built reduced and shared by hash-consing, and the
root's classes are terminals by the accepting test.
"""

from __future__ import annotations

from .assignment import DecisionVariable, decision_variables
from .decomposition import FORGET, JOIN, NiceTreeDecomposition
from .errors import DiagramError
from .graph import Graph
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
    """Node store for one variable order; all diagrams built here share nodes."""

    def __init__(self, order: tuple[DecisionVariable, ...]) -> None:
        self.order = tuple(order)
        self.level_of = {v: i for i, v in enumerate(self.order)}
        if len(self.level_of) != len(self.order):
            raise DiagramError("variable order contains duplicates")
        self._nodes: list[ObddNode] = []
        self._leaves: dict[object, ObddNode] = {}
        self._decisions: dict[tuple, ObddNode] = {}

    def leaf(self, label) -> ObddNode:
        node = self._leaves.get(label)
        if node is None:
            node = ObddNode(len(self._nodes), label=label)
            self._nodes.append(node)
            self._leaves[label] = node
        return node

    def decision(self, level: int, lo: ObddNode, hi: ObddNode) -> ObddNode:
        """Interned decision node; keeps redundant (lo == hi) nodes."""
        key = (level, lo.uid, hi.uid)
        node = self._decisions.get(key)
        if node is None:
            node = ObddNode(len(self._nodes), level=level, lo=lo, hi=hi)
            self._nodes.append(node)
            self._decisions[key] = node
        return node

    def reduced(self, level: int, lo: ObddNode, hi: ObddNode) -> ObddNode:
        return lo if lo is hi else self.decision(level, lo, hi)

    def constant(self, bit: int) -> "Obdd":
        return Obdd(self, self.leaf(int(bit)))

    def literal(self, var: DecisionVariable, polarity: bool = True) -> "Obdd":
        zero, one = self.leaf(0), self.leaf(1)
        lo, hi = (zero, one) if polarity else (one, zero)
        return Obdd(self, self.decision(self.level_of[var], lo, hi))


class Obdd:
    def __init__(self, space: ObddSpace, root: ObddNode) -> None:
        self.kind = "obdd"
        self.space = space
        self.root = root

    @property
    def order(self) -> tuple[DecisionVariable, ...]:
        return self.space.order

    def nodes(self) -> list[ObddNode]:
        """Distinct reachable nodes, children first: a depth-first walk from
        the root lists each node after its lo and then its hi subtree. The
        order depends on the diagram's shape only, not on interning order."""
        seen, order, stack = set(), [], [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
            elif node.uid not in seen:
                seen.add(node.uid)
                stack.append((node, True))
                if not node.is_leaf:
                    stack.extend(((node.hi, False), (node.lo, False)))
        return order

    def level_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for n in self.nodes():
            if not n.is_leaf:
                counts[n.level] = counts.get(n.level, 0) + 1
        return counts

    def is_ordered(self) -> bool:
        for n in self.nodes():
            if n.is_leaf:
                continue
            for child in (n.lo, n.hi):
                if not child.is_leaf and child.level <= n.level:
                    return False
        return True


def obdd_size(b: Obdd) -> int:
    """Distinct reachable nodes, decisions and terminals alike."""
    return len(b.nodes())


def evaluate_obdd(b: Obdd, delta) -> bool:
    """The diagram's value under a total assignment of its order."""
    return _walk_obdd(b, delta, False)


def satisfiable_obdd(b: Obdd, delta) -> bool:
    """Whether the diagram conditioned on a partial assignment is satisfiable;
    a variable delta leaves out is free."""
    return _walk_obdd(b, delta, True)


def _walk_obdd(b: Obdd, delta, partial: bool) -> bool:
    """Search for a true leaf along the edges delta allows. A total
    assignment allows one path; with `partial`, a decision on a variable
    delta leaves out allows both edges."""
    order, seen, stack = b.order, {b.root.uid}, [b.root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            if node.label:
                return True
            continue
        var = order[node.level]
        if var in delta:
            children = (node.hi if delta[var] else node.lo,)
        elif partial:
            children = (node.lo, node.hi)
        else:
            raise DiagramError(f"assignment missing variable {var!r}")
        for child in children:
            if child.uid not in seen:
                seen.add(child.uid)
                stack.append(child)
    return False


def reduce_obdd(b: Obdd) -> Obdd:
    """Canonical form for the given order: no redundant decisions, all shared."""
    space = b.space
    memo: dict[int, ObddNode] = {}
    for node in b.nodes():  # children first
        if node.is_leaf:
            memo[node.uid] = space.leaf(node.label)
        else:
            memo[node.uid] = space.reduced(node.level, memo[node.lo.uid], memo[node.hi.uid])
    return Obdd(space, memo[b.root.uid])


def obdd_apply(a: Obdd, b: Obdd, op) -> Obdd:
    """Combine two diagrams pointwise with a binary boolean operator; the result
    is reduced. Both inputs must share one variable order."""
    if a.order != b.order:
        raise DiagramError("operands respect different variable orders")
    space = a.space
    if b.space is not space:
        b = _import_into(space, b)
    memo: dict[tuple[int, int], ObddNode] = {}
    stack = [(a.root, b.root)]
    while stack:
        x, y = stack[-1]
        key = (x.uid, y.uid)
        if key in memo:
            stack.pop()
            continue
        if x.is_leaf and y.is_leaf:
            memo[key] = space.leaf(int(op(bool(x.label), bool(y.label))))
            stack.pop()
            continue
        level = min(n.level for n in (x, y) if not n.is_leaf)
        x0, x1 = (x.lo, x.hi) if (not x.is_leaf and x.level == level) else (x, x)
        y0, y1 = (y.lo, y.hi) if (not y.is_leaf and y.level == level) else (y, y)
        lo, hi = memo.get((x0.uid, y0.uid)), memo.get((x1.uid, y1.uid))
        if lo is not None and hi is not None:
            memo[key] = space.reduced(level, lo, hi)
            stack.pop()
            continue
        # the low branch is pushed last so it is built first
        if hi is None:
            stack.append((x1, y1))
        if lo is None:
            stack.append((x0, y0))
    return Obdd(space, memo[(a.root.uid, b.root.uid)])


def _import_into(space: ObddSpace, b: Obdd) -> Obdd:
    memo: dict[int, ObddNode] = {}
    for node in b.nodes():  # children first
        if node.is_leaf:
            memo[node.uid] = space.leaf(node.label)
        else:
            memo[node.uid] = space.decision(node.level, memo[node.lo.uid], memo[node.hi.uid])
    return Obdd(space, memo[b.root.uid])


class ObddCompilation:
    """An ordered diagram with the legend of its decision variables. A compiled
    diagram also keeps its inputs; a diagram loaded from text has None there."""

    def __init__(self, obdd, legend, phi=None, g=None, nice=None, coloring=None, reachable=None):
        self.kind = "obdd"
        self.obdd: Obdd = obdd
        self.legend: tuple[DecisionVariable, ...] = legend
        self.formula = phi
        self.graph = g
        self.nice = nice
        self.coloring = coloring
        self.reachable = reachable

    @property
    def root(self) -> ObddNode:
        return self.obdd.root

    @property
    def order(self) -> tuple[DecisionVariable, ...]:
        return self.obdd.order

    def nodes(self) -> list[ObddNode]:
        return self.obdd.nodes()

    def evaluate(self, delta) -> bool:
        return evaluate_obdd(self.obdd, delta)

    def satisfiable(self, delta) -> bool:
        return satisfiable_obdd(self.obdd, delta)


def compile_obdd(
    phi: Formula, g: Graph, t: NiceTreeDecomposition, coloring: dict[int, int]
) -> ObddCompilation:
    """Compile along a nice path decomposition; the variable order concatenates
    the forget-node contexts from the leaf up to the root.

    The diagram grows from its terminals up while the forget chain is walked
    from the root back to the leaf: the root's states become terminals by the
    accepting test, and at every forget step each state entering it becomes a
    reduced tree over the step's context variables whose leaves are the
    diagrams of its successors.
    """
    if not phi.is_core:
        raise DiagramError("formula must be desugared before compilation")
    for n in t.nodes.values():
        if n.kind == JOIN:
            raise DiagramError("path decomposition required: join node present")
    space_dp = decision_space(phi)
    plan = forget_plan(phi, t, coloring)
    reach = minimize_states(space_dp, t, reachable_states(space_dp, t, plan))

    chain = [
        nid for nid in t.postorder() if t.nodes[nid].kind == FORGET
    ]  # a path decomposition's postorder runs leaf upward
    order: list[DecisionVariable] = []
    bases = []
    for nid in chain:
        bases.append(len(order))
        order.extend(plan[nid].variables)
    space = ObddSpace(tuple(order))

    below = {
        s: space.leaf(1 if space_dp.is_accepting(s) else 0)
        for s in reach.per_node[t.root]
    }
    for step in reversed(range(len(chain))):
        nid = chain[step]
        k = len(plan[nid].variables)
        table = reach.forget_tables[nid]
        entering = {}
        for state in reach.per_node[t.nodes[nid].children[0]]:
            layer = [below[table[(state, idx)]] for idx in range(1 << k)]
            for level in reversed(range(bases[step], bases[step] + k)):
                layer = [
                    space.reduced(level, layer[i], layer[i + 1])
                    for i in range(0, len(layer), 2)
                ]
            entering[state] = layer[0]
        below = entering

    obdd = Obdd(space, below[space_dp.initial])
    legend = decision_variables(phi, g)
    if set(order) != set(legend):
        raise DiagramError("context variables do not cover the decision universe")
    return ObddCompilation(obdd, legend, phi, g, t, coloring, reach)
