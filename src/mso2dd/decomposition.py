"""Tree decompositions: validation, the .td format, min-fill, nice normalization
and good vertex colorings."""

from __future__ import annotations

import heapq
from collections import Counter
from typing import NamedTuple

from .errors import DecompositionError
from .graph import Edge, Graph, children_first

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


class TreeDecomposition:
    """Bags indexed by node id plus the tree edges connecting them."""

    def __init__(self, bags: dict[int, frozenset], tree_edges) -> None:
        self.bags = {n: frozenset(b) for n, b in bags.items()}
        self.tree_edges = [tuple(sorted(e)) for e in tree_edges]
        self.neighbors: dict[int, list[int]] = {n: [] for n in self.bags}
        for a, b in self.tree_edges:
            if a not in self.bags or b not in self.bags:
                raise DecompositionError(f"tree edge ({a}, {b}) references unknown node")
            self.neighbors[a].append(b)
            self.neighbors[b].append(a)

    @property
    def nodes(self) -> list[int]:
        return sorted(self.bags)

    def width(self) -> int:
        return max(len(b) for b in self.bags.values()) - 1


def parse_tree_decomposition(text: str) -> TreeDecomposition:
    """Parse the .td format: `s td <bags> <max_bag_size> <n>` header, `b` bag lines,
    then one tree edge per line. The header must match the bags read: their
    number, the size of the largest, and every vertex in 1..n."""
    header = None
    bags: dict[int, frozenset] = {}
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise DecompositionError(f"line {lineno}: duplicate header")
            if len(parts) != 5 or parts[1] != "td":
                raise DecompositionError(f"line {lineno}: malformed header")
            try:
                header = tuple(int(x) for x in parts[2:])
            except ValueError:
                raise DecompositionError(f"line {lineno}: malformed header") from None
            header_line = lineno
        elif parts[0] == "b":
            try:
                bag_id = int(parts[1])
                members = frozenset(int(x) for x in parts[2:])
            except (ValueError, IndexError):
                raise DecompositionError(f"line {lineno}: malformed bag line") from None
            if bag_id in bags:
                raise DecompositionError(f"line {lineno}: duplicate bag {bag_id}")
            bags[bag_id] = members
        else:
            if len(parts) != 2:
                raise DecompositionError(f"line {lineno}: malformed tree edge line")
            try:
                edges.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise DecompositionError(f"line {lineno}: malformed tree edge line") from None
    if header is None:
        raise DecompositionError("missing header line")
    n_bags, max_bag, n = header
    if len(bags) != n_bags:
        raise DecompositionError(f"header declares {n_bags} bags, found {len(bags)}")
    outside = [v for bag in bags.values() for v in bag if not 1 <= v <= n]
    if outside:
        raise DecompositionError(
            f"line {header_line}: bag vertex {min(outside)} is not in the graph of {n}"
            " vertices the header declares"
        )
    largest = max(map(len, bags.values()), default=0)
    if largest != max_bag:
        raise DecompositionError(
            f"line {header_line}: header declares largest bag {max_bag}, found {largest}"
        )
    return TreeDecomposition(bags, edges)


class ValidationReport(NamedTuple):
    valid: bool
    width: int
    violations: tuple[str, ...]


def validate_decomposition(g: Graph, t: TreeDecomposition) -> ValidationReport:
    """Check tree-ness, bag vertices, edge coverage and connected vertex
    occurrence. The tree check counts the edges and the nodes one walk from the
    first node reaches; a vertex's bags are connected when one fewer tree edge
    than there are such bags has the vertex in both its end bags."""
    violations = []
    nodes = t.nodes
    if not nodes:
        return ValidationReport(False, -1, ("decomposition has no nodes",))
    if len(t.tree_edges) != len(nodes) - 1:
        violations.append("underlying graph is not a tree (wrong edge count)")
    if len(children_first(nodes[0], lambda n: t.neighbors[n])) != len(nodes):
        violations.append("underlying graph is not a tree (disconnected)")
    tree_ok = not violations
    # the nodes whose bags hold each vertex, in node order
    occurrences = {v: [] for v in g.vertices()}
    strangers = set()
    for n in nodes:
        for v in t.bags[n]:
            if v in occurrences:
                occurrences[v].append(n)
            else:
                strangers.add(v)
    violations.extend(f"bag vertex {v} is not in the graph" for v in sorted(strangers))
    for e in g.edges:
        a, b = sorted((e.u, e.v), key=lambda v: len(occurrences[v]))
        if not any(b in t.bags[n] for n in occurrences[a]):
            violations.append(f"edge ({e.u}, {e.v}) not covered by any bag")
    if tree_ok:  # occurrence connectivity is only meaningful on a tree
        # k tree nodes span a subtree exactly when k - 1 tree edges join two of them
        shared = Counter(v for a, b in t.tree_edges for v in t.bags[a] & t.bags[b])
        for v in g.vertices():
            if not occurrences[v]:
                violations.append(f"vertex {v} appears in no bag")
            elif shared[v] != len(occurrences[v]) - 1:
                violations.append(f"occurrence of vertex {v} is disconnected")
    width = max(len(b) for b in t.bags.values()) - 1
    return ValidationReport(not violations, width, tuple(violations))


def min_fill_decomposition(g: Graph) -> TreeDecomposition:
    """Heuristic decomposition from a min-fill elimination order: each step
    eliminates the vertex of least `(fill, vertex id)`.

    A fill, C(deg, 2) less the edges among the neighbours, is kept per vertex:
    a fill edge ab adds to a and b the neighbours they do not share and takes
    one from each common neighbour; dropping v, once its neighbours are a
    clique, takes deg(a) - deg(v) from each neighbour a. A heap entry
    `(fill, vertex)` whose vertex is gone or whose fill changed is stale."""
    if g.n_vertices == 0:
        raise DecompositionError("graph has no vertices")
    adj = {v: set(g.neighbors(v)) for v in g.vertices()}
    fill = {
        v: len(nbrs) * (len(nbrs) - 1) // 2 - sum(len(nbrs & adj[a]) for a in nbrs) // 2
        for v, nbrs in adj.items()
    }
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    order, saved_nbrs = [], []
    while adj:
        f, v = heapq.heappop(heap)
        if v not in adj or fill[v] != f:
            continue
        nbrs = adj.pop(v)
        order.append(v)
        saved_nbrs.append(nbrs)
        old = {a: fill[a] for a in nbrs}  # the fills that may change, as they were
        for a in nbrs:
            for b in nbrs - adj[a] - {a}:  # the fill edges not added yet
                common = adj[a] & adj[b]
                for w in common:
                    old.setdefault(w, fill[w])
                    fill[w] -= 1
                fill[a] += len(adj[a]) - len(common)
                fill[b] += len(adj[b]) - len(common)
                adj[a].add(b)
                adj[b].add(a)
        for a in nbrs:
            fill[a] -= len(adj[a]) - len(nbrs)
            adj[a].discard(v)
        for w, f in old.items():
            if w in adj and fill[w] != f:
                heapq.heappush(heap, (fill[w], w))
    position = {v: i for i, v in enumerate(order, start=1)}
    bags = {i + 1: frozenset({order[i]} | saved_nbrs[i]) for i in range(len(order))}
    # each bag hangs off the bag of its earliest-eliminated neighbour, else the next bag
    edges = [
        (i, min((position[w] for w in nbrs), default=i + 1))
        for i, nbrs in enumerate(saved_nbrs[:-1], start=1)
    ]
    return TreeDecomposition(bags, edges)


class NiceNode(NamedTuple):
    """A forget node's `edges` are the edges it drops, from its vertex into its
    child's bag, in `Graph.incident_edges` order; other kinds have none."""

    id: int
    kind: str
    vertex: int | None
    bag: frozenset
    children: tuple[int, ...]
    edges: tuple[Edge, ...]


class NiceTreeDecomposition:
    def __init__(self, nodes: dict[int, NiceNode], root: int) -> None:
        self.nodes = nodes
        self.root = root
        self._postorder = tuple(children_first(root, lambda nid: nodes[nid].children))

    def width(self) -> int:
        return max(len(n.bag) for n in self.nodes.values()) - 1

    def postorder(self) -> tuple[int, ...]:
        """Node ids, each after its children in `children` order."""
        return self._postorder

    def forget_nodes(self) -> list[int]:
        return [nid for nid in self._postorder if self.nodes[nid].kind == FORGET]

    def spine(self) -> list[int]:
        """The heavy path from a leaf up to the root: at a join it takes the
        child with more forget nodes below it, the left one on a tie."""
        below, heavy = [], {}  # forget counts of the open subtrees; each join's heavy child
        for nid in self._postorder:
            n = self.nodes[nid]
            if n.kind == LEAF:
                below.append(0)
            elif n.kind == FORGET:
                below[-1] += 1
            elif n.kind == JOIN:
                right = below.pop()
                heavy[nid] = n.children[below[-1] < right]
                below[-1] += right
        path = [self.root]
        while self.nodes[path[-1]].children:
            path.append(heavy.get(path[-1], self.nodes[path[-1]].children[0]))
        return path[::-1]

    def __len__(self) -> int:
        return len(self.nodes)


def _reduce_bags(t: TreeDecomposition):
    """Contract tree edges where one bag contains the other, in one sweep: each
    node, in id order, merges into its first neighbour, in id order, whose bag
    holds its own.

    No merge lets an earlier node merge. `make_nice` validates first, so the
    running intersection property holds, and contractions keep it. If merging
    `a` into `b` let an earlier `x` merge into a new neighbour `y`, then `a`
    lies on the tree path between them, so `bags[x] = bags[x] & bags[y]` is
    within `bags[a]`, and `x` could already have merged into `a`."""
    bags = dict(t.bags)
    nbrs = {n: set(ns) for n, ns in t.neighbors.items()}
    for a in sorted(bags):
        b = next((b for b in sorted(nbrs[a]) if bags[a] <= bags[b]), None)
        if b is None:
            continue
        for m in nbrs.pop(a) - {b}:
            nbrs[m].discard(a)
            nbrs[m].add(b)
            nbrs[b].add(m)
        nbrs[b].discard(a)
        del bags[a]
    return bags, nbrs


def _dropped_edges(g: Graph, v: int, bag) -> tuple[Edge, ...]:
    """The edges a forget of `v` drops, leaving `bag`: those from `v` into it."""
    return tuple(e for e in g.incident_edges(v) if e.other(v) in bag)


def make_nice(g: Graph, t: TreeDecomposition) -> NiceTreeDecomposition:
    """Normalize to a rooted binary decomposition of identical width with typed
    nodes and an empty root bag; each forget node records the edges it drops."""
    report = validate_decomposition(g, t)
    if not report.valid:
        raise DecompositionError("input decomposition invalid: " + "; ".join(report.violations))
    bags, nbrs = _reduce_bags(t)
    root_in = min(n for n in bags if len(nbrs[n]) <= 1)

    nodes: dict[int, NiceNode] = {}

    def new_node(kind, vertex, bag, children=()) -> int:
        nid = len(nodes) + 1
        edges = _dropped_edges(g, vertex, bag) if kind == FORGET else ()
        nodes[nid] = NiceNode(nid, kind, vertex, frozenset(bag), tuple(children), edges)
        return nid

    def lift(top_id: int, from_bag: frozenset, to_bag: frozenset) -> int:
        cur, bag = top_id, set(from_bag)
        for v in sorted(from_bag - to_bag):
            bag.discard(v)
            cur = new_node(FORGET, v, bag, (cur,))
        for v in sorted(to_bag - from_bag):
            bag.add(v)
            cur = new_node(INTRODUCE, v, bag, (cur,))
        return cur

    # The input tree children first, neighbours in id order: each child's
    # subtree is numbered, then its lift, then the next child's, and a bag's
    # joins come last. A bag's parent is its one neighbour still open.
    walk = children_first(root_in, lambda x: sorted(nbrs[x]))
    lifted = {x: [] for x in walk}
    for x in walk:
        kids = lifted.pop(x)
        top = kids[0] if kids else new_node(LEAF, None, bags[x])
        for nxt in kids[1:]:
            top = new_node(JOIN, None, bags[x], (top, nxt))
        for parent in nbrs[x]:
            if parent in lifted:
                lifted[parent].append(lift(top, bags[x], bags[parent]))
    return NiceTreeDecomposition(nodes, lift(top, bags[root_in], frozenset()))


def is_path_decomposition(t: NiceTreeDecomposition) -> bool:
    return all(n.kind != JOIN for n in t.nodes.values())


def good_coloring(g: Graph, t: NiceTreeDecomposition) -> dict[int, int]:
    """Color vertices with at most width+1 colors so that every bag is rainbow.

    Vertices are processed by increasing depth of their forget node; each takes
    the smallest color unused in that node's bag.
    """
    forgets = {t.nodes[nid].vertex: nid for nid in t.forget_nodes()}
    depth = {t.root: 0}
    for nid in reversed(t.postorder()):  # each node before its children
        for child in t.nodes[nid].children:
            depth[child] = depth[nid] + 1
    color: dict[int, int] = {}
    for v in sorted(g.vertices(), key=lambda v: (depth[forgets[v]], v)):
        bag = t.nodes[forgets[v]].bag
        used = {color[u] for u in bag if u in color}
        c = 1
        while c in used:
            c += 1
        color[v] = c
    return color
