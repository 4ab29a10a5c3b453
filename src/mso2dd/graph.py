"""Undirected simple graphs, the .gr text format, benchmark generators, the
children-first walk that lists the nodes of trees and diagrams, and `Dag`,
the positions both diagram kinds share."""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .errors import GraphError


class Edge(NamedTuple):
    """An undirected edge; endpoints are normalized so u < v. Edges order by
    (id, u, v)."""

    id: int
    u: int
    v: int

    def other(self, vertex: int) -> int:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise GraphError(f"vertex {vertex} is not an endpoint of edge {self.id}")


def children_first(root, children) -> list:
    """Distinct nodes reachable from `root`, each after its children: a
    depth-first postorder that visits `children(node)` in the order given,
    without recursion. Nodes are hashable and told apart as a set tells them;
    the order depends on the graph's shape only, not on how its nodes were
    numbered or interned."""
    seen, order, stack = {root}, [], [(root, iter(children(root)))]
    while stack:
        node, pending = stack[-1]
        for child in pending:
            if child not in seen:
                seen.add(child)
                stack.append((child, iter(children(child))))
                break
        else:
            stack.pop()
            order.append(node)
    return order


class Dag:
    """Nodes numbered 0, 1, ... under the root `_root`, read through
    `children(i)`, both set by a subclass. `positions` lists the nodes the
    root reaches, children first and root last, and `last_reader[c]` is the
    last of them to read c."""

    positions = cached_property(lambda self: children_first(self._root, self.children))
    last_reader = cached_property(lambda self: self.place(self.positions))

    def place(self, listing) -> list:
        """Take as positions the nodes of children-first `listing` that the root
        reaches, each where first listed, in one sweep back from the root;
        returns each node's last reader, which is the first met."""
        last, reached = [None] * (max(listing) + 1), []
        last[self._root] = self._root
        for i in reversed(dict.fromkeys(listing)):
            if last[i] is not None:
                reached.append(i)
                for child in self.children(i):
                    if last[child] is None:
                        last[child] = i
        reached.reverse()
        self.positions = reached
        return last


MAX_VERTICES = 10**6  # most vertices a `.gr` header may declare; a graph keeps a list for each


class Graph:
    """Simple undirected graph with 1-based contiguous vertex and edge ids.

    Immutable after construction; edge ids follow the order in which the
    endpoint pairs were supplied.
    """

    def __init__(self, n_vertices: int, edge_pairs) -> None:
        if n_vertices < 0:
            raise GraphError("vertex count must be non-negative")
        self.n_vertices = n_vertices
        edges = []
        seen = set()
        for u, v in edge_pairs:
            if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
                raise GraphError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            edges.append(Edge(len(edges) + 1, u, v))
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._incident: dict[int, list[Edge]] = {v: [] for v in self.vertices()}
        for e in self.edges:
            self._incident[e.u].append(e)
            self._incident[e.v].append(e)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_objects(self) -> int:
        """Vertices plus edges; the instance size the size bounds are stated in."""
        return self.n_vertices + self.n_edges

    def vertices(self) -> range:
        return range(1, self.n_vertices + 1)

    def edge(self, edge_id: int) -> Edge:
        if not 1 <= edge_id <= len(self.edges):
            raise GraphError(f"no edge with id {edge_id}")
        return self.edges[edge_id - 1]

    def incident_edges(self, vertex: int) -> tuple[Edge, ...]:
        return tuple(self._incident[vertex])

    def neighbors(self, vertex: int) -> tuple[int, ...]:
        return tuple(e.other(vertex) for e in self._incident[vertex])

    def has_edge(self, u: int, v: int) -> bool:
        return any(e.other(u) == v for e in self._incident.get(u, ()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n_vertices == other.n_vertices and self.edges == other.edges


def format_lines(text: str):
    """The line reader of the `.gr` and `.td` formats: the line number, the
    stripped text and the tokens of each line that is neither blank nor a
    comment, which starts with `c`."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and line[0] != "c":
            yield lineno, line, line.split()


def int_tokens(tokens, ok: bool, error, lineno: int, line: str, what: str) -> tuple[int, ...]:
    """`tokens` as ints if `ok` and every one is an int; otherwise raises
    `error` saying line `lineno` is `what`, in which `{line!r}` stands for
    the line's text."""
    if ok:
        try:
            return tuple(map(int, tokens))
        except ValueError:
            pass
    raise error(f"line {lineno}: " + what.format(line=line))


def parse_graph(text: str) -> Graph:
    """Parse the .gr format: `p gr <n> <m>` header, one `<u> <v>` line per edge."""
    header = None
    pairs = []
    for lineno, line, tokens in format_lines(text):
        if line[0] == "p":
            if header is not None:
                raise GraphError(f"line {lineno}: duplicate header")
            ok = len(tokens) == 4 and tokens[:2] == ["p", "gr"]
            what = "malformed header {line!r}"
            header = int_tokens(tokens[2:], ok, GraphError, lineno, line, what)
        elif header is None:
            raise GraphError(f"line {lineno}: edge before header")
        else:
            what = "malformed edge line {line!r}"
            pairs.append(int_tokens(tokens, len(tokens) == 2, GraphError, lineno, line, what))
    if header is None:
        raise GraphError("missing header line")
    n_vertices, n_edges = header
    if n_vertices > MAX_VERTICES:
        raise GraphError(f"header declares {n_vertices} vertices, more than {MAX_VERTICES}")
    if len(pairs) != n_edges:
        raise GraphError(f"header declares {n_edges} edges, found {len(pairs)}")
    return Graph(n_vertices, pairs)


def clique(k: int) -> Graph:
    """Complete graph on k >= 1 vertices."""
    if k < 1:
        raise GraphError("clique size must be at least 1")
    pairs = [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]
    return Graph(k, pairs)


def complete_binary_tree(r: int) -> Graph:
    """Complete binary tree of height r >= 1, so 2^r - 1 vertices in heap numbering."""
    if r < 1:
        raise GraphError("tree height must be at least 1")
    n = 2**r - 1
    pairs = []
    for i in range(1, n + 1):
        for child in (2 * i, 2 * i + 1):
            if child <= n:
                pairs.append((i, child))
    return Graph(n, pairs)


def full_product(g: Graph, h: Graph) -> Graph:
    """Product graph on V(g) x V(h); vertex (a, b) gets id (a-1)*|V(h)| + b.

    Two product vertices are adjacent when the first coordinates are adjacent
    and the second equal, the first equal and the second adjacent, or both
    coordinates adjacent.
    """
    if g.n_vertices == 0 or h.n_vertices == 0:
        raise GraphError("full product requires nonempty graphs")
    nh = h.n_vertices
    n = g.n_vertices * nh

    def coords(pid: int) -> tuple[int, int]:
        return ((pid - 1) // nh + 1, (pid - 1) % nh + 1)

    pairs = []
    for p in range(1, n + 1):
        a, b = coords(p)
        for q in range(p + 1, n + 1):
            c, d = coords(q)
            g_adj = g.has_edge(a, c)
            h_adj = h.has_edge(b, d)
            if (g_adj and b == d) or (a == c and h_adj) or (g_adj and h_adj):
                pairs.append((p, q))
    return Graph(n, pairs)


def clique_tree(k: int, r: int) -> Graph:
    """Full product of the k-clique with the complete binary tree of height r."""
    return full_product(clique(k), complete_binary_tree(r))
