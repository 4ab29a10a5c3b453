"""Benchmark inputs and their independent reference answers.

Everything here is plain Python: graphs, decompositions and formulas are
generated as the text formats the `mso2dd` command line reads (`.gr`, `.td`,
`.mso`), and every reference answer comes from closed forms or brute force
over the generated graph, never from the compiler under test. Desk-scale
instances (at most 14 decision variables) are also checked against the
brute-force oracle's truth table inside the worker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("obdd-path-kappa", "sdd-tree-kappa", "scale-qf", "verify-desk")

# Formula texts; the same corpus as tests/conftest.py, copied so the benchmark
# feeds the program inputs of its own.
KAPPA = (
    "free vset X_V; free eset X_E; "
    "forall edge e. forall vertex u. forall vertex v. "
    "((((u != v) & adj(u, e)) & adj(v, e)) -> (((u in X_V) | (v in X_V)) | (e in X_E)))"
)
FORMULAS = {
    "eq": "free vertex x; free vertex y; (x = y)",
    "mem": "free vertex x; free vset X; (x in X)",
    "adj": "free vertex x; free edge p; adj(x, p)",
    "nadj": "free vertex x; free edge p; ~adj(x, p)",
    "edge3": "free edge e; free vertex u; free vertex v; edge(e, u, v)",
    "taut": "exists vset X. ~ exists vertex v. (~(v in X) & (v in X))",
    "kappa": KAPPA,
    "dom": "free vset S; forall vertex u. exists vertex v. (((u = v) | nbr(u, v)) & (v in S))",
}
FREE_VARS = {
    "eq": ("x", "y"),
    "mem": ("x", "X"),
    "adj": ("x", "p"),
    "nadj": ("x", "p"),
    "edge3": ("e", "u", "v"),
    "taut": (),
    "kappa": ("X_V", "X_E"),
    "dom": ("S",),
}
# free variables per sort class, for counting decision variables
_VERTEX_VARS = {"eq": 2, "mem": 2, "adj": 1, "nadj": 1, "edge3": 2, "taut": 0, "kappa": 1, "dom": 1}
_EDGE_VARS = {"eq": 0, "mem": 0, "adj": 1, "nadj": 1, "edge3": 1, "taut": 0, "kappa": 1, "dom": 0}

DESK_MAX_VARIABLES = 14
REACH_VERTICES = 1000


@dataclass
class Instance:
    """One formula/graph pair and what the worker does with it.

    `targets` is `obdd`, `sdd`, `auto` (the OBDD when the nice decomposition is
    join-free, else the SDD) or `both` (the SDD, plus the OBDD when join-free).
    Each diagram is queried, enumerated and verified `passes` times, so that
    operations of a few milliseconds add up to a time worth measuring.
    Reference answers left as None are taken from the oracle truth table,
    which only desk instances (`verify=True`) compute.
    """

    name: str
    formula: str
    n: int
    edges: list
    td: str | None = None
    targets: str = "auto"
    enumerate_limit: int = 0
    verify: bool = False
    min_card_targets: tuple = ()
    min_card_forced: tuple = ()
    count: int | None = None
    min_card: int | None = None
    passes: int = 1

    @property
    def graph_text(self) -> str:
        lines = [f"p gr {self.n} {len(self.edges)}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


@dataclass
class Workload:
    instances: list
    reach: list = field(default_factory=list)


# -- graphs (edge lists; edge ids follow list order, as in mso2dd.Graph) -----


def path_edges(n: int, label=None) -> list:
    label = label or (lambda v: v)
    return [(label(i), label(i + 1)) for i in range(1, n)]


def path_td(n: int, label=None) -> str:
    """Width-1 path decomposition: bags {i, i+1} chained along the path."""
    label = label or (lambda v: v)
    if n == 1:
        return "s td 1 1 1\nb 1 1\n"
    lines = [f"s td {n - 1} 2 {n}"]
    lines.extend(f"b {i} {label(i)} {label(i + 1)}" for i in range(1, n))
    lines.extend(f"{i} {i + 1}" for i in range(1, n - 1))
    return "\n".join(lines) + "\n"


def cycle_edges(n: int) -> list:
    return path_edges(n) + [(1, n)]


def star_edges(leaves: int) -> list:
    return [(1, i + 2) for i in range(leaves)]


def clique_edges(k: int) -> list:
    return [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]


def binary_tree_edges(r: int) -> list:
    """Complete binary tree of height r in heap numbering: 2^r - 1 vertices."""
    n = 2**r - 1
    return [(i, c) for i in range(1, n + 1) for c in (2 * i, 2 * i + 1) if c <= n]


def product_edges(g_n: int, g_edges: list, h_n: int, h_edges: list) -> list:
    """Full (strong) product; vertex (a, b) gets id (a-1)*|V(h)| + b."""
    g_adj = {frozenset(e) for e in g_edges}
    h_adj = {frozenset(e) for e in h_edges}
    coords = [((p - 1) // h_n + 1, (p - 1) % h_n + 1) for p in range(1, g_n * h_n + 1)]
    out = []
    for p in range(1, g_n * h_n + 1):
        a, b = coords[p - 1]
        for q in range(p + 1, g_n * h_n + 1):
            c, d = coords[q - 1]
            ga, ha = frozenset((a, c)) in g_adj, frozenset((b, d)) in h_adj
            if (ga and b == d) or (a == c and ha) or (ga and ha):
                out.append((p, q))
    return out


def _relabel(n: int, edges: list, rng: random.Random) -> list:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    out = [(perm[u - 1], perm[v - 1]) for u, v in edges]
    rng.shuffle(out)
    return out


def grid_edges(cols: int) -> list:
    """3 x cols grid, row-major ids."""
    at = lambda r, c: r * cols + c + 1  # noqa: E731
    horizontal = [(at(r, c), at(r, c + 1)) for r in range(3) for c in range(cols - 1)]
    vertical = [(at(r, c), at(r + 1, c)) for r in range(2) for c in range(cols)]
    return horizontal + vertical


def random_tree_edges(n: int, rng: random.Random) -> list:
    """Random recursive tree: vertex i attaches to a uniform earlier vertex."""
    return [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]


CORPUS = {
    "K1": (1, []),
    "P2": (2, path_edges(2)),
    "P3": (3, path_edges(3)),
    "P4": (4, path_edges(4)),
    "K3": (3, clique_edges(3)),
    "C4": (4, cycle_edges(4)),
    "S3": (4, star_edges(3)),
    "S4": (5, star_edges(4)),
    "bowtie": (5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)]),
    "KT22": (6, product_edges(2, clique_edges(2), 3, binary_tree_edges(2))),
}


def decision_variable_count(formula: str, n: int, m: int) -> int:
    return _VERTEX_VARS[formula] * n + _EDGE_VARS[formula] * m


# -- reference answers --------------------------------------------------------


def kappa_count_path(n: int) -> int:
    """Transfer matrix over the path: an edge is free (2 ways) when an endpoint
    is in X_V, otherwise X_E must contain it (1 way)."""
    ways = [1, 1]  # ways[s]: assignments so far with the last vertex in X_V iff s
    for _ in range(n - 1):
        ways = [
            sum(ways[s] * (2 if s or t else 1) for s in (0, 1)) for t in (0, 1)
        ]
    return sum(ways)


def kappa_count_brute(n: int, edges: list) -> int:
    """Sum over S of 2^(edges touched by S)."""
    total = 0
    for mask in range(1 << n):
        touched = sum(1 for u, v in edges if mask >> (u - 1) & 1 or mask >> (v - 1) & 1)
        total += 1 << touched
    return total


def min_vertex_cover_brute(n: int, edges: list) -> int:
    return min(
        bin(mask).count("1")
        for mask in range(1 << n)
        if all(mask >> (u - 1) & 1 or mask >> (v - 1) & 1 for u, v in edges)
    )


def qf_count(formula: str, n: int, m: int) -> int:
    """`x in X`: x takes n values, X any superset of {x}; `adj`: an incident
    (vertex, edge) pair; `eq`: x = y."""
    return {"mem": n * 2 ** (n - 1), "adj": 2 * m, "eq": n}[formula]


# -- instance builders --------------------------------------------------------


def _kappa(name, n, edges, **kw) -> Instance:
    return Instance(
        name, KAPPA, n, edges,
        min_card_targets=("X_V",), min_card_forced=("X_E",), **kw,
    )


def _qf(name, formula, n, edges, **kw) -> Instance:
    return Instance(
        name, FORMULAS[formula], n, edges,
        min_card_targets=FREE_VARS[formula], **kw,
    )


def _desk(name, formula, n, edges, **kw) -> Instance:
    """Oracle-checked instance: both targets, enumeration and verification."""
    kw.setdefault("enumerate_limit", 5)
    if formula == "kappa":
        return _kappa(name, n, edges, targets="both", verify=True, **kw)
    return Instance(
        name, FORMULAS[formula], n, edges, targets="both", verify=True,
        min_card_targets=FREE_VARS[formula], **kw,
    )


def obdd_path_kappa(seed: int, toy: bool) -> Workload:
    n = 6 if toy else 24
    main = _kappa(
        f"kappa/P{n}", n, path_edges(n), td=path_td(n), targets="obdd",
        count=kappa_count_path(n), min_card=n // 2, passes=30,
    )
    desk_n = 3 if toy else 4
    desk = _desk(f"kappa/P{desk_n}", "kappa", desk_n, path_edges(desk_n), passes=30)
    return Workload([main, desk])


def sdd_tree_kappa(seed: int, toy: bool) -> Workload:
    if toy:
        n, edges, label = 5, star_edges(4), "S4"
    else:
        n, edges, label = 7, binary_tree_edges(3), "T3"
    main = _kappa(
        f"kappa/{label}", n, edges, targets="sdd", enumerate_limit=1,
        count=kappa_count_brute(n, edges), min_card=min_vertex_cover_brute(n, edges),
    )
    desk_n = 3 if toy else 4
    desk = _desk(f"kappa/P{desk_n}", "kappa", desk_n, path_edges(desk_n), td=path_td(desk_n), passes=40)
    return Workload([main, desk])


def scale_qf(seed: int, toy: bool) -> Workload:
    rng = random.Random(seed)
    n = 20 if toy else 200
    cols = n // 3 + 1
    graphs = [
        ("path", n, _relabel(n, path_edges(n), rng)),
        ("grid", 3 * cols, _relabel(3 * cols, grid_edges(cols), rng)),
        ("tree", n, _relabel(n, random_tree_edges(n, rng), rng)),
    ]
    main = [
        _qf(
            f"{f}/{gname}{gn}", f, gn, edges, targets="auto",
            count=qf_count(f, gn, len(edges)), min_card=2,
        )
        for gname, gn, edges in graphs
        for f in ("mem", "adj", "eq")
    ]
    desk_n = 5 if toy else 6
    perm = list(range(1, desk_n + 1))
    rng.shuffle(perm)
    label = lambda v: perm[v - 1]  # noqa: E731
    desk = [
        _desk(f"{f}/P{desk_n}", f, desk_n, path_edges(desk_n, label), td=path_td(desk_n, label), passes=10)
        for f in ("mem", "adj", "eq")
    ]
    # Reach set: the width-1 decomposition is supplied, so only the pipeline's
    # own depth limits can stop these.
    big = REACH_VERTICES
    reach = [
        _qf(
            f"{f}/P{big}", f, big, path_edges(big), td=path_td(big), targets="obdd",
            count=qf_count(f, big, big - 1), min_card=2,
        )
        for f in ("mem", "adj", "eq")
    ]
    return Workload(main + desk, reach)


def verify_desk(seed: int, toy: bool) -> Workload:
    instances = []
    for gname, (n, edges) in CORPUS.items():
        if toy and n > 4:
            continue
        for f in FORMULAS:
            if decision_variable_count(f, n, len(edges)) <= DESK_MAX_VARIABLES:
                instances.append(_desk(f"{f}/{gname}", f, n, edges, enumerate_limit=1))
    dom_n = 4 if toy else 12
    instances.append(
        Instance(
            f"dom/P{dom_n}", FORMULAS["dom"], dom_n, path_edges(dom_n), td=path_td(dom_n),
            targets="obdd", enumerate_limit=5, verify=True, min_card_targets=("S",),
        )
    )
    return Workload(instances)


BUILDERS = {
    "obdd-path-kappa": obdd_path_kappa,
    "sdd-tree-kappa": sdd_tree_kappa,
    "scale-qf": scale_qf,
    "verify-desk": verify_desk,
}


def build(name: str, seed: int, toy: bool = False) -> Workload:
    return BUILDERS[name](seed, toy)
