"""Brute-force semantics, truth tables, diagram queries, and the vertex-cover
CNF family used by the lower-bound benchmark.

The truth-table helpers represent the set of satisfying assignments over an
ordered variable list as a single big integer: bit i gives the value on the
assignment whose j-th variable equals bit j of i. That makes exhaustive
diagram/oracle comparisons and partition checks cheap at desk scale.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from .assignment import (
    DecisionVariable,
    all_mso_assignments,
    decision_variables,
    dv_mem,
    encode_assignment,
)
from .errors import QueryError
from .graph import Graph
from .mso import (
    Adj,
    And,
    EdgePred,
    Eq,
    Exists,
    Forall,
    Formula,
    Implies,
    In,
    Nbr,
    Neq,
    Not,
    NotIn,
    Or,
    Sort,
    parse_formula,
)
from .obdd import Obdd, ObddSpace, obdd_apply
from .sdd import DECOMP, LITERAL, TRUE, iter_sdd_nodes

DEFAULT_VARIABLE_CAP = 20
QUANTIFIER_BRANCH_CAP = 10**7


# -- recursive evaluation ------------------------------------------------------


def _domain(g: Graph, sort: Sort):
    if sort is Sort.VERTEX_OBJECT:
        return list(g.vertices())
    if sort is Sort.EDGE_OBJECT:
        return list(range(1, g.n_edges + 1))
    if sort is Sort.VERTEX_SET:
        base = list(g.vertices())
    else:
        base = list(range(1, g.n_edges + 1))
    return [
        frozenset(o for i, o in enumerate(base) if mask >> i & 1)
        for mask in range(1 << len(base))
    ]


def oracle_eval(phi: Formula, g: Graph, alpha) -> bool:
    """Textbook recursive evaluation; quantifiers enumerate the whole universe.
    Handles the surface sugar directly so pre- and post-desugar formulas can be
    compared."""
    return compile_oracle(phi, g)(dict(alpha))


def compile_oracle(phi: Formula, g: Graph):
    """Close the recursion over the graph once; the returned callable evaluates
    one assignment dict per call."""
    return _compile_eval(phi.root, g)


def _compile_eval(expr, g: Graph):
    if isinstance(expr, Adj):
        x, y, edges = expr.vertex, expr.edge, g.edges

        return lambda a: edges[a[y] - 1].incident_to(a[x])
    if isinstance(expr, Eq):
        x, y = expr.left, expr.right
        return lambda a: a[x] == a[y]
    if isinstance(expr, Neq):
        x, y = expr.left, expr.right
        return lambda a: a[x] != a[y]
    if isinstance(expr, In):
        x, s = expr.element, expr.container
        return lambda a: a[x] in a[s]
    if isinstance(expr, NotIn):
        x, s = expr.element, expr.container
        return lambda a: a[x] not in a[s]
    if isinstance(expr, EdgePred):
        e, u, v, edges = expr.edge, expr.left, expr.right, g.edges

        def edge_pred(a):
            edge = edges[a[e] - 1]
            return a[u] != a[v] and edge.incident_to(a[u]) and edge.incident_to(a[v])

        return edge_pred
    if isinstance(expr, Nbr):
        # some edge touches both arguments; for equal arguments that reads as
        # "has any incident edge", matching the desugared existential exactly
        u, v, edges = expr.left, expr.right, g.edges
        return lambda a: any(
            e.incident_to(a[u]) and e.incident_to(a[v]) for e in edges
        )
    if isinstance(expr, Not):
        body = _compile_eval(expr.body, g)
        return lambda a: not body(a)
    if isinstance(expr, And):
        left, right = _compile_eval(expr.left, g), _compile_eval(expr.right, g)
        return lambda a: left(a) and right(a)
    if isinstance(expr, Or):
        left, right = _compile_eval(expr.left, g), _compile_eval(expr.right, g)
        return lambda a: left(a) or right(a)
    if isinstance(expr, Implies):
        left, right = _compile_eval(expr.left, g), _compile_eval(expr.right, g)
        return lambda a: (not left(a)) or right(a)
    if isinstance(expr, (Exists, Forall)):
        body = _compile_eval(expr.body, g)
        domains = [(v, _domain(g, v.sort)) for v in expr.variables]
        if math.prod(len(d) for _, d in domains) > QUANTIFIER_BRANCH_CAP:
            raise QueryError("quantifier enumeration exceeds the cap")
        existential = isinstance(expr, Exists)

        def quantify(a, i=0):
            if i == len(domains):
                return body(a)
            var, domain = domains[i]
            for value in domain:
                a[var] = value
                if quantify(a, i + 1) == existential:
                    del a[var]
                    return existential
            a.pop(var, None)
            return not existential

        return quantify
    raise QueryError(f"unknown expression node {type(expr).__name__}")


# -- explicit model sets -------------------------------------------------------


@dataclass(frozen=True)
class ModelSet:
    """Explicit desk-scale model listing: bit tuples over the canonical
    decision-variable order."""

    variables: tuple[DecisionVariable, ...]
    assignments: frozenset

    @property
    def count(self) -> int:
        return len(self.assignments)


def oracle_models(phi: Formula, g: Graph, cap: int = DEFAULT_VARIABLE_CAP) -> ModelSet:
    """Enumerate every assignment to the free variables, keep the models, and
    encode each as a consistent bit tuple."""
    dvars = decision_variables(phi, g)
    if len(dvars) > cap:
        raise QueryError(f"{len(dvars)} decision variables exceed the cap of {cap}")
    evaluate = compile_oracle(phi, g)
    found = set()
    for alpha in all_mso_assignments(phi, g):
        # quantifiers scratch only their own bound-variable keys
        if evaluate(alpha):
            delta = encode_assignment(alpha, phi, g)
            found.add(tuple(delta[d] for d in dvars))
    return ModelSet(dvars, frozenset(found))


# -- truth tables as big-integer bitsets ----------------------------------------


def variable_masks(n_vars: int) -> list[int]:
    """masks[i] has bit j set iff assignment index j sets variable i to 1."""
    total = 1 << n_vars
    masks = []
    for i in range(n_vars):
        block = ((1 << (1 << i)) - 1) << (1 << i)
        period = 1 << (i + 1)
        mask, filled = block, period
        while filled < total:
            mask |= mask << filled
            filled *= 2
        masks.append(mask)
    return masks


def truth_table_oracle(phi: Formula, g: Graph, dvars=None) -> int:
    """Bitset of assignments that are consistent and encode a model."""
    if dvars is None:
        dvars = decision_variables(phi, g)
    dvars = tuple(dvars)
    table = 0
    models = oracle_models(phi, g, cap=max(DEFAULT_VARIABLE_CAP, len(dvars)))
    index = {d: i for i, d in enumerate(dvars)}
    for bits in models.assignments:
        idx = 0
        for d, b in zip(models.variables, bits):
            idx |= b << index[d]
        table |= 1 << idx
    return table


# -- queries as children-first folds ---------------------------------------------


@dataclass(frozen=True)
class Fold:
    """A query as a semiring fold over a diagram (Kimmig, Van den Broeck & De
    Raedt, "Algebraic Model Counting", 2017).

    Constants take `false` and `true`, a literal takes `literal(var, value)`,
    and a node takes `combine` of its (prime, sub) value pairs, where an OBDD
    decision on `var` is the pairs (literal(var, 0), lo) and (literal(var, 1),
    hi). A value is over the variables below its node; a child whose scope is
    narrower than its slot is widened by `lift(value, extra)`, where `extra`
    sums `weight` over the variables the child does not mention.
    """

    false: object
    true: object
    literal: Callable
    combine: Callable
    lift: Callable = lambda value, extra: value
    weight: Callable = lambda var: 0


def fold(diagram, q: Fold):
    """Run q over an SDD or OBDD, children first and without recursion.

    Returns the value of the whole diagram, every node's value by uid, and
    `pairs(node)`, the widened (prime, sub) value pairs that a decomposition
    or decision node combines.
    """
    if diagram.kind == "sdd":
        return _fold_sdd(diagram, q)
    return _fold_obdd(diagram, q)


def _fold_sdd(diagram, q: Fold):
    vtree = diagram.vtree
    scope = []  # summed weight below each v-tree node; ids are children first
    for vid, var in enumerate(vtree.var):
        if vtree.kind[vid] == "leaf":
            scope.append(q.weight(var))
        else:
            scope.append(scope[vtree.left[vid]] + scope[vtree.right[vid]])
    values, own, lift = {}, {}, q.lift

    def pairs(node):
        left, right = scope[vtree.left[node.vtree_id]], scope[vtree.right[node.vtree_id]]
        return [
            (
                values[p.uid] if own[p.uid] == left else lift(values[p.uid], left - own[p.uid]),
                values[s.uid] if own[s.uid] == right else lift(values[s.uid], right - own[s.uid]),
            )
            for p, s in node.pairs
        ]

    for node in iter_sdd_nodes(diagram.root):
        if node.kind == DECOMP:
            values[node.uid] = q.combine(pairs(node))
        elif node.kind == LITERAL:
            values[node.uid] = q.literal(node.var, int(node.polarity))
        else:
            values[node.uid] = q.true if node.kind == TRUE else q.false
        own[node.uid] = 0 if node.vtree_id is None else scope[node.vtree_id]
    root = diagram.root.uid
    return lift(values[root], scope[diagram.vtree_root] - own[root]), values, pairs


def _fold_obdd(diagram, q: Fold):
    order = diagram.order
    scope = [0]  # summed weight of the levels above each level
    for var in order:
        scope.append(scope[-1] + q.weight(var))
    literals = [(q.literal(var, 0), q.literal(var, 1)) for var in order]
    values, lift = {}, q.lift

    def widened(child, level: int):
        extra = scope[len(order) if child.is_leaf else child.level] - scope[level]
        return lift(values[child.uid], extra) if extra else values[child.uid]

    def pairs(node):
        below = node.level + 1
        off, on = literals[node.level]
        return [(off, widened(node.lo, below)), (on, widened(node.hi, below))]

    for node in diagram.nodes():
        if node.is_leaf:
            values[node.uid] = q.true if node.label else q.false
        else:
            values[node.uid] = q.combine(pairs(node))
    return widened(diagram.root, 0), values, pairs


def _truth_fold(dvars) -> Fold:
    """Bitsets over the given variable order; dummies never appear as
    literals, so they need no columns."""
    ones = (1 << (1 << len(dvars))) - 1
    masks = dict(zip(dvars, variable_masks(len(dvars))))

    def literal(var, value: int) -> int:
        if var not in masks:
            raise QueryError(f"literal on unknown variable {var!r}")
        return masks[var] if value else ones ^ masks[var]

    def combine(pairs) -> int:
        bits = 0
        for p, s in pairs:
            bits |= p & s
        return bits

    return Fold(0, ones, literal, combine)


def truth_table(diagram, dvars) -> int:
    return fold(diagram, _truth_fold(dvars))[0]


def node_truth_tables(diagram, dvars) -> dict[int, int]:
    """The truth table of every node, by uid."""
    return fold(diagram, _truth_fold(dvars))[1]


COUNT = Fold(
    0, 1, lambda var, value: 1, lambda pairs: sum(p * s for p, s in pairs),
    lambda value, extra: value << extra, lambda var: int(var.kind != "dummy"),
)
SAT = Fold(False, True, lambda var, value: True, lambda pairs: any(p and s for p, s in pairs))


def model_count(diagram) -> int:
    """Satisfying assignments over the real decision variables only."""
    return fold(diagram, COUNT)[0]


def is_satisfiable(diagram) -> bool:
    return fold(diagram, SAT)[0]


def decode_bits(legend, delta):
    """Recover the variable assignment a consistent bit assignment encodes;
    works from the legend alone, so it applies to loaded diagrams too."""
    by_var: dict = {}
    for d in legend:
        by_var.setdefault(d.var, []).append(d)
    alpha = {}
    for var, dvs in by_var.items():
        if var.sort.is_object:
            hits = [d.obj for d in dvs if delta[d]]
            if len(hits) != 1:
                raise QueryError(f"inconsistent bits for object variable {var.name!r}")
            alpha[var] = hits[0]
        else:
            alpha[var] = frozenset(d.obj for d in dvs if delta[d])
    return alpha


def enumerate_models(diagram, limit: int):
    """Decoded models in lexicographic order of the legend bit string (first
    variable is the most significant bit). Dummy variables never influence
    evaluation, so each model appears once."""
    if limit < 1:
        raise QueryError("limit must be at least 1")
    legend = tuple(diagram.legend)
    n = len(legend)
    out = []
    for idx in range(1 << n):
        bits = tuple((idx >> (n - 1 - i)) & 1 for i in range(n))
        delta = dict(zip(legend, bits))
        if diagram.evaluate(delta):
            out.append(decode_bits(legend, delta))
            if len(out) >= limit:
                break
    return out


_INF = float("inf")


def min_cardinality_model(diagram, targets, forced=None):
    """A model minimizing the number of satisfied target variables.

    Costs add across a prime and its sub (or a decision and its branch) and
    minimize across alternatives. `forced` pins variables to fixed values
    (the vertex-cover demo pins all edge-set memberships to 0); a variable no
    literal mentions takes its cheapest legal value. Returns (minimum, decoded
    witness assignment).
    """
    targets, forced = set(targets), dict(forced or {})

    def cost(var, value: int) -> float:
        if var in forced and forced[var] != value:
            return _INF
        return 1 if value and var in targets else 0

    total, _, pairs = fold(diagram, Fold(
        _INF, 0, cost, lambda pairs: min([p + s for p, s in pairs]),
        lambda value, extra: value + extra, lambda var: cost(var, forced.get(var, 0)),
    ))
    if total == _INF:
        raise QueryError("diagram is unsatisfiable under the given constraints")
    # follow a cheapest pair down from the root; variables it never decides
    # keep their free value
    witness = {var: forced.get(var, 0) for var in diagram.legend}
    stack = [diagram.root]
    while stack:
        node = stack.pop()
        if diagram.kind == "sdd":
            if node.kind == LITERAL:
                witness[node.var] = int(node.polarity)
            elif node.kind == DECOMP:
                stack.extend(node.pairs[_cheapest(pairs(node))])
        elif not node.is_leaf:
            value = _cheapest(pairs(node))
            witness[diagram.order[node.level]] = value
            stack.append(node.hi if value else node.lo)
    return int(total), decode_bits(diagram.legend, witness)


def _cheapest(pairs) -> int:
    """Index of the first pair with the least summed cost."""
    return min(range(len(pairs)), key=lambda i: pairs[i][0] + pairs[i][1])


# -- the covering formula and its CNF twin ---------------------------------------


@dataclass(frozen=True)
class Cnf:
    """Positive 3-clause per edge: cover it by an endpoint or by the edge itself.
    Variables are the membership decision variables of the covering formula."""

    variables: tuple[DecisionVariable, ...]
    clauses: tuple[tuple[int, int, int], ...]  # indices into variables


KAPPA_TEXT = (
    "free vset X_V; free eset X_E; "
    "forall edge e. forall vertex u. forall vertex v. "
    "((((u != v) & adj(u, e)) & adj(v, e)) -> (((u in X_V) | (v in X_V)) | (e in X_E)))"
)


def kappa_formula() -> Formula:
    """The covering formula over one vertex-set and one edge-set variable."""
    return parse_formula(KAPPA_TEXT)


def cnf_of_graph(g: Graph) -> Cnf:
    kappa = kappa_formula()
    x_v = next(v for v in kappa.free_vars if v.name == "X_V")
    x_e = next(v for v in kappa.free_vars if v.name == "X_E")
    variables = tuple(
        [dv_mem(x_v, v) for v in g.vertices()]
        + [dv_mem(x_e, e.id) for e in g.edges]
    )
    index = {d: i for i, d in enumerate(variables)}
    clauses = tuple(
        (
            index[dv_mem(x_v, e.u)],
            index[dv_mem(x_e, e.id)],
            index[dv_mem(x_v, e.v)],
        )
        for e in g.edges
    )
    return Cnf(variables, clauses)


def cnf_to_dimacs(cnf: Cnf) -> str:
    lines = [f"p cnf {len(cnf.variables)} {len(cnf.clauses)}"]
    lines.extend(
        " ".join(str(i + 1) for i in clause) + " 0" for clause in cnf.clauses
    )
    return "\n".join(lines) + "\n"


def cnf_truth_table(cnf: Cnf) -> int:
    masks = variable_masks(len(cnf.variables))
    ones = (1 << (1 << len(cnf.variables))) - 1
    table = ones
    for clause in cnf.clauses:
        clause_bits = 0
        for i in clause:
            clause_bits |= masks[i]
        table &= clause_bits
    return table


def cnf_to_obdd(cnf: Cnf, order=None) -> Obdd:
    """Clause-by-clause conjunction under the given (default: legend) order."""
    order = tuple(order) if order is not None else cnf.variables
    space = ObddSpace(order)
    result = space.constant(1)
    for clause in cnf.clauses:
        clause_dd = space.constant(0)
        for i in clause:
            clause_dd = obdd_apply(clause_dd, space.literal(cnf.variables[i]), lambda a, b: a or b)
        result = obdd_apply(result, clause_dd, lambda a, b: a and b)
    return result
