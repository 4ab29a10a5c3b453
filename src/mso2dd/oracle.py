"""Brute-force semantics, truth tables, diagram queries, and the vertex-cover
CNF family used by the lower-bound benchmark.

The truth-table helpers represent the set of satisfying assignments over an
ordered variable list as a single big integer: bit i gives the value on the
assignment whose j-th variable equals bit j of i. That makes exhaustive
diagram/oracle comparisons cheap at desk scale.

The oracle evaluates a formula on all assignments to its free variables at
once: every subformula evaluates to such a bitset, a free variable is read off
the masks of its decision variables, and only the bound variables are
enumerated, each over its whole universe.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from typing import NamedTuple

from .assignment import DecisionVariable, decision_variables, decode_bits, domain, dv_mem
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
from .obdd import Obdd, ObddSpace, build_layers
from .sdd import DECOMP, LITERAL, TRUE

QUANTIFIER_BRANCH_CAP = 10**7


# -- brute-force semantics over all free-variable assignments at once -----------


def _domain_size(g: Graph, sort: Sort) -> int:
    n = g.n_vertices if sort.is_vertex else g.n_edges
    return n if sort.is_object else 1 << n


class _Bitsets:
    """The textbook recursive evaluation, run on every assignment to the free
    variables at once.

    The constructor closes the recursion over the graph once; `table` then
    returns the bitset of the assignments to a list of decision variables
    under which the formula holds. Every variable has a slot in the list `a`
    the closures read. A slot holding a value is bound; an empty one (None)
    is free and read off the masks of its decision variables. Quantifiers
    bind their variables to every value of their universe in turn. Below the
    root a bitset is exact on consistent assignments only. Sugar nodes are
    evaluated directly, so pre- and post-desugar formulas can be compared.
    """

    def __init__(self, g: Graph, phi: Formula) -> None:
        self.g, self.phi = g, phi
        self.slot = {var: i for i, var in enumerate(phi.free_vars)}
        self.domains: dict[Sort, list] = {}
        self.ones = 1
        # bits[slot][obj]: where free variable = obj (objects) or obj in it (sets)
        self.bits: dict[int, dict] = {}
        # checks every quantifier against the cap before any table is built
        self.run = self.compile(phi.root)

    def table(self, dvars, alpha) -> int:
        """Bitset over the assignments to dvars of those that, with the
        values in alpha, are consistent and satisfy the formula. Every free
        variable without a value in alpha must have all its decision
        variables in dvars."""
        free = self.phi.free_vars
        a = [alpha.get(var) for var in free] + [None] * (len(self.slot) - len(free))
        self.ones = (1 << (1 << len(dvars))) - 1
        self.bits = {i: {} for i in range(len(free)) if a[i] is None}
        for d, mask in zip(dvars, variable_masks(len(dvars))):
            self.bits[self.slot[d.var]][d.obj] = mask
        table = self.run(a)
        for i, by_obj in self.bits.items():
            if free[i].sort.is_object:  # exactly one equality bit set
                none, one = self.ones, 0
                for mask in by_obj.values():
                    one = (one & ~mask) | (none & mask)
                    none &= ~mask
                table &= one
        return table

    # -- atoms over slots: bound ones hold a value, free ones are None -------------

    def equals(self, a, i, obj) -> int:
        """Where object variable i has the value obj."""
        if a[i] is None:
            return self.bits[i][obj]
        return self.ones if a[i] == obj else 0

    def values(self, a, i):
        """(value, where variable i has it) for each value it takes: its own
        value when bound, every object when free."""
        if a[i] is None:
            return self.bits[i].items()
        return ((a[i], self.ones),)

    def touches(self, a, i, edge) -> int:
        return self.equals(a, i, edge.u) | self.equals(a, i, edge.v)

    def eq(self, a, i, j) -> int:
        if a[j] is not None:
            if a[i] is not None:
                return self.ones if a[i] == a[j] else 0
            i, j = j, i
        bits = 0
        for obj, where in self.values(a, i):
            bits |= where & self.equals(a, j, obj)
        return bits

    def member(self, a, obj, s) -> int:
        """Where obj belongs to set variable s."""
        if a[s] is None:
            return self.bits[s][obj]
        return self.ones if obj in a[s] else 0

    def element(self, a, i, s) -> int:
        if a[i] is not None and a[s] is not None:
            return self.ones if a[i] in a[s] else 0
        bits = 0
        for obj, where in self.values(a, i):
            bits |= where & self.member(a, obj, s)
        return bits

    def adj(self, a, i, e) -> int:
        edges, bits = self.g.edges, 0
        if a[e] is not None:
            return self.touches(a, i, edges[a[e] - 1])
        if a[i] is not None:
            for edge in self.g.incident_edges(a[i]):
                bits |= self.bits[e][edge.id]
            return bits
        for edge_id, where in self.bits[e].items():
            bits |= where & self.touches(a, i, edges[edge_id - 1])
        return bits

    def nbr(self, a, i, j) -> int:
        # some edge touches both arguments; for equal arguments that reads as
        # "has any incident edge", matching the desugared existential exactly
        if a[j] is not None:
            i, j = j, i
        bits = 0
        for edge in self.g.incident_edges(a[i]) if a[i] is not None else self.g.edges:
            bits |= self.touches(a, i, edge) & self.touches(a, j, edge)
        return bits

    # -- the recursion ----------------------------------------------------------------

    def compile(self, expr) -> Callable[[list], int]:
        slot = self.slot
        if isinstance(expr, Adj):
            i, e = slot[expr.vertex], slot[expr.edge]
            return lambda a: self.adj(a, i, e)
        if isinstance(expr, Eq):
            i, j = slot[expr.left], slot[expr.right]
            return lambda a: self.eq(a, i, j)
        if isinstance(expr, Neq):
            i, j = slot[expr.left], slot[expr.right]
            return lambda a: self.ones ^ self.eq(a, i, j)
        if isinstance(expr, In):
            i, s = slot[expr.element], slot[expr.container]
            return lambda a: self.element(a, i, s)
        if isinstance(expr, NotIn):
            i, s = slot[expr.element], slot[expr.container]
            return lambda a: self.ones ^ self.element(a, i, s)
        if isinstance(expr, EdgePred):
            e, u, v = slot[expr.edge], slot[expr.left], slot[expr.right]
            return lambda a: (self.ones ^ self.eq(a, u, v)) & self.adj(a, u, e) & self.adj(a, v, e)
        if isinstance(expr, Nbr):
            i, j = slot[expr.left], slot[expr.right]
            return lambda a: self.nbr(a, i, j)
        if isinstance(expr, Not):
            body = self.compile(expr.body)
            return lambda a: self.ones ^ body(a)
        if isinstance(expr, And):
            left, right = self.compile(expr.left), self.compile(expr.right)

            def conjoin(a):
                bits = left(a)
                return bits & right(a) if bits else 0

            return conjoin
        if isinstance(expr, (Or, Implies)):
            left, right = self.compile(expr.left), self.compile(expr.right)
            implies = isinstance(expr, Implies)

            def disjoin(a):
                ones = self.ones
                bits = ones ^ left(a) if implies else left(a)
                return bits if bits == ones else bits | right(a)

            return disjoin
        if isinstance(expr, (Exists, Forall)):
            return self.quantify(expr, isinstance(expr, Exists))
        raise QueryError(f"unknown expression node {type(expr).__name__}")

    def domain(self, sort: Sort) -> list:
        if sort not in self.domains:
            self.domains[sort] = domain(self.g, sort)
        return self.domains[sort]

    def quantify(self, expr, existential: bool):
        """OR (exists) or AND (forall) of the body over every value of the
        bound variables, stopping at all-ones or at 0 respectively."""
        # from the sizes alone: a domain is built on first use
        if math.prod(_domain_size(self.g, v.sort) for v in expr.variables) > QUANTIFIER_BRANCH_CAP:
            raise QueryError("quantifier enumeration exceeds the cap")
        slots = [self.slot.setdefault(var, len(self.slot)) for var in expr.variables]
        sorts = [var.sort for var in expr.variables]
        body = self.compile(expr.body)

        def quantified(a):
            ones = self.ones
            bits, stop = (0, ones) if existential else (ones, 0)
            for values in itertools.product(*map(self.domain, sorts)):
                for i, value in zip(slots, values):
                    a[i] = value
                bits = bits | body(a) if existential else bits & body(a)
                if bits == stop:
                    break
            for i in slots:
                a[i] = None
            return bits

        return quantified


def oracle_eval(phi: Formula, g: Graph, alpha) -> bool:
    """Textbook evaluation under one assignment to the free variables;
    quantifiers enumerate the whole universe. A set variable over an empty
    universe, such as an edge set on an edgeless graph, may be left out."""
    return bool(_Bitsets(g, phi).table((), alpha))


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
    """Bitset of assignments to dvars (default: the decision variables in
    canonical order) that are consistent and encode a model."""
    universe = decision_variables(phi, g)
    dvars = universe if dvars is None else tuple(dvars)
    if len(dvars) != len(universe) or set(dvars) != set(universe):
        raise QueryError("the variables are not the instance's decision variables")
    return _Bitsets(g, phi).table(dvars, {})


# -- queries as sweeps over a diagram's positions ------------------------------


class Fold(NamedTuple):
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


def fold(diagram, q: Fold, keep: bool = False):
    """Run q over an SDD or OBDD in one sweep over its positions. Returns the
    whole diagram's value, the node values by node number, and `pairs(i)`,
    the widened (prime, sub) value pairs that node i combines. Unless `keep`
    is set, a value is dropped once the last node to read it is folded."""
    if diagram.kind == "sdd":
        return _fold_sdd(diagram, q, keep)
    return _fold_obdd(diagram, q, keep)


def _fold_sdd(diagram, q: Fold, keep: bool):
    vtree, vtree_id, node_pairs, form = diagram.vtree, diagram.vtree_id, diagram.pairs, diagram.form
    scope = []  # summed weight below each v-tree node; ids are children first
    for vid, var in enumerate(vtree.var):
        if vtree.kind[vid] == "leaf":
            scope.append(q.weight(var))
        else:
            scope.append(scope[vtree.left[vid]] + scope[vtree.right[vid]])
    values: list = [None] * len(form)
    own = [0 if vid is None else scope[vid] for vid in vtree_id]
    lift, combine, last = q.lift, q.combine, None if keep else diagram.last_reader

    def pairs(i):
        left, right = scope[vtree.left[vtree_id[i]]], scope[vtree.right[vtree_id[i]]]
        return [
            (
                values[p] if own[p] == left else lift(values[p], left - own[p]),
                values[s] if own[s] == right else lift(values[s], right - own[s]),
            )
            for p, s in node_pairs[i]
        ]

    for i in diagram.positions:
        if form[i] == DECOMP:
            values[i] = combine(pairs(i))
            if last:
                for p, s in node_pairs[i]:
                    if last[p] == i:
                        values[p] = None
                    if last[s] == i:
                        values[s] = None
        elif form[i] == LITERAL:
            values[i] = q.literal(vtree.var[vtree_id[i]], int(diagram.polarity[i]))
        else:
            values[i] = q.true if form[i] == TRUE else q.false
    root = diagram.positions[-1]
    return lift(values[root], scope[diagram.vtree_root] - own[root]), values, pairs


def _fold_obdd(diagram, q: Fold, keep: bool):
    order, level, lo, hi = diagram.order, diagram.level, diagram.lo, diagram.hi
    scope = [0]  # summed weight of the levels above each level; leaves sit past the last
    for var in order:
        scope.append(scope[-1] + q.weight(var))
    literals = [(q.literal(var, 0), q.literal(var, 1)) for var in order]
    lift, combine, values = q.lift, q.combine, [None] * len(level)
    last = None if keep else diagram.last_reader

    def widened(child, above: int):
        extra = scope[level[child]] - scope[above]
        return lift(values[child], extra) if extra else values[child]

    def pairs(i):
        below = level[i] + 1
        off, on = literals[level[i]]
        return [(off, widened(lo[i], below)), (on, widened(hi[i], below))]

    for i in diagram.positions:
        if lo[i] is None:
            values[i] = q.true if diagram.label[i] else q.false
        else:
            values[i] = combine(pairs(i))
            if last:
                if last[lo[i]] == i:
                    values[lo[i]] = None
                if last[hi[i]] == i:
                    values[hi[i]] = None
    return widened(diagram.positions[-1], 0), values, pairs


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


COUNT = Fold(
    0, 1, lambda var, value: 1, lambda pairs: sum([p * s for p, s in pairs]),
    lambda value, extra: value << extra, lambda var: int(var.kind != "dummy"),
)


def model_count(diagram) -> int:
    """Satisfying assignments over the real decision variables only."""
    return fold(diagram, COUNT)[0]


def is_satisfiable(diagram) -> bool:
    return diagram.satisfiable({})


def enumerate_models(diagram, limit: int):
    """The first `limit` decoded models in lexicographic order of the legend
    bit string (first variable is the most significant bit). Dummy variables
    never influence evaluation, so each model appears once.

    A walk over the legend with polynomial delay (Darwiche & Marquis, "A
    Knowledge Compilation Map", 2002): `fixed` holds a prefix of the legend,
    and the diagram conditioned on it stays satisfiable. The first model
    extends the empty prefix; each later one scans back to the rightmost 0
    whose flip to 1 keeps the diagram satisfiable and extends from there.
    """
    if limit < 1:
        raise QueryError("limit must be at least 1")
    legend = tuple(diagram.legend)
    n = len(legend)
    fixed: dict = {}
    out = []
    if not diagram.satisfiable(fixed):
        return out
    start = 0
    while True:
        _complete(diagram, legend, fixed, start)
        out.append(decode_bits(legend, fixed))
        if len(out) >= limit:
            return out
        for j in reversed(range(n)):
            if fixed.pop(legend[j]) == 0:
                fixed[legend[j]] = 1
                if diagram.satisfiable(fixed):
                    start = j + 1
                    break
                del fixed[legend[j]]
        else:
            return out


def _complete(diagram, legend, fixed, i: int) -> None:
    """Extend the satisfiable prefix legend[:i] in `fixed` to the least model.

    Galloping over each run of zeros: try 1, 2, 4, ... more zero bits, then
    bisect. A longer run of zeros is a stronger condition, so satisfiability
    only falls as the run grows, and the bit after the longest satisfiable
    run is forced to 1. A completion costs O((ones + 1) log n) checks.
    """
    n = len(legend)
    while i < n:
        # longest run known satisfiable, shortest known not, zeros now set
        good, bad, have = 0, n - i + 1, 0
        while good < n - i:
            have = _zero_run(legend, fixed, i, have, min(2 * good or 1, n - i))
            if not diagram.satisfiable(fixed):
                bad = have
                break
            good = have
        while bad - good > 1:
            have = _zero_run(legend, fixed, i, have, (good + bad) // 2)
            if diagram.satisfiable(fixed):
                good = have
            else:
                bad = have
        _zero_run(legend, fixed, i, have, good)
        i += good
        if i < n:
            fixed[legend[i]] = 1
            i += 1


def _zero_run(legend, fixed, i: int, have: int, want: int) -> int:
    """Turn the zeros `fixed` holds on legend[i:i + have] into zeros on
    legend[i:i + want]."""
    for var in legend[i + have:i + want]:
        fixed[var] = 0
    for var in legend[i + want:i + have]:
        del fixed[var]
    return want


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
    ), keep=True)
    if total == _INF:
        raise QueryError("diagram is unsatisfiable under the given constraints")
    # follow a cheapest pair down from the root; variables it never decides
    # keep their free value
    witness = {var: forced.get(var, 0) for var in diagram.legend}
    stack = [diagram.positions[-1]]
    while stack:
        i = stack.pop()
        if diagram.kind == "sdd":
            if diagram.form[i] == LITERAL:
                witness[diagram.vtree.var[diagram.vtree_id[i]]] = int(diagram.polarity[i])
            elif diagram.form[i] == DECOMP:
                stack.extend(diagram.pairs[i][_cheapest(pairs(i))])
        elif diagram.lo[i] is not None:
            value = _cheapest(pairs(i))
            witness[diagram.order[diagram.level[i]]] = value
            stack.append(diagram.hi[i] if value else diagram.lo[i])
    return int(total), decode_bits(diagram.legend, witness)


def _cheapest(pairs) -> int:
    """Index of the first pair with the least summed cost."""
    return min(range(len(pairs)), key=lambda i: pairs[i][0] + pairs[i][1])


# -- the covering formula and its CNF twin ---------------------------------------


class Cnf(NamedTuple):
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
    variables = decision_variables(kappa, g)
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


def cnf_to_obdd(cnf: Cnf, order=None) -> Obdd:
    """The reduced diagram of the CNF under the given (default: legend) order,
    one `build_layers` level per variable. A state is the set of clauses whose
    first variable is decided but which are still unsatisfied; it turns None
    once such a clause has its last variable decided 0."""
    order = tuple(order) if order is not None else cnf.variables
    space = ObddSpace(order)
    if not all(cnf.clauses):
        return Obdd(space, space.leaf(0), cnf.variables)
    opens, closes, touches = ([set() for _ in order] for _ in range(3))
    for c, clause in enumerate(cnf.clauses):
        levels = [space.level_of[cnf.variables[i]] for i in clause]
        opens[min(levels)].add(c)
        closes[max(levels)].add(c)
        for level in levels:
            touches[level].add(c)
    steps, states = [], [frozenset()]
    for level in range(len(order)):
        table = {}
        for s in states:
            if s is None:
                table[(s, 0)] = table[(s, 1)] = None
            else:
                unsatisfied = s | opens[level]
                table[(s, 0)] = None if unsatisfied & closes[level] else unsatisfied
                table[(s, 1)] = s - touches[level]
        steps.append((level, 1, states, table))
        states = list(dict.fromkeys(table.values()))
    terminals = {frozenset(): space.leaf(1), None: space.leaf(0)}
    return Obdd(space, build_layers(space, steps, terminals)[frozenset()], cnf.variables)
