"""Per-subformula state machines driving the decomposition dynamic program.

Each formula constructor gets a space with an initial state, an acceptance
predicate, and two transition functions: `forget` consumes the bits of the
vertex/edges dropped at a forget node, `join` combines the states of the two
subtrees below a join node. Spaces are built from the formula alone, never
from the graph. A forget sees its node through two values only: the node's
local shape (the forgotten vertex's colour and the far-end colours of the
forgotten edges, in context order) and `bits`, which maps each variable to
its bits on the forgotten objects: a 1-tuple for a vertex sort, one bit per
forgotten edge, in context order, for an edge sort. `forgotten_bits` splits
an assignment into them; no transition reads a vertex id, an edge id or a
decision variable. So a node's table depends only on its input (a forget's
child states and shape, a join's child states), and `reachable_states` and
`minimize_states` compute one table per distinct input, shared by every node
that repeats it; the quantifier memos share single transitions across inputs.

States are plain hashable values: an atom is one of the strings INIT, TRUE
and BOT (undecided, true, false for good), an adjacency colour is an int,
consistency bits and conjunction pairs are tuples, and a quantifier state is
TRUE or a frozenset of (inner state, placed bits) pairs, hash-consed by its
space. Equal states compare equal wherever they were made, and no table
outlives the space that one compilation builds. States carry no names:
`reachable_states` orders each node's states by when the pass first made
them, which depends on no hash, so neither does the output. It keeps one
dead state per compilation: the first one made stands for every later one,
and no transition is computed from it.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .assignment import DecisionVariable, dv_eq, dv_mem
from .decomposition import FORGET, INTRODUCE, JOIN, LEAF, NiceTreeDecomposition
from .errors import DecompositionError, FormulaError
from .mso import Adj, And, Eq, Exists, Formula, In, Not, Var, occurring_variables

INIT = "I"
TRUE = "T"
BOT = "X"


class ForgetInfo(NamedTuple):
    """A forget node's plan: the local shape its transitions see, the decision
    variables on the objects it drops (`context_of`), and the formula's free
    variables, so that `forgotten_bits` gives each of them bits even where
    the node holds none (an edge variable at a node that forgets no edge)."""

    shape: tuple
    variables: tuple[DecisionVariable, ...]
    free_vars: tuple[Var, ...]


def forgotten_bits(info: ForgetInfo, delta) -> dict:
    """Each free variable's bits on the node's forgotten objects, read from an
    assignment `delta` of (at least) its context variables: a 1-tuple for a
    vertex sort, one bit per forgotten edge, in context order, for an edge
    sort. This is the one place the DP reads a decision variable."""
    bits = {var: () for var in info.free_vars}
    for d in info.variables:
        bits[d.var] += (delta[d],)
    return bits


class StateSpace:
    """A state machine for one subformula.

    `dead(s)` and `sure(s)` are graph-independent predicates: a dead state
    rejects and a sure state accepts on every consistent continuation of the
    run, that is, one that gives each object variable at most one value (see
    `QuantifierSpace`, which relies on them). Both may answer False when
    unsure. Each space defines `dead`; `sure` is False unless it says more."""

    initial = None

    def is_accepting(self, s) -> bool:
        raise NotImplementedError

    def sure(self, s) -> bool:
        return False

    def forget(self, s, shape, bits):
        raise NotImplementedError

    def join(self, left, right):
        raise NotImplementedError


class AtomSpace(StateSpace):
    """An atom starts at INIT and is decided by the first forget that can
    decide it: TRUE once its variables meet, BOT once a forget proves that
    they never will on a consistent run. Both are final under forget; a join
    keeps TRUE over BOT, because pairing them needs a variable placed on both
    sides, and otherwise lets BOT win."""

    initial = INIT

    def is_accepting(self, s) -> bool:
        return s == TRUE

    def dead(self, s) -> bool:
        return s == BOT

    def sure(self, s) -> bool:
        return s == TRUE


class MeetSpace(AtomSpace):
    """`x = y` and `x in X`: both variables have a set bit on the same
    forgotten object. Each object is forgotten once, so the atom is BOT as
    soon as `x` is placed on a forgotten object that the right-hand variable
    misses, and, for an object `y`, as soon as `y` is placed on one that `x`
    misses."""

    def __init__(self, left: Var, right: Var) -> None:
        self.left = left
        self.right = right
        self.right_is_object = right.sort.is_object

    def forget(self, s, shape, bits):
        if s != INIT:
            return s
        mine, theirs = bits[self.left], bits[self.right]
        if any(a & b for a, b in zip(mine, theirs)):
            return TRUE
        if any(mine) or self.right_is_object and any(theirs):
            return BOT
        return INIT

    def join(self, left, right):
        if TRUE in (left, right):
            return TRUE
        return BOT if BOT in (left, right) else INIT


class AdjacencySpace(AtomSpace):
    """Endpoint checks may have to wait until the other endpoint is forgotten;
    its color (an int) is parked in the state meanwhile. Every edge of a
    vertex is forgotten at or below that vertex's forget node
    (`NiceNode.edges`), so the atom is BOT once the vertex variable is
    placed on a forgotten vertex with no matched edge, or once the parked
    color's vertex is forgotten without it."""

    def __init__(self, vertex: Var, edge: Var) -> None:
        self.vertex = vertex
        self.edge = edge

    def forget(self, s, shape, bits):
        if s == TRUE or s == BOT:
            return s
        color, far = shape
        (here,) = bits[self.vertex]
        if isinstance(s, int):
            if color == s:
                return TRUE if here else BOT
            return s
        for hit, other_color in zip(bits[self.edge], far):
            if hit:
                return TRUE if here else other_color
        return BOT if here else INIT

    def join(self, left, right):
        if left == INIT:
            return right
        if right == INIT:
            return left
        if BOT in (left, right):
            return TRUE if TRUE in (left, right) else BOT
        return INIT  # unreachable on consistent runs, so any value works


class NegationSpace(StateSpace):
    def __init__(self, inner: StateSpace) -> None:
        self.inner = inner
        self.initial = inner.initial

    def is_accepting(self, s) -> bool:
        return not self.inner.is_accepting(s)

    def dead(self, s) -> bool:
        return self.inner.sure(s)

    def sure(self, s) -> bool:
        return self.inner.dead(s)

    def forget(self, s, shape, bits):
        return self.inner.forget(s, shape, bits)

    def join(self, left, right):
        return self.inner.join(left, right)


class ConjunctionSpace(StateSpace):
    """States are (left state, right state) pairs."""

    def __init__(self, left: StateSpace, right: StateSpace) -> None:
        self.left = left
        self.right = right
        self.initial = (left.initial, right.initial)

    def is_accepting(self, s) -> bool:
        l, r = s
        return self.left.is_accepting(l) and self.right.is_accepting(r)

    def dead(self, s) -> bool:
        return self.left.dead(s[0]) or self.right.dead(s[1])

    def sure(self, s) -> bool:
        return self.left.sure(s[0]) and self.right.sure(s[1])

    def forget(self, s, shape, bits):
        l, r = s
        return (self.left.forget(l, shape, bits), self.right.forget(r, shape, bits))

    def join(self, a, b):
        al, ar = a
        bl, br = b
        return (self.left.join(al, bl), self.right.join(ar, br))


def all_consistent_extensions(bound_vars, bits, placed, shape):
    """All ways to extend `bits` with the bound variables' bits on the objects
    one forget node drops, `shape` fixing how many edges those are.

    An object variable skips every forgotten object, or takes one of them if
    its placed bit is still clear; a set variable takes every membership
    pattern. Returns (extended bits, updated placed bits) pairs."""
    out = [(bits, placed)]
    i = 0  # the next object variable's position in `placed`
    for var in bound_vars:
        n = 1 if var.sort.is_vertex else len(shape[1])
        if var.sort.is_object:
            skip = (0,) * n
            takes = [skip[:k] + (1,) + skip[k + 1 :] for k in range(n)]
            nxt = []
            for b, p in out:
                nxt.append(({**b, var: skip}, p))
                if p[i] == 0:
                    taken = p[:i] + (1,) + p[i + 1 :]
                    nxt.extend(({**b, var: take}, taken) for take in takes)
            i += 1
        else:
            patterns = list(itertools.product((0, 1), repeat=n))
            nxt = [({**b, var: pattern}, p) for b, p in out for pattern in patterns]
        out = nxt
    return out


class QuantifierSpace(StateSpace):
    """Existential block: a state is TRUE or a frozenset of (inner state,
    placed bits) pairs, one per way of instantiating the bound variables
    with already-forgotten objects, less the members that cannot matter. The
    placed bits say which bound object variables have taken a value.

    A set accepts iff it holds a member with all bits set whose inner state
    accepts. Every `forget` and `join` result is settled: members whose inner
    state is dead are dropped, and a set holding a member with all bits set
    and a sure inner state becomes TRUE. An empty set is dead, TRUE is sure
    and accepting, and `forget` and `join` keep TRUE.

    Why no answer changes: the predicates need only hold on consistent runs,
    which give every object variable at most one value. A run giving a free
    variable a second value ends in the consistency space's BOT and rejects
    at the root whatever the other states are, and a quantifier never pairs
    two members that both hold one of its bound variables. On consistent runs:
    - an atom keeps TRUE through every transition. The one cell that would
      not is `AdjacencySpace.join` sending TRUE ⋈ colour (or TRUE) to INIT,
      which needs the edge variable matched on both sides, that is, given two
      values; `test_adjacency_impossible_join_cells_untouched` checks that
      consistent runs never reach it;
    - an atom at BOT rejects on every consistent continuation. Each object
      is forgotten at exactly one node, so once `x = y` or `x in X` has seen
      an object variable placed on a forgotten object that its partner
      misses, no later forget sets both bits on one object without giving
      that variable a second value. For `adj(x, e)`, every
      edge of a vertex is forgotten at or below that vertex's forget node
      (`NiceNode.edges`), so once `x`'s vertex, or the vertex whose colour
      is parked, is forgotten without a match, the edge `e` takes does not
      end at `x`. Forget keeps BOT, and a join lets it win over INIT and a
      colour; the one cell it does not win, TRUE ⋈ BOT, needs a variable
      placed on both sides;
    - negation and conjunction follow from their acceptance, and the
      consistency space's BOT stays;
    - a dead member has only dead successors, so it never makes a set accept;
    - a member with all bits set and a sure inner state has such a successor
      after every forget (an assigned object variable skips the forgotten
      object), and one at every join, paired with the other side's all-clear
      member, so its set accepts on every continuation whatever else it
      holds. One state, TRUE, stands for every such set; a join with it is
      TRUE without pairing, because the other side's settling may have
      dropped the all-clear member.

    `reads` holds the variables free in the block: the body consults no
    other bits, so `forget` keys its memo on the local shape and on the
    forgotten-object bits of these variables, in a fixed order, and the memo
    serves every decomposition node of that shape. A member's successors are
    the body's forgets over `all_consistent_extensions` of those bits.

    Sets are hash-consed: equal sets made by this space are one object, so
    comparing sets that hold them stops at the first level."""

    def __init__(self, bound_vars: tuple[Var, ...], inner: StateSpace, reads: frozenset) -> None:
        self.bound_vars = bound_vars
        self.inner = inner
        self.reads = tuple(sorted(reads, key=lambda v: (v.name, v.sort.value)))
        self.n_object = sum(1 for v in bound_vars if v.sort.is_object)
        self._ones = (1,) * self.n_object
        self._sets: dict = {}
        # per (local shape, read bits, member) live successors
        self._forget_memo: dict = {}
        self._join_memo: dict = {}
        self.initial = self._settle([(inner.initial, (0,) * self.n_object)])

    def is_accepting(self, s) -> bool:
        return s == TRUE or any(
            placed == self._ones and self.inner.is_accepting(inner) for inner, placed in s
        )

    def dead(self, s) -> bool:
        return not s

    def sure(self, s) -> bool:
        return s == TRUE

    def _settle(self, members):
        """TRUE if a member of the live `members` has all bits set and a sure
        inner state, else their canonical set."""
        if any(placed == self._ones and self.inner.sure(inner) for inner, placed in members):
            return TRUE
        s = frozenset(members)
        return self._sets.setdefault(s, s)

    def forget(self, s, shape, bits):
        if s == TRUE:
            return TRUE
        read = (shape, tuple(bits[var] for var in self.reads))
        memo, dead = self._forget_memo, self.inner.dead
        result = set()
        for inner, placed in s:
            key = (read, inner, placed)
            got = memo.get(key)
            if got is None:
                successors = (
                    (self.inner.forget(inner, shape, ext), new_placed)
                    for ext, new_placed in all_consistent_extensions(
                        self.bound_vars, bits, placed, shape
                    )
                )
                got = memo[key] = tuple(m for m in successors if not dead(m[0]))
            result.update(got)
        return self._settle(result)

    def join(self, left, right):
        if TRUE in (left, right):
            return TRUE
        key = (left, right)
        got = self._join_memo.get(key)
        if got is not None:
            return got
        result = set()
        for inner_l, bl in left:
            for inner_r, br in right:
                if all(x & y == 0 for x, y in zip(bl, br)):
                    inner = self.inner.join(inner_l, inner_r)
                    if not self.inner.dead(inner):
                        result.add((inner, tuple(x | y for x, y in zip(bl, br))))
        out = self._join_memo[key] = self._settle(result)
        return out


class ConsistencySpace(StateSpace):
    """Tracks, per free object variable, whether it has received a value; a second
    value or a missing one at the root rejects the whole assignment. States are
    bit tuples, or BOT."""

    def __init__(self, object_vars: tuple[Var, ...]) -> None:
        self.object_vars = object_vars
        self.initial = (0,) * len(object_vars)
        self._ones = (1,) * len(object_vars)

    def is_accepting(self, s) -> bool:
        return s == self._ones

    def dead(self, s) -> bool:
        return s == BOT

    def forget(self, s, shape, bits):
        if s == BOT:
            return BOT
        counts = tuple(c + sum(bits[var]) for c, var in zip(s, self.object_vars))
        return BOT if any(c > 1 for c in counts) else counts

    def join(self, left, right):
        if left == BOT or right == BOT:
            return BOT
        if any(x & y for x, y in zip(left, right)):
            return BOT
        return tuple(x | y for x, y in zip(left, right))


def build_state_space(expr) -> StateSpace:
    """Recursive state-space construction over the core connectives."""
    if isinstance(expr, Eq):
        return MeetSpace(expr.left, expr.right)
    if isinstance(expr, In):
        return MeetSpace(expr.element, expr.container)
    if isinstance(expr, Adj):
        return AdjacencySpace(expr.vertex, expr.edge)
    if isinstance(expr, Not):
        return NegationSpace(build_state_space(expr.body))
    if isinstance(expr, And):
        return ConjunctionSpace(build_state_space(expr.left), build_state_space(expr.right))
    if isinstance(expr, Exists):
        return QuantifierSpace(
            expr.variables,
            build_state_space(expr.body),
            frozenset(occurring_variables(expr)),  # free in the block
        )
    raise FormulaError(f"formula is not in core form: {type(expr).__name__}")


def decision_space(phi: Formula) -> ConjunctionSpace:
    """The space the compilers operate on: phi's space times the consistency
    checker over its free object variables; raises on the first node that is
    not in core form."""
    return ConjunctionSpace(build_state_space(phi.root), ConsistencySpace(phi.free_object_vars))


def context_of(
    phi: Formula, t: NiceTreeDecomposition, node_id: int
) -> tuple[DecisionVariable, ...]:
    """The decision variables on the objects a forget node drops, canonically
    ordered: first the variables naming its vertex (free-variable declaration
    order), then per dropped edge, in `edges` order, the edge variables."""
    n = t.nodes[node_id]
    if n.kind != FORGET:
        raise DecompositionError(f"node {node_id} is not a forget node")
    variables = []
    for var in phi.free_vars:
        if var.sort.is_vertex:
            variables.append(dv_eq(var, n.vertex) if var.sort.is_object else dv_mem(var, n.vertex))
    for e in n.edges:
        for var in phi.free_vars:
            if not var.sort.is_vertex:
                variables.append(
                    dv_eq(var, e.id) if var.sort.is_object else dv_mem(var, e.id)
                )
    return tuple(variables)


def forget_plan(
    phi: Formula, t: NiceTreeDecomposition, coloring: dict[int, int]
) -> dict[int, ForgetInfo]:
    """Precompute per-forget-node plans: local shapes and decision variables."""
    plan = {}
    for nid in t.forget_nodes():
        n = t.nodes[nid]
        far = tuple(coloring[e.other(n.vertex)] for e in n.edges)
        plan[nid] = ForgetInfo((coloring[n.vertex], far), context_of(phi, t, nid), phi.free_vars)
    return plan


class ReachableSets(NamedTuple):
    """Per-node reachable states plus the transition tables restricted to them.

    Each node's states are ordered by their rank in the order the pass first
    made them, one order over the whole decomposition. Forget tables are keyed
    by (child state, context assignment index), the index counting the
    context variables' assignments in binary, the first variable the most
    significant bit; join tables by the pair of child states. `count` is the
    number of distinct reachable states over all nodes: the live ones plus
    the one dead stand-in, if any run dies. Nodes with equal
    inputs share one table object, and once minimized one class map, so
    neither may be changed.

    After `minimize_states` the states and tables are class representatives,
    `count` still counts the raw states, and `representative[nid]` maps each
    raw state reachable at the node to its class's representative."""

    per_node: dict[int, tuple]
    count: int
    forget_tables: dict[int, dict]
    join_tables: dict[int, dict]
    representative: dict[int, dict] | None = None

    @property
    def classes(self) -> int:
        """Distinct states over all nodes of these tables: representatives
        once minimized, so at most `count`. A class is represented by its
        earliest-made state, so nodes whose classes share it count it once:
        the dead stand-in represents the reject class wherever it is that
        class's earliest-made member."""
        return len(set().union(*self.per_node.values()))


def reachable_states(
    space: StateSpace, t: NiceTreeDecomposition, plan: dict[int, ForgetInfo]
) -> ReachableSets:
    """Per-node reachable state sets: the closure over every context assignment
    of every forget node, computed in one bottom-up pass. A node's table
    depends only on its input: a forget's on its child's states and its local
    shape, which fixes the context layout, a join's on its children's states.
    So each distinct input's table and states are computed once and shared by
    every node with that input. Each node's states are ordered by their rank
    in the order the pass first made them; the postorder, the child-state
    order and the context-index order fix that order.

    The first state made that `space.dead` calls dead stands in for every
    dead state made after it, and a table entry from it (at a join, from
    either side) is it, with no transition computed. This is exact: on the
    decision space a dead state rejects on every continuation (its formula
    part every consistent one, its consistency part the rest), so every dead
    state lies in the reject class, and `minimize_states` finds the same
    classes."""
    # each distinct state met to the object that stands for it, so table
    # keys and values share it, and to that object's rank
    distinct: dict = {}
    kept = 0  # the number of states that stand for themselves
    sink = None  # the dead stand-in, once made

    def intern(c):
        nonlocal kept, sink
        got = distinct.get(c)
        if got is None:
            dead = space.dead(c)
            if dead and sink is not None:
                got = distinct[sink]
            else:
                got = (c, kept)
                kept += 1
                if dead:
                    sink = c
            distinct[c] = got
        return got[0]

    initial = intern(space.initial)
    memo: dict = {}  # (kind, node input) to (table, states)
    per_node: dict[int, tuple] = {}
    tables: dict = {FORGET: {}, JOIN: {}}
    for nid in t.postorder():
        n = t.nodes[nid]
        if n.kind == LEAF:
            per_node[nid] = (initial,)
            continue
        if n.kind == INTRODUCE:
            per_node[nid] = per_node[n.children[0]]
            continue
        left = per_node[n.children[0]]
        if n.kind == FORGET:
            info = plan[nid]
            key = (FORGET, left, info.shape)
        else:
            key = (JOIN, left, per_node[n.children[1]])
        if key not in memo:
            if n.kind == FORGET:
                rows = [
                    forgotten_bits(info, dict(zip(info.variables, pattern)))
                    for pattern in itertools.product((0, 1), repeat=len(info.variables))
                ]
                table = {
                    (s, idx): s if s is sink else intern(space.forget(s, info.shape, bits))
                    for s in left
                    for idx, bits in enumerate(rows)
                }
            else:
                table = {
                    (a, b): sink if a is sink or b is sink else intern(space.join(a, b))
                    for a in left
                    for b in key[2]
                }
            memo[key] = table, tuple(sorted(set(table.values()), key=lambda c: distinct[c][1]))
        tables[n.kind][nid], per_node[nid] = memo[key]
    return ReachableSets(per_node, kept, tables[FORGET], tables[JOIN])


def _classes(states, row) -> dict:
    """Each state to its class's representative: states with equal rows share
    a class, represented by its first member in `states` order."""
    first: dict = {}
    return {s: first.setdefault(row(s), s) for s in states}


def _firsts(classes: dict) -> tuple:
    """A class map's representatives, in order of first appearance."""
    return tuple(dict.fromkeys(classes.values()))


def minimize_states(
    space: StateSpace, t: NiceTreeDecomposition, reach: ReachableSets
) -> ReachableSets:
    """Quotient the reachable states by Myhill-Nerode equivalence over the
    fixed decomposition: two states at a node are equivalent when every way of
    completing the run from there accepts for both or for neither.

    One top-down refinement finds the classes and the quotient tables. At the
    root the classes are the accepting and the rejecting states; an introduce
    node's child inherits them; a forget node's child state is classed by its
    row of parent classes over the context assignments; a join node's left
    state by its row over the right child's states, then a right state by its
    row over the left classes' representatives. A class is represented by its
    first member in `per_node` order, the earliest made, so the quotient
    tables are as deterministic as the raw ones. A node's child classes and
    quotient table depend only on its table and its own classes, so they are
    computed once per distinct pair and shared.
    """
    per_node, nodes = reach.per_node, t.nodes
    rep = {t.root: _classes(per_node[t.root], space.is_accepting)}
    memo: dict = {}  # (table identity, node classes) to (child classes, quotient)
    tables: dict = {FORGET: {}, JOIN: {}}
    for nid in reversed(t.postorder()):
        n, up = nodes[nid], rep[nid]
        if n.kind == INTRODUCE:
            rep[n.children[0]] = up
        if n.kind not in (FORGET, JOIN):
            continue
        table = (reach.forget_tables if n.kind == FORGET else reach.join_tables)[nid]
        key = (id(table), tuple(up.values()))
        if key not in memo:
            # a forget table is read as a join with the context indices
            left = per_node[n.children[0]]
            right = per_node[n.children[1]] if n.kind == JOIN else range(len(table) // len(left))
            downs = (_classes(left, lambda a: tuple(up[table[(a, b)]] for b in right)),)
            firsts = _firsts(downs[0])
            if n.kind == JOIN:
                downs += (_classes(right, lambda b: tuple(up[table[(a, b)]] for a in firsts)),)
                right = _firsts(downs[1])
            memo[key] = downs, {(a, b): up[table[(a, b)]] for a in firsts for b in right}
        downs, tables[n.kind][nid] = memo[key]
        rep.update(zip(n.children, downs))
    reps = {nid: _firsts(rep[nid]) for nid in per_node}
    return ReachableSets(reps, reach.count, tables[FORGET], tables[JOIN], rep)
