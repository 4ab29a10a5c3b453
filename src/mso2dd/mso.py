"""MSO2 syntax: AST, concrete-syntax parser, desugaring to the minimal core, sizes.

The core connectives are Adj, Eq, In, Not, And and multi-variable Exists blocks.
Everything else (or, implication, forall, !=, notin, the ternary edge predicate
and the neighbourhood predicate) is surface sugar removed by :func:`desugar`.
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FormulaError


class Sort(enum.Enum):
    VERTEX_OBJECT = "vertex"
    EDGE_OBJECT = "edge"
    VERTEX_SET = "vset"
    EDGE_SET = "eset"

    __hash__ = object.__hash__  # members are singletons; `Enum.__hash__` runs in Python

    @property
    def is_object(self) -> bool:
        return self in (Sort.VERTEX_OBJECT, Sort.EDGE_OBJECT)

    @property
    def is_set(self) -> bool:
        return not self.is_object

    @property
    def is_vertex(self) -> bool:
        return self in (Sort.VERTEX_OBJECT, Sort.VERTEX_SET)


class Var(NamedTuple):
    name: str
    sort: Sort

    def __repr__(self) -> str:
        return f"{self.name}:{self.sort.value}"


class Expr:
    """Base class for syntax-tree nodes."""

    __slots__ = ()


# -- core nodes ---------------------------------------------------------------


@dataclass(frozen=True)
class Adj(Expr):
    vertex: Var
    edge: Var


@dataclass(frozen=True)
class Eq(Expr):
    left: Var
    right: Var


@dataclass(frozen=True)
class In(Expr):
    element: Var
    container: Var


@dataclass(frozen=True)
class Not(Expr):
    body: Expr


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Exists(Expr):
    variables: tuple[Var, ...]
    body: Expr


# -- sugar nodes --------------------------------------------------------------


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Implies(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Forall(Expr):
    variables: tuple[Var, ...]
    body: Expr


@dataclass(frozen=True)
class Neq(Expr):
    left: Var
    right: Var


@dataclass(frozen=True)
class NotIn(Expr):
    element: Var
    container: Var


@dataclass(frozen=True)
class EdgePred(Expr):
    edge: Var
    left: Var
    right: Var


@dataclass(frozen=True)
class Nbr(Expr):
    left: Var
    right: Var


@dataclass(frozen=True)
class Formula:
    """An expression together with its free variables in declaration order."""

    free_vars: tuple[Var, ...]
    root: Expr

    @property
    def free_object_vars(self) -> tuple[Var, ...]:
        return tuple(v for v in self.free_vars if v.sort.is_object)


# -- parsing ------------------------------------------------------------------

_SORT_KEYWORDS = frozenset(s.value for s in Sort)
_PUNCT = ("->", "!=", "(", ")", ",", ";", ".", "~", "&", "|", "=")
# whitespace and `#` comments to the end of the line are skipped; a token is a
# punctuation mark, a run of word characters, or any other single character
_TOKEN = re.compile(r"\s+|#[^\n]*|(" + "|".join(map(re.escape, _PUNCT)) + r"|\w+|.)")


def _tokenize(text: str):
    tokens = [tok for tok in _TOKEN.findall(text) if tok]
    for tok in tokens:
        if not (tok in _PUNCT or tok[0].isalpha() or tok[0] == "_"):
            raise FormulaError(f"unexpected character {tok[0]!r}")
    return tokens


# Deepest nesting of negations, quantifiers and binary connectives the parser
# accepts. Parsing, desugaring, sizing, the state spaces and the oracle recurse
# over the syntax tree with at most about two Python frames per level, so this
# keeps all of them well inside the interpreter's default recursion limit.
MAX_NESTING = 200

_WORD_OPS = frozenset({"in", "notin"})
_BINDERS = frozenset({"exists", "forall"})
_ATOM_HEADS = frozenset({"adj", "edge", "nbr"})


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.fresh = 0

    def peek(self, offset: int = 0):
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input")
        if expected is not None and tok != expected:
            raise FormulaError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def ident(self):
        tok = self.take()
        if not (tok[0].isalpha() or tok[0] == "_") or tok in _BINDERS | _WORD_OPS:
            raise FormulaError(f"expected identifier, found {tok!r}")
        return tok

    def parse(self) -> Formula:
        free = []
        env: dict[str, Var] = {}
        while self.peek() == "free":
            self.take()
            sort_tok = self.take()
            if sort_tok not in _SORT_KEYWORDS:
                raise FormulaError(f"unknown sort {sort_tok!r}")
            name = self.ident()
            if name in env:
                raise FormulaError(f"duplicate free declaration of {name!r}")
            var = Var(name, Sort(sort_tok))
            env[name] = var
            free.append(var)
            self.take(";")
        root, used = self.expr(env)
        if self.pos != len(self.tokens):
            raise FormulaError(f"trailing input starting at {self.peek()!r}")
        for var in free:
            if var not in used:
                raise FormulaError(f"free variable {var.name!r} never occurs in the formula")
        return Formula(tuple(free), root)

    def expr(self, env, depth: int = 0) -> tuple[Expr, set]:
        if depth > MAX_NESTING:
            raise FormulaError(f"formula nested deeper than {MAX_NESTING} levels")
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of input")
        if tok == "~":
            self.take()
            body, used = self.expr(env, depth + 1)
            return Not(body), used
        if tok in _BINDERS:
            return self.binder(env, depth)
        if tok in _ATOM_HEADS and self.peek(1) == "(":
            return self.predicate_atom(env)
        if tok == "(":
            # two-token lookahead separates `(x = y)`-style atoms from binary exprs
            if self.peek(2) in ("=", "!=", "in", "notin"):
                return self.relation_atom(env)
            self.take("(")
            left, lu = self.expr(env, depth + 1)
            op = self.take()
            if op not in ("&", "|", "->"):
                raise FormulaError(f"expected binary operator, found {op!r}")
            right, ru = self.expr(env, depth + 1)
            self.take(")")
            node = {"&": And, "|": Or, "->": Implies}[op](left, right)
            return node, lu | ru
        raise FormulaError(f"unexpected token {tok!r}")

    def binder(self, env, depth: int) -> tuple[Expr, set]:
        kind = self.take()
        sort_tok = self.take()
        if sort_tok not in _SORT_KEYWORDS:
            raise FormulaError(f"unknown sort {sort_tok!r}")
        name = self.ident()
        if name in env:
            raise FormulaError(f"variable {name!r} rebound by a quantifier")
        self.take(".")
        # alpha-rename so every binder introduces a globally fresh variable
        self.fresh += 1
        var = Var(f"{name}@{self.fresh}", Sort(sort_tok))
        inner_env = dict(env)
        inner_env[name] = var
        body, used = self.expr(inner_env, depth + 1)
        if var not in used:
            raise FormulaError(f"quantified variable {name!r} never occurs in its scope")
        used.discard(var)
        node = (Exists if kind == "exists" else Forall)((var,), body)
        return node, used

    def lookup(self, env, name) -> Var:
        if name not in env:
            raise FormulaError(f"unbound variable {name!r}")
        return env[name]

    def predicate_atom(self, env) -> tuple[Expr, set]:
        head = self.take()
        self.take("(")
        args = [self.lookup(env, self.ident())]
        while self.peek() == ",":
            self.take(",")
            args.append(self.lookup(env, self.ident()))
        self.take(")")
        if head == "adj":
            if len(args) != 2:
                raise FormulaError("adj takes two arguments")
            x, y = args
            if x.sort is not Sort.VERTEX_OBJECT or y.sort is not Sort.EDGE_OBJECT:
                raise FormulaError("adj requires a vertex variable and an edge variable")
            return Adj(x, y), set(args)
        if head == "edge":
            if len(args) != 3:
                raise FormulaError("edge takes three arguments")
            e, u, v = args
            if (
                e.sort is not Sort.EDGE_OBJECT
                or u.sort is not Sort.VERTEX_OBJECT
                or v.sort is not Sort.VERTEX_OBJECT
            ):
                raise FormulaError("edge requires an edge variable and two vertex variables")
            return EdgePred(e, u, v), set(args)
        if len(args) != 2:
            raise FormulaError("nbr takes two arguments")
        u, v = args
        if u.sort is not Sort.VERTEX_OBJECT or v.sort is not Sort.VERTEX_OBJECT:
            raise FormulaError("nbr requires two vertex variables")
        return Nbr(u, v), set(args)

    def relation_atom(self, env) -> tuple[Expr, set]:
        self.take("(")
        left = self.lookup(env, self.ident())
        op = self.take()
        right = self.lookup(env, self.ident())
        self.take(")")
        if op in ("=", "!="):
            if not (left.sort.is_object and left.sort is right.sort):
                raise FormulaError("equality requires two object variables of one sort")
            node = Eq(left, right) if op == "=" else Neq(left, right)
        else:
            if not left.sort.is_object or not right.sort.is_set:
                raise FormulaError("membership requires an object variable and a set variable")
            if left.sort.is_vertex != right.sort.is_vertex:
                raise FormulaError("membership requires matching vertex/edge sorts")
            node = In(left, right) if op == "in" else NotIn(left, right)
        return node, {left, right}


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a (possibly sugared) sort-checked AST."""
    return _Parser(_tokenize(text)).parse()


# -- desugaring ---------------------------------------------------------------

def _neg(expr: Expr) -> Expr:
    if isinstance(expr, Not):
        return expr.body
    return Not(expr)


def _exists(variables: tuple[Var, ...], body: Expr) -> Expr:
    if isinstance(body, Exists):
        return Exists(variables + body.variables, body.body)
    return Exists(variables, body)


def _desugar(expr: Expr, fresh) -> Expr:
    """`fresh` numbers the edge variables that `nbr` atoms introduce."""
    if isinstance(expr, (Adj, Eq, In)):
        return expr
    if isinstance(expr, Not):
        return _neg(_desugar(expr.body, fresh))
    if isinstance(expr, And):
        return And(_desugar(expr.left, fresh), _desugar(expr.right, fresh))
    if isinstance(expr, Or):
        return _neg(And(_neg(_desugar(expr.left, fresh)), _neg(_desugar(expr.right, fresh))))
    if isinstance(expr, Implies):
        return _neg(And(_desugar(expr.left, fresh), _neg(_desugar(expr.right, fresh))))
    if isinstance(expr, Exists):
        return _exists(expr.variables, _desugar(expr.body, fresh))
    if isinstance(expr, Forall):
        return _neg(_exists(expr.variables, _neg(_desugar(expr.body, fresh))))
    if isinstance(expr, Neq):
        return Not(Eq(expr.left, expr.right))
    if isinstance(expr, NotIn):
        return Not(In(expr.element, expr.container))
    if isinstance(expr, EdgePred):
        e, u, v = expr.edge, expr.left, expr.right
        return And(And(Not(Eq(u, v)), Adj(u, e)), Adj(v, e))
    if isinstance(expr, Nbr):
        # parsed binders are renamed `name@k`, so a leading `@` cannot clash
        x = Var(f"@nbr{next(fresh)}", Sort.EDGE_OBJECT)
        return _exists((x,), And(Adj(expr.left, x), Adj(expr.right, x)))
    raise FormulaError(f"unknown expression node {type(expr).__name__}")


def desugar(formula: Formula) -> Formula:
    """Rewrite to the core connectives, merging consecutive quantifier blocks."""
    return Formula(formula.free_vars, _desugar(formula.root, itertools.count(1)))


# -- analysis -----------------------------------------------------------------


def formula_size(f) -> int:
    """Syntax-tree size: atoms count 3, negation 1 extra, conjunction joins with 1,
    and a quantifier block counts one symbol per bound variable."""
    expr = f.root if isinstance(f, Formula) else f
    if isinstance(expr, (Adj, Eq, In, Neq, NotIn, EdgePred, Nbr)):
        return 3
    if isinstance(expr, Not):
        return 1 + formula_size(expr.body)
    if isinstance(expr, (And, Or, Implies)):
        return 1 + formula_size(expr.left) + formula_size(expr.right)
    if isinstance(expr, (Exists, Forall)):
        return len(expr.variables) + formula_size(expr.body)
    raise FormulaError(f"unknown expression node {type(expr).__name__}")


def occurring_variables(expr: Expr) -> set[Var]:
    """All variables appearing in atoms below this node of a core formula."""
    if isinstance(expr, Adj):
        return {expr.vertex, expr.edge}
    if isinstance(expr, Eq):
        return {expr.left, expr.right}
    if isinstance(expr, In):
        return {expr.element, expr.container}
    if isinstance(expr, Not):
        return occurring_variables(expr.body)
    if isinstance(expr, And):
        return occurring_variables(expr.left) | occurring_variables(expr.right)
    if isinstance(expr, Exists):
        return occurring_variables(expr.body) - set(expr.variables)
    raise FormulaError(f"unknown expression node {type(expr).__name__}")
