"""Boolean decision variables encoding MSO2 assignments.

A decision variable is either an object-equality variable (an object variable x
takes value v or e), a set-membership variable (object v or e belongs to set
variable X), or a dummy used only as structural padding in v-trees. Besides
the canonical universe of them, this module reads a model back from its bits
(`decode_bits`) and lists each sort's values in a fixed order (`domain`).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import QueryError
from .graph import Graph
from .mso import Formula, Sort, Var

EQ = "eq"
MEM = "mem"
DUMMY = "dummy"


class DecisionVariable(NamedTuple):
    kind: str
    var: Var | None
    obj: int | str

    @property
    def name(self) -> str:
        if self.kind == DUMMY:
            return f"_{self.obj}"
        tag = "v" if self.var.sort.is_vertex else "e"
        if self.kind == EQ:
            return f"{self.var.name}={tag}{self.obj}"
        return f"{tag}{self.obj}in{self.var.name}"

    def __repr__(self) -> str:
        return f"[{self.name}]"


def dv_eq(var: Var, obj: int) -> DecisionVariable:
    return DecisionVariable(EQ, var, obj)


def dv_mem(var: Var, obj: int) -> DecisionVariable:
    return DecisionVariable(MEM, var, obj)


def dv_dummy(tag: str) -> DecisionVariable:
    return DecisionVariable(DUMMY, None, tag)


def _objects(g: Graph, sort: Sort):
    return g.vertices() if sort.is_vertex else range(1, g.n_edges + 1)


def decision_variables(phi: Formula, g: Graph) -> tuple[DecisionVariable, ...]:
    """The full decision-variable universe, ordered by free-variable declaration
    order (major) and object id (minor)."""
    out = []
    for var in phi.free_vars:
        maker = dv_eq if var.sort.is_object else dv_mem
        out.extend(maker(var, obj) for obj in _objects(g, var.sort))
    return tuple(out)


def decode_bits(legend, delta) -> dict[Var, object]:
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


def domain(g: Graph, sort: Sort) -> list:
    """The values of `sort` on g: the objects in id order, or for a set sort
    every subset of them in binary-counter order by object id."""
    objs = list(_objects(g, sort))
    if sort.is_object:
        return objs
    return [
        frozenset(o for i, o in enumerate(objs) if mask >> i & 1)
        for mask in range(1 << len(objs))
    ]
