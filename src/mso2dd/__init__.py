"""Compile the models of MSO2 graph formulas into decision diagrams.

The pipeline: parse a graph and a formula, normalize a tree decomposition to
nice form, run the per-subformula state machines over it, and emit either a
structured diagram (any tree decomposition) or an ordered one (path
decompositions). A brute-force evaluator serves as the correctness oracle, and
the diagrams support counting, enumeration and minimum-cardinality queries.
"""

from .assignment import DecisionVariable, decision_variables
from .decomposition import (
    NiceTreeDecomposition,
    TreeDecomposition,
    good_coloring,
    is_path_decomposition,
    make_nice,
    min_fill_decomposition,
    parse_tree_decomposition,
    validate_decomposition,
)
from .errors import Mso2ddError
from .graph import Graph, parse_graph
from .mso import Formula, Sort, Var, desugar, formula_size, parse_formula
from .obdd import compile_obdd, obdd_size
from .oracle import enumerate_models, min_cardinality_model, model_count, oracle_eval
from .sdd import compile_sdd, sdd_size
from .serialize import load_diagram, serialize_diagram

__version__ = "0.1.0"

__all__ = [
    "DecisionVariable",
    "Formula",
    "Graph",
    "Mso2ddError",
    "NiceTreeDecomposition",
    "Sort",
    "TreeDecomposition",
    "Var",
    "compile_obdd",
    "compile_sdd",
    "decision_variables",
    "desugar",
    "enumerate_models",
    "formula_size",
    "good_coloring",
    "is_path_decomposition",
    "load_diagram",
    "make_nice",
    "min_cardinality_model",
    "min_fill_decomposition",
    "model_count",
    "obdd_size",
    "oracle_eval",
    "parse_formula",
    "parse_graph",
    "parse_tree_decomposition",
    "sdd_size",
    "serialize_diagram",
    "validate_decomposition",
]
