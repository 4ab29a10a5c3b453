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
    context_of,
    good_coloring,
    is_path_decomposition,
    make_nice,
    min_fill_decomposition,
    parse_tree_decomposition,
    validate_decomposition,
)
from .errors import Mso2ddError
from .graph import Graph, clique, clique_tree, complete_binary_tree, full_product, parse_graph
from .mso import Formula, Sort, Var, desugar, formula_size, parse_formula
from .obdd import Obdd, compile_obdd, obdd_size, reduce_obdd
from .oracle import (
    cnf_of_graph,
    enumerate_models,
    kappa_formula,
    min_cardinality_model,
    model_count,
    oracle_eval,
)
from .sdd import compile_sdd, sdd_size
from .serialize import load_diagram, serialize_diagram
from .states import build_state_space, with_consistency

__version__ = "0.1.0"

__all__ = [
    "DecisionVariable",
    "Formula",
    "Graph",
    "Mso2ddError",
    "NiceTreeDecomposition",
    "Obdd",
    "Sort",
    "TreeDecomposition",
    "Var",
    "build_state_space",
    "clique",
    "clique_tree",
    "cnf_of_graph",
    "compile_obdd",
    "compile_sdd",
    "complete_binary_tree",
    "context_of",
    "decision_variables",
    "desugar",
    "enumerate_models",
    "formula_size",
    "full_product",
    "good_coloring",
    "is_path_decomposition",
    "kappa_formula",
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
    "reduce_obdd",
    "sdd_size",
    "serialize_diagram",
    "validate_decomposition",
    "with_consistency",
]
