"""Termination-analysis workbench for finite-memory policies."""

from .analysis import (
    AnalysisConfig,
    AnalysisReport,
    IterationTrace,
    NONTERMINATING_QUALITATIVE,
    TERMINATING,
    UNKNOWN,
    Verdict,
    hsieve,
    hsieve_once,
    progress_sieve,
)
from .decomposition import DefForest, DetNode, build_def, check_det, quotient
from .generate import GenError, GenSpec, generate_random
from .graphs import DiGraph, SccPartition, boundary, induced, is_acyclic, policy_graph, scc_decompose
from .model import (
    ConcreteState,
    Edge,
    EffectCode,
    Fmp,
    Guard,
    VarDecl,
    Violation,
    normalize,
    validate,
)
from .oracle import (
    ALL_HALT,
    Configuration,
    ExploreCaps,
    ExploreResult,
    INCONCLUSIVE,
    LASSO_FOUND,
    LassoWitness,
    explore,
    explore_grid,
    run_random,
    step,
)
from .paths import (
    DEFAULT_PATH_CAP,
    NodeVarSets,
    PathCapExceeded,
    PathContext,
    PathGraph,
    boxminus,
    var_sets,
)
from .policyio import PolicyFormatError, load_policy, parse_policy, save_policy, serialize_policy

__version__ = "0.1.0"
