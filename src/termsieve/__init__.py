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
from .decomposition import DefForest, DetNode, Splits, build_def
from .generate import GenError, GenSpec, generate_random
from .graphs import SccGraph
from .model import (
    ConcreteState,
    Edge,
    Fmp,
    Guard,
    VarDecl,
    Violation,
    normalize,
    validate,
)
from .oracle import (
    ALL_HALT,
    DEFAULT_MAX_CONFIGS,
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
    EffectCode,
    NodeVarSets,
    PathCapExceeded,
    PathContext,
    boxminus,
    var_sets,
)
from .policyio import PolicyFormatError, load_policy, parse_policy, serialize_policy

__version__ = "0.1.0"
