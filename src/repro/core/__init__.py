"""DIVA core: diversity constraints, graph coloring search, orchestration."""

from .clusterings import (
    cluster_suppression_cost,
    clustering_suppression_cost,
    enumerate_clusterings,
    preserved_count,
    qi_distance,
)
from .index import RelationIndex, get_index
from .approx import (
    ApproxSolver,
    approx_clustering,
    approx_loss_bound,
)
from .coloring import (
    SOLVER_TIERS,
    ColoringResult,
    ColoringSearch,
    SearchBudgetExceeded,
    SearchStats,
    diverse_clustering,
)
from .constraints import ConstraintSet, DiversityConstraint
from .diva import Diva, DivaResult, run_diva
from .errors import (
    AnonymizationError,
    ConstraintFormatError,
    ReproError,
    UnsatisfiableError,
)
from .graph import ConstraintGraph, ConstraintNode, build_graph
from .integrate import IntegrationReport, integrate
from .parallel import component_coloring
from .problem import InfeasibleConstraint, KSigmaProblem
from .refine import refine_clusters, refine_result
from .strategies import (
    STRATEGIES,
    BasicStrategy,
    MaxFanOutStrategy,
    MinChoiceStrategy,
    SelectionStrategy,
    make_strategy,
)
from .suppress import covered_tids, min_cluster_size, normalize_clustering, suppress

__all__ = [
    "ConstraintSet",
    "DiversityConstraint",
    "Diva",
    "DivaResult",
    "run_diva",
    "KSigmaProblem",
    "InfeasibleConstraint",
    "refine_clusters",
    "refine_result",
    "ColoringResult",
    "ColoringSearch",
    "SearchBudgetExceeded",
    "SearchStats",
    "diverse_clustering",
    "SOLVER_TIERS",
    "ApproxSolver",
    "approx_clustering",
    "approx_loss_bound",
    "component_coloring",
    "ConstraintGraph",
    "ConstraintNode",
    "build_graph",
    "IntegrationReport",
    "integrate",
    "suppress",
    "normalize_clustering",
    "covered_tids",
    "min_cluster_size",
    "enumerate_clusterings",
    "preserved_count",
    "qi_distance",
    "cluster_suppression_cost",
    "clustering_suppression_cost",
    "RelationIndex",
    "get_index",
    "SelectionStrategy",
    "BasicStrategy",
    "MinChoiceStrategy",
    "MaxFanOutStrategy",
    "STRATEGIES",
    "make_strategy",
    "ReproError",
    "UnsatisfiableError",
    "ConstraintFormatError",
    "AnonymizationError",
]
