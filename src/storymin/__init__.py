"""Exact crossing minimization for storyline visualizations.

The pipeline: a story (characters meeting in scenes over time) becomes a
multi-layer instance with one rooted tree per layer; admissible layouts
order each layer so that every subtree stays contiguous.  A quadratic
ordering model over pairwise precedence variables is reduced — via tree
equalities and variable identification — to a weighted cut problem, which a
branch-and-cut search solves exactly with odd-cycle and transitivity
separation.  A brute-force oracle, a tree-aware barycenter heuristic, and an
SVG renderer round out the toolkit.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .mlcm import (
    InstanceFormatError,
    LayerTree,
    MlcmInstance,
    Solution,
    count_crossings,
    format_instance,
    format_solution,
    is_tree_consistent,
    parse_instance,
    parse_solution,
    validate_instance,
)
from .oracle import (
    BudgetExceeded,
    OrderingCapExceeded,
    brute_force_optimum,
    count_tree_orderings,
    enumerate_tree_orderings,
)
from .ordering import NotTransitive, build_model, identify_variables
from .maxcut import (
    MaxCutGraph,
    OddCycleInequality,
    build_maxcut,
    cut_consistency,
    cut_to_solution,
    separate_odd_cycles,
    separate_transitivity,
)
from .render import PALETTE, RenderOptions, assign_slots, render_svg
from .solver import (
    FEASIBLE_STATUS,
    INFEASIBLE_INPUT_STATUS,
    OPTIMAL_STATUS,
    TIMEOUT_STATUS,
    SolveConfig,
    SolveStats,
    SolverError,
    barycenter_heuristic,
    branch_and_cut,
    solve_heuristic,
)
from .story import (
    CharacterHasNoScenes,
    Scene,
    Story,
    StoryFormatError,
    all_lifespans,
    lifespan,
    parse_scene_sequence,
    parse_story,
    serialize_story,
    validate_story,
)
from .transform import (
    InvalidStoryError,
    TransformTrace,
    build_instance,
    expand_solution,
    merge_layers,
)
from .validation import Violation

__all__ = [
    "__version__",
    # story
    "Story", "Scene", "StoryFormatError", "CharacterHasNoScenes",
    "parse_story", "parse_scene_sequence", "serialize_story", "validate_story",
    "lifespan", "all_lifespans",
    # instances
    "MlcmInstance", "LayerTree", "Solution", "InstanceFormatError",
    "parse_instance", "format_instance", "parse_solution", "format_solution",
    "count_crossings", "validate_instance", "is_tree_consistent",
    # transform
    "build_instance", "TransformTrace", "InvalidStoryError",
    "merge_layers", "expand_solution",
    # model
    "NotTransitive",
    "build_model", "identify_variables",
    # cut problem
    "MaxCutGraph", "OddCycleInequality",
    "build_maxcut", "cut_consistency",
    "separate_odd_cycles", "separate_transitivity", "cut_to_solution",
    # solving
    "SolveConfig", "SolveStats", "SolverError",
    "OPTIMAL_STATUS", "FEASIBLE_STATUS", "TIMEOUT_STATUS", "INFEASIBLE_INPUT_STATUS",
    "branch_and_cut", "solve_heuristic", "barycenter_heuristic",
    # oracle
    "brute_force_optimum", "enumerate_tree_orderings", "count_tree_orderings",
    "OrderingCapExceeded", "BudgetExceeded",
    # rendering
    "render_svg", "RenderOptions", "assign_slots", "PALETTE",
    # shared
    "Violation",
]
