"""Digraph functors, homomorphism search, exact colouring, and claim checks."""

from .core import (
    ConstructionError,
    Digraph,
    Hom,
    SizeLimitExceeded,
    from_json,
    induced,
    make_digraph,
    symmetrize,
    to_dot,
    to_json,
    validate_hom,
)
from .paths import OrientedPath, PathFamily, algebraic_length, path_family, standard_path
from .constructions import (
    arc_graph,
    arc_graph_iter,
    b_graph,
    circular_complete,
    complete,
    interleaved_adjoint,
    inverse_interleaved_adjoint,
    is_oriented_tree,
    path,
    tournament,
    tree_dual,
)
from .product import ProductSpec, categorical_product
from .homs import (
    BUDGET_EXCEEDED,
    DEFAULT_BUDGET,
    EquivalenceResult,
    arc_consistency,
    brute_force_hom,
    hom_equivalent,
    hom_exists,
    tree_hom,
)
from .coloring import ColouringResult, check_colouring, chromatic_number
from .level_search import LevelWalk, find_level_walk
from .verify import SteepPathResult, VerifyReport, find_steep_path, h_function

__version__ = "0.1.0"
