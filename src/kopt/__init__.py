"""k-move search for TSP tours: bucketed embeddings, connection patterns, and
dynamic programming over tree decompositions of the dependence graph.

The package exports the solver's entry points; everything else lives in its
submodules (`kopt.decomp`, `kopt.dpengine`, `kopt.oracle`, ...)."""

from .dpengine import best_move, local_search
from .instance import Instance, Tour, gen_random, random_tour, tour_weight
from .moves import InvariantError, apply_move
from .oracle import naive_best_move

__all__ = [
    "Instance",
    "InvariantError",
    "Tour",
    "apply_move",
    "best_move",
    "gen_random",
    "local_search",
    "naive_best_move",
    "random_tour",
    "tour_weight",
]
