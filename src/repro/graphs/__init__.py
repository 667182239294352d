"""Graph generators, Table III corpus analogues, I/O and validation."""

from . import corpus, generators, io, validate
from .generators import (
    EdgeList,
    barbell,
    binary_tree,
    caterpillar,
    clustered_graph,
    component_mixture,
    cycle_graph,
    disjoint_union,
    erdos_renyi,
    grid2d,
    mesh3d,
    path_graph,
    relabel_random,
    rmat,
    star_graph,
    watts_strogatz,
)

__all__ = [
    "EdgeList",
    "erdos_renyi",
    "rmat",
    "mesh3d",
    "path_graph",
    "star_graph",
    "cycle_graph",
    "binary_tree",
    "component_mixture",
    "clustered_graph",
    "grid2d",
    "watts_strogatz",
    "barbell",
    "caterpillar",
    "disjoint_union",
    "relabel_random",
    "corpus",
    "generators",
    "io",
    "validate",
]
