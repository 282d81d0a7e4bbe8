"""Exact dissociation-set counting and extremal verification for small graphs.

A dissociation set is a vertex subset inducing a subgraph of maximum degree
at most one.  The package counts them exactly, in total and by size, with
one memoized branching engine whose base case counts tree components in one
linear pass, builds the extremal tree and unicyclic families, generates all
non-isomorphic trees / unicyclic / connected / general graphs at small
orders, and exhaustively verifies the extremal bounds over those families.
"""

from .canon import canonical_form
from .counting import (
    BranchPartition,
    branch_partition,
    count,
    count_cycle,
    count_path,
    count_star,
    dissociation_polynomial,
    is_dissociation,
    max_tree_count,
    max_unicyclic_count,
    subset_bound,
)
from .families import (
    complete_multipartite,
    extremal_trees,
    extremal_unicyclic,
    pendant_cycle,
    star_join,
)
from .generate import (
    all_connected,
    all_graphs,
    all_trees,
    all_unicyclic,
    ingest_graph6,
)
from .graph import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
    twin_status,
)
from .graph6 import Graph6Error, from_graph6, to_graph6
from .transforms import (
    ComparisonRecord,
    delete_edge_check,
    find_quasi_pendants,
    quasi_pendant_transform,
    spanning_tree_chain,
)

__version__ = "0.1.0"
