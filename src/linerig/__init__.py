"""Combinatorial rigidity of graphs and configurations of lines in 3-space.

Library layout:

* graphs: graph type, parsing/serialization, named generators
* sparsity: (2,3)-sparsity rank, Laman / redundant / Hendrickson tests
* connectivity: vertex connectivity
* henneberg: construction sequences (extension moves), forward and reverse
* lines3d: the (a, b, c, d) line chart and its incidence geometry; common points
  and planes by one array kernel over (..., n, 4) batches
* elekes_sharir: transform between planar point pairs and lines
* numeric: one edge-system kernel for the rigidity, pair and line systems (float
  and exact), Jacobian ranks, dimension certificates
* sampler: randomized generation of configurations and embedding pairs
* verify: the named verification suites
* cli: command-line interface
"""

from .connectivity import is_k_connected
from .elekes_sharir import (PlanarMotion, PointPair, Rotation, from_line, phi,
                            recover_motion, reflection_at, rotation_at, to_line)
from .graphs import Graph, catalog, generate, parse_graph, serialize_graph
from .henneberg import (EdgeAdd, Ext0, Ext1, apply_henneberg, apply_jj,
                        extract_henneberg, extract_jj, steps_from_json, steps_to_json)
from .lines3d import (Concurrency, Line, LineConfig, Plane, TripleClass, classify_triple,
                      common_plane, common_point, intersection_graph, line_through,
                      meet_residual, transversal)
from .numeric import (DimensionReport, edge_function, global_rigidity_oracle,
                      is_rigid_numeric, line_system_dimension, pair_system_dimension,
                      rank_exact, rigidity_matrix, rigidity_rank)
from .sampler import (gauss_newton_project, sample_congruent_pair, sample_knn,
                      sample_laman_lines, sample_laman_lines_exact)
from .sparsity import (SparsityRankResult, is_hendrickson, is_laman, is_redundant,
                       spanning_laman_subgraph, sparsity_rank)

__version__ = "0.1.0"

__all__ = [
    "Concurrency", "DimensionReport", "EdgeAdd", "Ext0", "Ext1", "Graph", "Line",
    "LineConfig", "PlanarMotion", "Plane", "PointPair", "Rotation", "SparsityRankResult",
    "TripleClass", "apply_henneberg", "apply_jj", "catalog", "classify_triple",
    "common_plane", "common_point", "edge_function", "extract_henneberg", "extract_jj",
    "from_line", "gauss_newton_project", "generate", "global_rigidity_oracle",
    "intersection_graph", "is_hendrickson", "is_k_connected", "is_laman",
    "is_redundant", "is_rigid_numeric", "line_system_dimension", "line_through",
    "meet_residual", "pair_system_dimension", "parse_graph", "phi", "rank_exact",
    "recover_motion", "reflection_at", "rigidity_matrix", "rigidity_rank",
    "rotation_at", "sample_congruent_pair", "sample_knn", "sample_laman_lines",
    "sample_laman_lines_exact", "serialize_graph", "spanning_laman_subgraph",
    "sparsity_rank", "steps_from_json", "steps_to_json", "to_line", "transversal",
]
