"""Reference implementations the indexed structures are checked against.

Nothing in the library imports this package; tests and benchmarks do:

* :mod:`repro.baselines.linear_scan` -- substructure overlap by linear scan
  (no interval tree / R-tree); the spatial index tests compare against it,
* :mod:`repro.baselines.unindexed_multigraph` -- the pre-indexing multigraph
  engine (flat per-node edge lists, list-concatenating BFS, per-query
  component sweeps, pairwise path evaluation); ``bench_adjacency_engine``
  measures the indexed a-graph against it.
"""

from repro.baselines.linear_scan import (
    LinearIntervalIndex,
    LinearRegionIndex,
    linear_interval_overlap,
    linear_region_overlap,
)
from repro.baselines.unindexed_multigraph import UnindexedMultigraph, mirror_agraph

__all__ = [
    "LinearIntervalIndex",
    "LinearRegionIndex",
    "linear_interval_overlap",
    "linear_region_overlap",
    "UnindexedMultigraph",
    "mirror_agraph",
]
