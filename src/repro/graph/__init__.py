"""Spatial-network substrate: road graphs, routing, path enumeration.

Routing backends
----------------
Two interchangeable routing implementations serve the hot paths
(``shortest_path``, Yen / diversified candidate enumeration, serving):

* **dict** — the reference implementation in ``shortest_path.py`` /
  ``ksp.py``, operating directly on :class:`RoadNetwork`'s
  dict-of-dataclasses adjacency.  Simple, validated against networkx,
  and the parity oracle for the kernel.
* **csr** *(default)* — :class:`CSRGraph` in ``csr.py``: the network
  flattened into CSR arrays with preallocated, generation-stamped
  search buffers, plus ALT (landmark) lower bounds for A* and Yen spur
  searches.  The ``serve_cold`` and ``batch_routes`` workloads of
  ``bench/run.py`` measure it.

The kernel is built lazily on first routing call via
:func:`csr_for` and cached per network.  Staleness is handled through
:attr:`RoadNetwork.fingerprint` — a content hash recomputed after any
mutation — so adding or removing edges transparently rebuilds the
kernel (and invalidates serving's candidate cache) on the next query.
Results cross the backend boundary as plain vertex-id sequences and are
re-wrapped in :class:`Path` objects, so downstream code is
backend-agnostic.

To force the reference backend, set ``REPRO_ROUTING_BACKEND=dict`` in
the environment, call :func:`set_routing_backend("dict")
<set_routing_backend>`, or use the :func:`use_routing_backend` context
manager; individual calls also accept ``backend="dict"``.
"""

from repro.graph.builders import grid_network, north_jutland_like, ring_radial_network
from repro.graph.csr import (
    CSRGraph,
    csr_for,
    csr_if_built,
    get_routing_backend,
    set_routing_backend,
    use_routing_backend,
)
from repro.graph.diversified import DiversifiedResult, diversified_top_k
from repro.graph.io import (
    load_network_csv,
    load_network_json,
    network_from_dict,
    network_to_dict,
    save_network_csv,
    save_network_json,
)
from repro.graph.ksp import yen_k_shortest_paths, yen_path_generator
from repro.graph.network import Edge, RoadCategory, RoadNetwork, Vertex
from repro.graph.osm import load_osm_xml, save_osm_xml
from repro.graph.path import Path
from repro.graph.shortest_path import (
    astar,
    bidirectional_dijkstra,
    dijkstra,
    length_cost,
    shortest_path,
    shortest_path_cost,
    travel_time_cost,
    travel_time_heuristic,
)
from repro.graph.similarity import (
    get_similarity,
    jaccard,
    overlap_ratio,
    time_weighted_jaccard,
    vertex_jaccard,
    weighted_jaccard,
)

__all__ = [
    "RoadNetwork",
    "RoadCategory",
    "Vertex",
    "Edge",
    "Path",
    "CSRGraph",
    "csr_for",
    "csr_if_built",
    "get_routing_backend",
    "set_routing_backend",
    "use_routing_backend",
    "grid_network",
    "ring_radial_network",
    "north_jutland_like",
    "dijkstra",
    "shortest_path",
    "shortest_path_cost",
    "bidirectional_dijkstra",
    "astar",
    "length_cost",
    "travel_time_cost",
    "travel_time_heuristic",
    "yen_k_shortest_paths",
    "yen_path_generator",
    "diversified_top_k",
    "DiversifiedResult",
    "weighted_jaccard",
    "time_weighted_jaccard",
    "jaccard",
    "vertex_jaccard",
    "overlap_ratio",
    "get_similarity",
    "network_to_dict",
    "network_from_dict",
    "save_network_json",
    "load_network_json",
    "save_network_csv",
    "load_network_csv",
    "load_osm_xml",
    "save_osm_xml",
]
