"""Exception hierarchy for the PathRank reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also catching programming
errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """Raised for structural problems in a road network."""


class VertexNotFoundError(GraphError):
    """Raised when a vertex id is not present in a network."""

    def __init__(self, vertex_id: int) -> None:
        super().__init__(f"vertex {vertex_id!r} is not in the network")
        self.vertex_id = vertex_id


class EdgeNotFoundError(GraphError):
    """Raised when an edge (u, v) is not present in a network."""

    def __init__(self, source: int, target: int) -> None:
        super().__init__(f"edge ({source!r} -> {target!r}) is not in the network")
        self.source = source
        self.target = target


class NoPathError(GraphError):
    """Raised when no path exists between a source and a destination."""

    def __init__(self, source: int, target: int) -> None:
        super().__init__(f"no path from {source!r} to {target!r}")
        self.source = source
        self.target = target


class InvalidPathError(GraphError):
    """Raised when a vertex sequence does not form a connected path."""


class NNError(ReproError):
    """Base class for neural-network substrate errors."""


class ShapeError(NNError):
    """Raised when tensor shapes are incompatible for an operation."""


class GradientError(NNError):
    """Raised for invalid backward passes (e.g. non-scalar roots without seed)."""


class SerializationError(ReproError):
    """Raised when a model or dataset cannot be saved or loaded."""


class ConfigError(ReproError):
    """Raised for invalid experiment or model configuration values."""


class DataError(ReproError):
    """Raised for malformed trajectories, GPS records, or training data."""


class TrainingError(ReproError):
    """Raised when model training cannot proceed (e.g. empty dataset)."""


class AnalyticsError(ReproError):
    """Raised for batch-analytics failures (empty source sets, tiles
    referencing costs that cannot cross a process boundary, or a plane
    whose pool rejects a tile)."""


class ServingError(ReproError):
    """Raised for online-serving failures (bad registry state, unflushed
    batch tickets, or a service without a usable model and no fallback)."""


class ExecError(ServingError):
    """Raised for process-pool execution-plane failures.

    Covers dead or unresponsive workers, lost pool tickets, and
    dispatch on a closed pool.  The serving stack answers one by
    generating the candidates inline, so a sick worker process costs
    a request time, never an answer or a hang.
    """
