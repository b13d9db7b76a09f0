"""Road-network persistence as a single self-describing JSON document."""

from __future__ import annotations

import json
from pathlib import Path as FilePath

from repro.errors import SerializationError
from repro.graph.builders import gc_paused
from repro.graph.network import RoadCategory, RoadNetwork

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "save_network_json",
    "load_network_json",
]

_FORMAT_VERSION = 1


def network_to_dict(network: RoadNetwork) -> dict:
    """A JSON-serialisable description of ``network``."""
    return {
        "format_version": _FORMAT_VERSION,
        "name": network.name,
        "vertices": [
            {"id": v.id, "x": v.x, "y": v.y} for v in network.vertices()
        ],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "length": e.length,
                "speed": e.speed,
                "category": e.category.value,
            }
            for e in network.edges()
        ],
    }


@gc_paused()
def network_from_dict(document: dict) -> RoadNetwork:
    """Inverse of :func:`network_to_dict`, with validation."""
    if not isinstance(document, dict):
        raise SerializationError("network document must be a mapping")
    version = document.get("format_version")
    if version != _FORMAT_VERSION:
        raise SerializationError(f"unsupported network format version {version!r}")
    network = RoadNetwork(name=document.get("name", "road-network"))
    try:
        for row in document["vertices"]:
            network.add_vertex(int(row["id"]), float(row["x"]), float(row["y"]))
        for row in document["edges"]:
            network.add_edge(
                int(row["source"]),
                int(row["target"]),
                length=float(row["length"]),
                speed=float(row["speed"]),
                category=RoadCategory(row["category"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed network document: {exc}") from exc
    return network


def save_network_json(network: RoadNetwork, path: str | FilePath) -> None:
    path = FilePath(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(network_to_dict(network), handle, indent=1)


def load_network_json(path: str | FilePath) -> RoadNetwork:
    path = FilePath(path)
    if not path.exists():
        raise SerializationError(f"no such network file: {path}")
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid JSON in {path}: {exc}") from exc
    return network_from_dict(document)

