"""Minimal OSM-XML interchange.

The paper's road network comes from OpenStreetMap.  No OSM extract is
available offline, but downstream users will have them, so the library
speaks a pragmatic subset of OSM XML: ``<node>`` elements with ids and
WGS84 coordinates, and ``<way>`` elements carrying ``highway``,
``oneway``, and ``maxspeed`` tags.  Geographic coordinates are projected
to local planar metres with an equirectangular projection around the
extract's mean latitude — adequate at the regional scales the paper
works at.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from pathlib import Path as FilePath

from repro.errors import SerializationError
from repro.graph.builders import NetworkDraft, gc_paused
from repro.graph.network import RoadCategory, RoadNetwork

__all__ = ["load_osm_xml", "save_osm_xml", "HIGHWAY_TO_CATEGORY"]

_EARTH_RADIUS_M = 6_371_000.0

#: OSM ``highway`` values accepted as routable roads, mapped to the
#: library's category hierarchy.
HIGHWAY_TO_CATEGORY = {
    "motorway": RoadCategory.MOTORWAY,
    "motorway_link": RoadCategory.MOTORWAY,
    "trunk": RoadCategory.MOTORWAY,
    "primary": RoadCategory.ARTERIAL,
    "secondary": RoadCategory.ARTERIAL,
    "tertiary": RoadCategory.LOCAL,
    "unclassified": RoadCategory.LOCAL,
    "residential": RoadCategory.RESIDENTIAL,
    "living_street": RoadCategory.RESIDENTIAL,
}

_CATEGORY_TO_HIGHWAY = {
    RoadCategory.MOTORWAY: "motorway",
    RoadCategory.ARTERIAL: "primary",
    RoadCategory.LOCAL: "tertiary",
    RoadCategory.RESIDENTIAL: "residential",
}


def _project(lat: float, lon: float, lat0: float, lon0: float) -> tuple[float, float]:
    """Equirectangular projection to metres around ``(lat0, lon0)``."""
    x = math.radians(lon - lon0) * _EARTH_RADIUS_M * math.cos(math.radians(lat0))
    y = math.radians(lat - lat0) * _EARTH_RADIUS_M
    return x, y


def _unproject(x: float, y: float, lat0: float, lon0: float) -> tuple[float, float]:
    lat = lat0 + math.degrees(y / _EARTH_RADIUS_M)
    lon = lon0 + math.degrees(x / (_EARTH_RADIUS_M * math.cos(math.radians(lat0))))
    return lat, lon


def _haversine(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlambda = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlambda / 2) ** 2
    return 2 * _EARTH_RADIUS_M * math.asin(math.sqrt(a))


def _parse_maxspeed(value: str | None, fallback: float) -> float:
    if not value:
        return fallback
    text = value.strip().lower()
    try:
        if text.endswith("mph"):
            return float(text[:-3].strip()) * 1.609344
        return float(text)
    except ValueError:
        return fallback


@gc_paused()
def load_osm_xml(path: str | FilePath, keep_largest_scc: bool = True) -> RoadNetwork:
    """Parse an OSM XML file into a :class:`RoadNetwork`.

    Ways without a recognised ``highway`` tag are ignored.  Two-way
    streets (no ``oneway=yes``) produce both directed edges.  Node ids
    are renumbered densely in document order; with ``keep_largest_scc``
    only the largest strongly connected component is kept, renumbered
    densely in the same order.
    """
    path = FilePath(path)
    if not path.exists():
        raise SerializationError(f"no such OSM file: {path}")
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise SerializationError(f"invalid OSM XML in {path}: {exc}") from exc
    root = tree.getroot()

    raw_nodes: dict[str, tuple[float, float]] = {}
    for node in root.iter("node"):
        try:
            raw_nodes[node.attrib["id"]] = (
                float(node.attrib["lat"]),
                float(node.attrib["lon"]),
            )
        except (KeyError, ValueError) as exc:
            raise SerializationError(f"malformed OSM node: {exc}") from exc
    if not raw_nodes:
        raise SerializationError(f"OSM file {path} contains no nodes")

    lat0 = sum(lat for lat, _ in raw_nodes.values()) / len(raw_nodes)
    lon0 = sum(lon for _, lon in raw_nodes.values()) / len(raw_nodes)

    draft = NetworkDraft(name=path.stem)
    id_map: dict[str, int] = {}

    def ensure_vertex(osm_id: str) -> int:
        if osm_id not in id_map:
            lat, lon = raw_nodes[osm_id]
            x, y = _project(lat, lon, lat0, lon0)
            id_map[osm_id] = len(id_map)
            draft.add_vertex(id_map[osm_id], x, y)
        return id_map[osm_id]

    for way in root.iter("way"):
        tags = {tag.attrib.get("k"): tag.attrib.get("v") for tag in way.iter("tag")}
        category = HIGHWAY_TO_CATEGORY.get(tags.get("highway", ""))
        if category is None:
            continue
        speed = _parse_maxspeed(tags.get("maxspeed"), category.default_speed)
        one_way = tags.get("oneway") in ("yes", "true", "1")
        refs = [nd.attrib["ref"] for nd in way.iter("nd") if nd.attrib.get("ref") in raw_nodes]
        for a_ref, b_ref in zip(refs, refs[1:]):
            if a_ref == b_ref:
                continue
            a, b = ensure_vertex(a_ref), ensure_vertex(b_ref)
            lat_a, lon_a = raw_nodes[a_ref]
            lat_b, lon_b = raw_nodes[b_ref]
            length = max(_haversine(lat_a, lon_a, lat_b, lon_b), 0.1)
            if not draft.has_edge(a, b):
                draft.add_edge(a, b, length=length, speed=speed, category=category)
            if not one_way and not draft.has_edge(b, a):
                draft.add_edge(b, a, length=length, speed=speed, category=category)
    return draft.build(largest_scc=keep_largest_scc)


def save_osm_xml(
    network: RoadNetwork,
    path: str | FilePath,
    origin: tuple[float, float] = (57.05, 9.92),  # Aalborg, North Jutland
) -> None:
    """Serialise a network as OSM XML (one way per directed edge pair).

    ``origin`` anchors the planar coordinates at a WGS84 position so the
    output is a legal OSM document; the default is Aalborg, the heart of
    the paper's study region.
    """
    path = FilePath(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lat0, lon0 = origin

    root = ET.Element("osm", version="0.6", generator="repro-pathrank")
    for v in network.vertices():
        lat, lon = _unproject(v.x, v.y, lat0, lon0)
        ET.SubElement(root, "node", id=str(v.id + 1), lat=f"{lat:.7f}",
                      lon=f"{lon:.7f}", version="1")

    emitted: set[tuple[int, int]] = set()
    way_id = 1
    for e in network.edges():
        if e.key in emitted:
            continue
        reverse = network.has_edge(e.target, e.source)
        emitted.add(e.key)
        if reverse:
            emitted.add((e.target, e.source))
        way = ET.SubElement(root, "way", id=str(way_id), version="1")
        way_id += 1
        ET.SubElement(way, "nd", ref=str(e.source + 1))
        ET.SubElement(way, "nd", ref=str(e.target + 1))
        ET.SubElement(way, "tag", k="highway", v=_CATEGORY_TO_HIGHWAY[e.category])
        ET.SubElement(way, "tag", k="maxspeed", v=str(int(round(e.speed))))
        if not reverse:
            ET.SubElement(way, "tag", k="oneway", v="yes")

    tree = ET.ElementTree(root)
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=True)
