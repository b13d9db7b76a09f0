"""Tests for network generators, the draft they build through, JSON
persistence, and OSM interop."""

import gc
import math

import pytest

from repro.errors import GraphError, SerializationError, VertexNotFoundError
from repro.graph import (
    RoadCategory,
    RoadNetwork,
    grid_network,
    load_network_json,
    load_osm_xml,
    network_from_dict,
    network_to_dict,
    north_jutland_like,
    ring_radial_network,
    save_network_json,
    save_osm_xml,
)
from repro.graph.builders import NetworkDraft


class TestGridBuilder:
    def test_strongly_connected(self):
        assert grid_network(6, 6, seed=0).is_strongly_connected()

    def test_dense_ids(self):
        net = grid_network(5, 5, seed=1)
        assert set(net.vertex_ids()) == set(range(net.num_vertices))

    def test_deterministic(self):
        a = grid_network(6, 6, seed=42)
        b = grid_network(6, 6, seed=42)
        assert a.num_vertices == b.num_vertices
        assert {e.key for e in a.edges()} == {e.key for e in b.edges()}

    def test_seeds_differ(self):
        a = grid_network(6, 6, seed=1)
        b = grid_network(6, 6, seed=2)
        assert {e.key for e in a.edges()} != {e.key for e in b.edges()} or (
            [v.x for v in a.vertices()] != [v.x for v in b.vertices()]
        )

    def test_has_arterials_and_locals(self):
        net = grid_network(8, 8, seed=3)
        categories = {e.category for e in net.edges()}
        assert RoadCategory.ARTERIAL in categories
        assert RoadCategory.LOCAL in categories

    def test_no_removal_keeps_full_grid(self):
        net = grid_network(4, 4, seed=0, removal_probability=0.0)
        assert net.num_vertices == 16
        # Full 4x4 grid: 2 * (3*4 + 3*4) = 48 directed edges.
        assert net.num_edges == 48

    def test_lengths_at_least_euclidean(self):
        net = grid_network(5, 5, seed=4)
        for e in net.edges():
            assert e.length >= net.euclidean(e.source, e.target) - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_network(1, 5)
        with pytest.raises(ValueError):
            grid_network(4, 4, perturbation=0.7)
        with pytest.raises(ValueError):
            grid_network(4, 4, removal_probability=1.0)
        with pytest.raises(ValueError):
            grid_network(4, 4, arterial_every=1)


class TestRingRadialBuilder:
    def test_structure(self):
        net = ring_radial_network(rings=3, spokes=8, seed=0)
        assert net.is_strongly_connected()
        assert net.num_vertices == 1 + 3 * 8

    def test_ring_roads_are_arterial(self):
        net = ring_radial_network(rings=2, spokes=6, seed=0)
        categories = {e.category for e in net.edges()}
        assert RoadCategory.ARTERIAL in categories

    def test_validation(self):
        with pytest.raises(ValueError):
            ring_radial_network(rings=0)
        with pytest.raises(ValueError):
            ring_radial_network(spokes=2)


class TestRegionBuilder:
    def test_strongly_connected(self, region_network):
        assert region_network.is_strongly_connected()

    def test_has_motorways(self, region_network):
        categories = {e.category for e in region_network.edges()}
        assert RoadCategory.MOTORWAY in categories

    def test_reasonable_size(self, region_network):
        assert region_network.num_vertices > 30
        assert region_network.num_edges > 80

    def test_deterministic(self):
        a = north_jutland_like(num_towns=3, seed=5)
        b = north_jutland_like(num_towns=3, seed=5)
        assert {e.key for e in a.edges()} == {e.key for e in b.edges()}

    def test_validation(self):
        with pytest.raises(ValueError):
            north_jutland_like(num_towns=1)
        with pytest.raises(ValueError):
            north_jutland_like(town_size_range=(5, 3))


class TestOneBuild:
    """A generator call builds one RoadNetwork and adds each returned
    edge once: the draft is cut before anything is built."""

    @pytest.mark.parametrize("build", [
        lambda: grid_network(12, 12, seed=5, removal_probability=0.3),
        lambda: ring_radial_network(rings=2, spokes=5, seed=1),
        lambda: north_jutland_like(num_towns=3, seed=5),
    ], ids=["grid", "ring-radial", "region"])
    def test_one_network_and_one_add_edge_per_edge(self, build, monkeypatch):
        calls = {"init": 0, "add_edge": 0}
        init, add_edge = RoadNetwork.__init__, RoadNetwork.add_edge

        def counted_init(self, *args, **kwargs):
            calls["init"] += 1
            init(self, *args, **kwargs)

        def counted_add_edge(self, *args, **kwargs):
            calls["add_edge"] += 1
            return add_edge(self, *args, **kwargs)

        monkeypatch.setattr(RoadNetwork, "__init__", counted_init)
        monkeypatch.setattr(RoadNetwork, "add_edge", counted_add_edge)
        network = build()
        assert calls == {"init": 1, "add_edge": network.num_edges}

    def test_collector_is_paused_during_the_build_only(self, monkeypatch):
        seen = []
        init = RoadNetwork.__init__

        def spying_init(self, *args, **kwargs):
            seen.append(gc.isenabled())
            init(self, *args, **kwargs)

        monkeypatch.setattr(RoadNetwork, "__init__", spying_init)
        assert gc.isenabled()
        grid_network(4, 4, seed=0)
        with pytest.raises(ValueError):
            grid_network(1, 4)
        assert seen == [False] and gc.isenabled()
        gc.disable()
        try:
            grid_network(4, 4, seed=0)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestDraft:
    """The draft refuses what RoadNetwork refuses, at insertion, so a
    road the largest-SCC cut would drop still fails loudly."""

    @pytest.fixture
    def draft(self):
        draft = NetworkDraft("draft")
        draft.add_vertex(0, 0.0, 0.0)
        draft.add_vertex(1, 3.0, 4.0)
        return draft

    def test_duplicate_vertex(self, draft):
        with pytest.raises(GraphError, match="already exists"):
            draft.add_vertex(1, 5.0, 5.0)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.inf)])
    def test_non_finite_position(self, draft, x, y):
        with pytest.raises(GraphError, match="non-finite"):
            draft.add_vertex(2, x, y)

    def test_unknown_endpoint(self, draft):
        with pytest.raises(VertexNotFoundError):
            draft.add_edge(0, 7, length=1.0)
        with pytest.raises(VertexNotFoundError):
            draft.add_edge(7, 0, length=1.0)

    def test_self_loop(self, draft):
        with pytest.raises(GraphError, match="self-loop"):
            draft.add_edge(1, 1, length=1.0)

    def test_duplicate_edge(self, draft):
        draft.add_edge(0, 1, length=1.0)
        with pytest.raises(GraphError, match="already exists"):
            draft.add_two_way(0, 1, length=1.0)

    @pytest.mark.parametrize("length, speed", [
        (0.0, None), (-1.0, None), (math.nan, None), (math.inf, None),
        (1.0, 0.0), (1.0, math.nan), (1.0, math.inf)])
    def test_bad_length_or_speed(self, draft, length, speed):
        with pytest.raises(GraphError, match="positive and finite"):
            draft.add_edge(0, 1, length=length, speed=speed)
        assert not draft.has_edge(0, 1)

    def test_refused_road_leaves_no_trace(self, draft):
        with pytest.raises(GraphError):
            draft.add_edge(0, 1, length=math.nan)
        draft.add_two_way(0, 1, length=5.0, category=RoadCategory.ARTERIAL)
        network = draft.build()
        assert network.num_edges == 2
        assert network.edge(1, 0).speed == RoadCategory.ARTERIAL.default_speed

    def test_build_without_cut_keeps_everything(self, draft):
        draft.add_edge(0, 1, length=1.0)
        network = draft.build(largest_scc=False)
        assert network.vertex_ids() == [0, 1]
        assert network.num_edges == 1
        assert draft.build().num_vertices == 1


class TestJsonRoundTrip:
    def test_dict_roundtrip(self, tiny_network):
        doc = network_to_dict(tiny_network)
        restored = network_from_dict(doc)
        assert restored.num_vertices == tiny_network.num_vertices
        assert {e.key for e in restored.edges()} == {e.key for e in tiny_network.edges()}

    def test_preserves_attributes(self, tiny_network):
        restored = network_from_dict(network_to_dict(tiny_network))
        edge = restored.edge(0, 2)
        assert edge.length == 250.0
        assert edge.speed == 110.0
        assert edge.category == RoadCategory.MOTORWAY

    def test_file_roundtrip(self, tiny_network, tmp_path):
        path = tmp_path / "net.json"
        save_network_json(tiny_network, path)
        restored = load_network_json(path)
        assert restored.num_edges == tiny_network.num_edges

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_network_json(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_network_json(bad)

    def test_wrong_version(self, tiny_network):
        doc = network_to_dict(tiny_network)
        doc["format_version"] = 99
        with pytest.raises(SerializationError):
            network_from_dict(doc)

    def test_malformed_document(self):
        with pytest.raises(SerializationError):
            network_from_dict({"format_version": 1, "vertices": [{"id": 0}], "edges": []})

    def test_non_mapping_rejected(self):
        with pytest.raises(SerializationError):
            network_from_dict([1, 2, 3])

    def test_collector_is_paused_during_the_load_only(self, tiny_network,
                                                      monkeypatch):
        seen = []
        add_edge = RoadNetwork.add_edge

        def spying_add_edge(self, *args, **kwargs):
            seen.append(gc.isenabled())
            return add_edge(self, *args, **kwargs)

        monkeypatch.setattr(RoadNetwork, "add_edge", spying_add_edge)
        doc = network_to_dict(tiny_network)
        assert gc.isenabled()
        network_from_dict(doc)
        assert seen and not any(seen) and gc.isenabled()
        doc["edges"][0]["length"] = "far"
        with pytest.raises(SerializationError):
            network_from_dict(doc)
        assert gc.isenabled()
        gc.disable()
        try:
            with pytest.raises(SerializationError):
                network_from_dict(doc)
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestOsmRoundTrip:
    def test_topology_survives(self, tiny_network, tmp_path):
        path = tmp_path / "tiny.osm"
        save_osm_xml(tiny_network, path)
        restored = load_osm_xml(path, keep_largest_scc=False)
        assert restored.num_vertices == tiny_network.num_vertices
        assert restored.num_edges == tiny_network.num_edges

    def test_oneway_preserved(self, tiny_network, tmp_path):
        path = tmp_path / "tiny.osm"
        save_osm_xml(tiny_network, path)
        restored = load_osm_xml(path, keep_largest_scc=False)
        # The 0->2 motorway is one-way; count antiparallel pairs instead of ids
        # because OSM ids are renumbered in document order.
        def oneway_count(net):
            return sum(1 for e in net.edges() if not net.has_edge(e.target, e.source))

        assert oneway_count(restored) == oneway_count(tiny_network) == 1

    def test_categories_survive(self, tiny_network, tmp_path):
        path = tmp_path / "tiny.osm"
        save_osm_xml(tiny_network, path)
        restored = load_osm_xml(path, keep_largest_scc=False)
        assert {e.category for e in restored.edges()} == {
            e.category for e in tiny_network.edges()
        }

    def test_lengths_close_to_euclidean(self, tiny_network, tmp_path):
        # OSM stores geometry, not lengths: restored lengths are haversine
        # distances, close to the original euclidean separations.
        path = tmp_path / "tiny.osm"
        save_osm_xml(tiny_network, path)
        restored = load_osm_xml(path, keep_largest_scc=False)
        for e in restored.edges():
            euclid = restored.euclidean(e.source, e.target)
            assert e.length == pytest.approx(euclid, rel=0.02)

    def test_largest_scc_drops_dangling_one_way(self, tmp_path):
        doc = """<?xml version='1.0'?>
        <osm version='0.6'>
          <node id='5' lat='57.0' lon='9.9'/>
          <node id='6' lat='57.01' lon='9.9'/>
          <node id='7' lat='57.02' lon='9.9'/>
          <node id='8' lat='57.03' lon='9.9'/>
          <way id='1' version='1'>
            <nd ref='5'/><nd ref='6'/><nd ref='7'/>
            <tag k='highway' v='primary'/>
          </way>
          <way id='2' version='1'>
            <nd ref='7'/><nd ref='8'/>
            <tag k='highway' v='residential'/><tag k='oneway' v='yes'/>
          </way>
        </osm>"""
        path = tmp_path / "dangling.osm"
        path.write_text(doc, encoding="utf-8")
        whole = load_osm_xml(path, keep_largest_scc=False)
        assert whole.num_vertices == 4 and whole.num_edges == 5
        net = load_osm_xml(path)
        assert net.vertex_ids() == [0, 1, 2]
        assert net.num_edges == 4
        assert net.is_strongly_connected()
        assert {e.category for e in net.edges()} == {RoadCategory.ARTERIAL}
        assert [(v.x, v.y) for v in net.vertices()] == [
            (v.x, v.y) for v in list(whole.vertices())[:3]]

    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            load_osm_xml(tmp_path / "none.osm")

    def test_invalid_xml(self, tmp_path):
        bad = tmp_path / "bad.osm"
        bad.write_text("<osm><node id='1'", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_osm_xml(bad)

    def test_empty_osm_rejected(self, tmp_path):
        empty = tmp_path / "empty.osm"
        empty.write_text("<osm version='0.6'></osm>", encoding="utf-8")
        with pytest.raises(SerializationError):
            load_osm_xml(empty)

    def test_unknown_highway_ignored(self, tmp_path):
        doc = """<?xml version='1.0'?>
        <osm version='0.6'>
          <node id='1' lat='57.0' lon='9.9'/>
          <node id='2' lat='57.01' lon='9.9'/>
          <way id='1' version='1'>
            <nd ref='1'/><nd ref='2'/>
            <tag k='highway' v='footway'/>
          </way>
        </osm>"""
        path = tmp_path / "foot.osm"
        path.write_text(doc, encoding="utf-8")
        net = load_osm_xml(path, keep_largest_scc=False)
        assert net.num_edges == 0

    def test_maxspeed_parsing(self, tmp_path):
        doc = """<?xml version='1.0'?>
        <osm version='0.6'>
          <node id='1' lat='57.0' lon='9.9'/>
          <node id='2' lat='57.01' lon='9.9'/>
          <way id='1' version='1'>
            <nd ref='1'/><nd ref='2'/>
            <tag k='highway' v='primary'/>
            <tag k='maxspeed' v='60'/>
          </way>
        </osm>"""
        path = tmp_path / "speed.osm"
        path.write_text(doc, encoding="utf-8")
        net = load_osm_xml(path, keep_largest_scc=False)
        assert next(net.edges()).speed == 60.0
