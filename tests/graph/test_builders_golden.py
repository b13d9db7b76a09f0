"""Golden generated networks.

Every generator must keep returning element-wise the same network for
the same arguments: the serving, training and batch workloads pin their
inputs by these networks.  :attr:`RoadNetwork.fingerprint` hashes edges
in sorted-key order, so it cannot see a change in insertion order; the
second digest here covers vertex order with coordinates, ``edges()``
order, and each vertex's out- and in-edge order, which decide tie
breaks in the routing kernels and the iteration order of everything
built on top.
"""

import hashlib
import struct

import pytest

from repro.graph import grid_network, north_jutland_like, ring_radial_network


def order_digest(network) -> str:
    """Digest of a network's name, vertices and edges in iteration order."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(network.name.encode("utf-8"))
    for v in network.vertices():
        digest.update(struct.pack("<qdd", v.id, v.x, v.y))
    for e in network.edges():
        digest.update(struct.pack("<qqdd", e.source, e.target, e.length, e.speed))
        digest.update(e.category.value.encode("ascii"))
    for vid in network.vertex_ids():
        out = [e.target for e in network.out_edges(vid)]
        into = network.predecessors(vid)
        digest.update(struct.pack(f"<qq{len(out)}q", vid, len(out), *out))
        digest.update(struct.pack(f"<q{len(into)}q", len(into), *into))
    return digest.hexdigest()


#: ``(builder, kwargs, fingerprint, order digest)``.  The north_jutland_like
#: rows use the serve and train network constants of ``bench/constants.json``
#: and the 40-town city region of the roadmap.
GOLDEN = [
    pytest.param(grid_network, dict(rows=6, cols=6, seed=0),
                 (36, 110, "22f538fdbb81149c5b93711a7382451d"),
                 "787bf6d993cd0102f6c566366d1f95ca", id="grid-6x6-s0"),
    pytest.param(grid_network, dict(rows=25, cols=40, seed=3),
                 (999, 3480, "3705af978335fd0489f99892218cfb5f"),
                 "e13de8ac25495ed867620636b18d6cdf", id="grid-25x40-s3"),
    pytest.param(grid_network, dict(rows=70, cols=70, seed=7),
                 (4900, 17892, "765c04438b478961d5bbb9b8593fd38b"),
                 "74536c44726e40f039a6dd298716c8ad", id="grid-70x70-s7"),
    # Half the grid falls outside the largest SCC.
    pytest.param(grid_network, dict(rows=15, cols=15, seed=5,
                                    removal_probability=0.5),
                 (111, 240, "acec41f200b05a356df9531531aaade5"),
                 "27eb2a9918f0c59ead107ffc8ef5b966", id="grid-15x15-s5-sparse"),
    pytest.param(ring_radial_network, dict(rings=3, spokes=8, seed=0),
                 (25, 96, "625a99190db79d7590a4918d5d86a1c9"),
                 "a22f8bc62c54d4f12c362347f0132e4b", id="ring-radial-3x8-s0"),
    pytest.param(north_jutland_like,
                 dict(num_towns=4, town_size_range=(3, 5),
                      region_extent=30_000, seed=11),
                 (84, 252, "7d127d79b592b86580840d75dcce4f72"),
                 "16236e41319d1b4554b4e2630a885516", id="region-train"),
    pytest.param(north_jutland_like,
                 dict(num_towns=10, town_size_range=(8, 12),
                      region_extent=60_000, seed=7),
                 (1162, 4156, "e3f59e3b18a3823053e4f4cd8a786435"),
                 "a6d269e29ffb66c6c9b7390098183a19", id="region-serve"),
    pytest.param(north_jutland_like,
                 dict(num_towns=40, town_size_range=(18, 24),
                      region_extent=120_000, seed=7),
                 (17955, 68202, "08814b10f2b28049f43dadb721278c1a"),
                 "b873f65aa23b7c0585c31b3f130fa6f2", id="region-city"),
]


@pytest.mark.parametrize("builder, kwargs, fingerprint, order", GOLDEN)
def test_generated_network_is_unchanged(builder, kwargs, fingerprint, order):
    network = builder(**kwargs)
    assert network.fingerprint == fingerprint
    assert order_digest(network) == order
