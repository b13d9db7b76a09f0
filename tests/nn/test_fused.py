"""Fused inference kernel: parity, staleness, and the backend seam."""

import re
from functools import lru_cache
from pathlib import Path as FilePath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PathRank, build_pathrank, encode_paths
from repro.errors import ConfigError, ShapeError
from repro.graph.path import Path
from repro.nn import Module, no_grad
from repro.nn.fused import CompiledPathRank, compiled_for


@pytest.fixture(scope="module")
def mixed_paths(small_grid, random_walk_paths):
    """A realistic mixed-length candidate mix (8 to 40 vertices)."""
    rng = np.random.default_rng(0)
    lengths = [int(n) for n in rng.integers(8, 41, size=12)] + [2, 3]
    return random_walk_paths(small_grid, lengths, rng)


def make_model(small_grid, **kwargs):
    defaults = dict(num_vertices=small_grid.num_vertices, embedding_dim=16,
                    hidden_size=16, fc_hidden=8, rng=3)
    defaults.update(kwargs)
    return PathRank(**defaults).eval()


class TestParity:
    @pytest.mark.parametrize("pooling", ["mean", "final", "attention"])
    @pytest.mark.parametrize("bidirectional", [True, False])
    def test_fused_matches_module(self, small_grid, mixed_paths, pooling,
                                  bidirectional):
        model = make_model(small_grid, pooling=pooling,
                           bidirectional=bidirectional)
        reference = model.score_paths(mixed_paths, backend="module")
        fused = model.score_paths(mixed_paths)
        np.testing.assert_allclose(fused, reference, atol=1e-6, rtol=0)

    @pytest.mark.parametrize("pooling", ["mean", "final", "attention"])
    def test_float64_kernel_is_roundoff_exact(self, small_grid, mixed_paths,
                                              pooling):
        model = make_model(small_grid, pooling=pooling)
        reference = model.score_paths(mixed_paths, backend="module")
        kernel = CompiledPathRank(model, dtype=np.float64)
        vertex_ids, mask = encode_paths(mixed_paths)
        np.testing.assert_allclose(kernel.forward(vertex_ids, mask),
                                   reference, atol=1e-12, rtol=0)

    def test_single_path_batches(self, small_grid, mixed_paths):
        """Per-path scores are independent of batch composition."""
        model = make_model(small_grid)
        batched = model.score_paths(mixed_paths)
        for path, score in zip(mixed_paths, batched):
            alone = model.score_paths([path])[0]
            assert alone == pytest.approx(score, abs=1e-6)

    def test_multitask_variant_compiles(self, small_grid, mixed_paths):
        model = build_pathrank("PR-M", num_vertices=small_grid.num_vertices,
                               embedding_dim=16, hidden_size=16, fc_hidden=8,
                               rng=5).eval()
        reference = model.score_paths(mixed_paths, backend="module")
        fused = model.score_paths(mixed_paths)
        np.testing.assert_allclose(fused, reference, atol=1e-6, rtol=0)

    def test_returns_float64(self, small_grid, mixed_paths):
        scores = make_model(small_grid).score_paths(mixed_paths)
        assert scores.dtype == np.float64
        assert np.all((scores > 0) & (scores < 1))

    def test_repeated_calls_reuse_workspace(self, small_grid, mixed_paths):
        """Scores must be stable across calls sharing scratch buffers."""
        model = make_model(small_grid)
        first = model.score_paths(mixed_paths).copy()
        shorter = mixed_paths[:3]
        model.score_paths(shorter)  # different shape reuses the buffers
        np.testing.assert_allclose(model.score_paths(mixed_paths), first,
                                   atol=0, rtol=0)


def distinct_prefixes(sequences) -> int:
    """Trie rows of a batch, counted the slow way: its distinct prefixes."""
    return len({tuple(seq[:end]) for seq in sequences
                for end in range(1, len(seq) + 1)})


@st.composite
def path_families(draw, network):
    """Candidate-set-shaped batches of ``network`` walks: each path after
    the first is a fresh walk, or a relative of an earlier one sharing a
    prefix, sharing a suffix, duplicating it or cut short — plus pairs
    where a path stops one vertex before the other continues into 0."""
    ids = network.vertex_ids()

    def walk(start, length, backward=False):
        vertices = [start]
        while len(vertices) < length:
            if backward:
                options = network.predecessors(vertices[-1])
            else:
                options = [e.target for e in network.out_edges(vertices[-1])]
            vertices.append(options[draw(st.integers(0, 7)) % len(options)])
        return vertices[::-1] if backward else vertices

    def fresh():
        return walk(draw(st.sampled_from(ids)), draw(st.integers(2, 24)))

    sequences = [fresh()]
    for _ in range(draw(st.integers(0, 7))):
        base = draw(st.sampled_from(sequences))
        cut = draw(st.integers(1, len(base) - 1))
        kind = draw(st.sampled_from(
            ["walk", "prefix", "suffix", "duplicate", "cut", "zero"]))
        if kind == "walk":
            sequences.append(fresh())
        elif kind == "prefix":
            tail = walk(base[cut - 1], draw(st.integers(2, 12)))
            sequences.append(base[:cut] + tail[1:])
        elif kind == "suffix":
            head = walk(base[cut], draw(st.integers(2, 12)), backward=True)
            sequences.append(head[:-1] + base[cut:])
        elif kind == "duplicate":
            sequences.append(list(base))
        elif kind == "cut":
            sequences.append(base[:max(cut, 2)])
        else:
            head = walk(0, draw(st.integers(3, 12)), backward=True)
            through = head + walk(0, draw(st.integers(1, 12)))[1:]
            sequences += [through, head[:-1]]
    return [Path(network, sequence) for sequence in sequences]


@lru_cache(maxsize=None)
def cached_model(num_vertices, pooling, bidirectional):
    return PathRank(num_vertices=num_vertices, embedding_dim=16,
                    hidden_size=16, fc_hidden=8, rng=3, pooling=pooling,
                    bidirectional=bidirectional).eval()


class TestTrieRecurrence:
    @pytest.mark.parametrize("pooling", ["mean", "final", "attention"])
    @pytest.mark.parametrize("bidirectional", [True, False])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_families_match_module(self, small_grid, pooling, bidirectional,
                                   data):
        paths = data.draw(path_families(small_grid))
        model = cached_model(small_grid.num_vertices, pooling, bidirectional)
        reference = model.score_paths(paths, backend="module")
        np.testing.assert_allclose(model.score_paths(paths),
                                   reference, atol=1e-6, rtol=0)
        kernel = CompiledPathRank(model, dtype=np.float64)
        np.testing.assert_allclose(kernel.score([p.vertices for p in paths]),
                                   reference, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("pooling", ["mean", "final", "attention"])
    def test_mask_with_a_hole_scores_the_compressed_sequence(self, small_grid,
                                                             pooling):
        model = make_model(small_grid, pooling=pooling)
        kernel = CompiledPathRank(model, dtype=np.float64)
        rng = np.random.default_rng(4)
        ids = rng.integers(0, small_grid.num_vertices, size=(7, 3))
        mask = np.ones((7, 3))
        mask[2, 0] = mask[3, 0] = 0.0      # a hole inside column 0
        mask[5:, 1] = 0.0                  # ordinary tail padding
        mask[0, 2] = 0.0                   # a late start
        compressed = [ids[mask[:, j] > 0.5, j] for j in range(3)]
        np.testing.assert_array_equal(kernel.forward(ids, mask),
                                      kernel.score(compressed))
        with no_grad():
            reference = model.forward(ids, mask).data
        np.testing.assert_allclose(kernel.forward(ids, mask), reference,
                                   atol=1e-12, rtol=0)

    def test_shared_prefix_rows_run_once(self, small_grid, random_walk_paths):
        """Eight paths behind one 10-vertex prefix: the forward trie runs
        those ten rows once, not eight times."""
        rng = np.random.default_rng(2)
        prefix = list(random_walk_paths(small_grid, [10], rng)[0].vertices)
        sequences = []
        for length in range(3, 11):
            tail = random_walk_paths(small_grid, [length], rng)[0].vertices
            while not small_grid.has_edge(prefix[-1], tail[0]):
                tail = random_walk_paths(small_grid, [length], rng)[0].vertices
            sequences.append(tuple(prefix) + tuple(tail))
        kernel = CompiledPathRank(make_model(small_grid, bidirectional=False))
        kernel.score(sequences)
        rows = kernel.profile_counters()["steps_total"]
        assert rows == distinct_prefixes(sequences)
        assert rows <= sum(map(len, sequences)) - 7 * 10


class TestKernelValidation:
    @pytest.mark.parametrize("where", ["negative", "past_the_end"])
    def test_out_of_range_ids_raise_on_both_lanes(self, small_grid, where):
        model = make_model(small_grid)
        n = small_grid.num_vertices
        bad = -1 if where == "negative" else n
        ids = np.array([[bad], [9]])
        mask = np.ones((2, 1))
        low, high = min(bad, 9), max(bad, 9)
        message = re.escape(
            f"embedding indices out of range [0, {n}): [{low}, {high}]")
        with no_grad(), pytest.raises(IndexError, match=message):
            model.forward(ids, mask)
        kernel = CompiledPathRank(model)
        with pytest.raises(IndexError, match=message):
            kernel.forward(ids, mask)
        with pytest.raises(IndexError, match=message):
            kernel.score([(bad, 9)])

    def test_rejects_bad_shapes(self, small_grid):
        kernel = CompiledPathRank(make_model(small_grid))
        with pytest.raises(ShapeError):
            kernel.forward(np.zeros(3, dtype=np.int32), np.zeros(3))
        with pytest.raises(ShapeError):
            kernel.forward(np.zeros((3, 2), dtype=np.int32), np.zeros((2, 3)))

    def test_rejects_non_float_dtype(self, small_grid):
        with pytest.raises(ConfigError):
            CompiledPathRank(make_model(small_grid), dtype=np.int32)

    def test_rejects_foreign_module(self):
        with pytest.raises(ConfigError):
            CompiledPathRank(Module())


class TestCompiledCache:
    def test_cache_hit_returns_same_object(self, small_grid):
        model = make_model(small_grid)
        assert compiled_for(model) is compiled_for(model)

    def test_load_state_dict_triggers_recompile(self, small_grid, mixed_paths):
        model = make_model(small_grid)
        stale = compiled_for(model)
        other = make_model(small_grid, rng=11)
        model.load_state_dict(other.state_dict())
        fresh = compiled_for(model)
        assert fresh is not stale
        assert fresh.weight_version > stale.weight_version
        reference = model.score_paths(mixed_paths, backend="module")
        np.testing.assert_allclose(model.score_paths(mixed_paths), reference,
                                   atol=1e-6, rtol=0)

    def test_manual_bump_invalidates(self, small_grid):
        model = make_model(small_grid)
        before = compiled_for(model)
        model.bump_weight_version()
        assert compiled_for(model) is not before

    def test_weight_version_counts_up(self, small_grid):
        model = make_model(small_grid)
        start = model.weight_version
        model.load_state_dict(model.state_dict())
        assert model.weight_version == start + 1


class TestBackendSeam:
    def test_default_resolves_to_fused(self, small_grid, mixed_paths):
        model = make_model(small_grid)
        np.testing.assert_array_equal(
            model.score_paths(mixed_paths),
            compiled_for(model).score([p.vertices for p in mixed_paths]))

    def test_unknown_backend_rejected(self, small_grid, mixed_paths):
        """Only ``backend="module"`` selects anything: every other name
        raises instead of silently scoring on the default kernel."""
        model = make_model(small_grid)
        for backend in ("fused", "auto", "cuda", ""):
            for paths in (mixed_paths, []):
                with pytest.raises(ConfigError, match="scoring backend"):
                    model.score_paths(paths, backend=backend)

    def test_score_query_returns_plain_floats(self, small_grid, mixed_paths):
        model = make_model(small_grid)

        class FakeQuery:
            def paths(self):
                return mixed_paths

        scores = model.score_query(FakeQuery())
        assert isinstance(scores, list)
        assert all(type(s) is float for s in scores)


class TestProfileContract:
    def test_counter_keys_match_the_observability_catalogue(self, small_grid,
                                                          mixed_paths):
        """The ``kernel.scoring.*`` row of docs/observability.md names
        exactly the keys ``profile_counters()`` returns."""
        catalogue = FilePath(__file__).resolve().parents[2] / "docs" \
            / "observability.md"
        row = next(line for line in catalogue.read_text().splitlines()
                   if line.startswith("| `kernel.scoring.*`"))
        documented = set(re.findall(r"`([^`]+)`", row.split("|")[3]))
        kernel = CompiledPathRank(make_model(small_grid))
        kernel.score([path.vertices for path in mixed_paths])
        kernel.score([mixed_paths[0].vertices])
        keys = {re.sub(r"^batch_le_\d+$", "batch_le_<N>", key)
                for key in kernel.profile_counters()}
        assert keys == documented
