"""Fused inference kernel: parity, staleness, and the backend seam."""

import numpy as np
import pytest

from repro.core import PathRank, build_pathrank, encode_paths
from repro.errors import ConfigError, ShapeError
from repro.nn import Module
from repro.nn.fused import (
    CompiledPathRank,
    compiled_for,
    get_scoring_backend,
    resolve_scoring_backend,
    set_scoring_backend,
    use_scoring_backend,
)


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
        fused = model.score_paths(mixed_paths, backend="fused")
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
        fused = model.score_paths(mixed_paths, backend="fused")
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


class TestKernelValidation:
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
    def test_default_resolves_to_fused(self):
        assert get_scoring_backend() == "auto"
        assert resolve_scoring_backend() == "fused"
        assert resolve_scoring_backend("module") == "module"

    def test_use_scoring_backend_restores(self):
        with use_scoring_backend("module"):
            assert resolve_scoring_backend() == "module"
        assert resolve_scoring_backend() == "fused"

    def test_global_switch_controls_score_paths(self, small_grid, mixed_paths):
        model = make_model(small_grid)
        fused = model.score_paths(mixed_paths)
        with use_scoring_backend("module"):
            reference = model.score_paths(mixed_paths)
        np.testing.assert_allclose(fused, reference, atol=1e-6, rtol=0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            set_scoring_backend("cuda")
        with pytest.raises(ConfigError):
            resolve_scoring_backend("banana")

    def test_score_query_returns_plain_floats(self, small_grid, mixed_paths):
        model = make_model(small_grid)

        class FakeQuery:
            def paths(self):
                return mixed_paths

        scores = model.score_query(FakeQuery())
        assert isinstance(scores, list)
        assert all(type(s) is float for s in scores)
