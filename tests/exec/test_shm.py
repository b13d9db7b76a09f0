"""Shared-memory segments: layout, refcounts, staleness, lifecycle."""

import numpy as np
import pytest

from repro.errors import ExecError, StaleSegmentError
from repro.exec.shm import (
    SEGMENT_PREFIX,
    attach_segment,
    attached_refs,
    create_segment,
    list_repro_segments,
)


def _arrays() -> dict[str, np.ndarray]:
    return {
        "indptr": np.arange(7, dtype=np.int64),
        "weights": np.linspace(0.0, 1.0, 12, dtype=np.float64),
        "table": np.arange(6, dtype=np.float32).reshape(2, 3),
    }


# ----------------------------------------------------------------------
# create / attach round trip
# ----------------------------------------------------------------------
def test_create_attach_roundtrip_preserves_arrays_and_meta():
    arrays = _arrays()
    segment = create_segment("csr:test-roundtrip", arrays,
                             meta={"num_vertices": 6})
    try:
        assert segment.name.startswith(SEGMENT_PREFIX)
        attached = attach_segment(segment.name,
                                  expect_key="csr:test-roundtrip")
        try:
            assert attached.key == "csr:test-roundtrip"
            assert attached.meta == {"num_vertices": 6}
            assert set(attached.arrays) == set(arrays)
            for name, original in arrays.items():
                view = attached.arrays[name]
                assert view.dtype == original.dtype
                assert view.shape == original.shape
                np.testing.assert_array_equal(view, original)
        finally:
            attached.detach()
    finally:
        segment.close()


def test_attached_views_are_read_only():
    segment = create_segment("csr:test-readonly", _arrays())
    try:
        attached = attach_segment(segment.name)
        try:
            with pytest.raises(ValueError):
                attached.arrays["weights"][0] = 42.0
        finally:
            attached.detach()
    finally:
        segment.close()


def test_attach_refcounts_per_process():
    segment = create_segment("csr:test-refs", _arrays())
    try:
        assert attached_refs(segment.name) == 0
        first = attach_segment(segment.name)
        second = attach_segment(segment.name)
        assert attached_refs(segment.name) == 2
        # The two handles share one per-process mapping.
        assert first.arrays["indptr"].base is not None
        first.detach()
        first.detach()  # idempotent per handle: still one reference out
        assert attached_refs(segment.name) == 1
        second.detach()
        assert attached_refs(segment.name) == 0
    finally:
        segment.close()


def test_attach_missing_segment_raises():
    with pytest.raises(ExecError, match="does not exist"):
        attach_segment(f"{SEGMENT_PREFIX}ffffffff-0000000000")


# ----------------------------------------------------------------------
# staleness guard
# ----------------------------------------------------------------------
def test_stale_key_rejected_without_leaking_a_reference():
    segment = create_segment("weights:v1:1:float32", _arrays())
    try:
        with pytest.raises(StaleSegmentError, match="stale hot-state"):
            attach_segment(segment.name, expect_key="weights:v2:7:float32")
        # The rejected attach must not pin the mapping.
        assert attached_refs(segment.name) == 0
    finally:
        segment.close()


# ----------------------------------------------------------------------
# owner lifecycle
# ----------------------------------------------------------------------
def test_owner_close_unlinks_from_dev_shm():
    segment = create_segment("csr:test-unlink", _arrays())
    assert segment.name in list_repro_segments()
    segment.close()
    assert segment.name not in list_repro_segments()
    assert segment.closed
    segment.close()  # idempotent
    with pytest.raises(ExecError):
        attach_segment(segment.name)
