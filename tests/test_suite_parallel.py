"""Edge-case and property tests for the pthread-analog chunking helpers."""

import pytest

from repro.suite.parallel import chunk_ranges

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - dev extra not installed
    HAVE_HYPOTHESIS = False


class TestChunkRangesEdges:
    def test_zero_items_yields_no_chunks(self):
        assert chunk_ranges(0, 1) == []
        assert chunk_ranges(0, 8) == []

    def test_workers_exceeding_items_one_item_per_chunk(self):
        ranges = chunk_ranges(3, 10)
        assert len(ranges) == 3
        assert [len(r) for r in ranges] == [1, 1, 1]

    def test_single_worker_single_chunk(self):
        assert chunk_ranges(5, 1) == [range(0, 5)]

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            chunk_ranges(5, 0)
        with pytest.raises(ValueError):
            chunk_ranges(5, -2)

    def test_exhaustive_small_partitions(self):
        """Every (n_items, workers) pair up to 12x12 partitions exactly."""
        for n_items in range(13):
            for workers in range(1, 13):
                ranges = chunk_ranges(n_items, workers)
                flattened = [i for chunk in ranges for i in chunk]
                assert flattened == list(range(n_items))
                assert len(ranges) <= workers
                if ranges:
                    sizes = [len(chunk) for chunk in ranges]
                    assert max(sizes) - min(sizes) <= 1


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestChunkRangesProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        n_items=st.integers(min_value=0, max_value=5000),
        workers=st.integers(min_value=1, max_value=128),
    )
    def test_partition_is_exact(self, n_items, workers):
        """Chunks partition range(n_items): contiguous, disjoint, complete."""
        ranges = chunk_ranges(n_items, workers)
        assert sum(len(chunk) for chunk in ranges) == n_items
        position = 0
        for chunk in ranges:
            assert chunk.start == position, "chunks must be contiguous"
            assert len(chunk) > 0, "no empty chunks"
            position = chunk.stop
        assert position == n_items
        assert len(ranges) <= workers

    @settings(max_examples=100, deadline=None)
    @given(
        n_items=st.integers(min_value=0, max_value=500),
        workers=st.integers(min_value=1, max_value=16),
    )
    def test_balanced_within_one(self, n_items, workers):
        sizes = [len(chunk) for chunk in chunk_ranges(n_items, workers)]
        if sizes:
            assert max(sizes) - min(sizes) <= 1
