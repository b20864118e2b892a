"""Streaming ingestion: chunked readers and exactly-mergeable window stats."""

import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.monitoring.windows import bin_intervals, bin_points
from repro.service import (
    RECORD_BYTES,
    TraceChunkReader,
    WindowedTraceAccumulator,
    read_trace_chunk,
    synthesize_service_trace,
    write_trace_records,
)


def _records(starts, durations):
    return np.column_stack(
        [np.asarray(starts, dtype=np.int64), np.asarray(durations, dtype=np.int64)]
    )


# ----------------------------------------------------------------------
# Binning semantics
# ----------------------------------------------------------------------
def _bin_trace(starts, durations, window_ticks, num_windows):
    """(busy ticks, completions) per window, as the accumulator bins a chunk."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = starts + np.asarray(durations, dtype=np.int64)
    return (
        bin_intervals(starts, ends, window_ticks, num_windows),
        bin_points(ends, window_ticks, num_windows),
    )


class TestBinTraceWindows:
    def test_single_window_event(self):
        busy, completions = _bin_trace([3], [4], window_ticks=10, num_windows=2)
        assert busy.tolist() == [4, 0]
        assert completions.tolist() == [1, 0]  # completes at tick 7 -> window 0

    def test_completion_on_boundary_opens_next_window(self):
        # End exactly at tick 10: busy stays in window 0, completion counts
        # in window 1 (half-open convention of repro.monitoring.windows).
        busy, completions = _bin_trace([6], [4], window_ticks=10, num_windows=2)
        assert busy.tolist() == [4, 0]
        assert completions.tolist() == [0, 1]

    def test_spanning_event_splits_exactly(self):
        # [7, 35) over W=10: 3 ticks in w0, 10 in w1, 10 in w2, 5 in w3.
        busy, completions = _bin_trace([7], [28], window_ticks=10, num_windows=4)
        assert busy.tolist() == [3, 10, 10, 5]
        assert completions.tolist() == [0, 0, 0, 1]
        assert busy.sum() == 28
        assert busy.dtype == completions.dtype == np.int64

    def test_zero_duration_event(self):
        busy, completions = _bin_trace([10], [0], window_ticks=10, num_windows=2)
        assert busy.tolist() == [0, 0]
        assert completions.tolist() == [0, 1]


# ----------------------------------------------------------------------
# The load-bearing property: ANY chunk partition merges to the batch state
# ----------------------------------------------------------------------
@st.composite
def trace_and_partition(draw):
    """A non-overlapping integer trace plus an arbitrary chunk partition."""
    window = draw(st.integers(min_value=1, max_value=37))
    n = draw(st.integers(min_value=1, max_value=60))
    gaps = draw(
        st.lists(st.integers(0, 3 * window), min_size=n, max_size=n)
    )
    durations = draw(
        st.lists(st.integers(0, 4 * window), min_size=n, max_size=n)
    )
    starts = []
    clock = draw(st.integers(0, 2 * window))
    for gap, duration in zip(gaps, durations):
        clock += gap
        starts.append(clock)
        clock += duration
    cuts = draw(
        st.lists(st.integers(1, n), unique=True, max_size=min(n, 10)).map(sorted)
    )
    return window, starts, durations, cuts


@given(trace_and_partition())
# Chunk edges exactly on window boundaries: events of width W starting at
# multiples of W, cut between every pair.
@example((5, [0, 5, 10, 15], [5, 5, 5, 5], [1, 2, 3]))
@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_chunked_merge_exactly_equals_batch(case):
    window, starts, durations, cuts = case
    records = _records(starts, durations)
    batch = WindowedTraceAccumulator(window, 1000)
    batch.ingest(records)

    merged = WindowedTraceAccumulator(window, 1000)
    bounds = [0, *cuts, len(starts)]
    for lo, hi in zip(bounds, bounds[1:]):
        if lo >= hi:
            continue
        delta = WindowedTraceAccumulator(window, 1000)
        delta.ingest(records[lo:hi])
        merged.merge(delta)

    assert merged.state_dict() == batch.state_dict()
    snap_a, snap_b = batch.snapshot(), merged.snapshot()
    # Float views are pure functions of the integer state: bit-identical.
    assert np.array_equal(snap_a.utilizations, snap_b.utilizations)
    assert np.array_equal(snap_a.completions, snap_b.completions)
    # Conservation: every busy tick and completion lands in some window.
    assert batch.total_busy_ticks == int(np.sum(durations))
    assert batch.total_completions == len(starts)


def test_direct_chunked_ingest_equals_batch(tmp_path):
    """Ingesting chunks into ONE accumulator (no deltas) is also exact."""
    trace = tmp_path / "t.trace"
    synthesize_service_trace(
        trace, events=5000, mean_service=0.02, utilization=0.5, seed=3
    )
    batch = WindowedTraceAccumulator(1_000_000, 1_000_000)
    records, _ = read_trace_chunk(trace, 0, 10**9)
    batch.ingest(records)
    chunked = WindowedTraceAccumulator(1_000_000, 1_000_000)
    for chunk in TraceChunkReader(trace, chunk_events=377):
        chunked.ingest(chunk)
    assert chunked.state_dict() == batch.state_dict()


# ----------------------------------------------------------------------
# Reader / writer
# ----------------------------------------------------------------------
class TestReader:
    def test_offset_resume(self, tmp_path):
        trace = tmp_path / "t.trace"
        write_trace_records(trace, np.arange(10, dtype=np.int64) * 5, np.full(10, 3, dtype=np.int64))
        first, offset = read_trace_chunk(trace, 0, 4)
        assert first.shape == (4, 2) and offset == 4
        rest, offset = read_trace_chunk(trace, 4, 100)
        assert rest.shape == (6, 2) and offset == 10
        again, offset = read_trace_chunk(trace, 10, 100)
        assert again.shape == (0, 2) and offset == 10
        # the budget bounds the read, it does not size it (10**12 records
        # would be 16 TB), and an offset past the end reads nothing
        beyond, offset = read_trace_chunk(trace, 50, 10**12)
        assert beyond.shape == (0, 2) and offset == 50

    def test_partial_trailing_record_not_consumed(self, tmp_path):
        trace = tmp_path / "t.trace"
        write_trace_records(trace, [0, 10], [2, 2])
        with open(trace, "ab") as stream:
            stream.write(b"\x01" * (RECORD_BYTES - 3))  # writer mid-append
        records, offset = read_trace_chunk(trace, 0, 100)
        assert records.shape == (2, 2) and offset == 2

    def test_append_and_tail(self, tmp_path):
        trace = tmp_path / "t.trace"
        write_trace_records(trace, [0], [2])
        reader = TraceChunkReader(trace, chunk_events=10)
        assert reader.read_chunk().shape == (1, 2)
        assert reader.read_chunk().shape == (0, 2)
        write_trace_records(trace, [5], [2], append=True)
        assert reader.read_chunk().tolist() == [[5, 2]]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs POSIX FIFOs")
    @pytest.mark.parametrize("max_events, expected", [(10**12, 5), (3, 3)])
    def test_fifo_reads_in_bounded_pieces(self, tmp_path, max_events, expected):
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)
        source = tmp_path / "t.trace"
        write_trace_records(source, np.arange(5, dtype=np.int64) * 10, np.full(5, 2, dtype=np.int64))

        def feed():
            with open(fifo, "wb") as stream:
                stream.write(source.read_bytes())

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        records, offset = read_trace_chunk(fifo, 0, max_events)
        writer.join(timeout=10.0)
        assert not writer.is_alive()
        assert records.tolist() == [[10 * i, 2] for i in range(expected)]
        assert offset == expected

    def test_rejects_float_records(self, tmp_path):
        with pytest.raises(ValueError, match="quantize"):
            write_trace_records(tmp_path / "t", np.array([0.5]), np.array([1.0]))


# ----------------------------------------------------------------------
# Accumulator contracts
# ----------------------------------------------------------------------
class TestAccumulator:
    def test_state_dict_round_trip_bit_identical(self):
        acc = WindowedTraceAccumulator(10, 1000)
        acc.ingest(_records([0, 12, 25], [4, 9, 30]))
        clone = WindowedTraceAccumulator.from_state(acc.state_dict())
        assert clone.state_dict() == acc.state_dict()
        assert np.array_equal(clone.snapshot().utilizations, acc.snapshot().utilizations)

    def test_complete_windows_excludes_filling_tail(self):
        acc = WindowedTraceAccumulator(10, 1000)
        acc.ingest(_records([0], [25]))  # ends mid-window 2
        assert acc.complete_windows == 2
        acc.ingest(_records([25], [5]))  # ends exactly on the w3 boundary
        assert acc.complete_windows == 3

    def test_overlapping_records_detected_at_snapshot(self):
        acc = WindowedTraceAccumulator(10, 1000)
        acc.ingest(_records([0, 3], [8, 8]))  # overlap: 16 busy ticks in w0+
        with pytest.raises(ValueError, match="overlap"):
            acc.snapshot()

    def test_merge_rejects_mismatched_geometry(self):
        left = WindowedTraceAccumulator(10, 1000)
        with pytest.raises(ValueError, match="geometry"):
            left.merge(WindowedTraceAccumulator(20, 1000))

    def test_rejects_negative_ticks(self):
        acc = WindowedTraceAccumulator(10, 1000)
        with pytest.raises(ValueError, match="non-negative"):
            acc.ingest(_records([-1], [5]))

    def test_snapshot_slice_feeds_estimators(self, tmp_path):
        trace = tmp_path / "t.trace"
        synthesize_service_trace(
            trace, events=20000, mean_service=0.02, utilization=0.5, seed=7
        )
        acc = WindowedTraceAccumulator(1_000_000, 1_000_000)
        records, _ = read_trace_chunk(trace, 0, 10**9)
        acc.ingest(records)
        snap = acc.snapshot(0, acc.complete_windows)
        assert 0.2 < float(snap.utilizations.mean()) < 0.8
        assert snap.mean_service_time() == pytest.approx(0.02, rel=0.5)
        estimate = snap.estimate_dispersion(min_windows=40)
        assert estimate.index_of_dispersion > 1.0  # bursty by construction
        assert snap.estimate_p95() > 0.0
