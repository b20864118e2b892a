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


@st.composite
def shuffled_merge_with_discard(draw):
    """Chunks in a shuffled merge order, with a discard after the first few.

    The discard line lies at or below every window of the chunks merged
    after it, and below the end of the windows merged before it, so the
    accumulator never empties and no later merge reaches below the line.
    """
    window, starts, durations, cuts = draw(trace_and_partition())
    bounds = [0, *cuts, len(starts)]
    chunks = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    chunks = draw(st.permutations(chunks))
    merged_first = draw(st.integers(0, len(chunks)))

    def extent(part):
        lo = min(starts[i] for a, b in part for i in range(a, b)) // window
        hi = max(starts[i] + durations[i] for a, b in part for i in range(a, b)) // window
        return lo, hi + 1

    caps = []
    if merged_first:
        caps.append(extent(chunks[:merged_first])[1] - 1)
    if merged_first < len(chunks):
        caps.append(extent(chunks[merged_first:])[0])
    line = draw(st.integers(0, min(caps)))
    return window, starts, durations, chunks, merged_first, line


@given(shuffled_merge_with_discard())
# Chunk edges exactly on window boundaries: events of width W starting at
# multiples of W, cut between every pair.
@example((5, [0, 5, 10, 15], [5, 5, 5, 5], [(0, 1), (1, 2), (2, 3), (3, 4)], 4, 0))
# A later-merged chunk starts below the accumulator's base: the chunks
# arrive last-first, so every merge extends the arrays down.
@example((5, [0, 20, 40], [3, 3, 3], [(2, 3), (1, 2), (0, 1)], 3, 0))
# Discard to the last stored window, then merge a chunk above it.
@example((5, [0, 20, 40], [3, 3, 3], [(0, 1), (1, 2), (2, 3)], 2, 4))
@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow], deadline=None)
def test_chunked_merge_exactly_equals_batch(case):
    window, starts, durations, chunks, merged_first, line = case
    records = _records(starts, durations)
    batch = WindowedTraceAccumulator(window, 1000)
    batch.ingest(records)
    # Conservation: every busy tick and completion lands in some window.
    assert batch.total_busy_ticks == int(np.sum(durations))
    assert batch.total_completions == len(starts)
    batch.discard_before(line)

    merged = WindowedTraceAccumulator(window, 1000)
    for position, (lo, hi) in enumerate(chunks):
        if position == merged_first:
            merged.discard_before(line)
        delta = WindowedTraceAccumulator(window, 1000)
        delta.ingest(records[lo:hi])
        assert delta.base == min(starts[lo:hi]) // window
        merged.merge(delta)
    if merged_first == len(chunks):
        merged.discard_before(line)

    assert merged.state_dict() == batch.state_dict()
    assert batch.base == max(line, min(starts) // window)
    snap_a, snap_b = batch.snapshot(), merged.snapshot()
    # Float views are pure functions of the integer state: bit-identical.
    assert np.array_equal(snap_a.utilizations, snap_b.utilizations)
    assert np.array_equal(snap_a.completions, snap_b.completions)


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
        # A state written before ``base`` existed holds windows from 0.
        legacy = acc.state_dict()
        assert legacy.pop("base") == 0
        assert WindowedTraceAccumulator.from_state(legacy).state_dict() == acc.state_dict()

    def test_fresh_accumulator_starts_at_first_record_window(self):
        acc = WindowedTraceAccumulator(10, 1000)
        acc.ingest(_records([47], [20]))  # windows 4..6
        assert (acc.base, acc.num_windows) == (4, 3)
        acc.ingest(_records([5], [3]))  # extends down to window 0
        assert (acc.base, acc.num_windows) == (0, 7)
        assert acc.snapshot().busy_ticks.tolist() == [3, 0, 0, 0, 3, 10, 7]

    def test_snapshot_is_a_pure_read(self):
        acc = WindowedTraceAccumulator(10, 1000)
        acc.ingest(_records([0, 12, 25], [4, 9, 30]))
        before = acc.state_dict()
        snap = acc.snapshot(3, 9)  # past the last stored window: zero-padded
        assert snap.busy_ticks.tolist() == [10, 10, 5, 0, 0, 0]
        assert snap.completion_counts.tolist() == [0, 0, 1, 0, 0, 0]
        assert acc.state_dict() == before
        acc.discard_before(2)
        assert acc.base == 2 and acc.num_windows == 4
        assert acc.snapshot(2, 4).busy_ticks.tolist() == [6, 10]
        with pytest.raises(ValueError, match="base 2"):
            acc.snapshot(1, 4)
        acc.discard_before(1)  # below base: a no-op
        assert acc.base == 2

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
