"""Streaming trace ingestion: chunked readers and *mergeable* window stats.

The paper's pipeline consumes per-window utilisation and completion-count
series.  The one-shot scripts built those series in memory from the whole
trace; at production scale a trace is a multi-GB append-only file, so this
module rebuilds the front of the pipeline around two primitives:

* :func:`read_trace_chunk` / :class:`TraceChunkReader` — bounded-size numpy
  chunks from a binary trace file (or FIFO), resumable by event offset;
* :class:`WindowedTraceAccumulator` — an online, *mergeable* windowed
  estimator state: ingesting a trace chunk-by-chunk (any chunk partition,
  including chunk edges falling inside a window) and merging the per-chunk
  window statistics yields **exactly** the arrays the batch computation
  produces on the whole trace, so the downstream
  :func:`repro.core.dispersion.estimate_index_of_dispersion` /
  moment / percentile estimates are bit-identical while RAM stays
  O(windows), not O(events).

Exactness is by construction, not by accident: trace timestamps are integer
*ticks* (``ticks_per_second`` of them per second, microseconds by default)
and every per-window statistic is accumulated in ``int64`` — integer
addition is associative, so the chunk partition cannot influence the sums.
The conversion to float utilisations happens once, at snapshot time, as a
single division per window — a pure function of the (exact) integer state.

Trace format
------------
A trace is a flat sequence of little-endian ``int64`` pairs
``(start_ticks, duration_ticks)``: the server was busy with one request over
``[start, start + duration)`` and completed it at ``start + duration``.
Records must be non-overlapping (one server) but need not be sorted beyond
that.  16 bytes per event, no header — a file can be appended to while a
reader tails it, and a partial trailing record (a writer mid-append) is
simply not consumed yet.

Window semantics match :mod:`repro.monitoring.windows`: window ``k`` covers
``[k*W, (k+1)*W)`` ticks, half-open, and a completion exactly on a boundary
opens the *next* window.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.dispersion import DispersionEstimate, estimate_index_of_dispersion
from repro.core.percentiles import estimate_service_percentile

__all__ = [
    "RECORD_BYTES",
    "TraceChunkReader",
    "WindowSnapshot",
    "WindowedTraceAccumulator",
    "bin_trace_windows",
    "read_trace_chunk",
    "synthesize_service_trace",
    "write_trace_records",
]

#: Bytes per trace record: two little-endian int64 (start, duration).
RECORD_BYTES = 16

_RECORD_DTYPE = np.dtype("<i8")

#: Largest single read from a non-seekable trace source (bytes).
_FIFO_READ_BYTES = 1 << 20


# ----------------------------------------------------------------------
# Reading and writing
# ----------------------------------------------------------------------
def write_trace_records(path, starts, durations, append: bool = False) -> int:
    """Append ``(start, duration)`` int64 records to a trace file.

    Returns the number of records written.  Values must be non-negative
    integers (ticks); floats are rejected rather than silently truncated.
    """
    starts = np.asarray(starts)
    durations = np.asarray(durations)
    if starts.shape != durations.shape or starts.ndim != 1:
        raise ValueError("starts and durations must be 1-D arrays of equal length")
    if not np.issubdtype(starts.dtype, np.integer) or not np.issubdtype(
        durations.dtype, np.integer
    ):
        raise ValueError("trace records are integer ticks; quantize before writing")
    if starts.size and (int(starts.min()) < 0 or int(durations.min()) < 0):
        raise ValueError("trace ticks must be non-negative")
    records = np.empty((starts.size, 2), dtype=_RECORD_DTYPE)
    records[:, 0] = starts
    records[:, 1] = durations
    mode = "ab" if append else "wb"
    with open(path, mode) as stream:
        stream.write(records.tobytes())
    return int(starts.size)


def read_trace_chunk(
    path, offset_events: int, max_events: int
) -> tuple[np.ndarray, int]:
    """Read up to ``max_events`` whole records starting at ``offset_events``.

    Returns ``(records, next_offset)`` where ``records`` is an ``(n, 2)``
    int64 array (possibly empty — the trace has no new complete records yet)
    and ``next_offset = offset_events + n`` is the offset to resume from.
    Partial trailing records (a writer mid-append) are left unconsumed.
    Regular files are seeked to the offset; non-seekable sources (FIFOs) are
    read sequentially from wherever they are — they cannot be resumed by
    offset, which the service surfaces by refusing to checkpoint them.
    """
    if offset_events < 0:
        raise ValueError("offset_events must be non-negative")
    if max_events < 1:
        raise ValueError("max_events must be >= 1")
    # ``read(n)`` allocates n bytes up front, so never ask for more than the
    # source can hold: a regular file is clamped to its remaining bytes, a
    # FIFO is read in bounded pieces until EOF or the record budget.
    remaining = max_events * RECORD_BYTES
    with open(path, "rb") as stream:
        if stream.seekable():
            start = offset_events * RECORD_BYTES
            stream.seek(start)
            remaining = max(0, min(remaining, os.fstat(stream.fileno()).st_size - start))
            data = stream.read(remaining)
        else:
            pieces = []
            while remaining > 0:
                piece = stream.read(min(remaining, _FIFO_READ_BYTES))
                if not piece:
                    break
                pieces.append(piece)
                remaining -= len(piece)
            data = b"".join(pieces)
    usable = (len(data) // RECORD_BYTES) * RECORD_BYTES
    if usable == 0:
        return np.empty((0, 2), dtype=np.int64), offset_events
    records = np.frombuffer(data[:usable], dtype=_RECORD_DTYPE).reshape(-1, 2)
    return records.astype(np.int64, copy=False), offset_events + records.shape[0]


class TraceChunkReader:
    """Iterate a trace file in bounded-size chunks, tracking the offset.

    The reader is stateless between chunks apart from the integer event
    offset, which makes it trivially checkpointable: persist ``offset`` and
    construct a new reader with it after a restart.
    """

    def __init__(self, path, chunk_events: int = 65536, offset_events: int = 0) -> None:
        if chunk_events < 1:
            raise ValueError("chunk_events must be >= 1")
        self.path = os.fspath(path)
        self.chunk_events = int(chunk_events)
        self.offset = int(offset_events)

    def read_chunk(self) -> np.ndarray:
        """Consume and return the next chunk (empty when nothing new)."""
        records, self.offset = read_trace_chunk(
            self.path, self.offset, self.chunk_events
        )
        return records

    def __iter__(self):
        while True:
            chunk = self.read_chunk()
            if chunk.shape[0] == 0:
                return
            yield chunk


# ----------------------------------------------------------------------
# Exact windowed binning
# ----------------------------------------------------------------------
def bin_trace_windows(
    starts: np.ndarray, durations: np.ndarray, window_ticks: int, num_windows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact int64 per-window (busy ticks, completion counts) of one batch.

    Busy time is split across the windows the interval ``[start, end)``
    overlaps (integer tick arithmetic, exact); the completion is counted in
    window ``end // W`` (half-open convention: a completion exactly on a
    boundary opens the next window).  ``num_windows`` sizes the output; it
    must cover every touched window.
    """
    starts = np.asarray(starts, dtype=np.int64)
    durations = np.asarray(durations, dtype=np.int64)
    window = int(window_ticks)
    busy = np.zeros(num_windows, dtype=np.int64)
    completions = np.zeros(num_windows, dtype=np.int64)
    if starts.size == 0:
        return busy, completions
    ends = starts + durations
    np.add.at(completions, ends // window, 1)
    w_first = starts // window
    # Last window holding busy mass: the one containing tick end-1 (empty
    # intervals keep w_last == w_first and contribute zero below).
    w_last = np.maximum((ends - 1) // window, w_first)
    span = w_last - w_first
    single = span == 0
    np.add.at(busy, w_first[single], durations[single])
    multi = ~single
    if np.any(multi):
        np.add.at(busy, w_first[multi], (w_first[multi] + 1) * window - starts[multi])
        np.add.at(busy, w_last[multi], ends[multi] - w_last[multi] * window)
        mid = span >= 2
        if np.any(mid):
            counts = (span[mid] - 1).astype(np.intp)
            total = int(counts.sum())
            # Flatten the per-event ranges w_first+1 .. w_last-1 without a
            # Python loop: event index repeated per middle window, plus the
            # position within the event's own range.
            event_of = np.repeat(np.arange(counts.size), counts)
            within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
            indices = (w_first[mid] + 1)[event_of] + within
            np.add.at(busy, indices, window)
    return busy, completions


@dataclass(frozen=True)
class WindowSnapshot:
    """Float view of a (slice of a) window accumulation, estimator-ready.

    ``utilizations`` and ``completions`` are the exact integer state divided
    once by the window length — identical inputs produce bit-identical
    arrays, so every downstream estimate is a pure function of the integer
    state.
    """

    period: float
    utilizations: np.ndarray
    completions: np.ndarray
    busy_ticks: np.ndarray
    completion_counts: np.ndarray
    window_ticks: int
    ticks_per_second: int

    @property
    def num_windows(self) -> int:
        return int(self.utilizations.size)

    @property
    def total_busy_ticks(self) -> int:
        return int(self.busy_ticks.sum())

    @property
    def total_completions(self) -> int:
        return int(self.completion_counts.sum())

    def mean_service_time(self) -> float:
        """Utilisation-law mean service time over the snapshot, in seconds."""
        completed = self.total_completions
        if completed <= 0:
            raise ValueError("snapshot holds no completions; mean service time undefined")
        return (self.total_busy_ticks / completed) / self.ticks_per_second

    def estimate_dispersion(self, **kwargs) -> DispersionEstimate:
        """Run the Figure-2 estimator on the snapshot's window series."""
        return estimate_index_of_dispersion(
            self.utilizations, self.completions, self.period, **kwargs
        )

    def estimate_p95(self, quantile: float = 0.95) -> float:
        """Busy-period-scaling service-time percentile on the snapshot."""
        return estimate_service_percentile(
            self.utilizations, self.completions, self.period, quantile=quantile
        )


class WindowedTraceAccumulator:
    """Online windowed (busy, completions) statistics with exact merging.

    All state is integer: per-window busy ticks and completion counts from
    tick 0 onward, plus totals.  ``ingest`` folds in a chunk of trace
    records, ``merge`` folds in another accumulator, and because ``int64``
    addition is associative, *any* partition of a trace into chunks —
    ingested in any grouping, merged in any order — reaches exactly the
    state of one batch ingest.  ``state_dict``/``from_state`` round-trip the
    state through JSON-safe integers for bit-identical checkpoint/resume.
    """

    def __init__(self, window_ticks: int, ticks_per_second: int) -> None:
        window_ticks = int(window_ticks)
        ticks_per_second = int(ticks_per_second)
        if window_ticks < 1:
            raise ValueError("window_ticks must be >= 1")
        if ticks_per_second < 1:
            raise ValueError("ticks_per_second must be >= 1")
        self.window_ticks = window_ticks
        self.ticks_per_second = ticks_per_second
        self._busy = np.zeros(0, dtype=np.int64)
        self._completions = np.zeros(0, dtype=np.int64)
        self.events = 0
        self.max_end_ticks = 0

    # ------------------------------------------------------------------
    @property
    def period(self) -> float:
        """Window length in seconds."""
        return self.window_ticks / self.ticks_per_second

    @property
    def num_windows(self) -> int:
        """Windows touched so far (index 0 through the last with any mass)."""
        return int(self._busy.size)

    @property
    def complete_windows(self) -> int:
        """Windows fully covered by observed trace time.

        Window ``k`` is complete once an event ending at or beyond
        ``(k+1)*W`` has been seen; the trailing window is still filling and
        is excluded from estimation snapshots by the service.
        """
        return int(self.max_end_ticks // self.window_ticks)

    @property
    def total_busy_ticks(self) -> int:
        return int(self._busy.sum())

    @property
    def total_completions(self) -> int:
        return int(self._completions.sum())

    # ------------------------------------------------------------------
    def _grow(self, num_windows: int) -> None:
        if num_windows > self._busy.size:
            pad = num_windows - self._busy.size
            self._busy = np.concatenate([self._busy, np.zeros(pad, dtype=np.int64)])
            self._completions = np.concatenate(
                [self._completions, np.zeros(pad, dtype=np.int64)]
            )

    def ingest(self, records: np.ndarray) -> int:
        """Fold one chunk of ``(start, duration)`` records into the state.

        Returns the number of events ingested.  Records with negative ticks
        are rejected; overlap between records is only detectable (and
        reported) at snapshot time, where a window's busy time exceeding the
        window length proves two records overlapped.
        """
        records = np.asarray(records)
        if records.size == 0:
            return 0
        if records.ndim != 2 or records.shape[1] != 2:
            raise ValueError("trace chunk must be an (n, 2) array of (start, duration)")
        if not np.issubdtype(records.dtype, np.integer):
            raise ValueError("trace chunk must hold integer ticks")
        starts = records[:, 0].astype(np.int64, copy=False)
        durations = records[:, 1].astype(np.int64, copy=False)
        if int(starts.min()) < 0 or int(durations.min()) < 0:
            raise ValueError("trace ticks must be non-negative")
        ends = starts + durations
        max_end = int(ends.max())
        needed = int(max(max_end // self.window_ticks, (max_end - 1) // self.window_ticks)) + 1
        self._grow(needed)
        busy, completions = bin_trace_windows(
            starts, durations, self.window_ticks, needed
        )
        self._busy[:needed] += busy
        self._completions[:needed] += completions
        self.events += int(starts.size)
        self.max_end_ticks = max(self.max_end_ticks, max_end)
        return int(starts.size)

    def merge(self, other: "WindowedTraceAccumulator") -> None:
        """Fold another accumulator into this one (exact, order-free)."""
        if not isinstance(other, WindowedTraceAccumulator):
            raise TypeError("can only merge another WindowedTraceAccumulator")
        if (
            other.window_ticks != self.window_ticks
            or other.ticks_per_second != self.ticks_per_second
        ):
            raise ValueError(
                "cannot merge accumulators with different window geometry: "
                f"{self.window_ticks}t/{self.ticks_per_second}Hz vs "
                f"{other.window_ticks}t/{other.ticks_per_second}Hz"
            )
        self._grow(other._busy.size)
        self._busy[: other._busy.size] += other._busy
        self._completions[: other._completions.size] += other._completions
        self.events += other.events
        self.max_end_ticks = max(self.max_end_ticks, other.max_end_ticks)

    # ------------------------------------------------------------------
    def snapshot(
        self, start_window: int = 0, end_window: int | None = None
    ) -> WindowSnapshot:
        """Float estimator view of windows ``[start_window, end_window)``.

        Raises :class:`ValueError` when a window's busy time exceeds the
        window length — proof that trace records overlapped, which would
        fabricate utilisations above 1 and poison the dispersion estimate.
        """
        if end_window is None:
            end_window = self.num_windows
        if start_window < 0 or end_window < start_window:
            raise ValueError("invalid window slice")
        self._grow(end_window)
        busy = self._busy[start_window:end_window].copy()
        completions = self._completions[start_window:end_window].copy()
        overfull = busy > self.window_ticks
        if np.any(overfull):
            worst = int(np.argmax(busy))
            raise ValueError(
                f"window {start_window + worst} holds {int(busy[worst])} busy "
                f"ticks > window length {self.window_ticks}: trace records "
                "overlap (not a single-server trace?)"
            )
        return WindowSnapshot(
            period=self.period,
            utilizations=busy / self.window_ticks,
            completions=completions.astype(float),
            busy_ticks=busy,
            completion_counts=completions,
            window_ticks=self.window_ticks,
            ticks_per_second=self.ticks_per_second,
        )

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe exact state (all integers — resumes bit-identically)."""
        return {
            "window_ticks": self.window_ticks,
            "ticks_per_second": self.ticks_per_second,
            "events": self.events,
            "max_end_ticks": self.max_end_ticks,
            "busy": [int(v) for v in self._busy],
            "completions": [int(v) for v in self._completions],
        }

    @classmethod
    def from_state(cls, state: dict) -> "WindowedTraceAccumulator":
        accumulator = cls(state["window_ticks"], state["ticks_per_second"])
        accumulator._busy = np.asarray(state["busy"], dtype=np.int64)
        accumulator._completions = np.asarray(state["completions"], dtype=np.int64)
        if accumulator._busy.shape != accumulator._completions.shape:
            raise ValueError("corrupt accumulator state: busy/completions differ in length")
        accumulator.events = int(state["events"])
        accumulator.max_end_ticks = int(state["max_end_ticks"])
        return accumulator


# ----------------------------------------------------------------------
# Synthetic traces
# ----------------------------------------------------------------------
def synthesize_service_trace(
    path,
    events: int,
    mean_service: float,
    scv: float = 4.0,
    utilization: float = 0.5,
    phase_persistence: float = 0.98,
    ticks_per_second: int = 1_000_000,
    seed: int = 0,
    chunk_events: int = 262_144,
    append: bool = False,
) -> int:
    """Write a synthetic bursty single-server trace, chunk by chunk.

    Service times follow a two-phase Markov-modulated hyper-exponential
    (balanced-means split for the requested ``scv``; ``phase_persistence``
    makes slow/fast periods sticky, which lifts the index of dispersion
    above the SCV like the paper's workloads).  Arrivals are Poisson at
    ``utilization / mean_service`` and the single server serves FCFS, so
    busy intervals never overlap.  Generation is chunked: RAM stays
    O(chunk), letting CI synthesize tens of millions of events.

    Returns the end tick of the last event (the trace horizon).
    """
    if events < 1:
        raise ValueError("events must be >= 1")
    if mean_service <= 0 or not 0 < utilization < 1:
        raise ValueError("mean_service must be positive and utilization in (0, 1)")
    if scv < 1.0:
        raise ValueError("scv must be >= 1 for the hyper-exponential family")
    if not 0.0 <= phase_persistence < 1.0:
        raise ValueError("phase_persistence must be in [0, 1)")
    rng = np.random.default_rng(seed)
    # Balanced-means two-phase hyper-exponential: p1/mu1 == p2/mu2, SCV set
    # by the branch asymmetry.
    p1 = 0.5 * (1.0 + np.sqrt((scv - 1.0) / (scv + 1.0)))
    mu1 = 2.0 * p1 / mean_service
    mu2 = 2.0 * (1.0 - p1) / mean_service
    arrival_rate = utilization / mean_service
    carry_arrival = 0.0
    carry_prev_limit = np.int64(0)  # max over previous events of (A_j - P_j)
    carry_prefix = np.int64(0)  # P = cumulative service ticks so far
    carry_phase = 0
    total_written = 0
    last_end = 0
    if not append:
        open(path, "wb").close()
    while total_written < events:
        n = min(chunk_events, events - total_written)
        arrivals = carry_arrival + np.cumsum(rng.exponential(1.0 / arrival_rate, size=n))
        carry_arrival = float(arrivals[-1])
        # Sticky modulation that preserves the marginal branch probabilities:
        # between switch points the phase holds; at a switch a fresh phase is
        # drawn with the hyper-exponential's own (p1, 1-p1) — so the time
        # spent per phase matches the mixture and the mean stays exact, while
        # stickiness correlates consecutive services into bursts.
        blocks = np.cumsum(rng.random(n) > phase_persistence)
        candidates = (rng.random(int(blocks[-1]) + 1) > p1).astype(np.int64)
        candidates[0] = carry_phase
        phases = candidates[blocks]
        carry_phase = int(phases[-1])
        rates = np.where(phases == 0, mu1, mu2)
        services = rng.exponential(1.0, size=n) / rates
        arrival_ticks = np.floor(arrivals * ticks_per_second).astype(np.int64)
        service_ticks = np.maximum(
            np.rint(services * ticks_per_second).astype(np.int64), 1
        )
        # FCFS packing (Lindley in ticks): start_i = P_i + max_{j<=i}(A_j - P_j)
        # where P is the exclusive prefix sum of service ticks.
        prefix = carry_prefix + np.concatenate(
            [[np.int64(0)], np.cumsum(service_ticks)[:-1]]
        )
        limits = np.maximum(
            np.maximum.accumulate(arrival_ticks - prefix), carry_prev_limit
        )
        starts = prefix + limits
        write_trace_records(path, starts, service_ticks, append=True)
        carry_prefix = np.int64(prefix[-1] + service_ticks[-1])
        carry_prev_limit = np.int64(limits[-1])
        last_end = int(starts[-1] + service_ticks[-1])
        total_written += n
    return last_end
