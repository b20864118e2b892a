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
  O(windows), not O(events) — and, with ``discard_before``, O(windows a
  long-lived consumer still reads), not O(windows since tick 0).

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

Binning is not done here: the accumulator bins each chunk with
:func:`repro.monitoring.windows.bin_intervals` (busy ticks) and
:func:`~repro.monitoring.windows.bin_points` (completions), the repo's one
window binner, which keeps the ``int64`` dtype of the ticks.  Window ``k``
covers ``[k*W, (k+1)*W)`` ticks, half-open, and a completion exactly on a
boundary opens the *next* window.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.core.dispersion import DispersionEstimate, estimate_index_of_dispersion
from repro.core.percentiles import estimate_service_percentile
from repro.monitoring.windows import bin_intervals, bin_points

__all__ = [
    "RECORD_BYTES",
    "TraceChunkReader",
    "WindowSnapshot",
    "WindowedTraceAccumulator",
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

    All state is integer: busy ticks and completion counts of the windows
    ``base`` onward, plus lifetime totals.  A fresh accumulator starts at its
    first record's window; ``ingest`` folds in a chunk of trace records,
    ``merge`` another accumulator, both extending the windows up or down as
    needed, and because ``int64`` addition is associative, *any* partition
    of a trace into chunks — ingested in any grouping, merged in any order —
    reaches exactly the state of one batch ingest.  ``state_dict``/
    ``from_state`` round-trip the state through JSON-safe integers for
    bit-identical checkpoint/resume.
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
        self.base = 0
        # Row 0: busy ticks, row 1: completions, of windows base, base + 1, ...
        self._windows = np.zeros((2, 0), dtype=np.int64)
        self.events = 0
        self.max_end_ticks = 0

    # ------------------------------------------------------------------
    @property
    def period(self) -> float:
        """Window length in seconds."""
        return self.window_ticks / self.ticks_per_second

    @property
    def num_windows(self) -> int:
        """Windows stored (``base`` through the last with any mass)."""
        return int(self._windows.shape[1])

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
        """Busy ticks of the stored windows."""
        return int(self._windows[0].sum())

    @property
    def total_completions(self) -> int:
        """Completions of the stored windows."""
        return int(self._windows[1].sum())

    # ------------------------------------------------------------------
    def _cover(self, lo: int, hi: int) -> None:
        """Extend the stored windows to cover ``[lo, hi)``."""
        size = self.num_windows
        if size:
            lo, hi = min(lo, self.base), max(hi, self.base + size)
        if (lo, hi) != (self.base, self.base + size):
            windows = np.zeros((2, hi - lo), dtype=np.int64)
            windows[:, self.base - lo : self.base - lo + size] = self._windows
            self.base, self._windows = lo, windows

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
        first_start = int(starts.min())
        if first_start < 0 or int(durations.min()) < 0:
            raise ValueError("trace ticks must be non-negative")
        ends = starts + durations
        max_end = int(ends.max())
        # A record touches the windows of its start through its completion.
        self._cover(first_start // self.window_ticks, max_end // self.window_ticks + 1)
        # Bin relative to ``base`` so window ``base`` is index 0 of the arrays.
        shift = self.base * self.window_ticks
        starts, ends = starts - shift, ends - shift
        size = self.num_windows
        bin_intervals(starts, ends, self.window_ticks, size, out=self._windows[0])
        bin_points(ends, self.window_ticks, size, out=self._windows[1])
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
        if other.num_windows:
            self._cover(other.base, other.base + other.num_windows)
            offset = other.base - self.base
            self._windows[:, offset : offset + other.num_windows] += other._windows
        self.events += other.events
        self.max_end_ticks = max(self.max_end_ticks, other.max_end_ticks)

    def discard_before(self, window: int) -> None:
        """Drop the stored windows below ``window``; ``base`` rises to it.

        ``events`` and ``max_end_ticks`` stay lifetime values, and a later
        ingest or merge reaching below ``base`` extends the windows down.
        """
        drop = int(window) - self.base
        if drop > 0 and self.num_windows:
            self._windows = self._windows[:, drop:].copy()
            self.base = int(window)

    # ------------------------------------------------------------------
    def snapshot(
        self, start_window: int | None = None, end_window: int | None = None
    ) -> WindowSnapshot:
        """Float estimator view of windows ``[start_window, end_window)``.

        A pure read, defaulting to the stored windows; windows past them read
        as zero.  Raises :class:`ValueError` when ``start_window < base``, and
        when a window's busy time exceeds the window length — proof that
        trace records overlapped, which would fabricate utilisations above 1
        and poison the dispersion estimate.
        """
        if start_window is None:
            start_window = self.base
        if end_window is None:
            end_window = self.base + self.num_windows
        if start_window < self.base or end_window < start_window:
            raise ValueError(
                f"invalid window slice [{start_window}, {end_window}) of the "
                f"windows from base {self.base} on"
            )
        counts = np.zeros((2, end_window - start_window), dtype=np.int64)
        stored = self._windows[:, start_window - self.base : end_window - self.base]
        counts[:, : stored.shape[1]] = stored
        busy, completions = counts
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
            "base": self.base,
            "busy": self._windows[0].tolist(),
            "completions": self._windows[1].tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "WindowedTraceAccumulator":
        """Rebuild from :meth:`state_dict`; a state without ``base`` starts at 0."""
        accumulator = cls(state["window_ticks"], state["ticks_per_second"])
        accumulator.base = int(state.get("base", 0))
        busy = np.asarray(state["busy"], dtype=np.int64)
        completions = np.asarray(state["completions"], dtype=np.int64)
        if busy.shape != completions.shape:
            raise ValueError("corrupt accumulator state: busy/completions differ in length")
        accumulator._windows = np.stack([busy, completions])
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
