"""Windowed accumulators and the one window binner of the repo.

Monitoring tools report per-window aggregates: the number of completed
requests in each 5-second Diagnostics window, the busy fraction of each
1-second `sar` window, the average queue length over a window, and so on.
This module owns the binning rule that turns events into such fixed-window
series, in two vectorized functions:

* :func:`bin_intervals` splits weighted intervals ``[start, end)`` across
  the windows they overlap,
* :func:`bin_points` counts (weighted) point events per window.

Both keep the dtype of their input: the live service
(:mod:`repro.service.streaming`) bins ``int64`` trace ticks with them, which
is exact, and the accumulators below bin float seconds.
:class:`TimeWeightedWindows` and :class:`CountWindows` take one record or
equal-length arrays of records per ``record`` call.  They validate each
call eagerly but only buffer it; every :data:`FLUSH_RECORDS` records, and
in ``series()``, the buffer goes through the binner in one call.  The
binner adds every contribution in record order, so a window's float sum
sees exactly the additions a per-record loop would make, however the
records were batched.

Window semantics
----------------
Everything shares one half-open convention: window ``k`` is the interval
``[k*W, (k+1)*W)``.  Concretely:

* a point event at time ``t`` lands in window ``floor(t / W)`` — an event
  exactly on a boundary opens the *next* window (``record(5.0)`` with
  ``W = 1`` counts in window 5),
* a piecewise-constant interval ``[start, end)`` excludes its right
  endpoint — an interval ending exactly on a boundary does *not* open the
  next window (``record(0.0, 5.0, v)`` with ``W = 1`` fills windows 0–4 and
  nothing else), so ``series()`` has exactly ``ceil(t_end / W)`` entries;
  zero-length and zero-value intervals touch no window,
* ``series(horizon=H)`` pads the series with zero windows up to
  ``ceil(H / W)`` entries but never discards recorded data: windows holding
  recorded events or mass beyond the horizon are always returned.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

__all__ = ["FLUSH_RECORDS", "CountWindows", "TimeWeightedWindows", "bin_intervals", "bin_points"]

#: Records an accumulator buffers before it bins them.
FLUSH_RECORDS = 8192


def bin_intervals(starts, ends, window, num_windows: int, weights=None, *, out=None):
    """Per-window integral of ``weight`` over each interval ``[start, end)``.

    An interval adds ``weight * (overlap length)`` to every window it
    overlaps (``weight = 1`` when ``weights`` is None).  Its last window is
    ``end // W``, minus one when ``end`` lies exactly on that window's lower
    boundary; zero-length and zero-weight intervals are skipped.  The result
    has the dtype of the inputs — ``int64`` ticks bin exactly.

    The contributions are added with one ``np.add.at`` in event-major order
    (first partial window, full middle windows, last partial window of
    interval 0, then interval 1, ...), so each window's sum sees the same
    sequence of additions as a per-interval loop.  ``out`` accumulates into
    an existing array (at least ``num_windows`` long) instead of fresh zeros.
    """
    starts = np.asarray(starts)
    ends = np.asarray(ends)
    weights = None if weights is None else np.asarray(weights)
    if out is None:
        dtypes = (starts, ends) if weights is None else (starts, ends, weights)
        out = np.zeros(num_windows, dtype=np.result_type(*dtypes))
    keep = ends > starts
    if weights is not None:
        keep &= weights != 0
    if not keep.all():
        starts, ends = starts[keep], ends[keep]
        weights = None if weights is None else weights[keep]
    if starts.size == 0:
        return out
    first = starts // window
    last = ends // window
    last -= ends == last * window
    counts = (last - first + 1).astype(np.intp, copy=False)
    tails = np.cumsum(counts) - 1
    heads = tails - (counts - 1)
    index = np.repeat(first.astype(np.intp) - heads, counts) + np.arange(tails[-1] + 1)
    amount = np.full(index.size, window, dtype=out.dtype)
    amount[tails] = ends - last * window
    amount[heads] = np.where(counts == 1, ends - starts, (first + 1) * window - starts)
    if weights is not None:
        amount *= np.repeat(weights, counts)
    np.add.at(out, index, amount)
    return out


def bin_points(times, window, num_windows: int, weights=None, *, out=None):
    """Per-window sum of ``weight`` over point events (``1`` each by default).

    An event at ``t`` lands in window ``t // W``.  The result has the dtype
    of ``times`` (of ``weights`` when given); ``out`` accumulates into an
    existing array instead of fresh zeros.
    """
    times = np.asarray(times)
    amounts = np.ones_like(times) if weights is None else np.asarray(weights)
    if out is None:
        out = np.zeros(num_windows, dtype=amounts.dtype)
    np.add.at(out, (times // window).astype(np.intp), amounts)
    return out


def _columns(*values) -> list[np.ndarray]:
    """Scalars or equal-length arrays as equal-length float64 columns."""
    columns = [np.asarray(value, dtype=np.float64).reshape(-1) for value in values]
    if len({column.size for column in columns}) > 1:
        columns = np.broadcast_arrays(*columns)
    return columns


class _BufferedWindows:
    """Per-window sums plus the records buffered since the last flush.

    Subclasses pass one column per field to ``_extend`` in ``record`` and
    bin the flushed columns into ``_sums`` in ``_bin``.
    """

    def __init__(self, window: float, fields: int) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = float(window)
        self._sums = np.zeros(0)
        self._buffers = tuple(array("d") for _ in range(fields))

    def _extend(self, *columns: np.ndarray) -> None:
        for buffer, column in zip(self._buffers, columns):
            buffer.frombytes(np.ascontiguousarray(column, dtype=np.float64).tobytes())
        if len(self._buffers[0]) >= FLUSH_RECORDS:
            self._flush()

    def _flush(self) -> None:
        if not self._buffers[0]:
            return
        columns = [np.array(buffer) for buffer in self._buffers]
        for buffer in self._buffers:
            del buffer[:]
        self._bin(*columns)

    def _grow(self, size: int) -> None:
        if size > self._sums.size:
            self._sums = np.concatenate([self._sums, np.zeros(size - self._sums.size)])

    def _padded(self, horizon: float | None) -> np.ndarray:
        """Flushed sums (a copy), zero-padded to ``ceil(horizon / W)`` windows."""
        self._flush()
        needed = 0 if horizon is None else int(np.ceil(horizon / self.window))
        return np.concatenate([self._sums, np.zeros(max(0, needed - self._sums.size))])


class CountWindows(_BufferedWindows):
    """Counts point events per fixed-length window.

    Windows are ``[k*W, (k+1)*W)`` for ``k = 0, 1, ...``; the horizon may be
    extended lazily as events arrive.
    """

    def __init__(self, window: float) -> None:
        super().__init__(window, 2)

    def record(self, time, amount=1.0) -> None:
        """Record ``amount`` events at the given absolute time.

        ``time`` and ``amount`` are scalars or equal-length arrays (a scalar
        ``amount`` applies to every time).
        """
        times, amounts = _columns(time, amount)
        if not ((times >= 0.0) & (times < math.inf)).all():
            raise ValueError("time must be non-negative and finite")
        self._extend(times, amounts)

    def _bin(self, times: np.ndarray, amounts: np.ndarray) -> None:
        self._grow(int(times.max() // self.window) + 1)
        bin_points(times, self.window, self._sums.size, amounts, out=self._sums)

    def series(self, horizon: float | None = None) -> np.ndarray:
        """Per-window counts, zero-padded up to ``horizon``.

        The horizon only pads: recorded events are never discarded, so an
        event landing exactly at ``horizon`` (which the half-open convention
        places in window ``horizon / W``) stays in the series.
        """
        return self._padded(horizon)


class TimeWeightedWindows(_BufferedWindows):
    """Integrates a piecewise-constant signal over fixed-length windows.

    Typical uses: busy time per window (value 1 while the server is busy,
    0 otherwise — dividing by the window length yields the utilisation) and
    queue-length integrals (value = current queue length — dividing by the
    window length yields the average queue length).
    """

    def __init__(self, window: float) -> None:
        super().__init__(window, 3)

    def record(self, start, end, value) -> None:
        """Add ``value`` integrated over the interval ``[start, end)``.

        The arguments are scalars or equal-length arrays of intervals (a
        scalar applies to every interval).  Zero-length and zero-value
        intervals are dropped before the other checks, as one at a time.
        """
        starts, ends, values = _columns(start, end, value)
        if (ends < starts).any():
            raise ValueError("end must not precede start")
        keep = (values != 0.0) & (ends != starts)
        if not keep.all():
            starts, ends, values = starts[keep], ends[keep], values[keep]
        if not (starts >= 0).all():
            raise ValueError("start must be non-negative")
        if not (ends < math.inf).all():
            raise ValueError("end must be finite")
        self._extend(starts, ends, values)

    def _bin(self, starts: np.ndarray, ends: np.ndarray, values: np.ndarray) -> None:
        # The latest end's window (by the binner's rule) is the last one touched.
        end = float(ends.max())
        last = end // self.window
        self._grow(int(last) + (end != last * self.window))
        bin_intervals(starts, ends, self.window, self._sums.size, values, out=self._sums)

    def series(self, horizon: float | None = None, normalize: bool = True) -> np.ndarray:
        """Per-window integrals, optionally divided by the window length.

        Like :meth:`CountWindows.series`, the horizon only pads with zero
        windows — recorded mass is never truncated away.
        """
        series = self._padded(horizon)
        return series / self.window if normalize else series
