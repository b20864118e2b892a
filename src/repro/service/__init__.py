"""Self-healing live what-if service.

The offline pipeline of :mod:`repro.core` answers one what-if question from
one finished trace.  This package keeps the answer *continuously* fresh
against a growing trace, and keeps answering through failures:

* :mod:`~repro.service.streaming` — chunked trace readers and exactly
  mergeable windowed statistics (multi-GB traces in O(windows) RAM);
* :mod:`~repro.service.pipeline` — supervised stage execution (reusing the
  experiment framework's supervision envelope), cycle-denominated circuit
  breakers and drop-counting bounded queues;
* :mod:`~repro.service.registry` — the durable last-known-good
  (model, forecast) pair served while refits fail;
* :mod:`~repro.service.daemon` — the ingest → fit → solve → promote loop,
  with bit-identical checkpoint/resume and an atomic health snapshot.

CLI: ``python -m repro.experiments service run|status|forecast``.
"""

from repro.service.daemon import CheckpointMismatchError, ServiceConfig, WhatIfService
from repro.service.pipeline import BoundedWindowQueue, CircuitBreaker, StageOutcome
from repro.service.registry import LastKnownGood, ModelRegistry
from repro.service.streaming import (
    RECORD_BYTES,
    TraceChunkReader,
    WindowSnapshot,
    WindowedTraceAccumulator,
    read_trace_chunk,
    synthesize_service_trace,
    write_trace_records,
)

__all__ = [
    "BoundedWindowQueue",
    "CheckpointMismatchError",
    "CircuitBreaker",
    "LastKnownGood",
    "ModelRegistry",
    "RECORD_BYTES",
    "ServiceConfig",
    "StageOutcome",
    "TraceChunkReader",
    "WhatIfService",
    "WindowSnapshot",
    "WindowedTraceAccumulator",
    "read_trace_chunk",
    "synthesize_service_trace",
    "write_trace_records",
]
