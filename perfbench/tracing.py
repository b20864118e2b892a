"""Spans and counters recorded from outside the program.

A :class:`Tracer` replaces public functions and methods of the ``repro``
package with wrappers that record one span per call: name, start, end,
parent span, operation id and optional attributes taken from the call's
arguments and result.  Spans stay in memory.  Forked workers inherit the
wrappers; each writes its own spans to ``spans-<pid>.jsonl`` in the spill
directory when its outermost span ends, and :meth:`Tracer.collect` merges
those files with the parent's spans, so no worker span is lost.

The tracer follows one thread per process: spans opened concurrently by
several threads of one process would share one parent stack.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable


@dataclasses.dataclass
class Span:
    """One timed call at a layer boundary."""

    name: str
    span_id: str
    parent_id: str | None
    op_id: str | None
    start: float
    end: float = 0.0
    pid: int = 0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(**payload)


#: ``annotate(args, kwargs, result) -> dict`` adds attributes to a span.
Annotate = Callable[[tuple, dict, Any], dict]


@dataclasses.dataclass(frozen=True)
class Target:
    """A public function or method to wrap: ``"module:Qualified.name"``."""

    span: str
    path: str
    annotate: Annotate | None = None
    #: Count calls instead of timing them (for per-event hot paths).
    count_only: bool = False


class Tracer:
    """Records spans and counters; install wrappers with :meth:`install`."""

    def __init__(self, spill_dir) -> None:
        self.spill_dir = Path(spill_dir)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.origin_pid = os.getpid()
        self._pid = self.origin_pid
        self._seq = 0
        self._stack: list[tuple[str, str | None]] = []
        self._base_depth = 0
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _claim_process(self) -> None:
        """After a fork, start an empty span list under the inherited stack."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self._seq = 0
            self.spans = []
            self.counts = Counter()
            self._base_depth = len(self._stack)

    @contextmanager
    def span(self, name: str, op_id: str | None = None):
        """Time the ``with`` body as a span; yields the :class:`Span`."""
        self._claim_process()
        parent_id, parent_op = self._stack[-1] if self._stack else (None, None)
        self._seq += 1
        record = Span(
            name=name,
            span_id=f"{self._pid}.{self._seq}",
            parent_id=parent_id,
            op_id=op_id if op_id is not None else parent_op,
            start=time.perf_counter(),
            pid=self._pid,
        )
        self._stack.append((record.span_id, record.op_id))
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)
            if self._pid != self.origin_pid and len(self._stack) == self._base_depth:
                self.spill()

    def count(self, name: str, amount: int = 1) -> None:
        self._claim_process()
        self.counts[name] += amount

    def spill(self) -> None:
        """Append this process's spans and counts to its per-pid file."""
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps({"span": record.to_dict()}) + "\n")
            if self.counts:
                handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
        self.spans = []
        self.counts = Counter()

    def collect(self) -> tuple[list[Span], Counter]:
        """This process's spans and counts merged with every worker's file."""
        spans = list(self.spans)
        counts = Counter(self.counts)
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                payload = json.loads(line)
                if "span" in payload:
                    spans.append(Span.from_dict(payload["span"]))
                else:
                    counts.update(payload["counts"])
        spans.sort(key=lambda s: s.start)
        return spans, counts

    # ------------------------------------------------------------------
    def wrap(self, target: Target, function: Callable) -> Callable:
        """A wrapper of ``function`` that records ``target``'s span or count."""
        tracer = self
        if target.count_only:
            @functools.wraps(function)
            def counted(*args, **kwargs):
                tracer.count(target.span)
                return function(*args, **kwargs)

            return counted

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with tracer.span(target.span) as record:
                result = function(*args, **kwargs)
                if target.annotate is not None:
                    record.attrs.update(target.annotate(args, kwargs, result))
                return result

        return traced

    def install(self, targets) -> None:
        """Wrap every target, wherever ``repro`` or this package bound it."""
        for target in targets:
            module_name, qualname = target.path.split(":")
            owner = importlib.import_module(module_name)
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(target, original)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            # ``from module import name`` copies the binding: patch the copies.
            for name, module in list(sys.modules.items()):
                if (
                    module is not owner
                    and name.startswith(("repro", "perfbench"))
                    and getattr(module, attr, None) is original
                ):
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched binding (in reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_time(span: Span, children: list[Span]) -> float:
    """``span``'s duration minus the part of it its child spans cover.

    Children may overlap one another (parallel workers), so the covered
    part is the length of the union of their intervals, clipped to the
    parent's own interval.
    """
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
    )
    covered = 0.0
    cursor = span.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    children: dict[str, list[Span]] = {}
    for record in spans:
        if record.parent_id is not None:
            children.setdefault(record.parent_id, []).append(record)
    totals: dict[str, float] = {}
    for record in spans:
        totals[record.name] = totals.get(record.name, 0.0) + self_time(
            record, children.get(record.span_id, [])
        )
    return totals
