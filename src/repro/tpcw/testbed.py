"""The simulated three-tier TPC-W testbed.

The simulator reproduces the experimental environment of Section 3.1 of the
paper (Figure 3):

* a fixed number of **emulated browsers (EBs)**, each cycling through
  think → request → response (exponential think time, default 0.5 s),
* a **front server** (web + application tier) modelled as a single
  processor-sharing CPU,
* a **database server**, also processor-sharing, visited once per
  transaction with the transaction's aggregate query demand (the paper makes
  the same serialisation simplification for its analytical model and argues
  it does not affect the coarse-grained observables),
* the **contention process** of Section 3.3 that slows down the database
  queries of Best Seller / Home transactions during contention episodes,
* monitoring that records, exactly like `sar` and HP Diagnostics would,
  per-window utilisations (1 s), completed-request counts (5 s), database
  queue lengths and per-transaction-type in-system counts.

:meth:`TPCWTestbed.run` is one event loop over a heap of
``(time, sequence, kind, arg)`` tuples, with both processor-sharing servers
written inline.  It feeds the monitors through an *interval log*: one row
per inter-event interval (start, end, jobs at each tier, in-system count of
each tracked transaction) and one list of completion times per tier.  Every
:data:`~repro.monitoring.windows.FLUSH_RECORDS` rows, and once at the end,
the columns go to the window accumulators in one array call each, so memory
stays bounded and each window sees the additions a per-event ``record``
call would make, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from repro.monitoring.collector import MonitoringSeries, ServerMonitor
from repro.monitoring.windows import FLUSH_RECORDS, TimeWeightedWindows
from repro.tpcw.contention import ContentionConfig, ContentionProcess
from repro.tpcw.mixes import CustomerBehaviorGraph, TransactionMix
from repro.tpcw.transactions import TRANSACTION_CATALOG

__all__ = ["TestbedConfig", "TestbedResult", "TPCWTestbed"]

# Event kinds.
_THINK_END, _FRONT_DONE, _DB_DONE = 0, 1, 2


@dataclass(frozen=True)
class TestbedConfig:
    """Configuration of one testbed experiment.

    Attributes
    ----------
    mix:
        Transaction mix driving the emulated browsers.
    num_ebs:
        Number of concurrent emulated browsers (sessions).
    think_time:
        Mean exponential user think time ``Z`` in seconds.
    duration:
        Measured experiment duration in seconds (after warm-up).
    warmup:
        Warm-up period excluded from every reported series and statistic.
    utilization_window:
        Granularity of the utilisation / queue-length series (``sar``, 1 s).
    completion_window:
        Granularity of the completed-request counts (Diagnostics, 5 s).
    contention:
        Parameters of the database contention process.
    tracked_transactions:
        Transaction types whose in-system request counts are recorded
        (Figures 7 and 8 track Best Sellers and Home).
    cbmg_stickiness:
        Optional serial correlation of the session navigation.
    seed:
        Root seed of all random streams.
    """

    mix: TransactionMix
    num_ebs: int
    think_time: float = 0.5
    duration: float = 600.0
    warmup: float = 60.0
    utilization_window: float = 1.0
    completion_window: float = 5.0
    contention: ContentionConfig = field(default_factory=ContentionConfig)
    tracked_transactions: tuple[str, ...] = ("Best Sellers", "Home")
    cbmg_stickiness: float = 0.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.num_ebs < 1:
            raise ValueError("num_ebs must be >= 1")
        if self.think_time <= 0:
            raise ValueError("think_time must be positive")
        if self.duration <= 0 or self.warmup < 0:
            raise ValueError("duration must be positive and warmup non-negative")
        unknown = set(self.tracked_transactions) - set(TRANSACTION_CATALOG)
        if unknown:
            raise ValueError("unknown tracked transactions: %s" % sorted(unknown))

    @property
    def horizon(self) -> float:
        """Total simulated time including warm-up."""
        return self.warmup + self.duration


@dataclass(frozen=True)
class TestbedResult:
    """Monitoring data and aggregate statistics of one testbed run."""

    config: TestbedConfig
    front: MonitoringSeries
    database: MonitoringSeries
    tracked_in_system: dict[str, np.ndarray]
    throughput: float
    completed_transactions: int
    transaction_counts: dict[str, int]
    mean_response_time: float
    contention_episodes: tuple[tuple[float, float], ...]

    @property
    def front_utilization(self) -> float:
        """Average front-server utilisation over the measured interval."""
        return self.front.mean_utilization

    @property
    def db_utilization(self) -> float:
        """Average database-server utilisation over the measured interval."""
        return self.database.mean_utilization

    def summary(self) -> dict:
        """The quantities plotted in Figure 4 for this configuration."""
        return {
            "mix": self.config.mix.name,
            "num_ebs": self.config.num_ebs,
            "throughput": self.throughput,
            "front_utilization": self.front_utilization,
            "db_utilization": self.db_utilization,
            "mean_response_time": self.mean_response_time,
        }


class TPCWTestbed:
    """Discrete-event simulator of the three-tier TPC-W testbed."""

    def __init__(self, config: TestbedConfig) -> None:
        self.config = config
        self._cbmg = CustomerBehaviorGraph(config.mix, stickiness=config.cbmg_stickiness)

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def run(self) -> TestbedResult:
        """Run the experiment and return its monitoring data."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        think_rng = np.random.default_rng(rng.integers(2**63))
        demand_rng = np.random.default_rng(rng.integers(2**63))
        nav_rng = np.random.default_rng(rng.integers(2**63))
        contention_rng = np.random.default_rng(rng.integers(2**63))

        horizon = config.horizon
        warmup = config.warmup
        contention = ContentionProcess(config.contention, horizon, contention_rng)
        front_monitor = ServerMonitor(
            "front", config.utilization_window, config.completion_window
        )
        db_monitor = ServerMonitor(
            "database", config.utilization_window, config.completion_window
        )
        tracked_names = tuple(dict.fromkeys(config.tracked_transactions))
        tracked_windows = [TimeWeightedWindows(config.utilization_window) for _ in tracked_names]
        tracked_index = {name: index for index, name in enumerate(tracked_names)}
        tracked_counts = [0] * len(tracked_names)

        # The interval log: one row (start, end, front jobs, db jobs, tracked
        # counts...) per inter-event interval, flattened into one list, plus
        # each tier's completion times; every FLUSH_RECORDS rows it goes to
        # the monitors in one call per accumulator.
        width = 4 + len(tracked_names)
        log: list[float] = []
        front_done: list[float] = []
        db_done: list[float] = []

        def flush() -> None:
            if log:
                rows = np.array(log, dtype=np.float64).reshape(-1, width)
                log.clear()
                starts, ends = rows[:, 0], rows[:, 1]
                for monitor, jobs in ((front_monitor, rows[:, 2]), (db_monitor, rows[:, 3])):
                    busy = jobs > 0
                    monitor.record_busy(starts[busy], ends[busy])
                    monitor.record_queue_length(starts, ends, jobs)
                for column, window in enumerate(tracked_windows, start=4):
                    window.record(starts, ends, rows[:, column])
            for monitor, times in ((front_monitor, front_done), (db_monitor, db_done)):
                if times:
                    monitor.record_completion(times)
                    times.clear()

        # Two egalitarian processor-sharing servers in virtual time: the
        # virtual clock advances at rate 1/n while n jobs are present, and a
        # job of demand S admitted at virtual time V leaves when it reaches
        # V + S.  Each heap holds (virtual finish, EB) of the jobs present.
        front_heap: list[tuple[float, int]] = []
        db_heap: list[tuple[float, int]] = []
        front_virtual = front_updated = 0.0
        db_virtual = db_updated = 0.0
        # A completion event carries its server's version when scheduled;
        # every arrival and departure bumps the version, so a popped event
        # with an older one is stale.  Stale events still end a logged
        # interval, which the binned float sums depend on.
        front_version = db_version = 0
        # Number of contention-sensitive requests currently at the database
        # (drives the cascade of the contention slowdown).
        sensitive_at_db = 0

        # Per-EB session state: current transaction (None until the first
        # request), request start time, and whether its request is at a server.
        current_transaction: list[str | None] = [None] * config.num_ebs
        request_start = [0.0] * config.num_ebs
        in_service = [False] * config.num_ebs

        # Aggregate statistics (measured interval only).
        completed = 0
        response_time_sum = 0.0
        transaction_counts: dict[str, int] = {name: 0 for name in TRANSACTION_CATALOG}

        # Events are (time, sequence, kind, EB or version); the sequence
        # number breaks time ties in scheduling order.
        events: list[tuple[float, int, int, int]] = []
        sequence = 0
        think_time = config.think_time
        think = think_rng.exponential
        demand_of = demand_rng.exponential
        next_transaction = self._cbmg.next_transaction
        catalog = TRANSACTION_CATALOG
        sensitive = {name for name, entry in catalog.items() if entry.contention_sensitive}

        # Start every EB thinking (staggered by an initial think time).
        for eb in range(config.num_ebs):
            heappush(events, (think(think_time), sequence, _THINK_END, eb))
            sequence += 1

        clock = 0.0
        while events:
            event_time, _, kind, arg = heappop(events)
            if event_time > horizon:
                break
            if event_time > clock:
                log.extend((clock, event_time, len(front_heap), len(db_heap), *tracked_counts))
                if len(log) >= FLUSH_RECORDS * width:
                    flush()
            clock = event_time

            if kind == _THINK_END:
                eb = arg
                transaction_name = next_transaction(current_transaction[eb], nav_rng)
                current_transaction[eb] = transaction_name
                transaction = catalog[transaction_name]
                request_start[eb] = clock
                tracked = tracked_index.get(transaction_name)
                if tracked is not None:
                    tracked_counts[tracked] += 1
                factor = contention.front_factor(clock, transaction)
                demand = demand_of(transaction.front_demand * factor)
                # Admit the request at the front server.
                if demand <= 0:
                    raise ValueError("demand must be positive")
                if in_service[eb]:
                    raise ValueError("job %r is already in service" % (eb,))
                in_service[eb] = True
                elapsed = clock - front_updated
                if elapsed < -1e-9:
                    raise ValueError("time must not run backwards (%.6f < %.6f)" % (clock, front_updated))
                if elapsed > 0:
                    if front_heap:
                        front_virtual += elapsed / len(front_heap)
                    front_updated = clock
                heappush(front_heap, (front_virtual + demand, eb))
                front_version += 1
                finish = front_updated + (front_heap[0][0] - front_virtual) * len(front_heap)
                heappush(events, (finish, sequence, _FRONT_DONE, front_version))
                sequence += 1
            elif kind == _FRONT_DONE:
                if arg != front_version or not front_heap:
                    continue  # stale completion event
                elapsed = clock - front_updated
                if elapsed < -1e-9:
                    raise ValueError("time must not run backwards (%.6f < %.6f)" % (clock, front_updated))
                if elapsed > 0:
                    front_virtual += elapsed / len(front_heap)
                    front_updated = clock
                eb = heappop(front_heap)[1]
                front_done.append(clock)
                front_version += 1
                if front_heap:
                    finish = front_updated + (front_heap[0][0] - front_virtual) * len(front_heap)
                    heappush(events, (finish, sequence, _FRONT_DONE, front_version))
                    sequence += 1
                transaction_name = current_transaction[eb]
                transaction = catalog[transaction_name]
                factor = contention.db_factor(clock, transaction, sensitive_at_db)
                demand = demand_of(transaction.db_demand * factor)
                if transaction_name in sensitive:
                    sensitive_at_db += 1
                # Pass the request on to the database server.
                if demand <= 0:
                    raise ValueError("demand must be positive")
                elapsed = clock - db_updated
                if elapsed < -1e-9:
                    raise ValueError("time must not run backwards (%.6f < %.6f)" % (clock, db_updated))
                if elapsed > 0:
                    if db_heap:
                        db_virtual += elapsed / len(db_heap)
                    db_updated = clock
                heappush(db_heap, (db_virtual + demand, eb))
                db_version += 1
                finish = db_updated + (db_heap[0][0] - db_virtual) * len(db_heap)
                heappush(events, (finish, sequence, _DB_DONE, db_version))
                sequence += 1
            else:  # _DB_DONE
                if arg != db_version or not db_heap:
                    continue
                elapsed = clock - db_updated
                if elapsed < -1e-9:
                    raise ValueError("time must not run backwards (%.6f < %.6f)" % (clock, db_updated))
                if elapsed > 0:
                    db_virtual += elapsed / len(db_heap)
                    db_updated = clock
                eb = heappop(db_heap)[1]
                in_service[eb] = False
                db_done.append(clock)
                db_version += 1
                if db_heap:
                    finish = db_updated + (db_heap[0][0] - db_virtual) * len(db_heap)
                    heappush(events, (finish, sequence, _DB_DONE, db_version))
                    sequence += 1
                transaction_name = current_transaction[eb]
                if transaction_name in sensitive:
                    sensitive_at_db -= 1
                tracked = tracked_index.get(transaction_name)
                if tracked is not None:
                    tracked_counts[tracked] -= 1
                if clock >= warmup:
                    completed += 1
                    response_time_sum += clock - request_start[eb]
                    transaction_counts[transaction_name] += 1
                heappush(events, (clock + think(think_time), sequence, _THINK_END, eb))
                sequence += 1
        flush()

        # ------------------------------------------------------------------
        # Snapshot the monitoring data and drop the warm-up windows.
        # ------------------------------------------------------------------
        front_series = self._trim(front_monitor.series(horizon), config)
        db_series = self._trim(db_monitor.series(horizon), config)
        util_skip = int(round(warmup / config.utilization_window))
        tracked_series = {
            name: window.series(horizon, normalize=True)[util_skip:]
            for name, window in zip(tracked_names, tracked_windows)
        }

        measured_duration = config.duration
        throughput = completed / measured_duration if measured_duration > 0 else 0.0
        mean_response = response_time_sum / completed if completed > 0 else float("nan")
        measured_episodes = tuple(
            (max(start, warmup) - warmup, end - warmup)
            for start, end in contention.episodes
            if end > warmup
        )
        return TestbedResult(
            config=config,
            front=front_series,
            database=db_series,
            tracked_in_system=tracked_series,
            throughput=throughput,
            completed_transactions=completed,
            transaction_counts=transaction_counts,
            mean_response_time=mean_response,
            contention_episodes=measured_episodes,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _trim(series: MonitoringSeries, config: TestbedConfig) -> MonitoringSeries:
        """Drop the warm-up windows from a monitoring series."""
        util_skip = int(round(config.warmup / series.utilization_window))
        completion_skip = int(round(config.warmup / series.completion_window))
        return MonitoringSeries(
            name=series.name,
            utilization_window=series.utilization_window,
            utilization=series.utilization[util_skip:],
            completion_window=series.completion_window,
            completions=series.completions[completion_skip:],
            queue_length=series.queue_length[util_skip:],
        )
