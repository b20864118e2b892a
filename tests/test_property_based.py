"""Property-based tests (hypothesis) for the core data structures and invariants."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.map_fitting import (
    FittedServiceProcess,
    candidate_grid,
    fit_map2_from_measurements,
)
from repro.maps.map2 import map2_from_moments_and_decay
from repro.maps.ph import hyperexp_rates_from_moments, hyperexponential_ph
from repro.queueing.bounds import asymptotic_throughput_bounds, balanced_job_bounds
from repro.queueing.mva import mva_closed_network
from repro.simulation.trace_queue import simulate_gtrace1
from repro.traces.burstiness import impose_burstiness
from repro.monitoring.windows import FLUSH_RECORDS, CountWindows, TimeWeightedWindows

# Strategies ----------------------------------------------------------------

means = st.floats(min_value=1e-3, max_value=100.0, allow_nan=False, allow_infinity=False)
scvs = st.floats(min_value=1.0, max_value=50.0, allow_nan=False, allow_infinity=False)
decays = st.floats(min_value=0.0, max_value=0.999, allow_nan=False, allow_infinity=False)


class TestHyperexponentialProperties:
    @given(mean=means, scv=scvs)
    @settings(max_examples=60, deadline=None)
    def test_moment_matching(self, mean, scv):
        ph = hyperexponential_ph(mean, scv)
        assert ph.mean() == pytest.approx(mean, rel=1e-6)
        assert ph.scv() == pytest.approx(scv, rel=1e-6)

    @given(mean=means, scv=scvs)
    @settings(max_examples=60, deadline=None)
    def test_rates_positive(self, mean, scv):
        p1, rate1, rate2 = hyperexp_rates_from_moments(mean, scv)
        assert 0 < p1 < 1
        assert rate1 > 0 and rate2 > 0


class TestMap2Properties:
    @given(mean=means, scv=scvs, decay=decays)
    @settings(max_examples=40, deadline=None)
    def test_marginal_invariance(self, mean, scv, decay):
        process = map2_from_moments_and_decay(mean, scv, decay)
        assert process.mean() == pytest.approx(mean, rel=1e-6)
        assert process.scv() == pytest.approx(scv, rel=1e-5)

    @given(mean=means, scv=scvs, decay=decays)
    @settings(max_examples=40, deadline=None)
    def test_dispersion_at_least_scv(self, mean, scv, decay):
        process = map2_from_moments_and_decay(mean, scv, decay)
        assert process.index_of_dispersion() >= scv - 1e-6

    @given(mean=means, scv=scvs, decay=decays)
    @settings(max_examples=40, deadline=None)
    def test_lag1_autocorrelation_bounded(self, mean, scv, decay):
        process = map2_from_moments_and_decay(mean, scv, decay)
        rho1 = process.autocorrelation(1)
        assert -1e-9 <= rho1 <= 0.5 + 1e-9  # two-phase MAPs cannot exceed 0.5


def _reference_fit(mean, index_of_dispersion, p95, dispersion_tolerance):
    """The full-grid scan: every candidate built and checked by its matrix I."""
    grid = candidate_grid(index_of_dispersion)
    feasible = []
    considered = 0
    for scv, decay, p1 in grid:
        considered += 1
        try:
            candidate = map2_from_moments_and_decay(mean, scv, decay, p1)
        except ValueError:
            continue
        achieved_i = candidate.index_of_dispersion()
        if achieved_i <= 0:
            continue
        relative_error = abs(achieved_i - index_of_dispersion) / index_of_dispersion
        if relative_error > dispersion_tolerance:
            continue
        feasible.append((achieved_i, scv, decay, relative_error, p1, candidate))
    if not feasible:
        best = None
        best_error = np.inf
        for scv, decay, p1 in grid:
            try:
                candidate = map2_from_moments_and_decay(mean, scv, decay, p1)
            except ValueError:
                continue
            achieved_i = candidate.index_of_dispersion()
            relative_error = abs(achieved_i - index_of_dispersion) / index_of_dispersion
            if relative_error < best_error:
                best_error = relative_error
                best = (achieved_i, scv, decay, relative_error, p1, candidate)
        feasible = [best]

    def selection_key(entry):
        achieved_i, scv, decay, relative_error, p1, candidate = entry
        if p95 is None:
            p95_error = relative_error
        else:
            p95_error = abs(candidate.interarrival_percentile(0.95) - p95) / p95
        return (p95_error, -candidate.autocorrelation(1))

    achieved_i, scv, decay, _, p1, chosen = min(feasible, key=selection_key)
    return FittedServiceProcess(
        map=chosen,
        mean=mean,
        target_dispersion=index_of_dispersion,
        achieved_dispersion=achieved_i,
        target_p95=p95,
        achieved_p95=chosen.interarrival_percentile(0.95),
        scv=scv,
        decay=decay,
        branch_probability=p1,
        candidates_considered=considered,
        candidates_feasible=len(feasible),
    )


class TestClosedFormFitMatchesFullGrid:
    @given(
        mean=st.floats(min_value=-4.0, max_value=1.0).map(lambda e: 10.0**e),
        target_i=st.floats(min_value=np.log10(1.01), max_value=3.0).map(lambda e: 10.0**e),
        p95_factor=st.none() | st.floats(min_value=0.2, max_value=20.0),
        tolerance=st.sampled_from([0.2, 0.05, 1e-6]),
    )
    @example(mean=1.0, target_i=37.7, p95_factor=None, tolerance=1e-6)
    @example(mean=1e-4, target_i=1.01, p95_factor=3.0, tolerance=0.2)
    @example(mean=10.0, target_i=1000.0, p95_factor=1.0, tolerance=1e-6)
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_field_is_identical(self, mean, target_i, p95_factor, tolerance):
        p95 = None if p95_factor is None else mean * p95_factor
        fit = fit_map2_from_measurements(mean, target_i, p95, dispersion_tolerance=tolerance)
        reference = _reference_fit(mean, target_i, p95, tolerance)
        for field in dataclasses.fields(FittedServiceProcess):
            if field.name != "map":
                assert getattr(fit, field.name) == getattr(reference, field.name), field.name
        assert np.array_equal(fit.map.D0, reference.map.D0)
        assert np.array_equal(fit.map.D1, reference.map.D1)


class TestMVAProperties:
    @given(
        demand_front=st.floats(min_value=1e-4, max_value=0.5),
        demand_db=st.floats(min_value=1e-4, max_value=0.5),
        think=st.floats(min_value=0.0, max_value=10.0),
        population=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_throughput_within_bounds(self, demand_front, demand_db, think, population):
        demands = [demand_front, demand_db]
        x = mva_closed_network(demands, think, population).throughput_at(population)
        asym = asymptotic_throughput_bounds(demands, think, population)
        bjb = balanced_job_bounds(demands, think, population)
        assert asym.contains(x, slack=1e-6)
        assert bjb.lower <= x * (1 + 1e-6)
        assert x <= bjb.upper * (1 + 1e-6)

    @given(
        demand=st.floats(min_value=1e-3, max_value=0.2),
        think=st.floats(min_value=0.1, max_value=5.0),
        population=st.integers(min_value=2, max_value=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_customers_conserved(self, demand, think, population):
        result = mva_closed_network([demand, demand / 2], think, population)
        x = result.throughput_at(population)
        total = result.queue_length_at(population).sum() + x * think
        assert total == pytest.approx(population, rel=1e-6)


class TestBurstinessReorderingProperties:
    @given(
        num_bursts=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_reordering_is_permutation(self, num_bursts, seed):
        rng = np.random.default_rng(seed)
        samples = rng.exponential(1.0, 500)
        reordered = impose_burstiness(samples, num_bursts, rng=rng)
        assert np.allclose(np.sort(reordered), np.sort(samples))


class TestLindleyProperties:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_response_at_least_service_and_nonnegative_waiting(self, seed):
        rng = np.random.default_rng(seed)
        service = rng.exponential(1.0, 300)
        interarrival = rng.exponential(2.0, 300)
        result = simulate_gtrace1(service, interarrival)
        assert np.all(result.waiting_times >= -1e-12)
        assert np.all(result.response_times >= service - 1e-12)

    @given(scale=st.floats(min_value=0.1, max_value=10.0), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_time_scaling_invariance(self, scale, seed):
        """Scaling all times by a constant scales response times by the same constant."""
        rng = np.random.default_rng(seed)
        service = rng.exponential(1.0, 200)
        interarrival = rng.exponential(2.0, 200)
        base = simulate_gtrace1(service, interarrival)
        scaled = simulate_gtrace1(service * scale, interarrival * scale)
        assert np.allclose(scaled.response_times, base.response_times * scale, rtol=1e-9)


class TestWindowAccumulatorProperties:
    @given(
        window=st.floats(min_value=0.1, max_value=10.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_mass_conservation(self, window, seed):
        rng = np.random.default_rng(seed)
        accumulator = TimeWeightedWindows(window)
        clock = 0.0
        total = 0.0
        for _ in range(50):
            duration = float(rng.uniform(0.01, 3.0))
            value = float(rng.uniform(0.0, 5.0))
            accumulator.record(clock, clock + duration, value)
            total += duration * value
            clock += duration
        series = accumulator.series(horizon=clock, normalize=False)
        assert series.sum() == pytest.approx(total, rel=1e-9)

    @given(
        window=st.floats(min_value=0.1, max_value=10.0),
        # Mix "nice" multiples of the window (which land exactly on window
        # boundaries) with arbitrary floats, so the boundary cases are hit.
        steps=st.lists(
            st.one_of(
                st.integers(min_value=1, max_value=5),
                st.floats(min_value=1e-3, max_value=7.0),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    @example(window=0.15, steps=[1, 5])  # clock lands one ulp past 6*window
    def test_interval_series_length_is_ceil_t_last_over_window(self, window, steps):
        # Half-open [kW, (k+1)W) windows: a stream of intervals tiling
        # [0, t_last) yields exactly ceil(t_last / W) windows — an interval
        # end exactly on a boundary must not open the next window.  The
        # accumulated clock can land within an ulp of a boundary k*W without
        # being exactly equal to it (e.g. 0.15 + 5*0.15 rounds one ulp above
        # 6*0.15); in that ambiguous case both ceil roundings describe a
        # correct half-open tiling, so accept either window count.
        accumulator = TimeWeightedWindows(window)
        clock = 0.0
        for step in steps:
            duration = step * window if isinstance(step, int) else float(step)
            accumulator.record(clock, clock + duration, 1.0)
            clock += duration
        expected = int(np.ceil(clock / window))
        count = accumulator.series().shape[0]
        boundary = np.round(clock / window) * window
        if abs(clock - boundary) <= 4 * np.finfo(float).eps * max(clock, window):
            assert abs(count - expected) <= 1
        else:
            assert count == expected

    @given(
        window=st.floats(min_value=0.1, max_value=10.0),
        steps=st.lists(
            st.one_of(
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=0.0, max_value=7.0),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_event_series_length_covers_last_event(self, window, steps):
        # A point event at t lands in window floor(t / W), so the series has
        # floor(t_last / W) + 1 windows — which equals ceil(t_last / W)
        # except when t_last is exactly a window boundary (the event then
        # opens the next window under the half-open convention).
        accumulator = CountWindows(window)
        t_last = 0.0
        for step in steps:
            offset = step * window if isinstance(step, int) else float(step)
            t_last += offset
            accumulator.record(t_last)
        series = accumulator.series()
        expected = int(t_last // window) + 1
        assert series.shape == (expected,)
        assert series.sum() == pytest.approx(len(steps))


# The per-record loop the buffered accumulators must reproduce bit for bit.
def _reference_integrals(window, records):
    integrals: list[float] = []
    for start, end, value in records:
        if value == 0.0 or end == start:
            continue
        first = int(start // window)
        last = int(end // window)
        if end == last * window:
            last -= 1
        if last >= len(integrals):
            integrals.extend([0.0] * (last + 1 - len(integrals)))
        if first == last:
            integrals[first] += value * (end - start)
            continue
        integrals[first] += value * ((first + 1) * window - start)
        for index in range(first + 1, last):
            integrals[index] += value * window
        integrals[last] += value * (end - last * window)
    return np.asarray(integrals, dtype=float)


def _reference_counts(window, events):
    counts: list[float] = []
    for time, amount in events:
        index = int(time // window)
        if index >= len(counts):
            counts.extend([0.0] * (index + 1 - len(counts)))
        counts[index] += amount
    return np.asarray(counts, dtype=float)


# Offsets in whole windows (landing exactly on boundaries) or arbitrary seconds.
window_offsets = st.one_of(st.integers(min_value=0, max_value=4), st.floats(min_value=0.0, max_value=6.0))
record_values = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=50.0))


def _bulk_records(bulk, seed, window):
    """``bulk`` cheap back-to-back intervals, some zero-length or zero-valued."""
    rng = np.random.default_rng(seed)
    lengths = rng.exponential(0.05 * window, bulk) * (rng.random(bulk) < 0.9)
    values = rng.integers(0, 4, bulk).astype(float)
    ends = np.cumsum(lengths)
    return list(zip((ends - lengths).tolist(), ends.tolist(), values.tolist()))


def _record_in_two_arrays(accumulator, records, split, fields):
    """``records`` as two array ``record`` calls, flushed in between."""
    for chunk in (records[:split], records[split:]):
        columns = np.array(chunk, dtype=float).reshape(-1, fields).T
        accumulator.record(*columns)
        accumulator.series()


class TestBufferedWindowsMatchPerRecordLoop:
    @given(
        window=st.sampled_from([0.1, 0.15, 0.3, 1.0, 5.0]) | st.floats(min_value=0.01, max_value=10.0),
        bulk=st.sampled_from([0, FLUSH_RECORDS - 2, FLUSH_RECORDS + 3]),
        seed=st.integers(min_value=0, max_value=1000),
        steps=st.lists(st.tuples(window_offsets, window_offsets, record_values), max_size=20),
        split=st.integers(min_value=0, max_value=FLUSH_RECORDS + 30),
        batched=st.booleans(),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @example(window=0.1, bulk=0, seed=0, steps=[(0, 3, 1.0)], split=0, batched=False)  # end 3*0.1 is a boundary
    @example(window=0.1, bulk=0, seed=0, steps=[(0, 3, 1.0)], split=0, batched=True)
    @example(window=1.0, bulk=0, seed=0, steps=[], split=0, batched=True)  # empty arrays
    def test_time_weighted(self, window, bulk, seed, steps, split, batched):
        records = _bulk_records(bulk, seed, window)
        clock = records[-1][1] if records else 0.0
        for gap, length, value in steps:
            start = clock + (gap * window if isinstance(gap, int) else gap)
            end = start + (length * window if isinstance(length, int) else length)
            records.append((start, end, value))
            clock = end
        accumulator = TimeWeightedWindows(window)
        if batched:
            _record_in_two_arrays(accumulator, records, split, 3)
        for position, (start, end, value) in enumerate([] if batched else records):
            if position == split:
                accumulator.series()  # flushes mid-stream
            accumulator.record(start, end, value)
        expected = _reference_integrals(window, records)
        got = accumulator.series(normalize=False)
        assert got.shape == expected.shape and np.array_equal(got, expected)
        horizon = clock + window
        padded = accumulator.series(horizon=horizon)
        assert padded.size == max(expected.size, int(np.ceil(horizon / window)))
        assert np.array_equal(padded[: expected.size], expected / window)

    @given(
        window=st.sampled_from([0.1, 0.15, 1.0, 5.0]) | st.floats(min_value=0.01, max_value=10.0),
        bulk=st.sampled_from([0, FLUSH_RECORDS - 2, FLUSH_RECORDS + 3]),
        seed=st.integers(min_value=0, max_value=1000),
        steps=st.lists(st.tuples(window_offsets, record_values), max_size=20),
        split=st.integers(min_value=0, max_value=FLUSH_RECORDS + 30),
        batched=st.booleans(),
    )
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_count(self, window, bulk, seed, steps, split, batched):
        events = [(end, value) for _, end, value in _bulk_records(bulk, seed, window)]
        clock = events[-1][0] if events else 0.0
        for offset, amount in steps:
            clock += offset * window if isinstance(offset, int) else offset
            events.append((clock, amount))
        accumulator = CountWindows(window)
        if batched:
            _record_in_two_arrays(accumulator, events, split, 2)
        for position, (time, amount) in enumerate([] if batched else events):
            if position == split:
                accumulator.series()
            accumulator.record(time, amount)
        expected = _reference_counts(window, events)
        got = accumulator.series()
        assert got.shape == expected.shape and np.array_equal(got, expected)
