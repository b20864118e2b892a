"""Unit tests for the Trace container and the Figure-1 generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traces import Trace, figure1_traces, hyperexponential_samples


class TestTraceContainer:
    def test_basic_statistics(self, rng):
        trace = Trace(rng.exponential(2.0, 10000), label="expo")
        assert trace.mean == pytest.approx(2.0, rel=0.05)
        assert trace.scv == pytest.approx(1.0, rel=0.1)
        assert len(trace) == 10000

    def test_total_time(self):
        trace = Trace([1.0, 2.0, 3.0])
        assert trace.total_time == pytest.approx(6.0)

    def test_percentile(self, rng):
        trace = Trace(rng.exponential(1.0, 20000))
        assert trace.percentile(0.95) == pytest.approx(-np.log(0.05), rel=0.1)

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            Trace([1.0, 2.0]).percentile(1.5)

    def test_event_times_cumulative(self):
        trace = Trace([1.0, 2.0, 3.0])
        assert np.allclose(trace.event_times(), [1.0, 3.0, 6.0])

    def test_head(self):
        trace = Trace([1.0, 2.0, 3.0, 4.0])
        assert len(trace.head(2)) == 2

    def test_head_requires_two(self):
        with pytest.raises(ValueError):
            Trace([1.0, 2.0, 3.0]).head(1)

    def test_rejects_negative_durations(self):
        with pytest.raises(ValueError):
            Trace([1.0, -2.0])

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            Trace([1.0])

    def test_summary_keys(self, rng):
        summary = Trace(rng.exponential(1.0, 1000), label="x").summary()
        for key in ("label", "count", "mean", "scv", "p95", "index_of_dispersion"):
            assert key in summary

    def test_autocorrelation_consistency(self, rng):
        trace = Trace(rng.exponential(1.0, 5000))
        acf = trace.autocorrelation_function(3)
        assert acf[0] == pytest.approx(trace.autocorrelation(1), abs=1e-9)


class TestGenerators:
    def test_hyperexponential_moments(self, rng):
        samples = hyperexponential_samples(30000, 1.0, 4.0, rng=rng)
        assert samples.mean() == pytest.approx(1.0, rel=0.05)
        assert samples.var() / samples.mean() ** 2 == pytest.approx(4.0, rel=0.25)


class TestFigure1:
    @pytest.fixture(scope="class")
    def traces(self):
        return figure1_traces(size=20_000, rng=np.random.default_rng(42))

    def test_four_traces(self, traces):
        assert set(traces) == {"a", "b", "c", "d"}

    def test_identical_marginals(self, traces):
        sorted_values = [np.sort(trace.samples) for trace in traces.values()]
        for values in sorted_values[1:]:
            assert np.allclose(values, sorted_values[0])

    def test_mean_and_scv_match_construction(self, traces):
        for trace in traces.values():
            assert trace.mean == pytest.approx(1.0, rel=0.05)
            assert trace.scv == pytest.approx(3.0, rel=0.15)

    def test_dispersion_strictly_increasing(self, traces):
        dispersions = [traces[k].index_of_dispersion for k in ("a", "b", "c", "d")]
        assert all(a < b for a, b in zip(dispersions, dispersions[1:]))

    def test_random_trace_dispersion_close_to_scv(self, traces):
        assert traces["a"].index_of_dispersion == pytest.approx(3.0, abs=1.5)

    def test_intermediate_targets_roughly_hit(self, traces):
        assert traces["b"].index_of_dispersion == pytest.approx(22.3, rel=0.5)
        assert traces["c"].index_of_dispersion == pytest.approx(92.6, rel=0.5)

    def test_single_burst_trace_in_the_hundreds(self, traces):
        assert traces["d"].index_of_dispersion > 150.0
