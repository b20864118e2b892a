"""Tests for the discrete-event simulation primitives (events, PS server, streams)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation import EventQueue, ProcessorSharingServer, RandomStreams


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.schedule(2.0, "b")
        queue.schedule(1.0, "a")
        queue.schedule(3.0, "c")
        assert [queue.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.schedule(1.0, "a")
        assert queue and len(queue) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestProcessorSharingServer:
    def test_single_job_completes_after_its_demand(self):
        server = ProcessorSharingServer()
        server.arrive("job", 2.0, now=0.0)
        assert server.next_completion_time(0.0) == pytest.approx(2.0)
        assert server.complete_next(2.0) == "job"
        assert server.num_jobs == 0

    def test_two_equal_jobs_share_capacity(self):
        server = ProcessorSharingServer()
        server.arrive("a", 1.0, now=0.0)
        server.arrive("b", 1.0, now=0.0)
        # Both jobs get half the capacity: each finishes at t = 2.
        assert server.next_completion_time(0.0) == pytest.approx(2.0)

    def test_late_arrival_slows_first_job(self):
        server = ProcessorSharingServer()
        server.arrive("a", 2.0, now=0.0)
        server.arrive("b", 2.0, now=1.0)
        # Job a has 1 unit of work left at t=1; sharing doubles remaining time.
        assert server.next_completion_time(1.0) == pytest.approx(3.0)

    def test_completion_order_by_remaining_work(self):
        server = ProcessorSharingServer()
        server.arrive("long", 5.0, now=0.0)
        server.arrive("short", 1.0, now=0.0)
        completion = server.next_completion_time(0.0)
        assert server.complete_next(completion) == "short"

    def test_idle_server_has_no_completion(self):
        server = ProcessorSharingServer()
        assert server.next_completion_time(0.0) is None
        with pytest.raises(RuntimeError):
            server.complete_next(0.0)

    def test_rejects_duplicate_job(self):
        server = ProcessorSharingServer()
        server.arrive("a", 1.0, now=0.0)
        with pytest.raises(ValueError):
            server.arrive("a", 1.0, now=0.5)

    def test_rejects_nonpositive_demand(self):
        with pytest.raises(ValueError):
            ProcessorSharingServer().arrive("a", 0.0, now=0.0)

    def test_rejects_time_travel(self):
        server = ProcessorSharingServer()
        server.advance(5.0)
        with pytest.raises(ValueError):
            server.advance(1.0)

    def test_ps_fairness_statistical(self, rng):
        """Mean response time of the PS server under Poisson arrivals matches
        the M/M/1-PS formula 1/(mu - lambda)."""
        arrival_rate, service_rate = 0.5, 1.0
        horizon = 20000.0
        server = ProcessorSharingServer()
        clock = 0.0
        arrivals = {}
        responses = []
        next_arrival = rng.exponential(1.0 / arrival_rate)
        job_id = 0
        while clock < horizon:
            completion = server.next_completion_time(clock)
            if completion is None or next_arrival < completion:
                clock = next_arrival
                server.arrive(job_id, rng.exponential(1.0 / service_rate), clock)
                arrivals[job_id] = clock
                job_id += 1
                next_arrival = clock + rng.exponential(1.0 / arrival_rate)
            else:
                clock = completion
                finished = server.complete_next(clock)
                responses.append(clock - arrivals.pop(finished))
        expected = 1.0 / (service_rate - arrival_rate)
        assert np.mean(responses) == pytest.approx(expected, rel=0.1)


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_deterministic_across_instances(self):
        first = RandomStreams(7).stream("think").random(5)
        second = RandomStreams(7).stream("think").random(5)
        assert np.allclose(first, second)

    def test_independent_of_creation_order(self):
        streams_ab = RandomStreams(3)
        a_first = streams_ab.stream("a").random(3)
        streams_ba = RandomStreams(3)
        streams_ba.stream("b")
        a_second = streams_ba.stream("a").random(3)
        assert np.allclose(a_first, a_second)

    def test_different_names_differ(self):
        streams = RandomStreams(5)
        assert not np.allclose(streams.stream("x").random(4), streams.stream("y").random(4))

    def test_getitem_alias(self):
        streams = RandomStreams(2)
        assert streams["z"] is streams.stream("z")
