"""Tests for stream tenant specs and seeded arrival schedules."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.base import RunConfig
from repro.errors import ProfilingError
from repro.stream import (ARRIVAL_KINDS, StreamTenantSpec, arrival_schedule,
                          epoch_request_plans, generate_stream,
                          request_plans)
from repro.stream.requests import BURST_SIZE, _schedule_rng


def make_spec(**overrides) -> StreamTenantSpec:
    base = dict(tenant="t0", pipeline="MP3", split="decoded")
    base.update(overrides)
    return StreamTenantSpec(**base)


class TestStreamTenantSpec:
    def test_resolve_plan_builds_from_registry(self):
        plan = make_spec().resolve_plan()
        assert plan.strategy_name == "decoded"
        assert plan.pipeline.name == "MP3"

    def test_describe_mentions_the_knobs(self):
        text = make_spec(arrival="burst", batch=8, workers=3).describe()
        assert "burst" in text
        assert "batch 8" in text

    @pytest.mark.parametrize("bad", [
        dict(arrival="lunar"),
        dict(rate=0.0),
        dict(rate=-1.0),
        dict(requests=0),
        dict(batch=0),
        dict(workers=0),
        dict(queue_bound=-1),
        dict(slo_stretch=0.0),
        dict(start=-1.0),
        dict(rate=float("nan")),
        dict(rate=float("inf")),
        dict(slo_stretch=float("nan")),
        dict(slo_stretch=float("inf")),
        dict(start=float("nan")),
        dict(start=float("inf")),
    ])
    def test_validation(self, bad):
        with pytest.raises(ProfilingError):
            make_spec(**bad)


class TestArrivalSchedules:
    @pytest.mark.parametrize("kind", sorted(ARRIVAL_KINDS))
    def test_seeded_schedules_are_deterministic(self, kind):
        spec = make_spec(arrival=kind, requests=24)
        first = arrival_schedule(spec, seed=7)
        assert first == arrival_schedule(spec, seed=7)
        assert first != arrival_schedule(spec, seed=8)

    @pytest.mark.parametrize("kind", sorted(ARRIVAL_KINDS))
    def test_schedules_are_sorted_and_complete(self, kind):
        spec = make_spec(arrival=kind, requests=50, start=10.0)
        times = arrival_schedule(spec, seed=0)
        assert len(times) == 50
        assert list(times) == sorted(times)
        assert all(time >= 10.0 for time in times)

    def test_tenant_schedules_are_independent(self):
        """Namespaced RNGs: one tenant's schedule is the same no matter
        which other tenants run beside it."""
        alone = arrival_schedule(make_spec(tenant="a"), seed=0)
        other = arrival_schedule(make_spec(tenant="b"), seed=0)
        assert alone != other
        assert alone == arrival_schedule(make_spec(tenant="a"), seed=0)

    def test_burst_clusters_arrivals(self):
        spec = make_spec(arrival="burst", rate=1.0, requests=16)
        times = arrival_schedule(spec, seed=0)
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Intra-burst gaps are tiny relative to the 1/rate mean.
        assert sum(1 for gap in gaps if gap <= 0.06) >= 8


def _reference_burst_schedule(spec, seed):
    """The burst schedule as first written: a length test per append."""
    rng = _schedule_rng(spec, seed)
    intra = 0.05 / spec.rate
    now = spec.start
    times = []
    while len(times) < spec.requests:
        now += rng.expovariate(spec.rate / BURST_SIZE)
        for offset in range(BURST_SIZE):
            if len(times) >= spec.requests:
                break
            times.append(now + offset * intra)
    return tuple(sorted(times))


class TestBurstScheduleDifferential:
    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(seed=st.integers(0, 2**31), tenant=st.sampled_from(["t0", "t7"]),
           rate=st.floats(min_value=1e-3, max_value=1e4),
           start=st.floats(min_value=0.0, max_value=1e6),
           requests=st.integers(1, 9 * BURST_SIZE + 3))
    def test_matches_the_reference_bit_for_bit(self, seed, tenant, rate,
                                               start, requests):
        spec = make_spec(tenant=tenant, arrival="burst", rate=rate,
                         start=start, requests=requests)
        assert (arrival_schedule(spec, seed)
                == _reference_burst_schedule(spec, seed))

    @pytest.mark.parametrize("requests", [
        1, BURST_SIZE - 1, BURST_SIZE, BURST_SIZE + 1, 360 * BURST_SIZE,
        360 * BURST_SIZE - 1])
    def test_whole_and_cut_bursts(self, requests):
        # Rate 40 makes the 0.05 / rate intra-burst spacing overlap the
        # next burst often enough that the final sort matters.
        spec = make_spec(arrival="burst", rate=40.0, start=3.0,
                         requests=requests)
        times = arrival_schedule(spec, seed=11)
        assert len(times) == requests
        assert times == _reference_burst_schedule(spec, seed=11)


class TestRequestPlans:
    def test_chunks_stride_round_robin(self):
        spec = make_spec(requests=10)
        plans = request_plans(spec, seed=0, chunk_count=3)
        assert [plan.chunk for plan in plans] == [
            index % 3 for index in range(10)]
        assert [plan.index for plan in plans] == list(range(10))
        assert all(plan.batch == spec.batch for plan in plans)
        assert all(plan.worker is None for plan in plans)

    def test_chunk_count_must_be_positive(self):
        with pytest.raises(ProfilingError):
            request_plans(make_spec(), chunk_count=0)

    def test_epoch_plans_mirror_the_job_partition(self):
        from repro.backends.simulated import partition_jobs
        plan = make_spec().resolve_plan()
        config = RunConfig(threads=4)
        requests = epoch_request_plans(plan, config)
        jobs = [job for thread in partition_jobs(
            plan.pipeline.sample_count, 4, config.max_jobs)
            for job in thread]
        assert len(requests) == len(jobs)
        assert sum(r.batch for r in requests) == plan.pipeline.sample_count
        assert all(request.arrival == 0.0 for request in requests)
        assert {request.worker for request in requests} <= set(range(4))
        chunks = [request.chunk for request in requests]
        assert len(set(chunks)) == len(chunks)
        assert all(chunk < 0 for chunk in chunks)


class TestGenerateStream:
    def test_seeded_population_is_deterministic(self):
        first = generate_stream(6, seed=3, arrival="burst")
        assert first == generate_stream(6, seed=3, arrival="burst")
        assert first != generate_stream(6, seed=4, arrival="burst")
        assert [spec.tenant for spec in first] == [
            f"tenant-{index}" for index in range(6)]

    def test_knobs_reach_every_tenant(self):
        streams = generate_stream(3, rate=4.0, requests=9, batch=16,
                                  workers=5, queue_bound=7,
                                  slo_stretch=None, shed=True)
        for spec in streams:
            assert (spec.rate, spec.requests, spec.batch,
                    spec.workers, spec.queue_bound,
                    spec.slo_stretch, spec.shed) == (
                4.0, 9, 16, 5, 7, None, True)

    def test_validation(self):
        with pytest.raises(ProfilingError):
            generate_stream(0)
        with pytest.raises(ProfilingError):
            generate_stream(2, pipelines=())

    def test_specs_resolve_against_the_registry(self):
        for spec in generate_stream(8, seed=1):
            assert spec.resolve_plan().pipeline.sample_count > 0
