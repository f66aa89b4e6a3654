"""The engine's request planner against its reference, request_plans().

With no explicit plan the engine builds each tenant's records straight
from the arrival schedule instead of expanding
:func:`~repro.stream.requests.request_plans` and sorting the result.
These tests hold that shortcut to the reference path:

* the seeded records equal the reference expansion field by field and
  in the same order;
* a run handed the reference expansion as explicit ``plans=`` gives a
  report identical to the seeded run;
* explicit plans are still sorted into ``(arrival, index)`` order, so a
  shuffled plan replays exactly like the ordered one.

Uses hypothesis when available (derandomized, like the stream property
suite); otherwise a fixed-seed random sweep over the same draws.
"""

import dataclasses
import random

from repro.backends.base import RunConfig
from repro.pipelines.registry import get_pipeline
from repro.stream import (ARRIVAL_KINDS, StreamTenantSpec, StreamingService,
                          epoch_request_plans, request_plans)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is optional
    HAVE_HYPOTHESIS = False

N_EXAMPLES = 150

PIPELINE_SPLITS = (("MP3", "decoded"), ("MP3", "unprocessed"),
                   ("CV2-JPG", "unprocessed"), ("NILM", "aggregated"))
ARRIVALS = tuple(sorted(ARRIVAL_KINDS))


@dataclasses.dataclass(frozen=True)
class SizedSpec(StreamTenantSpec):
    """A tenant spec whose pipeline is cut to ``sample_count`` samples,
    which sets how many chunks the engine strides over."""

    sample_count: int = 1

    def resolve_plan(self):
        return (get_pipeline(self.pipeline)
                .with_sample_count(self.sample_count)
                .split_at(self.split))


def make_spec(pipeline_index, arrival_index, requests, batch,
              sample_count, tenant="t0"):
    pipeline, split = PIPELINE_SPLITS[pipeline_index]
    return SizedSpec(tenant=tenant, pipeline=pipeline, split=split,
                     arrival=ARRIVALS[arrival_index], rate=2.0,
                     requests=requests, batch=batch,
                     sample_count=sample_count)


def reference_plans(spec, seed):
    """The reference expansion, with the engine's chunk stride."""
    chunk_count = max(1, spec.sample_count // spec.batch)
    return request_plans(spec, seed=seed, chunk_count=chunk_count)


def untimed(report):
    """The report without its host wall time, which no run reproduces."""
    return dataclasses.replace(report, wall_seconds=0.0)


def check_planner(seed, draws):
    specs = [make_spec(*draw, tenant=f"t{index}")
             for index, draw in enumerate(draws)]
    seeded = StreamingService().run(specs, seed=seed)
    plans = {spec.tenant: reference_plans(spec, seed) for spec in specs}
    for spec, tenant in zip(specs, seeded.tenants):
        expected = plans[spec.tenant]
        assert [(r.index, r.arrival, r.batch, r.chunk, r.pinned)
                for r in tenant.records] == [
            (p.index, p.arrival, p.batch, p.chunk, p.worker)
            for p in expected]
    explicit = StreamingService().run(specs, seed=seed, plans=plans)
    assert untimed(explicit) == untimed(seeded)


if HAVE_HYPOTHESIS:
    tenant_strategy = st.tuples(
        st.integers(0, len(PIPELINE_SPLITS) - 1),
        st.integers(0, len(ARRIVALS) - 1),
        st.integers(1, 24),                      # requests
        st.integers(1, 16),                      # batch
        st.integers(1, 96))                      # sample count

    @given(st.integers(0, 2**16), st.lists(tenant_strategy, min_size=1,
                                           max_size=2))
    @settings(max_examples=N_EXAMPLES, derandomize=True, deadline=None)
    def test_seeded_records_match_the_reference_expansion(seed, draws):
        check_planner(seed, draws)

else:  # pragma: no cover - exercised only without hypothesis
    def test_seeded_records_match_the_reference_expansion():
        rng = random.Random(0x9A7)
        for _ in range(N_EXAMPLES):
            draws = [(rng.randrange(len(PIPELINE_SPLITS)),
                      rng.randrange(len(ARRIVALS)), rng.randint(1, 24),
                      rng.randint(1, 16), rng.randint(1, 96))
                     for _ in range(rng.randint(1, 2))]
            check_planner(rng.randint(0, 2**16), draws)


def test_one_chunk_when_the_batch_covers_the_dataset():
    spec = make_spec(0, 0, requests=6, batch=16, sample_count=8)
    tenant = StreamingService().run([spec], seed=4).tenants[0]
    assert [record.chunk for record in tenant.records] == [0] * 6


def epoch_replay(shuffle_seed=None):
    spec = StreamTenantSpec(tenant="t0", pipeline="MP3", split="decoded",
                            workers=4, slo_stretch=None)
    planned = list(epoch_request_plans(
        spec.resolve_plan(), RunConfig(threads=4, epochs=1, max_jobs=48)))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(planned)
    return StreamingService().run([spec], plans={"t0": planned})


def test_shuffled_explicit_plans_replay_like_ordered_ones():
    ordered = epoch_replay()
    assert [record.index for record in ordered.tenants[0].records] == list(
        range(len(ordered.tenants[0].records)))
    for shuffle_seed in (1, 2):
        assert untimed(epoch_replay(shuffle_seed)) == untimed(ordered)


def test_request_records_carry_no_instance_dict():
    spec = make_spec(0, 1, requests=4, batch=4, sample_count=32)
    for record in StreamingService().run([spec]).tenants[0].records:
        assert not hasattr(record, "__dict__")
