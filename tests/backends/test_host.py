"""Tests for the shared simulation host (repro.backends.host)."""

import pytest

from repro.backends.base import Environment, RunConfig
from repro.backends.host import SimHost
from repro.backends.simulated import SimulatedBackend
from repro.errors import SimulationError
from repro.pipelines.registry import get_pipeline
from repro.serve.jobs import JobSpec
from repro.serve.service import PreprocessingService


def _host() -> SimHost:
    return SimHost(Environment(), widest=8)


class TestDrain:
    def test_names_process_parked_on_untriggered_event(self):
        host = _host()
        sim = host.sim
        never = sim.event()

        def parked():
            yield never

        def finishes():
            yield 1.0

        processes = [sim.process(parked(), name="parked"),
                     sim.process(finishes(), name="finishes")]
        with pytest.raises(SimulationError,
                           match=r"host drained: \['stuck-job'\]"):
            host.drain(processes, ["stuck-job", "done-job"],
                       "host drained")

    def test_reraises_failed_process_exception_type(self):
        class Boom(Exception):
            pass

        host = _host()
        sim = host.sim

        def fails():
            yield 1.0
            raise Boom("worker died")

        failing = sim.process(fails(), name="fails")

        def watcher():
            # Watching the failure keeps the kernel from raising it, so
            # the drain itself must surface it.
            try:
                yield failing
            except Boom:
                pass

        sim.process(watcher(), name="watcher")
        with pytest.raises(Boom, match="worker died"):
            host.drain([failing], ["fails"], "unused")


class TestNullHost:
    def test_no_faults_no_registry_adds_no_processes_or_events(self):
        host = _host()
        host.start(live=lambda: True, sample=lambda registry: None)
        assert host.fault_engine is None
        host.drain([], [], "unused")
        assert host.sim.events_processed == 0
        assert host.sim.events_inlined == 0


class TestReadLinkPin:
    def test_backend_and_single_tenant_service_pin_the_same_share(
            self, monkeypatch):
        built = []

        class RecordingHost(SimHost):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr("repro.backends.simulated.SimHost",
                            RecordingHost)
        environment = Environment()
        plan = get_pipeline("MP3").split_at("decoded")
        SimulatedBackend(environment).run(
            plan, RunConfig(threads=8, epochs=1))
        (backend_host,) = built

        service = PreprocessingService(slots=1, environment=environment,
                                       materialize_offline=False)
        service.run([JobSpec(tenant="t", pipeline="MP3", split="decoded",
                             threads=8, epochs=1)])
        storage = environment.storage
        expected = min(storage.stream_bw, storage.aggregate_bw / 8)
        assert (backend_host.cluster.read_link.per_stream_bw
                == service._host.cluster.read_link.per_stream_bw
                == expected)
