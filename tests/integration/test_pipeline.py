"""End-to-end pipeline tests: protocol bytes -> classifier -> DARC ->
application execution, exercising the same path the examples use."""

import pytest

from repro.apps.kvstore import OP_TYPE_IDS, KvStore
from repro.core.classifier import CallableClassifier
from repro.core.darc import DarcScheduler
from repro.core.protocol import encode_request, peek_type
from repro.metrics.recorder import Recorder
from repro.server.config import ServerConfig
from repro.server.server import Server
from repro.sim.engine import EventLoop
from repro.workload.request import UNKNOWN_TYPE, Request


def header_classifier():
    def classify(request):
        if request.payload is None:
            return None
        return peek_type(request.payload)

    return CallableClassifier(classify)


def build_server(n_workers=4):
    store = KvStore()
    spec = store.workload_spec({"GET": 0.8, "SCAN": 0.2})
    # The spec orders ops ascending cost: GET=0, SCAN=1 here.
    loop = EventLoop()
    recorder = Recorder()
    scheduler = DarcScheduler(
        classifier=header_classifier(),
        profile=False,
        type_specs=spec.type_specs(),
    )
    server = Server(
        loop, scheduler, config=ServerConfig(n_workers=n_workers), recorder=recorder
    )
    return store, loop, server, recorder, scheduler


def make_request(rid, type_id, service, at, wire_type=None):
    payload = encode_request(rid, wire_type if wire_type is not None else type_id, at)
    return Request(rid, type_id, at, service, payload=payload)


class TestWireToScheduler:
    def test_typed_requests_flow_through(self):
        store, loop, server, recorder, scheduler = build_server()
        for i in range(10):
            req = make_request(i, 0, 2.0, 0.0)
            server.ingress(req)
        loop.run()
        assert recorder.completed == 10
        assert scheduler.classifier.unknown == 0

    def test_garbage_payload_goes_to_spillway(self):
        store, loop, server, recorder, scheduler = build_server()
        bad = Request(0, 0, 0.0, 2.0, payload=b"not-a-valid-header")
        server.ingress(bad)
        loop.run()
        assert recorder.completed == 1
        assert bad.classified_type == UNKNOWN_TYPE
        assert bad.worker_id == scheduler.reservation.spillway_worker

    def test_wire_type_overrides_ground_truth(self):
        # The classifier believes the header, not the workload: a SCAN
        # mislabeled as GET is scheduled as a GET (§5.6's failure mode).
        store, loop, server, recorder, scheduler = build_server()
        mislabeled = make_request(0, 1, 300.0, 0.0, wire_type=0)
        server.ingress(mislabeled)
        loop.run()
        assert mislabeled.classified_type == 0
        assert recorder.completed == 1

    def test_application_executes_real_operations(self):
        store, loop, server, recorder, scheduler = build_server()
        store.put("alpha", b"1")
        # Drive scheduling *and* the real store side by side, the way
        # examples/kvstore_service.py does.
        results = []

        class ExecutingRecorder(Recorder):
            def on_complete(self, request):
                super().on_complete(request)
                if request.classified_type == 0:
                    results.append(store.get("alpha"))
                else:
                    results.append(store.scan("", 10))

        recorder2 = ExecutingRecorder()
        loop2 = EventLoop()
        scheduler2 = DarcScheduler(
            classifier=header_classifier(),
            profile=False,
            type_specs=store.workload_spec({"GET": 0.8, "SCAN": 0.2}).type_specs(),
        )
        server2 = Server(
            loop2, scheduler2, config=ServerConfig(n_workers=2), recorder=recorder2
        )
        server2.ingress(make_request(0, 0, 2.0, 0.0))
        server2.ingress(make_request(1, 1, 300.0, 0.0))
        loop2.run()
        assert results[0] == b"1"
        assert isinstance(results[1], list)


class TestIngressCosts:
    def test_prototype_costs_shift_latency(self):
        cfg = ServerConfig.prototype(n_workers=2)
        loop = EventLoop()
        recorder = Recorder()
        scheduler = DarcScheduler(
            profile=False,
            type_specs=KvStore().workload_spec({"GET": 0.5, "SCAN": 0.5}).type_specs(),
        )
        server = Server(loop, scheduler, config=cfg, recorder=recorder)
        req = Request(0, 0, 0.0, 2.0)
        server.ingress(req)
        loop.run()
        expected = 2.0 + cfg.ingress_delay_us + cfg.dispatcher_service_us
        assert req.latency == pytest.approx(expected)
