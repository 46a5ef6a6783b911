#!/usr/bin/env python3
"""A Redis-style KV service behind Perséphone.

This example wires together the *whole* stack:

1. a real in-memory :class:`~repro.apps.kvstore.KvStore` populated with
   data, executing genuine GET/PUT/SCAN operations;
2. the wire protocol (type id in the request header) and a *header
   classifier* that parses it — exactly Perséphone's request-classifier
   API (§4.2);
3. a scheduling simulation of the same operation mix, comparing c-FCFS
   against profiled DARC.

The point: a 10%-SCAN mix is enough to wreck GET tails under FCFS, and
DARC fixes it by learning the mix online (no oracle).

Run:  python examples/kvstore_service.py
"""

from repro.apps.kvstore import OP_TYPE_IDS, KvStore
from repro.core.classifier import CallableClassifier
from repro.core.protocol import encode_request, peek_type
from repro.experiments.common import run_once
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from repro.workload.request import Request

MIX = {"GET": 0.88, "PUT": 0.10, "SCAN": 0.02}
UTILIZATION = 0.80
N_REQUESTS = 40_000


def populate(store: KvStore, n: int = 1000) -> None:
    for i in range(n):
        store.put(f"user:{i:05d}", f"profile-{i}".encode())


def demo_real_operations(store: KvStore) -> None:
    """Exercise the store for real, including the expensive scan."""
    print(f"store holds {len(store)} keys")
    print("GET user:00042 ->", store.get("user:00042"))
    page = store.scan("user:00100", 5)
    print("SCAN from user:00100:", [k for k, _ in page])
    total_bytes = store.eval(lambda s: sum(len(v) for _, v in s.scan("", len(s))))
    print(f"EVAL total value bytes = {total_bytes}")
    print(f"op counts: { {k: v for k, v in store.op_counts.items() if v} }\n")


def header_classifier() -> CallableClassifier:
    """Parse the type id straight out of the wire header — the ~100ns
    classifier the paper measures."""

    def classify(request: Request):
        if request.payload is None:
            return None
        return peek_type(request.payload)

    return CallableClassifier(classify)


def demo_wire_roundtrip() -> None:
    classifier = header_classifier()
    payload = encode_request(rid=1, type_id=OP_TYPE_IDS["SCAN"], timestamp_us=0.0)
    request = Request(1, OP_TYPE_IDS["SCAN"], 0.0, 300.0, payload=payload)
    assert classifier.classify(request) == OP_TYPE_IDS["SCAN"]
    print("header classifier decoded SCAN from raw bytes "
          f"(cost model: {classifier.cost_us * 1000:.0f}ns per request)\n")


def demo_scheduling(store: KvStore) -> None:
    spec = store.workload_spec(MIX, name="kv-service")
    print(spec.describe(), "\n")

    for system in (
        PersephoneCfcfsSystem(n_workers=14, name="c-FCFS"),
        PersephoneSystem(n_workers=14, oracle=False, name="DARC (profiled)"),
    ):
        result = run_once(system, spec, UTILIZATION, n_requests=N_REQUESTS, seed=2)
        print(f"=== {system.name} ===")
        print(result.summary.describe())
        reservation = getattr(result.scheduler, "reservation", None)
        if reservation is not None:
            print(reservation.describe())
        print()


def main() -> None:
    store = KvStore()
    populate(store)
    demo_real_operations(store)
    demo_wire_roundtrip()
    demo_scheduling(store)


if __name__ == "__main__":
    main()
