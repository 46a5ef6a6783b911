"""Extension: DARC at cluster scale.

The paper argues DARC "reduces the overall number of machines needed to
serve this workload".  This benchmark quantifies that: 4 replicas behind
a join-shortest-queue balancer with oracle (``staleness_us=0``) views,
comparing c-FCFS and DARC backends at the same offered load, plus the
balancer comparison (random vs JSQ vs type-aware replica reservation —
DARC's idea one level up).
"""

import sys

from repro.rack.balancers import TypeAffinity
from repro.rack.rack import run_rack
from repro.systems.persephone import PersephoneCfcfsSystem, PersephoneSystem
from repro.workload.presets import high_bimodal

N_REPLICAS = 4
N_WORKERS = 14
UTILIZATION = 0.80


def type_aware(servers, views, rngs, spec):
    # Reserve one replica for shorts; longs share the other three.
    return TypeAffinity(
        servers,
        views,
        assignment={0: list(range(len(servers))), 1: list(range(1, len(servers)))},
        spill_threshold=sys.maxsize,
    )


def run_oracle(system, balancer, n_requests):
    return run_rack(
        system, high_bimodal(), balancer=balancer, n_servers=N_REPLICAS,
        utilization=UTILIZATION, n_requests=n_requests, seed=1, staleness_us=0.0,
    )


def test_cluster_darc_vs_cfcfs(bench_n_requests):
    def run_both():
        darc = run_oracle(
            PersephoneSystem(n_workers=N_WORKERS, oracle=True), "jsq-stale",
            bench_n_requests,
        )
        cfcfs = run_oracle(
            PersephoneCfcfsSystem(n_workers=N_WORKERS), "jsq-stale", bench_n_requests
        )
        return darc, cfcfs

    darc, cfcfs = run_both()
    print()
    print(f"cluster ({N_REPLICAS} replicas, JSQ) @ {UTILIZATION:.0%}:")
    print(f"  DARC backends:   short p99.9 = "
          f"{darc.summary.per_type[0].tail_latency:8.1f}us  "
          f"overall slowdown = {darc.summary.overall_tail_slowdown:6.1f}x")
    print(f"  c-FCFS backends: short p99.9 = "
          f"{cfcfs.summary.per_type[0].tail_latency:8.1f}us  "
          f"overall slowdown = {cfcfs.summary.overall_tail_slowdown:6.1f}x")

    # DARC's single-machine win survives the cluster layer.
    assert (
        darc.summary.per_type[0].tail_latency
        < cfcfs.summary.per_type[0].tail_latency / 3
    )
    # JSQ keeps replicas balanced for both.
    assert darc.load_imbalance() < 0.2
    assert cfcfs.load_imbalance() < 0.2


def test_cluster_balancer_comparison(bench_n_requests):
    def run_all():
        out = {}
        for name, balancer in (
            ("random", "random"),
            ("jsq", "jsq-stale"),
            ("type-aware", type_aware),
        ):
            out[name] = run_oracle(
                PersephoneCfcfsSystem(n_workers=N_WORKERS), balancer, bench_n_requests
            )
        return out

    results = run_all()
    print()
    for name, result in results.items():
        short = result.summary.per_type[0].tail_latency
        print(f"  {name:>10}: short p99.9 = {short:8.1f}us  "
              f"imbalance = {result.load_imbalance():.2f}")

    short = {n: r.summary.per_type[0].tail_latency for n, r in results.items()}
    # JSQ beats blind random placement.
    assert short["jsq"] <= short["random"]
    # Whole-replica type reservation protects shorts even with FCFS
    # backends — the cluster-level analogue of DARC's claim.
    assert short["type-aware"] < short["random"] / 3
