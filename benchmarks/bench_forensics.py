"""Forensics cost: blame attribution over a traced run.

The blame analyzer is post-hoc, so it can never slow a simulation —
but a forensics pass that takes longer than the run it explains is
still a broken tool.  So both the blocking-set construction over a
figure-5-shaped traced run and the end-to-end collect path (trace file
-> registry record) that ``--forensics`` adds to every driver must take
no more wall time than the traced ``run_once`` that wrote the trace.
"""

import time

import pytest

from repro.experiments.common import run_once
from repro.forensics.blame import analyze_blame
from repro.forensics.collect import analyze_trace_file
from repro.systems.persephone import PersephoneSystem
from repro.trace import Tracer
from repro.workload.presets import high_bimodal

N_WORKERS = 14
UTILIZATION = 0.70


@pytest.fixture(scope="module")
def traced_run(bench_n_requests, tmp_path_factory):
    """One traced figure-5 load point shared by both benchmarks."""
    path = str(tmp_path_factory.mktemp("bench-traces") / "darc.trace.json")
    tracer = Tracer()
    start = time.perf_counter()
    run_once(
        PersephoneSystem(n_workers=N_WORKERS, oracle=False),
        high_bimodal(),
        UTILIZATION,
        n_requests=bench_n_requests,
        seed=1,
        tracer=tracer,
        trace_path=path,
    )
    return tracer, path, time.perf_counter() - start


def test_blame_attribution(traced_run):
    """Blame analysis of every tail victim."""
    tracer, _, run_wall = traced_run
    spans = list(tracer.spans.values())

    start = time.perf_counter()
    report = analyze_blame(spans)
    report.verify()
    wall = time.perf_counter() - start
    rate = report.slices_indexed / wall
    print()
    print(f"blame attribution ({len(spans)} spans, "
          f"{sum(report.n_victims(t) for t in report.victim_types())} victims):")
    print(f"  {report.slices_indexed} slices indexed in {wall:.2f}s "
          f"= {rate:,.0f} slices/s ({wall / run_wall:.2f} of the traced run)")
    assert wall <= run_wall


def test_collect_trace_file(traced_run):
    """The full --forensics per-trace path: load, blame, summarize."""
    _, path, run_wall = traced_run

    start = time.perf_counter()
    record = analyze_trace_file(path)
    wall = time.perf_counter() - start
    n = record["summary"]["completed"]
    print()
    print(f"collect: {n} spans -> registry record in {wall:.2f}s "
          f"= {n / wall:,.0f} spans/s ({wall / run_wall:.2f} of the traced run)")
    assert record["digests"]["reconciliation_ok"] is True
    assert wall <= run_wall
