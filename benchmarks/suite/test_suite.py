"""Smoke tests for the benchmark suite: ``pytest benchmarks/suite -q``.

One ``--quick`` run of every workload (2,000 requests, one untraced
round plus the traced run) checks the printed metrics against
``BENCHMARK.json``, digest parity between traced and untraced runs, and
that the ledger's layer self times add up to ``EventLoop.run``.  Two
in-process rounds check that host-speed sampling leaves the simulation
unchanged and that a missing wrap target only warns.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, json.loads(out.read_text())


def test_catalogue_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_quick_run_prints_every_metric_with_its_unit(quick):
    proc, _ = quick
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    names = {**run.END_TO_END, **run.PER_LAYER}
    expected = {f"{w}/{m}": unit for w in WORKLOADS for m, unit in names.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {tuple(line.split()[:2]): line.split()[3] for line in lines[:-1]
               if len(line.split()) > 3 and line.split()[1] in names}
    for workload in WORKLOADS:
        for metric, unit in names.items():
            assert printed[(workload, metric)] == unit


def test_traced_digest_equals_untraced(quick):
    _, doc = quick
    for name, summary in doc["workloads"].items():
        digests = {(r["traced"], r["digest"]) for r in summary["runs"]}
        assert {t for t, _ in digests} == {False, True}, name
        assert len({d for _, d in digests}) == 1, name


def test_layer_self_times_sum_to_run_wall_time(quick):
    _, doc = quick
    for name, summary in doc["workloads"].items():
        assert summary["self_sum_error"] < 0.01, name
        assert summary["per_layer"]["bench.coverage"]["median"] >= child.MIN_COVERAGE, name


def test_speed_sampling_leaves_the_simulation_unchanged():
    import workloads

    result = workloads.build("server-shinjuku", 3000, 1)()
    recorder, loop = result.server.recorder, result.server.loop
    unsampled = child.outcome_digest(
        recorder.columns(), recorder.completed, recorder.dropped, loop.events_processed
    )
    record = child.run_round("server-shinjuku", 3000, 1, traced=False)
    assert record["sampled_call_s"] > 0
    assert record["digest"] == unsampled


def test_missing_wrap_target_warns_instead_of_crashing(monkeypatch, capsys):
    import repro.rack.views

    monkeypatch.delattr(repro.rack.views, "QueueViews")
    record = child.run_round("server-darc", 500, 1, traced=True)
    assert "repro.rack.views.QueueViews" in record["missing"]
    assert "warning: ledger target repro.rack.views.QueueViews" in capsys.readouterr().err
    assert record["checks"] == []
    assert record["completed"] == 500


def test_compare_verdicts():
    def stats(values):
        return run.quartiles(values)

    base = stats([100, 101, 102, 103, 104])
    assert compare.verdict(base, stats([101, 102, 103, 104, 105]), 0.1, "higher") == "unchanged"
    assert compare.verdict(base, stats([80, 81, 82, 83, 84]), 0.1, "higher") == "worse"
    assert compare.verdict(base, stats([80, 81, 82, 83, 84]), 0.1, "lower") == "better"
    noisy = stats([60, 70, 100, 130, 140])
    assert compare.verdict(base, noisy, 0.1, "higher") == "unresolved"
    far = stats([150, 170, 200, 230, 240])
    assert compare.verdict(base, far, 0.1, "higher") == "better"
