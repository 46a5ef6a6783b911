"""``repro-forensics`` CLI behavior and the observatory HTML report."""

import json
import os

import pytest

from repro.forensics.cli import main
from repro.forensics.collect import collect_directory
from repro.forensics.report import write_report


@pytest.fixture(scope="module")
def store(trace_dir, tmp_path_factory):
    root = str(tmp_path_factory.mktemp("forensics-store"))
    collect_directory(root, trace_dir, experiment="forensics-test")
    return root


class TestBlameCommand:
    def test_text_output(self, trace_path, capsys):
        assert main(["blame", trace_path]) == 0
        out = capsys.readouterr().out
        assert "Blame report" in out
        assert "reconciliation" in out

    def test_json_output_reconciles(self, trace_path, capsys):
        assert main(["blame", trace_path, "--json", "--pct", "95"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pct"] == 95.0
        assert data["reconciliation"]["ok"] is True

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        assert main(["blame", str(tmp_path / "nope.trace.json")]) == 2
        assert "repro-forensics:" in capsys.readouterr().err


class TestHerdingCommand:
    def test_single_server_trace_has_no_route_log(self, trace_path, capsys):
        assert main(["herding", trace_path]) == 2
        assert "route" in capsys.readouterr().err


class TestCollectAndRegistry:
    def test_collect_then_list(self, trace_dir, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert main(["collect", "--store", root, "--trace-dir", trace_dir]) == 0
        out = capsys.readouterr().out
        assert "2 run(s) collected" in out
        assert main(["registry", root]) == 0
        listing = capsys.readouterr().out
        assert "blame=" in listing and "herding=n/a" in listing

    def test_registry_json(self, store, capsys):
        assert main(["registry", store, "--json"]) == 0
        run_ids = json.loads(capsys.readouterr().out)
        assert len(run_ids) == 2


class TestDiffCommand:
    def test_seed_vs_seed_diff(self, store, capsys):
        assert main(["diff", store, "seed=1", "seed=2"]) == 0
        out = capsys.readouterr().out
        assert "Forensics diff" in out
        assert "overall.tail_latency_us" in out

    def test_json_diff(self, store, capsys):
        assert main(["diff", store, "seed=1", "seed=2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_a"] == data["n_b"] == 1
        assert "overall.tail_latency_us" in data["metrics"]

    def test_empty_selector_exits_2(self, store, capsys):
        assert main(["diff", store, "seed=1", "seed=99"]) == 2
        assert "each side" in capsys.readouterr().err


class TestReport:
    def test_cli_writes_html(self, store, tmp_path, capsys):
        out_path = str(tmp_path / "observatory.html")
        assert main(["report", store, "-o", out_path]) == 0
        html = open(out_path).read()
        assert "Blame matrix" in html
        assert "forensics-test" in html

    def test_bench_glob_section(self, store, tmp_path):
        def stat(value, unit):
            return {"median": value, "q1": value, "q3": value, "n": 1,
                    "values": [value], "unit": unit}

        # The shape benchmarks/suite/run.py --out writes, cut to one
        # workload, its end-to-end metrics and one ledger layer.
        results = tmp_path / "suite-unit.json"
        results.write_text(json.dumps({
            "seed": 1, "rounds": 1, "correct": True, "attempted": 2,
            "failed": 0,
            "workloads": {
                "server-darc": {
                    "end_to_end": {
                        "sim_rps": stat(98765.0, "req/s"),
                        "setup_s": stat(0.25, "s"),
                        "peak_rss_mb": stat(40.5, "MB"),
                    },
                    "per_layer": {
                        "core.self_us_per_req": stat(11.5, "us/req"),
                        "core.share": stat(0.55, "fraction"),
                    },
                },
            },
        }))
        out_path = str(tmp_path / "observatory.html")
        write_report(out_path, store, bench_glob=str(tmp_path / "suite-*.json"))
        html = open(out_path).read()
        assert "Benchmark trajectory" in html
        assert "sim_rps" in html
        assert "98765" in html
        assert "core.self_us_per_req" in html
        assert "core.share" not in html

    def test_bench_glob_rejects_other_documents(self, store, tmp_path, capsys):
        (tmp_path / "old-format.json").write_text('{"benchmarks": []}')
        out_path = str(tmp_path / "observatory.html")
        assert main(["report", store, "-o", out_path,
                     "--bench", str(tmp_path / "old-*.json")]) == 2
        assert "run.py --out" in capsys.readouterr().err


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2
