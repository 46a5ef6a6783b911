"""Tests for result export."""

import io
from contextlib import redirect_stdout

import pytest

from repro.experiments import figure3, rack
from repro.experiments.common import run_once
from repro.experiments.export import (
    figure_to_csv,
    findings_to_csv,
    result_to_dict,
    summary_to_dict,
)
from repro.systems.persephone import PersephoneCfcfsSystem
from repro.workload.presets import high_bimodal


@pytest.fixture(scope="module")
def small_result():
    return run_once(
        PersephoneCfcfsSystem(n_workers=4), high_bimodal(), 0.5,
        n_requests=800, seed=4,
    )


@pytest.fixture(scope="module")
def small_figure():
    return figure3.run(utilizations=(0.3, 0.6), n_requests=800, seed=4)


class TestDictExport:
    def test_summary_keys(self, small_result):
        d = summary_to_dict(small_result.summary)
        assert d["completed"] == 720
        assert "overall_tail_slowdown" in d
        assert "type0_SHORT_tail_latency_us" in d
        assert "type1_LONG_tail_slowdown" in d

    def test_result_adds_metadata(self, small_result):
        d = result_to_dict(small_result)
        assert d["system"] == "Persephone (c-FCFS)"
        assert d["workload"] == "high_bimodal"
        assert d["utilization"] == 0.5


class TestCsvExport:
    def test_figure_csv_row_count(self, small_figure):
        text = figure_to_csv(small_figure)
        lines = [l for l in text.splitlines() if l]
        # header + 3 systems x 2 load points.
        assert len(lines) == 1 + 3 * 2

    def test_figure_csv_round_trips_floats(self, small_figure):
        text = figure_to_csv(small_figure)
        header, first = text.splitlines()[:2]
        cols = header.split(",")
        values = first.split(",")
        util = float(values[cols.index("utilization")])
        assert util in (0.3, 0.6)

    def test_writes_to_fp(self, small_figure):
        buf = io.StringIO()
        text = figure_to_csv(small_figure, fp=buf)
        assert buf.getvalue() == text

    def test_findings_csv(self, small_figure):
        text = findings_to_csv(small_figure)
        assert text.startswith("finding,value\n")
        assert len(text.splitlines()) == 1 + len(small_figure.findings)


class TestRackCsvExport:
    def test_rack_cli_writes_one_row_per_point(self, tmp_path):
        """``repro-experiments rack --csv`` exports rack results from
        their own fields (they have no per-server metadata)."""
        from repro.cli import main

        out = io.StringIO()
        with redirect_stdout(out):
            assert main([
                "rack", "--n-requests", "600", "--csv", str(tmp_path),
            ]) == 0
        text = (tmp_path / "rack_pow2.csv").read_text()
        header, *rows = text.splitlines()
        cols = header.split(",")
        assert cols[:6] == [
            "system", "balancer", "workload", "utilization", "n_servers",
            "load_imbalance",
        ]
        # Each of the three systems' replicas at every default utilization.
        systems = [row.split(",")[0] for row in rows]
        assert sorted(set(systems)) == ["Persephone", "Shenango", "Shinjuku"]
        assert len(rows) == 3 * len(rack.DEFAULT_UTILIZATIONS)
        first = dict(zip(cols, rows[0].split(",")))
        assert first["balancer"] == "pow2"
        assert first["workload"] == "high_bimodal"
        assert int(first["n_servers"]) == rack.N_SERVERS
        assert int(first["completed"]) > 0
