"""Observer purity (A301): import-table resolution, heap tracking, the
sanctioned-impurity audit, and the split of impure calls between A301
and the single-module rules."""

import os

from repro.analyze.cli import main
from repro.analyze.purity import purity_pragma_ledger

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")
BASELINE = os.path.join(REPO_ROOT, "analyze-baseline.json")


def rule_ids(findings):
    return sorted(f.rule_id for f in findings)


class TestResolution:
    def test_aliased_from_import_is_resolved(self, analyze):
        findings = analyze(
            {
                "telemetry/probe.py": """
                from time import perf_counter as clock

                def scrape():
                    return clock()
                """
            },
            select=["A301"],
        )
        assert rule_ids(findings) == ["A301"]
        assert "wall-clock read time.perf_counter()" in findings[0].message
        assert findings[0].symbol == "telemetry.probe.scrape:time.perf_counter"

    def test_heap_measurement_is_flagged(self, analyze):
        findings = analyze(
            {
                "telemetry/probe.py": """
                import tracemalloc

                def heap():
                    return tracemalloc.get_traced_memory()
                """
            },
            select=["A301"],
        )
        assert rule_ids(findings) == ["A301"]
        assert "heap-tracking call" in findings[0].message

    def test_is_tracing_query_is_not_flagged(self, analyze):
        findings = analyze(
            {
                "telemetry/probe.py": """
                import tracemalloc

                def tracing():
                    return tracemalloc.is_tracing()
                """
            },
            select=["A301"],
        )
        assert findings == []


class TestOneReportPerCall:
    """A301 owns wall clocks, RNG and entropy in observer packages; the
    single-module rules own them everywhere else."""

    SOURCE = """
    import time

    def stamp():
        return time.time()
    """

    def test_wall_clock_in_trace_is_only_a301(self, analyze):
        assert rule_ids(analyze({"trace/tracer.py": self.SOURCE})) == ["A301"]

    def test_wall_clock_in_sim_is_only_a702(self, analyze):
        assert rule_ids(analyze({"sim/engine.py": self.SOURCE})) == ["A702"]

    def test_rng_and_entropy_in_rack_are_only_a301(self, analyze):
        findings = analyze(
            {
                "rack/pick.py": """
                import random
                import uuid

                def pick(n):
                    return random.randrange(n), uuid.uuid4()
                """
            }
        )
        assert rule_ids(findings) == ["A301", "A301"]


class TestPurityAudit:
    def test_each_sanctioned_line_listed_once(self, capsys):
        code = main(
            ["scan", SRC_REPRO, "--baseline", BASELINE, "--purity-audit"]
        )
        assert code == 0
        out = capsys.readouterr().out
        listed = [
            line.split()[0]
            for line in out.splitlines()
            if line.startswith("  ") and "/repro/" in line
        ]
        assert len(listed) == len(set(listed)) == 13
        assert "repro-analyze: 13 sanctioned impurity pragma(s)" in out

    def test_ledger_entries_name_the_code(self):
        entries = purity_pragma_ledger([SRC_REPRO])
        assert all(entry["code"] for entry in entries)
        assert {os.path.basename(e["path"]) for e in entries} == {
            "executor.py",
            "runner.py",
            "profiler.py",
        }
