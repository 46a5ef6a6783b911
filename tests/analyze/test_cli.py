"""The ``repro-analyze`` CLI surface: subcommands, exit codes, gating."""

import json
import os
import textwrap

import pytest

from repro.analyze.cli import main
from repro.analyze.findings import ANALYSIS_RULES

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")
CHECKED_IN_BASELINE = os.path.join(REPO_ROOT, "analyze-baseline.json")

ESCAPE_TREE = {
    "workload/client.py": """
    class Client:
        def __init__(self, rng):
            self.rng = rng
    """,
    "faults/run.py": """
    from workload.client import Client

    def go(rngs):
        return Client(rngs.stream("faults.retry"))
    """,
}

CLEAN_TREE = {"faults/run.py": "x = 1\n"}


@pytest.fixture
def tree(tmp_path):
    def _tree(files=ESCAPE_TREE):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        return str(tmp_path)

    return _tree


class TestScan:
    def test_error_finding_fails(self, tree, capsys):
        root = tree()
        assert main(["scan", root, "--root", root]) == 1
        out = capsys.readouterr().out
        assert "A102" in out and "1 error(s)" in out

    def test_clean_tree_passes(self, tree):
        root = tree(CLEAN_TREE)
        assert main(["scan", root, "--root", root]) == 0

    def test_warning_needs_strict(self, tree):
        root = tree(
            {
                "faults/run.py": """
                def go(rngs, which):
                    return rngs.stream("faults." + which)
                """
            }
        )
        assert main(["scan", root, "--root", root]) == 0
        assert main(["scan", root, "--root", root, "--strict"]) == 1

    def test_select(self, tree):
        root = tree()
        assert main(["scan", root, "--root", root, "--select", "A103"]) == 0

    def test_json_format(self, tree, capsys):
        root = tree()
        assert main(["scan", root, "--root", root, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule_id"] == "A102"
        assert payload[0]["fingerprint"]

    def test_sarif_side_output(self, tree, tmp_path):
        sarif = tmp_path / "out.sarif"
        root = tree()
        main(["scan", root, "--root", root, "--sarif", str(sarif)])
        doc = json.loads(sarif.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "A102"

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["scan", str(tmp_path / "nope")]) == 2
        assert "repro-analyze:" in capsys.readouterr().err

    def test_unknown_select_is_usage_error(self, tree, capsys):
        root = tree(CLEAN_TREE)
        assert main(["scan", root, "--root", root, "--select", "A999"]) == 2

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2


class TestBaselineGate:
    def test_ratchet_cycle(self, tree, tmp_path, capsys):
        """baseline → scan tolerates → new finding fails → ratchet hint."""
        root = tree()
        baseline = str(tmp_path / "baseline.json")
        assert main(["baseline", root, "--root", root, "-o", baseline]) == 0
        capsys.readouterr()

        assert main(["scan", root, "--root", root, "--baseline", baseline]) == 0
        assert "clean against baseline (1 tolerated" in capsys.readouterr().out

        extra = tmp_path / "faults" / "more.py"
        extra.write_text(
            "from workload.client import Client\n\n"
            'def again(rngs):\n    return Client(rngs.stream("faults.net"))\n'
        )
        assert main(["scan", root, "--root", root, "--baseline", baseline]) == 1
        out = capsys.readouterr().out
        assert "faults.net" in out and "not in baseline" in out

        extra.unlink()
        (tmp_path / "faults" / "run.py").write_text("x = 1\n")
        assert main(["scan", root, "--root", root, "--baseline", baseline]) == 0
        assert "no longer fire" in capsys.readouterr().out

    def test_bad_baseline_is_usage_error(self, tree, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        root = tree(CLEAN_TREE)
        assert main(["scan", root, "--root", root, "--baseline", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestDiff:
    def test_text_diff(self, tree, tmp_path, capsys):
        root = tree()
        baseline = str(tmp_path / "baseline.json")
        main(["baseline", root, "--root", root, "-o", baseline])
        capsys.readouterr()
        assert main(["diff", root, "--root", root, "--baseline", baseline]) == 0
        assert "0 new, 0 resolved, 1 known" in capsys.readouterr().out

    def test_json_diff_reports_new(self, tree, tmp_path, capsys):
        root = tree()
        empty = tmp_path / "empty.json"
        empty.write_text('{"version": 1, "findings": []}')
        assert main(["diff", root, "--root", root, "--baseline", str(empty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule_id"] for f in payload["new"]] == ["A102"]
        assert payload["known"] == 0


class TestSarifCommand:
    def test_writes_document(self, tree, tmp_path, capsys):
        out = tmp_path / "findings.sarif"
        root = tree()
        assert main(["sarif", root, "--root", root, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["runs"][0]["results"]) == 1


class TestSelfcheck:
    def test_clean_against_checked_in_baseline(self, capsys):
        """The acceptance gate: the shipped tree analyzes clean against
        the checked-in ``analyze-baseline.json``."""
        assert main(["selfcheck", "--baseline", CHECKED_IN_BASELINE]) == 0
        assert "clean against baseline" in capsys.readouterr().out

    def test_matches_scan_of_src(self, capsys):
        """selfcheck (installed-package path) and scan src/repro agree,
        which is what makes the baseline portable between the two."""
        assert main(["scan", SRC_REPRO, "--baseline", CHECKED_IN_BASELINE]) == 0


HOT_TREE = {
    "sched/core.py": """
    class Core:
        def on_request(self, request):
            return [q for q in (request,)]

        def on_worker_free(self, worker):
            pass
    """,
}


class TestHotpathCommand:
    def test_warnings_pass_unless_strict(self, tree, capsys):
        root = tree(HOT_TREE)
        assert main(["hotpath", root, "--root", root]) == 0
        assert "A401" in capsys.readouterr().out
        assert main(["hotpath", root, "--root", root, "--strict"]) == 1

    def test_shipped_tree_is_clean(self, capsys):
        """The acceptance gate: after applying the analyzer's own
        findings, the shipped tree has zero unsuppressed A4xx findings."""
        assert main(["hotpath", SRC_REPRO, "--strict"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_baseline_gates_new_findings(self, tree, tmp_path, capsys):
        root = tree(HOT_TREE)
        baseline = str(tmp_path / "hot-baseline.json")
        select = "A401,A402,A403,A404,A405,A406"
        assert main(
            ["baseline", root, "--root", root, "--select", select, "-o", baseline]
        ) == 0
        capsys.readouterr()
        assert main(["hotpath", root, "--root", root, "--baseline", baseline]) == 0
        assert "clean against baseline" in capsys.readouterr().out

        (tmp_path / "sched" / "extra.py").write_text(
            "class Extra:\n"
            "    def on_request(self, request):\n"
            "        return sorted(request)\n\n"
            "    def on_worker_free(self, worker):\n"
            "        pass\n"
        )
        assert main(["hotpath", root, "--root", root, "--baseline", baseline]) == 1
        assert "not in baseline" in capsys.readouterr().out

    def test_profile_ranks_output(self, tree, tmp_path, capsys):
        root = tree(HOT_TREE)
        spans = tmp_path / "spans.jsonl"
        spans.write_text(
            json.dumps(
                {"workload": "w", "id": 1, "name": "Core.on_request",
                 "layer": "core", "start": 1.0, "end": 2.5, "parent": 0,
                 "rid": 0}
            )
            + "\n"
        )
        assert main(["hotpath", root, "--root", root, "--profile", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "1500.000ms" in out
        assert "ranked by measured span cost" in out

    def test_invalid_profile_is_usage_error(self, tree, tmp_path, capsys):
        root = tree(HOT_TREE)
        bad = tmp_path / "bad.json"
        bad.write_text('{"benchmarks": []}')
        assert main(["hotpath", root, "--root", root, "--profile", str(bad)]) == 2
        assert "not a span" in capsys.readouterr().err

    def test_malformed_profile_is_usage_error(self, tree, tmp_path, capsys):
        root = tree(HOT_TREE)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        assert main(["hotpath", root, "--root", root, "--profile", str(bad)]) == 2
        assert "cannot read spans" in capsys.readouterr().err

    def test_sarif_side_output(self, tree, tmp_path):
        root = tree(HOT_TREE)
        sarif = tmp_path / "hot.sarif"
        assert main(["hotpath", root, "--root", root, "--sarif", str(sarif)]) == 0
        doc = json.loads(sarif.read_text())
        assert doc["runs"][0]["results"][0]["ruleId"] == "A401"

    def test_select_narrows_rules(self, tree, capsys):
        root = tree(HOT_TREE)
        assert main(
            ["hotpath", root, "--root", root, "--select", "A402", "--strict"]
        ) == 0


UNITS_TREE = {
    "sched/timer.py": """
    def arm(loop, rate):
        loop.call_after(rate)
    """,
}

FORK_TREE = {
    "repro/sweep/report.py": """
    def dump(path, text):
        with open(path, "w") as fp:
            fp.write(text)
    """,
}


class TestUnitsCommand:
    def test_error_finding_fails(self, tree, capsys):
        root = tree(UNITS_TREE)
        assert main(["units", root, "--root", root]) == 1
        assert "A502" in capsys.readouterr().out

    def test_shipped_tree_is_clean(self, capsys):
        """The acceptance gate: after this PR's unit fixes, the shipped
        tree has zero unsuppressed A5xx findings."""
        assert main(["units", SRC_REPRO, "--strict"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_select_narrows_rules(self, tree):
        root = tree(UNITS_TREE)
        assert main(["units", root, "--root", root, "--select", "A505"]) == 0

    def test_sarif_side_output(self, tree, tmp_path):
        root = tree(UNITS_TREE)
        sarif = tmp_path / "units.sarif"
        assert main(["units", root, "--root", root, "--sarif", str(sarif)]) == 1
        doc = json.loads(sarif.read_text())
        assert doc["runs"][0]["results"][0]["ruleId"] == "A502"


class TestForksafetyCommand:
    def test_error_finding_fails(self, tree, capsys):
        root = tree(FORK_TREE)
        assert main(["forksafety", root, "--root", root]) == 1
        assert "A604" in capsys.readouterr().out

    def test_shipped_tree_is_clean(self, capsys):
        """The acceptance gate: the shipped sweep/rack/faults tree has
        zero unsuppressed A6xx findings."""
        assert main(["forksafety", SRC_REPRO, "--strict"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_baseline_gates(self, tree, tmp_path, capsys):
        root = tree(FORK_TREE)
        baseline = str(tmp_path / "fork-baseline.json")
        select = "A601,A602,A603,A604"
        assert main(
            ["baseline", root, "--root", root, "--select", select, "-o", baseline]
        ) == 0
        capsys.readouterr()
        assert main(["forksafety", root, "--root", root, "--baseline", baseline]) == 0
        assert "clean against baseline" in capsys.readouterr().out


class TestListRules:
    def test_catalogue_complete(self, capsys):
        assert main(["list-rules"]) == 0
        out = capsys.readouterr().out
        for meta in ANALYSIS_RULES.values():
            assert meta.id in out
            assert meta.name in out
