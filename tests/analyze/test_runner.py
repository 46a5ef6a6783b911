"""Runner semantics: selection, suppression, A000 hygiene findings."""

import pytest

from repro.errors import AnalysisError


ESCAPE = {
    "workload/client.py": """
    class Client:
        def __init__(self, rng):
            self.rng = rng
    """,
    "faults/run.py": """
    from workload.client import Client

    def go(rngs, which):
        Client(rngs.stream("faults.retry"))
        return rngs.stream("faults." + which)
    """,
}


def rule_ids(findings):
    return sorted(f.rule_id for f in findings)


class TestSelection:
    def test_default_runs_everything(self, analyze):
        assert rule_ids(analyze(ESCAPE)) == ["A102", "A103"]

    def test_select_narrows(self, analyze):
        assert rule_ids(analyze(ESCAPE, select=["A103"])) == ["A103"]

    def test_select_is_case_insensitive(self, analyze):
        assert rule_ids(analyze(ESCAPE, select=["a102"])) == ["A102"]

    def test_unknown_select_raises(self, analyze):
        with pytest.raises(AnalysisError, match="unknown analysis rule id"):
            analyze(ESCAPE, select=["A999"])

    def test_findings_sorted_by_location(self, analyze):
        findings = analyze(ESCAPE)
        assert findings == sorted(
            findings, key=lambda f: (f.path, f.line, f.col, f.rule_id)
        )

    def test_empty_tree_raises(self, analyze):
        with pytest.raises(AnalysisError, match="no Python files"):
            analyze({"README.md": "not python\n"})


class TestHygiene:
    def test_unknown_pragma_id_is_a000_not_fatal(self, analyze):
        files = {
            "faults/run.py": """
            x = 1  # repro-analyze: disable=A999
            """
        }
        findings = analyze(files)
        assert rule_ids(findings) == ["A000"]
        assert "A999" in findings[0].message

    def test_stale_pragma_is_a000(self, analyze):
        files = {
            "faults/run.py": """
            x = 1  # repro-analyze: disable=A102
            """
        }
        findings = analyze(files)
        assert rule_ids(findings) == ["A000"]
        assert "stale suppression" in findings[0].message
        assert findings[0].symbol == "faults.run:stale:A102"

    def test_stale_judged_only_for_selected_rules(self, analyze):
        """Under --select A103 an A102 pragma may be live for the full
        run — it is not judged stale."""
        files = {
            "faults/run.py": """
            x = 1  # repro-analyze: disable=A102
            """
        }
        assert analyze(files, select=["A103", "A000"]) == []

    def test_live_pragma_absorbs_and_stays_silent(self, analyze):
        files = dict(
            ESCAPE,
            **{
                "faults/run.py": ESCAPE["faults/run.py"]
                .replace(
                    'Client(rngs.stream("faults.retry"))',
                    'Client(rngs.stream("faults.retry"))  # repro-analyze: disable=A102',
                )
                .replace(
                    'return rngs.stream("faults." + which)',
                    'return rngs.stream("faults." + which)  # repro-analyze: disable=A103',
                )
            },
        )
        assert analyze(files) == []

    def test_file_wide_stale_anchors_line_one(self, analyze):
        files = {
            "faults/run.py": """\
            # repro-analyze: disable-file=A101
            x = 1
            """
        }
        findings = analyze(files)
        assert rule_ids(findings) == ["A000"]
        assert findings[0].line == 1
        assert "file-wide" in findings[0].message

    def test_a000_suppression_is_self_justifying(self, analyze):
        files = {
            "faults/run.py": """
            x = 1  # repro-analyze: disable=A102,A000
            """
        }
        assert analyze(files) == []

    def test_lint_pragmas_do_not_leak_into_analyze(self, analyze):
        """Another linter's pragma neither suppresses analyzer findings
        nor trips analyzer hygiene: only ``repro-analyze:`` is read."""
        files = dict(
            ESCAPE,
            **{
                "faults/run.py": ESCAPE["faults/run.py"].replace(
                    'Client(rngs.stream("faults.retry"))',
                    'Client(rngs.stream("faults.retry"))  # pylint: disable=A102',
                )
            },
        )
        assert rule_ids(analyze(files)) == ["A102", "A103"]
