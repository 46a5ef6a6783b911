"""The suppression-pragma grammar (:mod:`repro.analyze.pragmas`) and its
A000 surface in the single-module rules (formerly R010)."""

import textwrap

from repro.analyze.model import Program
from repro.analyze.pragmas import FILE_PRAGMA_WINDOW, PragmaSuppressions, iter_comments
from repro.analyze.runner import analyze_program

KNOWN = ["A701", "A702", "A102"]


def parse(source, known=KNOWN):
    return PragmaSuppressions(textwrap.dedent(source), known)


class TestParsing:
    def test_line_pragma(self):
        p = parse("x = 1  # repro-analyze: disable=A701\n")
        assert p.is_suppressed(1, "A701")
        assert not p.is_suppressed(1, "A702")
        assert not p.is_suppressed(2, "A701")

    def test_multiple_ids_one_pragma(self):
        p = parse("x = 1  # repro-analyze: disable=A701,A702\n")
        assert p.is_suppressed(1, "A701")
        assert p.is_suppressed(1, "A702")

    def test_case_insensitive_ids(self):
        p = parse("x = 1  # repro-analyze: disable=a701\n")
        assert p.is_suppressed(1, "A701")

    def test_file_wide_pragma(self):
        p = parse("# repro-analyze: disable-file=A701\nx = 1\n")
        assert p.is_suppressed(40, "A701")

    def test_disable_all(self):
        p = parse("x = 1  # repro-analyze: disable=all\n")
        assert p.is_suppressed(1, "A701")
        assert p.is_suppressed(1, "A702")

    def test_tool_token_is_namespaced(self):
        """Only the ``repro-analyze`` token is read: another tool's
        pragma suppresses nothing and is not an error."""
        p = parse("x = 1  # other-tool: disable=A701\n")
        assert not p.is_suppressed(1, "A701")
        assert p.errors == []

    def test_analyze_tool_parses_its_own(self):
        p = parse("x = 1  # repro-analyze: disable=A102\n")
        assert p.is_suppressed(1, "A102")

    def test_pragma_in_docstring_is_inert(self):
        p = parse('"""# repro-analyze: disable=A701"""\nx = 1\n')
        assert not p.is_suppressed(1, "A701")
        assert not p.is_suppressed(2, "A701")

    def test_iter_comments_skips_strings(self):
        comments = list(iter_comments('s = "# not a comment"\n# yes\n'))
        assert comments == [(2, "# yes")]


class TestUnknownIds:
    """Bad pragmas are collected (the runner reports them as A000),
    never raised."""

    def test_collect_mode_records_error(self):
        p = parse("x = 1  # repro-analyze: disable=A999\n")
        assert len(p.errors) == 1
        assert "A999" in p.errors[0].message
        assert p.errors[0].line == 1

    def test_collect_mode_keeps_valid_ids(self):
        p = parse("x = 1  # repro-analyze: disable=A999,A701\n")
        assert p.is_suppressed(1, "A701")
        assert len(p.errors) == 1

    def test_late_file_pragma_collect(self):
        src = "\n" * (FILE_PRAGMA_WINDOW + 5) + "# repro-analyze: disable-file=A701\n"
        p = parse(src)
        assert len(p.errors) == 1
        assert "first 10 lines" in p.errors[0].message
        assert not p.is_suppressed(1, "A701")


class TestUsageLedger:
    def test_unused_line_pragma_is_stale(self):
        p = parse("x = 1  # repro-analyze: disable=A701\n")
        assert p.unused() == [(1, "A701")]

    def test_used_pragma_is_not_stale(self):
        p = parse("x = 1  # repro-analyze: disable=A701\n")
        p.is_suppressed(1, "A701")
        assert p.unused() == []

    def test_file_wide_stale_reports_line_zero(self):
        p = parse("# repro-analyze: disable-file=A702\nx = 1\n")
        assert p.unused() == [(0, "A702")]

    def test_checked_ids_limit_staleness(self):
        """A pragma for a rule that never ran is not judged stale."""
        p = parse("x = 1  # repro-analyze: disable=A701\n")
        assert p.unused(checked_ids=["A702"]) == []
        assert p.unused(checked_ids=["A701"]) == [(1, "A701")]

    def test_mark_used_explicit(self):
        p = parse("x = 1  # repro-analyze: disable=A701\n")
        p.mark_used(1, "A701")
        assert p.unused() == []


class TestStaleSuppressionRule:
    """R010's cases, now A000's: stale and unknown-id pragmas."""

    FILE_RULES = ["A000"] + [f"A70{i}" for i in range(1, 9)]

    def lint(self, source, select=None):
        program = Program()
        program.add_module("src/repro/sim/fixture.py", textwrap.dedent(source))
        return analyze_program(program, select=select or self.FILE_RULES)

    def test_stale_pragma_fires_r010(self):
        findings = self.lint("x = 1  # repro-analyze: disable=A701\n")
        assert [f.rule_id for f in findings] == ["A000"]
        assert "stale suppression" in findings[0].message

    def test_live_pragma_is_clean(self):
        findings = self.lint(
            """
            import random
            def pick():
                return random.random()  # repro-analyze: disable=A701
            """
        )
        assert findings == []

    def test_unknown_analyze_pragma_fires_r010(self):
        findings = self.lint("x = 1  # repro-analyze: disable=A999\n")
        assert [f.rule_id for f in findings] == ["A000"]
        assert "A999" in findings[0].message

    def test_valid_analyze_pragma_not_judged_by_lint(self):
        """A pragma for a rule outside the run's selection (A102 is a
        whole-program rule) is valid and never judged stale."""
        findings = self.lint("x = 1  # repro-analyze: disable=A102\n")
        assert findings == []

    def test_select_excludes_staleness_of_unran_rules(self):
        findings = self.lint(
            "x = 1  # repro-analyze: disable=A701\n", select=["A702", "A000"]
        )
        assert findings == []

    def test_r010_suppressible(self):
        findings = self.lint("x = 1  # repro-analyze: disable=A701,A000\n")
        assert findings == []

    def test_file_wide_stale_anchors_line_one(self):
        findings = self.lint("# repro-analyze: disable-file=A702\nx = 1\n")
        assert [f.rule_id for f in findings] == ["A000"]
        assert findings[0].line == 1
        assert "file-wide" in findings[0].message
