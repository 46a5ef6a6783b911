"""The ``repro-lint`` CLI surface: exit codes, formats, acceptance gate."""

import json
import os

import pytest

from repro.lint.cli import main
from repro.lint.rules import ALL_RULES

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


class TestLintCommand:
    def test_src_repro_is_clean(self, capsys):
        """The acceptance gate: the shipped tree lints clean."""
        assert main([SRC_REPRO]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_violation_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main([str(bad)]) == 1
        assert "R001" in capsys.readouterr().out

    def test_suppressed_violation_passes(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import random\nx = random.random()  # repro-lint: disable=R001\n"
        )
        assert main([str(ok)]) == 0

    def test_warning_passes_unless_strict(self, tmp_path):
        warn = tmp_path / "warn.py"
        warn.write_text("def steer(k, n):\n    return hash(k) % n\n")
        assert main([str(warn)]) == 0
        assert main([str(warn), "--strict"]) == 1

    def test_select_subset(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main([str(bad), "--select", "R003"]) == 0
        assert main([str(bad), "--select", "R001"]) == 1

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(acc=[]):\n    return acc\n")
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule_id"] == "R003"
        assert payload[0]["severity"] == "error"

    def test_directory_walk_skips_hidden(self, tmp_path):
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "bad.py").write_text("import random\nrandom.random()\n")
        (tmp_path / "good.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_select_is_usage_error(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good), "--select", "R999"]) == 2

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_unknown_pragma_id_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1  # repro-lint: disable=R999\n")
        assert main([str(bad)]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_stale_pragma_warns_fails_strict(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text("x = 1  # repro-lint: disable=R001\n")
        assert main([str(stale)]) == 0
        assert "R010" in capsys.readouterr().out
        assert main([str(stale), "--strict"]) == 1

    def test_chaos_requires_determinism(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good), "--chaos"]) == 2
        assert "--chaos requires --determinism" in capsys.readouterr().err


class TestListRules:
    def test_catalogue_lists_every_rule(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out
            assert rule.name in out


class TestDeterminismCommand:
    def test_determinism_reports_three_systems(self, capsys):
        assert main(["--determinism", "--n-requests", "300"]) == 0
        out = capsys.readouterr().out
        # Three systems, Shinjuku in three configurations.
        assert "5/5 system(s) reproducible" in out

    def test_lint_and_determinism_combined(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good), "--determinism", "--n-requests", "200"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out
        assert "reproducible" in out
