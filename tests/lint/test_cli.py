"""The single-module rules and the twice-run digest check through the
``repro-analyze`` CLI: exit codes, formats, acceptance gate."""

import json
import os

import pytest

from repro.analyze.cli import main
from repro.analyze.filerules import RULES
from repro.analyze.findings import ANALYSIS_RULES

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")
FILE_RULES = ",".join(["A000"] + sorted(RULES))


class TestLintCommand:
    def test_src_repro_is_clean(self, capsys):
        """The acceptance gate: the shipped tree is clean under the
        single-module rules, warnings included."""
        assert main(["scan", SRC_REPRO, "--select", FILE_RULES, "--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_violation_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["scan", str(bad)]) == 1
        assert "A701" in capsys.readouterr().out

    def test_suppressed_violation_passes(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import random\nx = random.random()  # repro-analyze: disable=A701\n"
        )
        assert main(["scan", str(ok)]) == 0

    def test_warning_passes_unless_strict(self, tmp_path):
        warn = tmp_path / "warn.py"
        warn.write_text("def steer(k, n):\n    return hash(k) % n\n")
        assert main(["scan", str(warn)]) == 0
        assert main(["scan", str(warn), "--strict"]) == 1

    def test_select_subset(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["scan", str(bad), "--select", "A703"]) == 0
        assert main(["scan", str(bad), "--select", "A701"]) == 1

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(acc=[]):\n    return acc\n")
        assert main(["scan", str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule_id"] == "A703"
        assert payload[0]["severity"] == "error"

    def test_directory_walk_skips_hidden(self, tmp_path):
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "bad.py").write_text("import random\nrandom.random()\n")
        (tmp_path / "good.py").write_text("x = 1\n")
        assert main(["scan", str(tmp_path)]) == 0

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["scan", str(tmp_path / "nope.py")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_select_is_usage_error(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main(["scan", str(good), "--select", "R999"]) == 2

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "usage: repro-analyze" in capsys.readouterr().err

    def test_unknown_pragma_id_is_a000_warning(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1  # repro-analyze: disable=R999\n")
        assert main(["scan", str(bad)]) == 0
        assert "A000" in capsys.readouterr().out
        assert main(["scan", str(bad), "--strict"]) == 1

    def test_stale_pragma_warns_fails_strict(self, tmp_path, capsys):
        stale = tmp_path / "stale.py"
        stale.write_text("x = 1  # repro-analyze: disable=A701\n")
        assert main(["scan", str(stale)]) == 0
        assert "A000" in capsys.readouterr().out
        assert main(["scan", str(stale), "--strict"]) == 1

    def test_chaos_requires_determinism(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["scan", str(good), "--chaos"])
        assert exc.value.code == 2
        assert "--chaos" in capsys.readouterr().err


class TestListRules:
    def test_catalogue_lists_every_rule(self, capsys):
        assert main(["list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out
            assert ANALYSIS_RULES[rule_id].name in out


class TestDeterminismCommand:
    def test_determinism_reports_three_systems(self, capsys):
        assert main(["determinism", "--n-requests", "300"]) == 0
        out = capsys.readouterr().out
        # Three systems, Shinjuku in three configurations.
        assert "5/5 system(s) reproducible" in out

    def test_zero_requests_is_usage_error(self, capsys):
        assert main(["determinism", "--n-requests", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "repro-analyze: --n-requests must be at least 1, got 0\n"

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["determinism", "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "repro-analyze: --seed must be at least 0, got -1\n"
