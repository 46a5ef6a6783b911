"""Tests for the top-level public API (`repro` package surface)."""

import importlib
import pkgutil

import pytest

import repro


class TestQuickRun:
    def test_default_run(self):
        result = repro.quick_run(n_requests=1500, utilization=0.5)
        assert result.summary.completed == 1350  # 10% warm-up discarded
        assert result.system_name.startswith("Persephone")

    def test_every_policy_choice_runs(self):
        for policy in ("darc", "darc-profiled", "c-fcfs", "d-fcfs", "shenango", "shinjuku"):
            result = repro.quick_run(
                policy, "high_bimodal", 0.4, n_workers=4, n_requests=400
            )
            assert result.summary.completed == 360

    def test_every_preset_runs(self):
        for workload in sorted(repro.workload_by_name.__globals__["PRESETS"]):
            result = repro.quick_run(
                "c-fcfs", workload, 0.4, n_workers=6, n_requests=400
            )
            assert result.summary.completed == 360

    def test_unknown_policy(self):
        with pytest.raises(KeyError, match="choices"):
            repro.quick_run("magic")

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            repro.quick_run("darc", "nope")


class TestSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        names = [
            info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
        ]
        assert "rack" in names
        for name in names:
            module = importlib.import_module(f"repro.{name}")
            assert module.__doc__, f"{module.__name__} lacks a docstring"
            for attr in getattr(module, "__all__", []):
                assert hasattr(module, attr), f"{module.__name__}.{attr}"
