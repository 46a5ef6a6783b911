"""Tests for text table rendering."""

import pytest

from repro.experiments.tables import format_cell, render_series, render_table
from repro.errors import ConfigurationError


class TestFormatCell:
    def test_bool(self):
        assert format_cell(True) == "yes"
        assert format_cell(False) == "no"

    def test_float_precision(self):
        assert format_cell(3.14159, precision=3) == "3.142"

    def test_nan(self):
        assert format_cell(float("nan")) == "-"

    def test_string_passthrough(self):
        assert format_cell("DARC") == "DARC"

    def test_int(self):
        assert format_cell(14) == "14"


class TestRenderTable:
    def test_alignment_and_content(self):
        out = render_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "22.50" in out

    def test_title(self):
        out = render_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_mismatched_rows_raise(self):
        with pytest.raises(ConfigurationError):
            render_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        out = render_table(["a"], [])
        assert "a" in out


class TestRenderSeries:
    def test_columns_per_series(self):
        out = render_series("load", [0.1, 0.2], {"A": [1.0, 2.0], "B": [3.0, 4.0]})
        assert "load" in out
        assert "A" in out and "B" in out
        assert "4.00" in out

    def test_short_series_padded_with_nan(self):
        out = render_series("x", [1.0, 2.0], {"A": [5.0]})
        assert "-" in out
