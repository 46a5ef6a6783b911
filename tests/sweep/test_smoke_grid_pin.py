"""Byte pins of the CI smoke grid's merged output.

The grid is the ``sweep`` CI job's: figure5 over seeds 1,2,3 at 2,000
requests and loads 0.5 and 0.85.  ``repro-sweep merge`` prints the
replicated tables, capacities and findings, then the merged document's
path; everything above that path line, and ``merged.json`` itself, must
not move by a byte.
"""

import hashlib
import os

from repro.sweep import cli

GRID = [
    "figure5", "--seeds", "1,2,3", "--n-requests", "2000",
    "--utilizations", "0.5,0.85",
]

PRINTED_SHA256 = "62e6e0010a9fd541829b75f83e2efad89eb9664791cb7851968536da2d554c19"
MERGED_JSON_SHA256 = "ab3cf4344ad29af60a8a083f2a880ff7b09bd7c28b0f459447473746502a941d"


def test_smoke_grid_merge_is_byte_identical(tmp_path, capsys):
    out = str(tmp_path / "sweep")
    assert cli.main(["run", *GRID, "--jobs", "1", "--out", out, "--quiet"]) == 0
    capsys.readouterr()
    assert cli.main(["merge", out]) == 0
    printed = capsys.readouterr().out
    tables = printed[: printed.rindex("\nmerged 36 cells -> ")]
    assert hashlib.sha256(tables.encode()).hexdigest() == PRINTED_SHA256
    with open(os.path.join(out, "merged.json"), "rb") as fp:
        assert hashlib.sha256(fp.read()).hexdigest() == MERGED_JSON_SHA256
