"""Byte pins of every experiment's printed output and artifact names.

``repro-experiments <name>`` prints the figure's tables and findings and,
with ``--csv``, writes the sweep data; these pins hold all of it fixed
at a small request count, for a single raw seed and for ``--seeds
1,2,3``.  Only the wall-clock seconds in each ``=== name (…s) ===``
banner and the CSV directory are normalised away.  Figure 7 ignores
``--n-requests``, so it is pinned through :func:`figure7.run` with short
phases.  A second group pins the trace and metrics file names the
drivers write, single-seed and replicated, on small grids.

Regenerate a pin only for a deliberate output change, and say why:
``python tests/experiments/test_printed_pins.py`` prints every digest.
"""

import hashlib
import io
import os
import re
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.experiments import chaos, figure3, figure4, figure5, figure7, rack

N_REQUESTS = 300
SEEDS = {"one-seed": None, "three-seeds": "1,2,3"}
CLI_EXPERIMENTS = (
    "chaos", "figure1", "figure3", "figure4", "figure5", "figure6",
    "figure8", "figure9", "figure10", "rack", "tables",
)
#: ``tables`` runs nothing; rack pins stdout only (its CSVs are checked
#: in ``test_export.py``).
NO_CSV = ("tables", "rack")

PRINTED_SHA256 = {
    ("chaos", None): "c55271555571b0db0baacb1db8307e63dda30679e8dec82c866ac6ce8267f57f",
    ("figure1", None): "6778e2d2d8c256cab40be43431c504de761a0021b50a3a9cdd2a0f1885904e74",
    ("figure3", None): "085e71b29af71d9fb5dd905d3b75c8a15bc3ffaef84e37960c2dcaf2c5e121a0",
    ("figure4", None): "a722841b54df1301a0d9a7d7209414d67f42d100f3a4cf8803336c1647a2c14c",
    ("figure5", None): "839b28ffd4756216e177e6019ba3a6977adddf449aa38ffb4de113c8c43e06ee",
    ("figure6", None): "0e40695611afe7c244a9f66660c80209698e3a272657ce8fa64b9e8080770be6",
    ("figure8", None): "b65ea4f4a93e1e024fa86875fce04ab9d2fffec28f218d0c4bad76a3e94d87a4",
    ("figure9", None): "08ec1cb9fdf72d569d68f351ad3793dfd9bb90f5ea8acd3641dfd35d3a42c09e",
    ("figure10", None): "22e0ade31eb1c0f59ab0fa59d2bb8c075844cfe72f279b716d013a684e9cc7ab",
    ("rack", None): "aaf426e83361250dd3a9426134c6ee6fd2ef961e90fed569895e364e73dc0cf0",
    ("tables", None): "d35dd18a20745107e9fb493def3950335fa60dd1d8bc82d6d3c0cc43321607bf",
    ("chaos", "1,2,3"): "b5c4c64bbc9c72c9f148d3c4c6d1f6fdc654de999d62867596c00dd8cad05929",
    ("figure1", "1,2,3"): "5f66e98892c1e0d778b0c047ccdef5a9efbe7111da82cb69d1a236c8781bfc4d",
    ("figure3", "1,2,3"): "5e46e5a9ac0cd8555687104f69e4a1fe1bd465d007c221ca404a4234ae93b79f",
    ("figure4", "1,2,3"): "bfdb4913319ae13c5d8b28828e5f796f1164cb74153f638de8c755032775bb9e",
    ("figure5", "1,2,3"): "3bf50c43160b6a9d08c35ef721bc391f57b593cbaaf72e014ee92cb91da20a7d",
    ("figure6", "1,2,3"): "148b0160928950381e477720f025b36b95ff758fcfd3ffabfd1793d8fa1b7382",
    ("figure8", "1,2,3"): "9471e91bb8c92f7a84a333014a17ad37b50752cc9671fdf0f3755c829ecbec1b",
    ("figure9", "1,2,3"): "51d9c1aa0f93a7341ea07a6be8c27942641972a56970d6207588c75dd48f77fa",
    ("figure10", "1,2,3"): "6a3d66dfda788474780590e3f108bb8ed183782040fb770973a717034e915d97",
    ("rack", "1,2,3"): "0a20637d7f6fed2c95fb4f157e664ce0ac4d02209127e901fae061b4c2ad1bbe",
    ("tables", "1,2,3"): "d35dd18a20745107e9fb493def3950335fa60dd1d8bc82d6d3c0cc43321607bf",
}

FIGURE7_SHA256 = {
    None: "4d32ab3e42fcf36f5a9306a54bc8a81acabf9376a26804f376f5aa7b43740362",
    "1,2,3": "eb25de83cf30ae1e5ee6ebde2255088f167b43d917ab27b1980964e28d42cd83",
}

ARTIFACT_NAMES_SHA256 = {
    None: "53a7d0b06e4ae7d2fafe4170c5fc955e85e84b18ef9676e955d68f02ec2236de",
    "1,2": "bf530fd1eaea950f620b2f9c231d50f9a3a1d729af0f275c13cd8b49edb73984",
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def printed(name, seeds, csv_dir):
    """Normalised stdout of one CLI run plus every CSV it wrote."""
    argv = [name]
    if name != "tables":
        argv += ["--n-requests", str(N_REQUESTS)]
    if name not in NO_CSV:
        argv += ["--csv", csv_dir]
    if seeds is not None:
        argv += ["--seeds", seeds]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    text = re.sub(r"^=== (\S+) \([0-9.]+s\) ===$", r"=== \1 ===",
                  out.getvalue(), flags=re.M)
    text = text.replace(csv_dir, "<csv>")
    if os.path.isdir(csv_dir):
        for entry in sorted(os.listdir(csv_dir)):
            with open(os.path.join(csv_dir, entry)) as fp:
                text += f"\n--- {entry}\n{fp.read()}"
    return text


def figure7_printed(seeds):
    seeds = None if seeds is None else tuple(int(s) for s in seeds.split(","))
    result = figure7.run(
        phases=figure7.default_phases(phase_us=2_000.0),
        window_us=1_000.0,
        seeds=seeds,
    )
    return result.render()


def artifact_names(seeds, root):
    """Sorted trace/metrics file names of small runs of each driver kind."""
    seeds = None if seeds is None else tuple(int(s) for s in seeds.split(","))
    kwargs = dict(seeds=seeds)
    runs = {
        "figure3": lambda d: figure3.run(
            utilizations=(0.5,), n_requests=100, **d, **kwargs),
        "figure4": lambda d: figure4.run(
            reserved_counts=(0, 1), n_requests=100, **d, **kwargs),
        "figure5": lambda d: figure5.run(
            utilizations=(0.5,), n_requests=100, **d, **kwargs),
        "figure7": lambda d: figure7.run(
            phases=figure7.default_phases(phase_us=300.0), **d, **kwargs),
        "chaos": lambda d: chaos.run(n_requests=100, **d, **kwargs),
        "rack": lambda d: rack.run(
            n_requests=100, n_servers=2, balancers=("pow2",),
            utilizations=(0.5,), **d, **kwargs),
    }
    lines = []
    for name, run in runs.items():
        dirs = {
            "trace_dir": os.path.join(root, name, "trace"),
            "metrics_dir": os.path.join(root, name, "metrics"),
        }
        run(dirs)
        for kind, directory in dirs.items():
            for entry in sorted(os.listdir(directory)):
                lines.append(f"{name} {kind} {entry}")
    return "\n".join(lines)


@pytest.mark.parametrize("seeds", list(SEEDS.values()), ids=list(SEEDS))
@pytest.mark.parametrize("name", CLI_EXPERIMENTS)
def test_printed_output_is_byte_identical(name, seeds, tmp_path):
    text = printed(name, seeds, str(tmp_path / "csv"))
    assert _digest(text) == PRINTED_SHA256[(name, seeds)]


@pytest.mark.parametrize("seeds", list(SEEDS.values()), ids=list(SEEDS))
def test_figure7_printed_output_is_byte_identical(seeds):
    assert _digest(figure7_printed(seeds)) == FIGURE7_SHA256[seeds]


@pytest.mark.parametrize("seeds", [None, "1,2"], ids=["one-seed", "two-seeds"])
def test_artifact_names_are_unchanged(seeds, tmp_path):
    names = artifact_names(seeds, str(tmp_path))
    assert _digest(names) == ARTIFACT_NAMES_SHA256[seeds]


if __name__ == "__main__":  # pragma: no cover - regenerates the pins
    import tempfile

    for seeds in SEEDS.values():
        for name in CLI_EXPERIMENTS:
            with tempfile.TemporaryDirectory() as tmp:
                text = printed(name, seeds, os.path.join(tmp, "csv"))
            print(f"    ({name!r}, {seeds!r}): {_digest(text)!r},")
    for seeds in SEEDS.values():
        print(f"    {seeds!r}: {_digest(figure7_printed(seeds))!r},")
    for seeds in (None, "1,2"):
        with tempfile.TemporaryDirectory() as tmp:
            print(f"    {seeds!r}: {_digest(artifact_names(seeds, tmp))!r},")
