"""Command-line interface: ``repro-experiments`` / ``python -m repro.cli``.

Runs any paper experiment at a chosen scale, prints the text figure, and
optionally archives the underlying data as CSV::

    repro-experiments figure1 --n-requests 60000
    repro-experiments figure5 --quick
    repro-experiments figure3 --csv results/
    repro-experiments tables
    repro-experiments all --quick
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from .experiments import tables
from .experiments.export import figure_to_csv, findings_to_csv
from .experiments.results import FigureResult
from .sweep.planner import supported_experiments

#: Load-sweep request counts for --quick runs.
QUICK_N = 8_000

def _tables_run(n, seed, sanitize, trace_dir, metrics_dir, seeds, forensics_dir):
    """Tables are static text — no runs, so no run artifacts to honor."""
    from .errors import UsageError

    for flag, value in (
        ("--trace", trace_dir),
        ("--metrics", metrics_dir),
        ("--forensics", forensics_dir),
    ):
        if value is not None:
            raise UsageError(
                f"tables cannot honor {flag}: it renders static summary "
                "tables and runs no simulations"
            )
    return None


def _driver(name: str) -> Tuple[Callable, Callable]:
    """``(run, render)`` for one registered experiment's module."""
    module = importlib.import_module(f"{__package__}.experiments.{name}")
    # Figure 7 runs fixed phases, not a request count.
    takes_n = "n_requests" in inspect.signature(module.run).parameters

    def run(n, seed, sanitize, trace_dir, metrics_dir, seeds, forensics_dir):
        sized = {"n_requests": n} if takes_n else {}
        return module.run(
            seed=seed, sanitize=sanitize, trace_dir=trace_dir,
            metrics_dir=metrics_dir, seeds=seeds, forensics_dir=forensics_dir,
            **sized,
        )

    return run, module.render


#: name -> (run(n, seed, sanitize, trace_dir, metrics_dir, seeds,
#: forensics_dir) -> result, render(result) -> str): every registered
#: experiment, plus the static tables.  ``seeds`` is None for the
#: single-seed path or a sequence for replicated (CI-table) runs.
EXPERIMENTS: Dict[str, Tuple[Callable, Callable]] = {
    name: _driver(name) for name in supported_experiments()
}
EXPERIMENTS["tables"] = (_tables_run, lambda r: tables.render_all())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce Persephone/DARC (SOSP 2021) figures and tables.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figure/table to regenerate",
    )
    parser.add_argument(
        "--n-requests",
        type=int,
        default=40_000,
        help="arrivals per load point (default 40000)",
    )
    parser.add_argument("--seed", type=int, default=1, help="root RNG seed")
    parser.add_argument(
        "--seeds",
        metavar="A,B,C",
        default=None,
        help="replicate every point under these seeds (comma-separated; "
        "≥2 turns the tables into mean±CI cells, ≥3 recommended); "
        "per-run seeds are derived per cell, so results match pooled "
        "repro-sweep runs of the same grid",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run the experiment's grid as N parallel worker processes "
        "via the repro-sweep orchestrator (default 1 = in-process)",
    )
    parser.add_argument(
        "--sweep-dir",
        metavar="DIR",
        default=None,
        help="checkpoint directory for --jobs > 1 (default: a fresh "
        "temporary directory; printed so the sweep can be resumed "
        "with repro-sweep run --resume)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"small runs ({QUICK_N} requests/point) for a fast sanity pass",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write the sweep data and findings as CSV files into DIR",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="attach the runtime invariant sanitizer to every run "
        "(slower; raises SanitizerViolation on the first broken invariant)",
    )
    parser.add_argument(
        "--shadow",
        action="store_true",
        help="implies --sanitize and additionally runs the tie-break "
        "shadow check: same-timestamp sibling events are detected and "
        "their handlers' write sets compared (hazards are recorded, "
        "never raised — results are bit-identical to a plain run)",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="record a per-request span trace of every run into DIR "
        "(Perfetto-loadable JSON; inspect with repro-trace)",
    )
    parser.add_argument(
        "--metrics",
        metavar="DIR",
        default=None,
        help="collect virtual-time metrics for every run into DIR "
        "(Prometheus text, JSONL timeline, HTML dashboard; inspect "
        "with repro-metrics)",
    )
    parser.add_argument(
        "--forensics",
        metavar="DIR",
        default=None,
        help="after the runs, fold every trace export into a forensics "
        "store under DIR (blame attribution + herding detection + run "
        "registry; requires --trace; inspect with repro-forensics)",
    )
    return parser


def _export_csv(name: str, result, directory: str) -> List[str]:
    """Write CSVs for any FigureResult(s) in ``result``; returns paths."""
    figures: Dict[str, FigureResult] = {}
    if isinstance(result, FigureResult):
        figures[name] = result
    elif isinstance(result, dict):
        for key, value in result.items():
            if isinstance(value, FigureResult):
                figures[f"{name}_{key}"] = value
    written: List[str] = []
    os.makedirs(directory, exist_ok=True)
    for label, figure in figures.items():
        data_path = os.path.join(directory, f"{label}.csv")
        with open(data_path, "w") as fp:
            figure_to_csv(figure, fp)
        written.append(data_path)
        if figure.findings:
            findings_path = os.path.join(directory, f"{label}_findings.csv")
            with open(findings_path, "w") as fp:
                findings_to_csv(figure, fp)
            written.append(findings_path)
    return written


def _run_pooled(name: str, n: int, seeds, jobs: int, sweep_dir: Optional[str]) -> None:
    """Run one experiment's grid through the sweep orchestrator."""
    import tempfile

    from .sweep.orchestrator import run_plan
    from .sweep.planner import plan_experiment

    plan = plan_experiment(name, seeds=seeds, n_requests=n)
    directory = sweep_dir or tempfile.mkdtemp(prefix=f"repro-sweep-{name}-")
    print(f"pooling {len(plan.cells)} cells over {jobs} workers in {directory}")
    print(f"(resumable: repro-sweep run {name} --resume --out {directory})")
    sweep = run_plan(plan, directory, jobs=jobs, resume=False)
    if sweep.merged is not None:
        print(sweep.merged.render())
    if sweep.n_failed:
        print(f"WARNING: {sweep.n_failed} cells failed; see {directory}")


def main(argv: Optional[List[str]] = None) -> int:
    from .errors import UsageError

    args = build_parser().parse_args(argv)
    n = QUICK_N if args.quick else args.n_requests
    if args.forensics is not None and args.trace is None:
        print(
            "error: --forensics needs --trace (forensics analyzes the "
            "per-request trace exports)",
            file=sys.stderr,
        )
        return 2
    seeds = None
    if args.seeds is not None:
        from .sweep.cells import parse_seeds

        try:
            seeds = parse_seeds(args.seeds)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        run, render = EXPERIMENTS[name]
        start = time.time()
        if args.jobs > 1 and name != "tables":
            print(f"=== {name} (pooled) ===")
            _run_pooled(name, n, seeds or (args.seed,), args.jobs, args.sweep_dir)
            print()
            continue
        sanitize = "shadow" if args.shadow else args.sanitize
        try:
            result = run(
                n, args.seed, sanitize, args.trace, args.metrics, seeds,
                args.forensics,
            )
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        elapsed = time.time() - start
        print(f"=== {name} ({elapsed:.1f}s) ===")
        print(render(result))
        if args.csv is not None:
            for path in _export_csv(name, result, args.csv):
                print(f"wrote {path}")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
