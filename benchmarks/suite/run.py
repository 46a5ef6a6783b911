"""The repository benchmark: simulator throughput, end to end and per layer.

Usage (from the repository root)::

    python benchmarks/suite/run.py [--workload W ...] [--seed N] [--rounds R]
                                   [--seconds S] [--trace 0|1] [--quick]
                                   [--out FILE] [--spans FILE]

Each round simulates every selected workload once, each in a fresh
interpreter (``child.py``), one at a time, in an order that rotates from
round to round.  Untraced rounds give the end-to-end metrics; traced
runs wrap each ``repro`` layer from the outside (``ledger.py``) and give
the per-layer cost ledger.  Every run's outputs are checked: request
conservation, latency >= service time, and a result digest that must
match across all rounds of a workload, traced or not.

``--rounds R`` (default 11) runs R untraced rounds; ``--seconds S``
instead runs them until S seconds are spent (at least 3 rounds).  Then,
unless ``--trace 0``, one traced run per workload follows.  ``--trace 0``
reports only the end-to-end metrics, ``--trace 1`` only the per-layer
ones; by default both are reported.  ``--quick`` shrinks every run to
2,000 requests and one round (smoke tests).

Every metric is printed by name with its unit.  The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``,
where ``attempted`` and ``failed`` count runs.  With several workloads
the metric keys are ``<workload>/<metric>``.  The exit code is 0 when
every check passed, 1 when one failed, 2 when the repository's ``src``
tree is missing.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import ledger  # noqa: E402
from workloads import QUICK_N_REQUESTS, WORKLOADS  # noqa: E402

#: End-to-end metrics (from untraced rounds): name -> unit.
END_TO_END = {
    "sim_rps": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (from traced runs): name -> unit.
PER_LAYER: Dict[str, str] = {}
for _layer in ledger.LAYERS:
    PER_LAYER[f"{_layer}.self_us_per_req"] = "us/req"
    PER_LAYER[f"{_layer}.share"] = "fraction"
    PER_LAYER[f"{_layer}.calls_per_req"] = "calls/req"
PER_LAYER.update(
    {
        "sim.events_per_req": "events/req",
        "sim.us_per_event": "us/event",
        "sim.fired_frac": "fraction",
        "core.classify_us_per_req": "us/req",
        "rack.pick_us": "us/pick",
        "rack.views.loads_per_pick": "loads/pick",
        "rack.views.fresh_frac": "fraction",
        "server.in_flight_scans_per_req": "scans/req",
        "metrics.summary_s": "s",
        "setup.import_s": "s",
        "setup.build_s": "s",
        "bench.coverage": "fraction",
        "bench.wrap_overhead_frac": "fraction",
    }
)

#: Host speed (iterations/s of ``child.SpeedSampler``'s loop) that
#: defines the reference host: about what the loop runs at on the quiet
#: 2-core x86_64 VM the committed results come from.  Host times are
#: reported at this speed: measured time x measured speed / this.
REFERENCE_SPEED = 2.0e6
#: Units of host-time metrics, which are scaled to the reference speed.
TIME_UNITS = ("s", "us/req", "us/event", "us/pick")

DEFAULT_ROUNDS = 11
#: Fewest untraced rounds a ``--seconds`` run makes, so a median exists.
MIN_BUDGET_ROUNDS = 3
#: A traced run takes up to this many untraced rounds' time.
TRACED_ROUND_COST = 2.5
#: Requests per warm-up run (fills the bytecode cache; not measured).
WARMUP_N_REQUESTS = 200
#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0


def quartiles(values: Sequence[float]) -> Dict[str, Any]:
    """Median, q1, q3 and n, as ``statistics.quantiles(values, n=4)``."""
    values = list(values)
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def spawn(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one round in a fresh interpreter and return its record.

    The record gains ``t_spawn`` (``time.monotonic()`` just before the
    child started), ``wall_s`` (the child's lifetime) and ``error`` when
    the child failed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    # numpy's OpenBLAS otherwise starts a thread per core at import,
    # which keeps the other core busy during set-up.
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return dict(spec, t_spawn=t_spawn, error=f"timed out after {CHILD_TIMEOUT_S:.0f} s")
    for line in proc.stderr.splitlines():
        if line.startswith("warning:"):
            print(f"{spec['workload']}: {line}", file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return dict(spec, t_spawn=t_spawn, error=f"exit {proc.returncode}: {tail[0]}")
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return dict(spec, t_spawn=t_spawn, error=f"unreadable result: {exc}")
    record["t_spawn"] = t_spawn
    record["wall_s"] = time.monotonic() - t_spawn
    return record


def run_rounds(args: argparse.Namespace, names: List[str], n_of: Dict[str, int]) -> List[Dict]:
    """Run the rounds; one child at a time, order rotating per round."""
    for name in names:
        warm = spawn({"workload": name, "n_requests": WARMUP_N_REQUESTS, "seed": args.seed, "traced": False})
        if "error" in warm:
            print(f"{name}: warm-up run failed: {warm['error']}", file=sys.stderr)

    def job(name: str, traced: bool) -> Dict[str, Any]:
        return {
            "workload": name,
            "n_requests": n_of[name],
            "seed": args.seed,
            "traced": traced,
            "keep_spans": traced and args.spans is not None,
        }

    records: List[Dict] = []
    start = time.monotonic()
    # With --seconds, time is kept for the traced runs that follow.
    reserve = TRACED_ROUND_COST if args.trace != 0 else 0.0
    last_round_s = 0.0
    r = 0
    while True:
        if args.seconds is None:
            if r >= args.rounds:
                break
        elif (r >= MIN_BUDGET_ROUNDS
              and time.monotonic() - start + (1 + reserve) * last_round_s > args.seconds):
            break
        round_start = time.monotonic()
        order = names[r % len(names):] + names[: r % len(names)]
        records += [spawn(job(name, False)) for name in order]
        last_round_s = time.monotonic() - round_start
        r += 1
    if args.trace != 0:
        records += [spawn(job(name, True)) for name in names]
    return records


def check_records(records: List[Dict]) -> None:
    """Mark failed runs: errors, failed output checks, and digests that
    differ from the workload's most common digest."""
    by_workload: Dict[str, List[Dict]] = collections.defaultdict(list)
    for rec in records:
        rec.setdefault("checks", [])
        if "error" in rec:
            rec["checks"].append(rec["error"])
        by_workload[rec["workload"]].append(rec)
    for recs in by_workload.values():
        digests = collections.Counter(r["digest"] for r in recs if "digest" in r)
        if digests:
            expected = digests.most_common(1)[0][0]
            for rec in recs:
                if "digest" in rec and rec["digest"] != expected:
                    kind = "traced" if rec["traced"] else "untraced"
                    rec["checks"].append(f"{kind} digest {rec['digest'][:12]} != {expected[:12]}")
    for rec in records:
        rec["failed"] = bool(rec["checks"])


def call_ref_s(r: Dict) -> float:
    """A run's call time at the reference host speed, sampling taken out."""
    return (r["call_s"] - r["sampled_call_s"]) * r["call_speed"] / REFERENCE_SPEED


def setup_ref_s(r: Dict) -> float:
    """A run's set-up time (interpreter start to the first ``EventLoop.run``
    entry) at the reference host speed, sampling taken out."""
    return (r["t_run_entry"] - r["t_spawn"] - r["sampled_setup_s"]) * r["setup_speed"] / REFERENCE_SPEED


def import_ref_s(r: Dict) -> float:
    """The import part of :func:`setup_ref_s`."""
    return (r["t_imports"] - r["t_spawn"] - r["sampled_imports_s"]) * r["setup_speed"] / REFERENCE_SPEED


def summarize(name: str, recs: List[Dict]) -> Dict[str, Any]:
    """End-to-end, per-layer and model outputs of one workload."""
    ok = [r for r in recs if not r["failed"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    out: Dict[str, Any] = {
        "attempted": len(recs),
        "failed": sum(r["failed"] for r in recs),
        "failed_frac": sum(r["failed"] for r in recs) / len(recs),
        "checks": sorted({c for r in recs for c in r["checks"]}),
        "missing": sorted({m for r in recs for m in r.get("missing", [])}),
        "runs": [
            {k: r.get(k) for k in ("traced", "digest", "call_s", "wall_s", "failed")} for r in recs
        ],
        "end_to_end": {},
        "per_layer": {},
        "model": {},
    }
    if ok:
        first = ok[0]
        out["model"] = {
            "digest": first["digest"],
            "p999_slowdown": first["p999_slowdown"],
            "events": first["events"],
        }
    if plain:
        e2e = {
            "sim_rps": [(r["completed"] + r["dropped"]) / call_ref_s(r) for r in plain],
            "setup_s": [setup_ref_s(r) for r in plain],
            "peak_rss_mb": [r["rss_mb"] for r in plain],
        }
        for metric, values in e2e.items():
            out["end_to_end"][metric] = dict(quartiles(values), unit=END_TO_END[metric])
        out["host"] = {
            "speed": statistics.median(r["call_speed"] for r in plain),
            "sim_rps_raw": statistics.median(
                (r["completed"] + r["dropped"]) / (r["call_s"] - r["sampled_call_s"]) for r in plain
            ),
            "setup_s_raw": statistics.median(
                r["t_run_entry"] - r["t_spawn"] - r["sampled_setup_s"] for r in plain
            ),
            "rounds_s": sum(r["wall_s"] for r in plain),
        }
    if traced and plain:
        layer_values: Dict[str, List[float]] = collections.defaultdict(list)
        for r in traced:
            # Layer times are wall times inside the call, speed samples
            # included; scale them as the call is scaled.
            scale = call_ref_s(r) / r["call_s"]
            for metric, value in r["layers"].items():
                layer_values[metric].append(value * scale if PER_LAYER[metric] in TIME_UNITS else value)
            layer_values["rack.views.fresh_frac"].append(r["fresh_frac"])
        untraced_call = statistics.median(call_ref_s(r) for r in plain)
        layer_values["bench.wrap_overhead_frac"] = [
            call_ref_s(r) / untraced_call - 1 for r in traced
        ]
        layer_values["setup.import_s"] = [import_ref_s(r) for r in plain]
        layer_values["setup.build_s"] = [setup_ref_s(r) - import_ref_s(r) for r in plain]
        for metric, unit in PER_LAYER.items():
            values = layer_values.get(metric)
            if values:
                out["per_layer"][metric] = dict(quartiles(values), unit=unit)
        out["other_layers"] = {
            k: statistics.median(r["other_layers"].get(k, 0.0) for r in traced)
            for k in sorted({k for r in traced for k in r["other_layers"]})
        }
        out["self_sum_error"] = max(
            abs(r["self_sum_s"] / r["run_wall_s"] - 1) for r in traced
        )
    return out


def print_report(name: str, summary: Dict[str, Any]) -> None:
    print(f"== {name}: {summary['attempted']} runs, {summary['failed']} failed")
    for section in ("end_to_end", "per_layer"):
        for metric, m in summary[section].items():
            print(
                f"{name:<22} {metric:<32} {m['median']:>14.6g} {m['unit']:<10} "
                f"q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}"
            )
    print(f"{name:<22} {'failed_frac':<32} {summary['failed_frac']:>14.6g} fraction")
    for key, value in summary["model"].items():
        print(f"{name:<22} model.{key:<26} {value}")
    for key, value in summary.get("host", {}).items():
        print(f"{name:<22} host.{key:<27} {value:.6g}")
    for check in summary["checks"]:
        print(f"{name:<22} CHECK FAILED: {check}")
    if summary["missing"]:
        print(f"{name:<22} bench.missing: {', '.join(summary['missing'])}")
    for layer, seconds in summary.get("other_layers", {}).items():
        print(f"{name:<22} note: {seconds:.6g} s charged to unlisted layer {layer!r}")


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1, help="simulation seed (default 1)")
    parser.add_argument("--rounds", type=int, default=None,
                        help=f"untraced rounds (default {DEFAULT_ROUNDS}; 1 with --quick)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run rounds until this many seconds are spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer metrics only")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_N_REQUESTS} requests per run and 1 round")
    parser.add_argument("--out", help="write the full results as JSON here")
    parser.add_argument("--spans", help="write the traced runs' kept spans (JSON lines) here")
    args = parser.parse_args(argv)
    if args.rounds is None:
        args.rounds = 1 if args.quick else DEFAULT_ROUNDS
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    names = list(dict.fromkeys(names))
    n_of = {n: QUICK_N_REQUESTS if args.quick else WORKLOADS[n].n_requests for n in names}

    started = time.monotonic()
    records = run_rounds(args, names, n_of)
    check_records(records)
    summaries = {n: summarize(n, [r for r in records if r["workload"] == n]) for n in names}
    for name in names:
        print_report(name, summaries[name])

    attempted = len(records)
    failed = sum(r["failed"] for r in records)
    sections = {0: ("end_to_end",), 1: ("per_layer",), None: ("end_to_end", "per_layer")}[args.trace]
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in names:
        for section in sections:
            for metric, m in summaries[name][section].items():
                key = metric if len(names) == 1 else f"{name}/{metric}"
                metrics[key] = {"value": m["median"], "unit": m["unit"]}
    expected = sum(len(END_TO_END if s == "end_to_end" else PER_LAYER) for s in sections)
    correct = failed == 0 and len(metrics) == expected * len(names)

    if args.out:
        doc = {
            "seed": args.seed,
            "rounds": args.rounds,
            "seconds": args.seconds,
            "trace": args.trace,
            "quick": args.quick,
            "n_requests": n_of,
            "host": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "nproc": os.cpu_count(),
            },
            "wall_s": time.monotonic() - started,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "workloads": summaries,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    if args.spans:
        with open(args.spans, "w") as fh:
            for rec in records:
                for ident, span, layer, t0, t1, parent, rid in rec.get("spans", []):
                    fh.write(json.dumps({
                        "workload": rec["workload"], "id": ident, "name": span,
                        "layer": layer, "start": t0, "end": t1, "parent": parent, "rid": rid,
                    }) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
