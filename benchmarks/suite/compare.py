"""Compare two benchmark result files.

Usage (from the repository root)::

    python benchmarks/suite/compare.py BASE.json NEW.json

Both files are ``run.py --out`` results.  For every workload and every
end-to-end metric in ``BENCHMARK.json`` the tool prints each side's
median, q1, q3 and n, and a verdict by the metric's bound:

* ``worse``/``better`` -- NEW's median is worse/better than BASE's by
  more than the bound;
* ``unchanged`` -- the medians are within the bound;
* ``unresolved`` -- a side's interquartile range exceeds the bound,
  unless every round of one side beats every round of the other.

``failed_frac`` has a bound of 0, and any ``model.*`` output that
differs is flagged: a change meant only to speed the simulator up must
leave the simulated results identical.  The exit code is 1 when any
metric is worse or any run failed, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def verdict(base: Dict[str, Any], new: Dict[str, Any], bound: float, better: str) -> str:
    """Classify NEW against BASE for one metric (see the module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (new["median"] - base["median"]) / base["median"]
    noisy = any((s["q3"] - s["q1"]) / s["median"] > bound for s in (base, new))
    separated = min(new["values"]) > max(base["values"]) or max(new["values"]) < min(base["values"])
    if noisy and not separated:
        return "unresolved"
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "unchanged"


def compare(base: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present on both sides."""
    rows: List[Dict[str, Any]] = []
    for name in [w["name"] for w in spec["workloads"]]:
        b, n = base["workloads"].get(name), new["workloads"].get(name)
        if b is None or n is None:
            continue
        for metric in spec["end_to_end"]:
            bs, ns = b["end_to_end"].get(metric["name"]), n["end_to_end"].get(metric["name"])
            if bs is None or ns is None:
                rows.append({"workload": name, "metric": metric["name"], "verdict": "missing"})
                continue
            rows.append({
                "workload": name,
                "metric": metric["name"],
                "unit": metric["unit"],
                "base": bs,
                "new": ns,
                "verdict": verdict(bs, ns, metric["bound"], metric["better"]),
            })
        bf, nf = b["failed_frac"], n["failed_frac"]
        rows.append({
            "workload": name,
            "metric": "failed_frac",
            "unit": "fraction",
            "base": {"median": bf},
            "new": {"median": nf},
            "verdict": "worse" if nf > bf else "better" if nf < bf else "unchanged",
        })
        for key in sorted(set(b["model"]) | set(n["model"])):
            if b["model"].get(key) != n["model"].get(key):
                rows.append({
                    "workload": name,
                    "metric": f"model.{key}",
                    "base": {"median": b["model"].get(key)},
                    "new": {"median": n["model"].get(key)},
                    "verdict": "CHANGED",
                })
    return rows


def _side(stats: Dict[str, Any]) -> str:
    if "q1" not in stats:
        return f"{stats['median']}"
    return f"{stats['median']:.6g} [{stats['q1']:.6g}, {stats['q3']:.6g}] n={stats['n']}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print("usage: python benchmarks/suite/compare.py BASE.json NEW.json", file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in args)
    spec = json.loads(BENCHMARK_JSON.read_text())
    if base.get("seed") != new.get("seed"):
        print(f"note: seeds differ ({base.get('seed')} vs {new.get('seed')}); "
              "model.* outputs are expected to differ")
    rows = compare(base, new, spec)
    print(f"{'workload':<22} {'metric':<20} {'base median [q1, q3] n':<40} "
          f"{'new median [q1, q3] n':<40} verdict")
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:<22} {row['metric']:<20} {'-':<40} {'-':<40} missing")
            continue
        print(f"{row['workload']:<22} {row['metric']:<20} {_side(row['base']):<40} "
              f"{_side(row['new']):<40} {row['verdict']}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    return 1 if worse or not new.get("correct", False) else 0


if __name__ == "__main__":
    sys.exit(main())
