"""Tooling: whole-program static analysis of the shipped tree.

Times one full ``repro-analyze`` pass — parse every module under
``src/repro``, build the symbol table / class hierarchy / call graph,
then run every analysis (event-flow races, RNG-stream escapes,
contract checks, observer purity, hot-path idioms, units flow,
fork-safety, single-module determinism rules) — plus the dataflow engine's interprocedural summary
fixpoint on its own, since that is the analyzer's newest superlinear
ingredient.  Each pass must stay interactive: under 30 s of wall time.
"""

import os
import time

from repro.analyze import (
    analyze_program,
    build_program,
    compute_summaries,
    diff_baseline,
    iter_python_files,
    load_baseline,
)
from repro.analyze.dataflow import SCALAR, TOP

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")
BASELINE = os.path.join(REPO_ROOT, "analyze-baseline.json")


def full_scan():
    program = build_program(iter_python_files([SRC_REPRO]))
    return program, analyze_program(program)


def test_whole_program_scan():
    start = time.perf_counter()
    program, findings = full_scan()
    wall = time.perf_counter() - start

    assert len(program.modules) > 50
    assert findings, "the baselined findings should still fire"
    # Every finding is tolerated by the checked-in baseline: the tree is
    # clean modulo the ratchet, in the benchmark as in CI.
    with open(BASELINE, "r", encoding="utf-8") as fp:
        diff = diff_baseline(findings, load_baseline(fp.read()))
    assert diff.new == []
    # The whole-tree pass (now including the units/fork-safety
    # analyses) must stay comfortably interactive.
    assert wall < 30.0


def dataflow_fixpoint():
    program = build_program(iter_python_files([SRC_REPRO]))
    return program, compute_summaries(program)


def test_dataflow_fixpoint():
    start = time.perf_counter()
    program, result = dataflow_fixpoint()
    wall = time.perf_counter() - start

    typed_returns = sum(
        1
        for s in result.summaries.values()
        if s.return_unit not in (TOP, SCALAR)
    )
    typed_params = sum(
        1 for s in result.summaries.values() if s.param_units
    )

    # Every function gets a summary, the return-unit propagation
    # actually types a useful slice of the tree, and the fixpoint
    # converges well inside its pass bound.
    assert len(result.summaries) == len(program.functions)
    assert typed_returns > 5
    assert typed_params > 100
    assert result.passes <= 8
    assert wall < 30.0
