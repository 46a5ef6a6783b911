"""Cell executor: serial or multiprocessing fan-out with crash isolation.

Design constraints, in order:

1. **Determinism is not the executor's job** — every cell derives its
   own seed (:mod:`repro.sweep.cells`), so the executor is free to run
   cells in any order, on any worker count, and the results are
   bit-identical.  That freedom is what makes the pool trivial to reason
   about: there is no cross-cell communication at all.
2. **Crash isolation**: one cell segfaulting, raising, or hanging must
   not take down the sweep.  Each cell runs in its *own* process with a
   private pipe; a dead pipe plus a nonzero exit code is a crash, a
   blown deadline is a timeout (the worker is killed), and both are
   recorded as failed outcomes while every other cell proceeds.
3. **Start-method agnosticism**: workers receive JSON-able cell
   documents and resolve the work by experiment *name* through the
   registry, so fork and spawn behave identically.

This module is worker management, not simulation or aggregation: the
wall-clock reads below (pool deadlines, progress pacing) never touch a
simulated result, and each carries an A301 pragma with that
justification.  Merged *results* stay bound by the observer-purity
contract (analyzer A301) enforced over this package.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .cells import Cell, CellResult
from .runner import run_cell, run_cell_doc

#: How long the orchestrator waits on worker pipes per poll, seconds.
_POLL_S = 0.25

#: Grace period between SIGTERM and SIGKILL for a timed-out worker.
_KILL_GRACE_S = 2.0


class CellOutcome(NamedTuple):
    """What happened to one cell: exactly one of result/error is set."""

    cell: Cell
    result: Optional[CellResult]
    #: "ok" | "error" | "timeout" | "crash"
    status: str
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


#: Progress callback: (done_count, total, outcome) after every cell.
ProgressFn = Callable[[int, int, CellOutcome], None]


def _worker_main(conn, cell_doc, artifact_dir, observe) -> None:
    """Pool worker entry point: run one cell, ship the outcome back.

    Top-level (not a closure) so it is picklable under the spawn start
    method; everything it receives is a plain document.
    """
    try:
        result_doc = run_cell_doc(cell_doc, artifact_dir, tuple(observe))
        conn.send(("ok", result_doc))
    except BaseException as exc:  # noqa: BLE001 - isolation boundary
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            pass
    finally:
        conn.close()


class _LiveWorker(NamedTuple):
    index: int
    cell: Cell
    process: multiprocessing.Process
    conn: Any
    deadline: Optional[float]


def _reap(worker: _LiveWorker) -> CellOutcome:
    """Collect a finished worker's message (its pipe is readable)."""
    try:
        status, payload = worker.conn.recv()
    except (EOFError, OSError):
        worker.process.join()
        return CellOutcome(
            worker.cell,
            None,
            "crash",
            f"worker died without a result (exit code {worker.process.exitcode})",
        )
    worker.conn.close()
    worker.process.join()
    if status == "ok":
        return CellOutcome(worker.cell, CellResult.from_doc(payload), "ok")
    return CellOutcome(worker.cell, None, "error", str(payload))


def _kill(worker: _LiveWorker) -> CellOutcome:
    """Terminate a worker that blew its deadline."""
    worker.process.terminate()
    worker.process.join(_KILL_GRACE_S)
    if worker.process.is_alive():  # pragma: no cover - stubborn worker
        worker.process.kill()
        worker.process.join()
    worker.conn.close()
    return CellOutcome(
        worker.cell, None, "timeout", "cell exceeded its per-cell timeout"
    )


def _execute_serial(
    cells: Sequence[Cell],
    artifact_dir: Optional[str],
    observe: Tuple[str, ...],
    progress: Optional[ProgressFn],
) -> List[CellOutcome]:
    outcomes: List[CellOutcome] = []
    for cell in cells:
        try:
            outcome = CellOutcome(cell, run_cell(cell, artifact_dir, observe), "ok")
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            outcome = CellOutcome(cell, None, "error", f"{type(exc).__name__}: {exc}")
        outcomes.append(outcome)
        if progress is not None:
            progress(len(outcomes), len(cells), outcome)
    return outcomes


def _execute_pool(
    cells: Sequence[Cell],
    jobs: int,
    timeout_s: Optional[float],
    artifact_dir: Optional[str],
    observe: Tuple[str, ...],
    progress: Optional[ProgressFn],
) -> List[CellOutcome]:
    import time

    ctx = multiprocessing.get_context()
    pending = list(enumerate(cells))
    live: List[_LiveWorker] = []
    outcomes: Dict[int, CellOutcome] = {}

    def launch(index: int, cell: Cell) -> _LiveWorker:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, cell.to_doc(), artifact_dir, list(observe)),
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = None
        if timeout_s is not None:
            deadline = time.monotonic() + timeout_s  # repro-analyze: disable=A301
        return _LiveWorker(index, cell, process, parent_conn, deadline)

    def settle(worker: _LiveWorker, outcome: CellOutcome) -> None:
        outcomes[worker.index] = outcome
        if progress is not None:
            progress(len(outcomes), len(cells), outcome)

    try:
        while pending or live:
            while pending and len(live) < jobs:
                index, cell = pending.pop(0)
                live.append(launch(index, cell))
            ready = multiprocessing.connection.wait(
                [w.conn for w in live], timeout=_POLL_S
            )
            ready_set = set(ready)
            now = time.monotonic()  # repro-analyze: disable=A301
            still: List[_LiveWorker] = []
            for worker in live:
                if worker.conn in ready_set:
                    settle(worker, _reap(worker))
                elif worker.deadline is not None and now >= worker.deadline:
                    settle(worker, _kill(worker))
                else:
                    still.append(worker)
            live = still
    finally:
        for worker in live:  # pragma: no cover - interrupt path
            worker.process.terminate()
            worker.process.join(_KILL_GRACE_S)
            if worker.process.is_alive():
                worker.process.kill()
    return [outcomes[i] for i in range(len(cells))]


def execute_cells(
    cells: Sequence[Cell],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    artifact_dir: Optional[str] = None,
    observe: Tuple[str, ...] = (),
    progress: Optional[ProgressFn] = None,
) -> List[CellOutcome]:
    """Run every cell, serially (``jobs=1``) or in a process pool.

    Returns one :class:`CellOutcome` per input cell, in input order
    regardless of completion order.  ``timeout_s`` bounds each cell's
    wall time in the pool path (a timed-out worker is killed and its
    cell marked failed); the serial path runs in-process and cannot
    enforce timeouts.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if not cells:
        return []
    if jobs == 1:
        return _execute_serial(cells, artifact_dir, observe, progress)
    return _execute_pool(cells, jobs, timeout_s, artifact_dir, observe, progress)
