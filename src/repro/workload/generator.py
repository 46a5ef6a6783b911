"""Open-loop request generator driving a simulated server.

:class:`OpenLoopGenerator` is the simulation counterpart of the paper's
C++ client: it schedules Poisson (or other) arrivals on the event loop
and hands each new :class:`~repro.workload.request.Request` to a *sink*
(the server's ingress).  It is open loop — generation never waits for the
server — which is exactly what makes tail latency blow up at overload.

The generator supports live reconfiguration (``set_spec`` / ``set_rate``)
so the Fig. 7 phase-change experiment can mutate the workload mid-run.

Type uniforms and Poisson unit gaps are drawn :data:`BLOCK_SIZE` at a
time instead of one numpy call per value.  numpy's block and scalar
draws of ``random`` and ``standard_exponential`` return the same values
in the same order, and each value is mapped to a type id or scaled to a
gap only when it is used, so every request is bit-identical to one drawn
value by value, ``set_spec`` and ``set_rate`` mid-block included.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from ..errors import WorkloadError
from ..sim.engine import EventLoop
from .arrivals import ArrivalProcess, PoissonArrivals
from .request import Request
from .spec import WorkloadSpec

Sink = Callable[[Request], None]

#: Values drawn per numpy call for a pre-drawn stream.  With no request
#: limit a stream may read up to one block past its last use; nothing
#: else draws from the client's streams, so no result can see it.
BLOCK_SIZE = 4096


def draw_block(draw: Callable[[int], np.ndarray], remaining: Optional[int]) -> list:
    """One block of ``draw(n)`` as Python numbers.  ``n`` is capped at the
    ``remaining`` values a limited client can still use, so a run to its
    limit leaves the stream exactly where value-by-value draws leave it."""
    n = BLOCK_SIZE if remaining is None else min(BLOCK_SIZE, remaining)
    return draw(n).tolist()


class RequestDraws:
    """Type ids and service times for at most ``limit`` requests.

    Types come from pre-drawn blocks of ``type_rng`` uniforms, each
    mapped at use by bisecting the spec's cumulative ratios.  A constant
    service time is read from the spec's per-type table; any other is
    one scalar draw from ``service_rng``: all types share that stream,
    so a block cannot know whose distribution its next value belongs to.
    """

    __slots__ = ("_spec", "_cumulative", "_constants", "_type_rng", "_service_rng",
                 "_uniforms", "_left")

    def __init__(
        self,
        spec: WorkloadSpec,
        type_rng: np.random.Generator,
        service_rng: np.random.Generator,
        limit: Optional[int] = None,
    ):
        self._type_rng = type_rng
        self._service_rng = service_rng
        #: Types not yet drawn into a block (None = unbounded).
        self._left = limit
        self._uniforms: Iterator[float] = iter(())
        self.set_spec(spec)

    def set_spec(self, spec: WorkloadSpec) -> None:
        """Map the next (already drawn) uniforms through ``spec``."""
        self._spec = spec
        self._cumulative = spec.cumulative
        self._constants = spec.constant_services

    def draw(self) -> Tuple[int, float]:
        """The next request's ``(type_id, service_time)``."""
        u = next(self._uniforms, None)
        if u is None:
            block = draw_block(self._type_rng.random, self._left)
            if self._left is not None:
                self._left -= len(block)
            self._uniforms = iter(block)
            u = next(self._uniforms)
        type_id = bisect_right(self._cumulative, u)
        service = self._constants[type_id]
        if service is None:
            service = self._spec.sample_service(type_id, self._service_rng)
        return type_id, service


class OpenLoopGenerator:
    """Generates requests into ``sink`` until ``limit`` or ``stop()``.

    Parameters
    ----------
    loop:
        The event loop to schedule arrivals on.
    spec:
        The workload mixture to sample types and service times from.
    process:
        The arrival process; typically :class:`PoissonArrivals`.
    sink:
        Called with each new request at its arrival instant.
    type_rng, service_rng, arrival_rng:
        Independent random streams so that (for variance reduction across
        compared policies) identical seeds yield identical request
        sequences regardless of how the server consumes randomness.
    limit:
        Stop after this many requests (None = unbounded; use ``stop()``).
    """

    def __init__(
        self,
        loop: EventLoop,
        spec: WorkloadSpec,
        process: ArrivalProcess,
        sink: Sink,
        type_rng: np.random.Generator,
        service_rng: np.random.Generator,
        arrival_rng: np.random.Generator,
        limit: Optional[int] = None,
    ):
        self.loop = loop
        self.spec = spec
        self.process = process
        self.sink = sink
        self._draws = RequestDraws(spec, type_rng, service_rng, limit)
        self._arrival_rng = arrival_rng
        #: Pre-drawn unit exponentials, scaled at use by the current
        #: ``process.mean_gap`` (Poisson only: other processes draw a
        #: process-dependent number of values per gap).
        self._unit_gaps: Iterator[float] = iter(())
        self._poisson = type(process) is PoissonArrivals
        self.limit = limit
        self.generated = 0
        self._running = False
        self._next_event = None

    def start(self) -> None:
        """Arm the first arrival."""
        if self._running:
            raise WorkloadError("generator already started")
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        """Cancel any pending arrival; no further requests are produced."""
        self._running = False
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None

    def set_spec(self, spec: WorkloadSpec) -> None:
        """Swap the workload mixture for subsequent arrivals (Fig. 7)."""
        self.spec = spec
        self._draws.set_spec(spec)

    def set_rate(self, rate: float) -> None:
        """Change the arrival rate (req/us) for subsequent arrivals.

        Only supported for Poisson processes, which are memoryless so the
        change is statistically clean mid-run.
        """
        if not isinstance(self.process, PoissonArrivals):
            raise WorkloadError("set_rate requires a PoissonArrivals process")
        self.process = PoissonArrivals(rate)

    def _schedule_next(self) -> None:
        if not self._running:
            return
        if self.limit is not None and self.generated >= self.limit:
            self._running = False
            return
        if self._poisson:
            unit = next(self._unit_gaps, None)
            if unit is None:
                remaining = None if self.limit is None else self.limit - self.generated
                block = draw_block(self._arrival_rng.standard_exponential, remaining)
                self._unit_gaps = iter(block)
                unit = next(self._unit_gaps)
            gap = unit * self.process.mean_gap
        else:
            gap = self.process.inter_arrival(self._arrival_rng)
        self._next_event = self.loop.call_after(gap, self._emit)

    def _emit(self) -> None:
        self._next_event = None
        if not self._running:
            return
        type_id, service = self._draws.draw()
        request = Request(self.generated, type_id, self.loop.now, service)
        self.generated += 1
        self.sink(request)
        self._schedule_next()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"OpenLoopGenerator(spec={self.spec.name!r}, process={self.process!r}, "
            f"generated={self.generated})"
        )
