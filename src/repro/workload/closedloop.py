"""Closed-loop clients.

The paper's load generator is open loop — the right model for exposing
overload tails.  Production services also face *closed-loop* traffic:
each client holds a bounded number of outstanding requests and thinks
between them, so offered load self-throttles as latency grows (the
"coordinated omission" trap open-loop testing avoids).

:class:`ClosedLoopClients` models N independent clients, each issuing
one request, waiting for its completion (plus a think time), and
repeating.  Completion wiring goes through :meth:`on_complete`, which
experiment code hooks into the recorder path.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..errors import WorkloadError
from ..sim.engine import EventLoop
from .generator import RequestDraws
from .request import Request
from .spec import WorkloadSpec

Sink = Callable[[Request], None]


class ClosedLoopClients:
    """N clients, one outstanding request each, exponential think times."""

    def __init__(
        self,
        loop: EventLoop,
        spec: WorkloadSpec,
        sink: Sink,
        n_clients: int,
        think_time_us: float,
        type_rng: np.random.Generator,
        service_rng: np.random.Generator,
        think_rng: np.random.Generator,
        max_requests: Optional[int] = None,
    ):
        if n_clients < 1:
            raise WorkloadError(f"n_clients must be >= 1, got {n_clients}")
        if think_time_us < 0:
            raise WorkloadError(f"think_time_us must be >= 0, got {think_time_us}")
        self.loop = loop
        self.spec = spec
        self.sink = sink
        self.n_clients = n_clients
        self.think_time_us = think_time_us
        self._draws = RequestDraws(spec, type_rng, service_rng, max_requests)
        self._think_rng = think_rng
        self.max_requests = max_requests
        self.generated = 0
        self._stopped = False
        #: request id -> client id, to route completions back.
        self._owner: Dict[int, int] = {}

    def start(self) -> None:
        """Every client issues its first request after an initial think."""
        for client in range(self.n_clients):
            self._schedule_next(client)

    def stop(self) -> None:
        """No further requests are issued (in-flight ones complete)."""
        self._stopped = True

    def _schedule_next(self, client: int) -> None:
        if self._stopped:
            return
        if self.max_requests is not None and self.generated >= self.max_requests:
            return
        think = (
            float(self._think_rng.exponential(self.think_time_us))
            if self.think_time_us > 0
            else 0.0
        )
        self.loop.call_after(think, self._issue, client)

    def _issue(self, client: int) -> None:
        if self._stopped:
            return
        if self.max_requests is not None and self.generated >= self.max_requests:
            return
        type_id, service = self._draws.draw()
        request = Request(
            rid=self.generated,
            type_id=type_id,
            arrival_time=self.loop.now,
            service_time=service,
        )
        self._owner[request.rid] = client
        self.generated += 1
        self.sink(request)

    def on_complete(self, request: Request) -> None:
        """Hook this into the completion path: the owning client thinks,
        then issues its next request."""
        client = self._owner.pop(request.rid, None)
        if client is not None:
            self._schedule_next(client)

    @property
    def outstanding(self) -> int:
        """Requests currently in flight across all clients."""
        return len(self._owner)

    def theoretical_max_rate(self, mean_latency_us: float) -> float:
        """Little's-law ceiling: N / (E[latency] + E[think])."""
        denom = mean_latency_us + self.think_time_us
        if denom <= 0:
            raise WorkloadError("latency + think time must be > 0")
        return self.n_clients / denom

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClosedLoopClients(n={self.n_clients}, think={self.think_time_us}us, "
            f"generated={self.generated}, outstanding={self.outstanding})"
        )
