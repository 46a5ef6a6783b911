"""The simulated server: workers + a scheduling policy + measurement.

:class:`Server` wires a :class:`~repro.policies.base.Scheduler` to an
event loop, a worker set and a :class:`~repro.metrics.recorder.Recorder`,
and exposes the ingress entry point the load generator feeds.  The fixed
ingress costs from :class:`~repro.server.config.ServerConfig` are applied
as a delay between arrival and the scheduler seeing the request —
matching the net-worker → classifier → typed-queue pipeline of Fig. 2.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..errors import ConfigurationError
from ..metrics.recorder import Recorder
from ..metrics.utilization import UtilizationReport
from ..sim.engine import EventLoop, bind_hooks

if TYPE_CHECKING:  # avoid a circular import (policies.base uses Worker)
    from ..policies.base import Scheduler
from ..workload.request import Request
from .config import ServerConfig
from .worker import Worker, WorkerCounts


class Server:
    """A single simulated machine running one scheduling policy."""

    def __init__(
        self,
        loop: EventLoop,
        scheduler: "Scheduler",
        config: Optional[ServerConfig] = None,
        recorder: Optional[Recorder] = None,
        completion_sink=None,
        drop_sink=None,
    ):
        self.loop = loop
        self.scheduler = scheduler
        self.config = config if config is not None else ServerConfig()
        self.recorder = recorder if recorder is not None else Recorder()
        n_workers = self.config.n_workers
        #: Busy/crashed core tallies kept by the workers themselves, so
        #: load and liveness reads never scan the worker list.
        self.counts = WorkerCounts(n_workers)
        self.workers: List[Worker] = [Worker(i, self.counts) for i in range(n_workers)]
        self.received = 0
        #: Requests the dispatcher stage dropped (its inbound queue full).
        self.dispatcher_drops = 0
        #: The serial dispatcher core's busy horizon (Fig. 2): requests
        #: are handed to the scheduler in arrival order, each occupying
        #: the dispatcher for ``dispatcher_service_us``.
        self._dispatcher_free_at = 0.0
        #: Completion/drop sinks default to the recorder; a resilience
        #: layer (``repro.workload.resilience``) interposes here to see
        #: completions before they are recorded.
        self._completion_sink = (
            completion_sink if completion_sink is not None else self.recorder.on_complete
        )
        self._drop_sink = drop_sink if drop_sink is not None else self.recorder.on_drop
        # Ingress hook slots (see attach_observer): None while unobserved.
        self._ingress_hooks = self._dispatcher_drop_hooks = None
        scheduler.bind(loop, self.workers, self._completion_sink, self._drop_sink)
        #: Ingress runs once per arrival; the config is immutable for the
        #: server's lifetime, so the property sums and the scheduler's
        #: bound entry point are cached here instead of being recomputed
        #: (two dict probes + a 3-term sum) on every request.
        self._ingress_delay_us = self.config.ingress_delay_us
        self._dispatcher_service_us = self.config.dispatcher_service_us
        self._dispatcher_queue_capacity = self.config.dispatcher_queue_capacity
        self._on_request = scheduler.on_request

    def attach_observer(self, observer) -> None:
        """Bind ``observer``'s ``on_ingress``/``on_dispatcher_drop``
        hooks on the ingress path and forward it to the scheduler's own
        hook sites (:meth:`Scheduler.attach_observer`)."""
        bind_hooks(self, observer, ("on_ingress", "on_dispatcher_drop"))
        self.scheduler.attach_observer(observer)

    def ingress(self, request: Request) -> None:
        """Entry point for arriving requests (the generator's sink)."""
        self.received += 1
        hooks = self._ingress_hooks
        loop = self.loop
        delay = self._ingress_delay_us
        cost = self._dispatcher_service_us
        if cost > 0:
            now = loop.now
            backlog_us = max(0.0, self._dispatcher_free_at - now)
            cap = self._dispatcher_queue_capacity
            if cap is not None and backlog_us > cap * cost:
                # The dispatcher cannot keep up; the NIC ring overflows.
                self.dispatcher_drops += 1
                request.dropped = True
                if hooks is not None:
                    for hook in hooks:
                        hook(request, now, now)
                if self._dispatcher_drop_hooks is not None:
                    for hook in self._dispatcher_drop_hooks:
                        hook(request)
                self._drop_sink(request)
                return
            self._dispatcher_free_at = max(now, self._dispatcher_free_at) + cost
            sched_at = self._dispatcher_free_at + delay
            if hooks is not None:
                for hook in hooks:
                    hook(request, sched_at, now)
            loop.call_at(sched_at, self._on_request, request)
        else:
            if hooks is not None:
                now = loop.now
                # No delay: one float for both, as spans keep both.
                sched_at = now + delay if delay > 0 else now
                for hook in hooks:
                    hook(request, sched_at, now)
            if delay > 0:
                loop.call_after(delay, self._on_request, request)
            else:
                self._on_request(request)

    def utilization(self) -> UtilizationReport:
        """Utilization over the elapsed simulation time."""
        now = self.loop.now
        if now <= 0:
            raise ConfigurationError("no simulated time has elapsed")
        return UtilizationReport(self.workers, now)

    @property
    def in_flight(self) -> int:
        """Requests being served right now."""
        return self.counts.busy

    @property
    def alive(self) -> bool:
        """True while at least one worker core has not crashed."""
        counts = self.counts
        return counts.failed < counts.size

    @property
    def failed_workers(self) -> int:
        """Number of currently crashed cores."""
        return self.counts.failed

    def watch_alive(self, listener) -> None:
        """Call ``listener()`` whenever :attr:`alive` flips: the last
        live core crashes, or the first core of a dead server recovers."""
        self.counts.listeners.append(listener)

    def watch_load(self, listener) -> float:
        """Call ``listener()`` whenever this server's load (``pending +
        in_flight``) may have changed: after the scheduler accepts a
        request, and before a completion or a drop reaches its sink.

        The calls are bound here, so a server nobody watches runs no
        extra code per request; a second watcher wraps the first.  A
        crash that requeues its victim moves no load, and one that drops
        it goes through the drop sink.  Returns the latest virtual time
        at which a request ingressed before this call can still reach
        the scheduler without a listener call (``-inf`` when hand-offs
        are immediate): until then the watcher must treat the load as
        moved.
        """
        accept = self._on_request

        def on_request(request: Request) -> None:
            accept(request)
            listener()

        self._on_request = on_request
        self.scheduler.watch_sinks(listener)
        delay = self._ingress_delay_us
        if self._dispatcher_service_us > 0:
            return self._dispatcher_free_at + delay
        if delay > 0:
            return self.loop.now + delay
        return float("-inf")

    @property
    def pending(self) -> int:
        """Requests queued at the scheduler."""
        return self.scheduler.queued

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Server({type(self.scheduler).__name__}, "
            f"{self.config.n_workers} workers, received={self.received})"
        )
