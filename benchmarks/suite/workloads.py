"""The benchmark's workload catalogue.

Every workload runs the Table 3 ``high_bimodal`` mix (50% x 1 us +
50% x 100 us) through a public entry point: ``run_once`` for one server,
``run_rack`` for the 32-server rack.  The simulated client is open-loop
Poisson in virtual time; on the host the benchmark is a closed loop with
one client, since one simulation runs at a time.

This module imports nothing from ``repro`` at import time, so the
orchestrator can read the catalogue without paying for the simulator.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple


class Workload(NamedTuple):
    """One benchmark workload."""

    name: str
    #: Simulated requests per round at the default size.
    n_requests: int
    #: Why the workload is in the benchmark: the layer it stresses.
    why: str


#: Requests per round under ``--quick`` (smoke runs only).
QUICK_N_REQUESTS = 2_000

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "server-darc",
            60_000,
            "Persephone DARC server at rho=0.85 with deep typed queues; "
            "core (DARC) and workload (arrival generation) dominate, no routing",
        ),
        Workload(
            "server-shinjuku",
            40_000,
            "Shinjuku 5 us timer preemption at rho=0.7; ~11.5 events per request, "
            "so the engine and policies dominate and arrivals are small",
        ),
        Workload(
            "rack-pow2",
            30_000,
            "32-server DARC rack behind power-of-two routing at rho=0.7; "
            "routing is about half of run time with 2 view reads per pick",
        ),
        Workload(
            "rack-jsq-stale",
            20_000,
            "same rack behind stale join-shortest-queue; every pick reads all "
            "32 queue views, so the views layer is heavy",
        ),
        Workload(
            "server-darc-observed",
            30_000,
            "server-darc with an in-memory Tracer and TelemetryProbe attached; "
            "observer hooks are about a third of run time here and absent elsewhere",
        ),
    )
}


def build(name: str, n_requests: int, seed: int) -> Callable[[], Any]:
    """Construct workload ``name`` and return the zero-argument call that
    simulates it: ``run_once(...)`` or ``run_rack(...)``.

    Model objects that users build before the call (the system model,
    the workload spec, observers) are built here, so their cost counts
    as set-up; the returned call is what the benchmark times.
    """
    from repro.workload.presets import high_bimodal
    from repro.systems.persephone import PersephoneSystem

    spec = high_bimodal()
    if name in ("server-darc", "server-darc-observed"):
        from repro.experiments.common import run_once

        system = PersephoneSystem(n_workers=14, oracle=False)
        observers: Dict[str, Any] = {}
        if name == "server-darc-observed":
            from repro.telemetry import TelemetryProbe
            from repro.trace import Tracer

            observers = {"tracer": Tracer(), "telemetry": TelemetryProbe()}
        return lambda: run_once(
            system, spec, 0.85, n_requests=n_requests, seed=seed, **observers
        )
    if name == "server-shinjuku":
        from repro.experiments.common import run_once
        from repro.systems.shinjuku import ShinjukuSystem

        system = ShinjukuSystem(n_workers=14, quantum_us=5, mode="multi", trigger="timer")
        return lambda: run_once(system, spec, 0.7, n_requests=n_requests, seed=seed)
    if name in ("rack-pow2", "rack-jsq-stale"):
        from repro.rack.rack import run_rack

        system = PersephoneSystem(n_workers=8)
        balancer = name[len("rack-"):]
        return lambda: run_rack(
            system,
            spec,
            balancer=balancer,
            n_servers=32,
            utilization=0.7,
            n_requests=n_requests,
            seed=seed,
            staleness_us=50.0,
        )
    raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
