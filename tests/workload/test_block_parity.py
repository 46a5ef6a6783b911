"""Block-drawn streams against a value-by-value reference.

:class:`OpenLoopGenerator` serves type uniforms and Poisson unit gaps
from pre-drawn blocks.  The reference below draws every value with one
scalar numpy call, the way the generator did before blocks, and the two
must agree exactly: the same ``(rid, type_id, arrival_time,
service_time)`` sequence, and after a run to its limit the same state in
every stream.  Spec and rate changes land at random instants, so they
fall mid-block.
"""

import numpy as np
import pytest

from repro.sim.engine import EventLoop
from repro.sim.randomness import RngRegistry
from repro.workload.arrivals import BurstyArrivals, DeterministicArrivals, PoissonArrivals
from repro.workload.distributions import Bimodal, Exponential, Fixed, LogNormal, Pareto, Uniform
from repro.workload.generator import BLOCK_SIZE, OpenLoopGenerator
from repro.workload.presets import high_bimodal, tpcc
from repro.workload.spec import TypedClass, WorkloadSpec

STREAMS = ("types", "service", "arrivals")
RATE = 0.5
#: Requests produced by the unlimited runs before the sink stops them.
UNLIMITED_RUN = BLOCK_SIZE + 904


def stochastic_spec():
    """Constant and drawing types mixed, so the service stream is used
    by some requests and skipped by others."""
    return WorkloadSpec(
        "mixed",
        [
            TypedClass("FIXED", 0.3, Fixed(2.0)),
            TypedClass("EXP", 0.2, Exponential(5.0)),
            TypedClass("LOGN", 0.2, LogNormal(20.0, sigma=0.8)),
            TypedClass("PARETO", 0.1, Pareto(10.0, alpha=2.5)),
            TypedClass("UNIF", 0.1, Uniform(1.0, 3.0)),
            TypedClass("BIMODAL", 0.1, Bimodal(1.0, 50.0, 0.9)),
        ],
    )


SPECS = {"fixed": (high_bimodal, tpcc), "stochastic": (stochastic_spec, high_bimodal)}
PROCESSES = {
    "poisson": lambda: PoissonArrivals(RATE),
    "deterministic": lambda: DeterministicArrivals(RATE),
    "bursty": lambda: BurstyArrivals(RATE, burst_factor=2.0),
}


def change_plan(n, process_name, spec_pair, seed):
    """``(time, kind, value)`` changes at random instants of a run of
    ``n`` requests, sorted by time.  Rates change only for Poisson."""
    rng = np.random.default_rng(seed)
    horizon = max(n, 1) / RATE
    changes = []
    for i, t in enumerate(sorted(rng.uniform(0.0, horizon, size=6))):
        changes.append((float(t), "spec", spec_pair[(i + 1) % 2]()))
        if process_name == "poisson":
            changes.append((float(t) + 0.5, "rate", float(rng.uniform(0.2, 0.8))))
    return sorted(changes, key=lambda change: change[0])


def reference(spec, process, rngs, n, changes):
    """The scalar client: per request one gap, one type uniform and, for
    a non-constant type, one service draw, each a single numpy call.
    A change at time T applies to every draw made at or after T."""
    types, service, arrivals = (rngs.stream(s) for s in STREAMS)
    pending = list(changes)
    out = []
    t = 0.0
    for rid in range(n):
        t = t + process.inter_arrival(arrivals)
        while pending and pending[0][0] <= t:
            _, kind, value = pending.pop(0)
            if kind == "spec":
                spec = value
            else:
                process = PoissonArrivals(value)
        type_id = int(spec.sample_types(types, 1)[0])  # numpy's searchsorted
        out.append((rid, type_id, t, spec.sample_service(type_id, service)))
    return out


def generated(spec, process, rngs, limit, changes, stop_after=None):
    loop = EventLoop()
    out = []
    generator = None

    def sink(request):
        out.append(
            (request.rid, request.type_id, request.arrival_time, request.service_time)
        )
        if len(out) == stop_after:
            generator.stop()

    generator = OpenLoopGenerator(
        loop,
        spec,
        process,
        sink,
        type_rng=rngs.stream("types"),
        service_rng=rngs.stream("service"),
        arrival_rng=rngs.stream("arrivals"),
        limit=limit,
    )
    for when, kind, value in changes:
        setter = generator.set_spec if kind == "spec" else generator.set_rate
        loop.call_at(when, setter, value)
    generator.start()
    loop.run()
    return out


def stream_states(rngs):
    return {name: rngs.stream(name).bit_generator.state for name in STREAMS}


@pytest.mark.parametrize("process_name", sorted(PROCESSES))
@pytest.mark.parametrize("spec_name", sorted(SPECS))
@pytest.mark.parametrize("limit", [0, 1, BLOCK_SIZE - 1, BLOCK_SIZE, BLOCK_SIZE + 1])
def test_limited_run_matches_scalar_draws(limit, spec_name, process_name):
    spec_pair = SPECS[spec_name]
    changes = change_plan(limit, process_name, spec_pair, seed=limit)
    seed = 11 + limit
    ref_rngs, gen_rngs = RngRegistry(seed=seed), RngRegistry(seed=seed)
    expected = reference(
        spec_pair[0](), PROCESSES[process_name](), ref_rngs, limit, changes
    )
    got = generated(spec_pair[0](), PROCESSES[process_name](), gen_rngs, limit, changes)
    assert got == expected
    assert stream_states(gen_rngs) == stream_states(ref_rngs)


@pytest.mark.parametrize("process_name", sorted(PROCESSES))
@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_unlimited_run_stopped_matches_scalar_draws(spec_name, process_name):
    # With no limit a stream may be drawn up to one block ahead, so only
    # the request sequence is compared.
    spec_pair = SPECS[spec_name]
    changes = change_plan(UNLIMITED_RUN, process_name, spec_pair, seed=3)
    expected = reference(
        spec_pair[0](), PROCESSES[process_name](), RngRegistry(seed=5),
        UNLIMITED_RUN, changes,
    )
    got = generated(
        spec_pair[0](), PROCESSES[process_name](), RngRegistry(seed=5), None,
        changes, stop_after=UNLIMITED_RUN,
    )
    assert got == expected

