"""Byte pins of the observer exports.

The determinism tests next door compare two runs of the *same* code, so
a change that reorders series or perturbs one float in every run would
still pass them.  These tests pin the sha256 of the ``.prom`` and
``.jsonl`` metrics exports and of the native ``trace.json`` for four
observed runs, captured before the observer hot path was optimised:

* a DARC server with a :class:`Tracer` and a :class:`TelemetryProbe`;
* a Shinjuku server, whose quantum preemptions drive ``on_preempt``;
* a 4-server power-of-two rack with a :class:`RackTracer` and a probe
  registered on the rack;
* a sanitized crash/recover chaos episode, whose crashes drive
  ``on_evict`` and the fault decision log.

Any change to these hashes changes what a user of ``--trace`` or
``--metrics`` sees, and must be deliberate.
"""

import hashlib

import pytest

from repro.experiments.common import run_once
from repro.faults.plan import FaultPlan
from repro.faults.runner import run_chaos
from repro.rack.rack import run_rack
from repro.systems.persephone import PersephoneSystem
from repro.systems.shinjuku import ShinjukuSystem
from repro.workload.presets import high_bimodal
from repro.workload.resilience import RetryPolicy

#: Export name -> file suffix appended to the run's base path.
EXPORTS = {"prom": ".metrics.prom", "jsonl": ".metrics.jsonl", "trace": ".trace.json"}


def _sha256(path) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def _darc(base):
    run_once(
        PersephoneSystem(n_workers=8, oracle=False, min_samples=200),
        high_bimodal(),
        0.8,
        n_requests=3000,
        seed=21,
        trace_path=base + ".trace.json",
        metrics_path=base + ".metrics",
    )


def _shinjuku(base):
    run_once(
        ShinjukuSystem(n_workers=8, quantum_us=5.0, mode="multi", trigger="timer"),
        high_bimodal(),
        0.7,
        n_requests=2500,
        seed=22,
        trace_path=base + ".trace.json",
        metrics_path=base + ".metrics",
    )


def _rack(base):
    run_rack(
        PersephoneSystem(n_workers=4, oracle=False, min_samples=200),
        high_bimodal(),
        balancer="pow2",
        n_servers=4,
        utilization=0.75,
        n_requests=3000,
        seed=23,
        trace_path=base + ".trace.json",
        metrics_path=base + ".metrics",
    )


def _chaos(base):
    run_chaos(
        PersephoneSystem(n_workers=8, oracle=False, min_samples=200),
        high_bimodal(),
        0.7,
        FaultPlan.crash_recover([0, 1, 2], crash_at=2_000.0, recover_at=6_000.0),
        n_requests=3000,
        seed=24,
        retry=RetryPolicy(
            timeout_us=2000.0, max_retries=2, backoff_base_us=50.0, jitter_frac=0.1
        ),
        sanitize=True,
        trace_path=base + ".trace.json",
        metrics_path=base + ".metrics",
    )


RUNS = {"darc": _darc, "shinjuku": _shinjuku, "rack": _rack, "chaos": _chaos}

PINS = {
    "darc": {
        "prom": "4f0fe3ebcbbd6301495131dcdc8803930cb41f05281bde07e3553733a9b74d6d",
        "jsonl": "b9a9a8a7228f4829bfd5faadf2b015f0cead8ce54113bd456755012ac6a0c325",
        "trace": "df8c12e2ccffeca08bb6e028258ced50ead1318c37a4bb28f06ee9cd7ffe9076",
    },
    "shinjuku": {
        "prom": "dac14ac97a1d3fdf5dc76b392b6cea1a7557968f215c46bf47e48dd46eac11a0",
        "jsonl": "6e241bf7aeae15dcdaad9ab9a27766f34337259ba09837fc659b2de123c139d7",
        "trace": "d737d26d260db1fa2973da60bb42538a378dc27492c9ef3d874e4f9f653ec95a",
    },
    "rack": {
        "prom": "7a4e7bd4e498009483d79c095f6ce6de092a77e898be7e1395525711fb673152",
        "jsonl": "5ca5e3870b49cdb35620c0ad572fa11f2c9a1df0b31e74a1b707d250284bbdba",
        "trace": "b465678daaf3719ec6697dcf157d6be59cbf95e54699827dd337449dfd08ce41",
    },
    # Re-pinned when DARC's breach re-check began planning over the
    # surviving cores: the run no longer reinstalls the same 4-core
    # reservation at 4140.7 us during the outage (updates 8 -> 7), so
    # that reservation decision leaves the trace, the recovery installs
    # record the entries of the 1894 us install, and the updates counter
    # reads 7.  The recorder digest and waste are unchanged.
    "chaos": {
        "prom": "5cf99557807c9eaaf3462802fd581a67f30565afc4046962532c9ce51aa023a6",
        "jsonl": "02c8fa0115cc50b787ed62fed6d43adf5777ce1800d27fe6cd9a3b5de19de8c0",
        "trace": "3550a5b919582f8b864ed6738cf77e55bec70687f31d6d95ed87d1ebd828a41e",
    },
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_exports_match_pins(run, tmp_path):
    base = str(tmp_path / run)
    RUNS[run](base)
    digests = {name: _sha256(base + suffix) for name, suffix in EXPORTS.items()}
    assert digests == PINS[run]
