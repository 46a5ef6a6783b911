"""Seed-determinism over the three simulated systems, and proof that the
sanitizer neither perturbs results nor fires on healthy experiments."""

import sys

import pytest

from repro.experiments.common import run_once
from repro.analyze.determinism import check_all, check_system, digest_run
from repro.sweep.executor import execute_cells
from repro.sweep.orchestrator import run_plan
from repro.sweep.planner import plan_experiment
from repro.systems.base import SystemModel
from repro.systems.persephone import PersephoneSystem
from repro.systems.shenango import ShenangoSystem
from repro.systems.shinjuku import ShinjukuSystem
from repro.workload.presets import high_bimodal

SYSTEM_FACTORIES = {
    "persephone": lambda: PersephoneSystem(n_workers=8, min_samples=200),
    "shenango": lambda: ShenangoSystem(n_workers=8),
    "shinjuku": lambda: ShinjukuSystem(n_workers=8),
}


class TestSameSeedSameDigest:
    @pytest.mark.parametrize("name", sorted(SYSTEM_FACTORIES))
    def test_twice_run_identical(self, name):
        report = check_system(
            SYSTEM_FACTORIES[name](), high_bimodal(), n_requests=800, seed=7
        )
        assert report.identical, report.describe()
        assert report.first.completed == report.second.completed
        assert report.first.events_processed == report.second.events_processed

    def test_different_seeds_differ(self):
        spec = high_bimodal()
        a = digest_run(SYSTEM_FACTORIES["persephone"](), spec, n_requests=500, seed=1)
        b = digest_run(SYSTEM_FACTORIES["persephone"](), spec, n_requests=500, seed=2)
        assert a.digest != b.digest

    def test_check_all_covers_three_systems(self):
        reports = check_all(n_requests=400, seed=3)
        assert len(reports) == 5
        assert all(r.identical for r in reports)
        names = " ".join(r.system for r in reports)
        assert "Persephone" in names and "Shenango" in names and "Shinjuku" in names
        # Three Shinjuku configurations, each under its own name.
        shinjuku = [r.system for r in reports if "Shinjuku" in r.system]
        assert len(set(shinjuku)) == 3

    def test_third_run_attaches_tracer_and_probe_sharing_one_monitor(
        self, monkeypatch
    ):
        from repro.analyze.determinism import check_chaos_all
        from repro.telemetry import TelemetryProbe
        from repro.trace import Tracer

        installed = []
        for cls in (Tracer, TelemetryProbe):
            original = cls.install

            def install(self, *args, _original=original, **kwargs):
                installed.append(self)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "install", install)
        system = SYSTEM_FACTORIES["persephone"]
        report = check_system(system(), high_bimodal(), n_requests=300, seed=5)
        (chaos,) = check_chaos_all([system()], n_requests=300, seed=5)
        assert report.identical and chaos.identical
        assert len(installed) == 4
        for tracer, probe in zip(installed[0::2], installed[1::2]):
            assert isinstance(tracer, Tracer) and isinstance(probe, TelemetryProbe)
            assert probe.tail_monitor is tracer.tail_monitor
            assert tracer.samples and probe.scrapes > 1

    def test_report_describe_mentions_verdict(self):
        report = check_system(
            SYSTEM_FACTORIES["shenango"](), high_bimodal(), n_requests=300, seed=5
        )
        assert "[OK ]" in report.describe()


class TestSanitizedExperiment:
    """Satellite: a tier-1 experiment point (Fig. 4's High Bimodal on the
    14-worker testbed model) runs under the sanitizer with zero
    violations, and disabling it changes nothing."""

    def test_figure4_small_config_zero_violations(self):
        system = PersephoneSystem(n_workers=14, min_samples=200)
        result = run_once(
            system, high_bimodal(), 0.7, n_requests=1500, seed=3, sanitize=True
        )
        loop = result.server.loop
        assert loop.sanitizer is not None
        assert loop.sanitizer.events_checked == loop.events_processed
        assert result.summary.completed > 0

    def test_sanitizer_disabled_by_default(self):
        system = PersephoneSystem(n_workers=8, min_samples=200)
        result = run_once(system, high_bimodal(), 0.5, n_requests=300, seed=3)
        assert result.server.loop.sanitizer is None

    def test_sanitizer_does_not_perturb_digest(self):
        system = PersephoneSystem(n_workers=8, min_samples=200)
        plain = digest_run(system, high_bimodal(), n_requests=800, seed=5, sanitize=False)
        checked = digest_run(system, high_bimodal(), n_requests=800, seed=5, sanitize=True)
        assert plain.digest == checked.digest


class TestHotPathFixesBitIdentical:
    """The hot-path optimization pass (tuple heap entries, hoisted
    attribute lookups, precomputed DARC allocation lists, allocation-free
    scans) must not change a single scheduling decision.  These digests
    were captured on the pre-optimization engine; the optimized engine
    must reproduce them bit for bit on all three simulated systems."""

    PRE_OPTIMIZATION_DIGESTS = {
        ("persephone", 1): "b7bbf24038ca981e2dede5b6f78efdb933319370d3fe9eb4d8849ed6220b5b9f",
        ("persephone", 7): "c8badc9242abc75145ef6238d28f46fec30ac12de1f9c702b8726db208812a01",
        ("persephone", 42): "3ed6c37d0096f45566803c7668327e9d876c1a6d8404ea5a7d78ae37e040a71b",
        ("shenango", 1): "8b2612c764dffe754c725f10809761c7cdf292eb346a066069ae6676cbe4c7b8",
        ("shenango", 7): "33b62181cf844302125425e3330e89ff2e380487c07e7050a8cc5bd0ff0bb476",
        ("shenango", 42): "22e8b0393e298d20f50c0f2c595c7eb820fa0e7f15b41bd1d90971b1ba574282",
        ("shinjuku", 1): "81c2c5b944e228c0049bbaa3b9257970a89258fda8910041c42b0522b95ed8b1",
        ("shinjuku", 7): "45ca845926bf8c5b4c9aae8d763de68e36e292b3a16c7fb9470533ae4bee19d2",
        ("shinjuku", 42): "aa860bb0627dd6b0151cfd63e39bb508ec42d03519f8a1ce70c4a8a9f6d84e57",
    }

    @pytest.mark.parametrize(
        "name,seed", sorted(PRE_OPTIMIZATION_DIGESTS)
    )
    def test_digest_matches_pre_optimization_engine(self, name, seed):
        digest = digest_run(
            SYSTEM_FACTORIES[name](), high_bimodal(), n_requests=800, seed=seed
        ).digest
        assert digest == self.PRE_OPTIMIZATION_DIGESTS[(name, seed)]


class TestUnitConstantRewritesBitIdentical:
    """The A505 fixes replaced bare run-length literals with
    ``US_PER_S``/``US_PER_MS`` expressions.  Bit-identity of every run
    that flows through those defaults follows from two facts asserted
    here: the rewritten expressions evaluate float-exactly to the old
    literals, and the engine itself reproduces the 3-system x 3-seed
    digests above unchanged."""

    def test_figure7_defaults_are_the_old_literals(self):
        import inspect

        from repro.experiments import figure7

        assert figure7.DEFAULT_PHASE_US == 150_000.0
        assert inspect.signature(figure7.run).parameters["window_us"].default == 10_000.0

    def test_unit_constants_are_exact(self):
        from repro.sim.units import US_PER_MS, US_PER_S, US_PER_SECOND

        assert US_PER_S == US_PER_SECOND == 1_000_000.0
        assert US_PER_MS == 1_000.0


class TestForensicsNeutrality:
    """Tracing + forensics collection are pure observers: exporting a
    trace and then running the blame/herding analyzers over it must not
    move a single engine digest.  Pinned so neither the tracer tee nor
    the collection glue can grow a side effect silently."""

    #: PersephoneSystem(n_workers=8, min_samples=200), rho 0.7, n=800,
    #: seed 7 — deliberately the same config as the ("persephone", 7)
    #: hot-path pin above, so drift here is immediately attributable.
    RUN_ONCE_DIGEST = (
        "c8badc9242abc75145ef6238d28f46fec30ac12de1f9c702b8726db208812a01"
    )
    #: Shenango(ws) rack, jsq-stale, 4x4, rho 0.7, n=1000, seed 1.
    RACK_DIGEST = (
        "87dbbd08c5f2c197c036d3f0212020e2eb7adec117a2967587cbfc1ddd6ab112"
    )

    def _run_once_digest(self, trace_path=None):
        from repro.metrics.digest import digest_outcome

        result = run_once(
            PersephoneSystem(n_workers=8, min_samples=200),
            high_bimodal(),
            0.7,
            n_requests=800,
            seed=7,
            trace_path=trace_path,
        )
        return digest_outcome(result.server.recorder, result.server.loop)

    def _rack_digest(self, trace_path=None):
        from repro.rack.rack import run_rack

        return run_rack(
            ShenangoSystem(n_workers=4, work_stealing=True),
            high_bimodal(),
            balancer="jsq-stale",
            n_servers=4,
            utilization=0.7,
            n_requests=1000,
            seed=1,
            staleness_us=50.0,
            trace_path=trace_path,
        ).digest()

    def test_traced_and_collected_run_matches_pin(self, tmp_path):
        from repro.forensics.collect import collect_directory

        assert self._run_once_digest() == self.RUN_ONCE_DIGEST
        traced = self._run_once_digest(str(tmp_path / "run.trace.json"))
        assert traced == self.RUN_ONCE_DIGEST
        run_ids = collect_directory(str(tmp_path / "forensics"), str(tmp_path))
        assert len(run_ids) == 1

    def test_traced_and_collected_rack_matches_pin(self, tmp_path):
        from repro.forensics.collect import collect_directory

        assert self._rack_digest() == self.RACK_DIGEST
        traced = self._rack_digest(str(tmp_path / "rack.trace.json"))
        assert traced == self.RACK_DIGEST
        run_ids = collect_directory(str(tmp_path / "forensics"), str(tmp_path))
        assert len(run_ids) == 1

    def test_forensics_pin_agrees_with_hot_path_pin(self):
        # Same config, same fingerprint function: the two pin tables must
        # never disagree about this run.
        key = ("persephone", 7)
        assert (
            TestHotPathFixesBitIdentical.PRE_OPTIMIZATION_DIGESTS[key]
            == self.RUN_ONCE_DIGEST
        )


class TestRackCounterParity:
    """Server busy/failed counters and the balancer's cached live set
    replaced O(workers) scans on every routing decision; they must not
    move a single routing decision.  Digests captured with the scanning
    implementation, per catalogue balancer, on a steady run and on one
    through crashes, recoveries and (non-overlapping) partitions."""

    SCANNING_DIGESTS = {
        ("pow2", "steady"): "9a539883cdb90dd08da3fe9958ba217a9d94f23ce4fde737e65e868fb23744c1",
        ("pow2", "faults"): "b8ef5a17a48ba2c3636a71bd1d759df26f1a62cf8b1bcbf23ed834abc1166ed8",
        ("jsq-stale", "steady"): "cdb5118f70d53ae96d32daad386f2d6128978b1401dba50877c0a71795e969df",
        ("jsq-stale", "faults"): "ad786720691a14d470e38b00d3535760ef8dc2683f988504bd827418d9f03ea2",
        ("jsq-k", "steady"): "6db129ed4729af28f5a0b8d8e86c757236bf3a6df021548769804b42bd473294",
        ("jsq-k", "faults"): "212729492304a1f8c89a978b05e91b72aaac47890101a08d1828c36cc736b63c",
        ("sed", "steady"): "6752d9e9a69578d1d33b088d56d8961606f76290c6b7a1dc84b9e9f184f9d2c2",
        ("sed", "faults"): "114e8c25bb6e28558de863be1b8e6577ec3b5adc7c489ec360cfffb6fcd37505",
        ("type-affinity", "steady"): "f5525b6ae5335b3a52fcde2133aa7d0713a5dbb834fa901413db328879f2df91",
        ("type-affinity", "faults"): "29c46443fba6d578c9de12f6be070a5069a61460bbb406f76cf95c44a61bfb38",
        ("session", "steady"): "2290493ac394e73e30a594e5e58553625b42a58b4441993159f45ec10354d16d",
        ("session", "faults"): "a49b6dd2bb16e13f942a3d87c40657d66bf3f384d7fa142b5383314603cf48a8",
    }

    @staticmethod
    def _fault_plan():
        from repro.rack.faults import (
            RackFaultPlan,
            RackPartition,
            ServerCrash,
            ServerRecover,
        )

        return RackFaultPlan([
            ServerCrash(1000.0, 1),
            RackPartition(2000.0, 4000.0, [2]),
            RackPartition(2500.0, 3500.0, [1]),
            ServerRecover(3000.0, 1),
            ServerCrash(4500.0, 3, requeue=False),
            RackPartition(5000.0, 6000.0, [0]),
            ServerRecover(5500.0, 3),
        ])

    @pytest.mark.parametrize("balancer,mode", sorted(SCANNING_DIGESTS))
    def test_digest_matches_scanning_implementation(self, balancer, mode):
        from repro.rack.rack import run_rack

        result = run_rack(
            PersephoneSystem(n_workers=4),
            high_bimodal(),
            balancer=balancer,
            n_servers=4,
            utilization=0.7,
            n_requests=1500,
            seed=3,
            staleness_us=50.0,
            plan=self._fault_plan() if mode == "faults" else None,
        )
        assert result.digest() == self.SCANNING_DIGESTS[(balancer, mode)]


class TestClusterParity:
    """The former cluster runner (``run_cluster`` with join-shortest-queue
    or type-aware replica reservation) folded into the rack.  Its
    behaviour is the rack's oracle-view path: ``jsq-stale`` and
    ``TypeAffinity`` with spilling disabled over ``staleness_us=0``.
    Digests captured from ``run_cluster`` before the fold, 4 replicas x
    4 workers at rho=0.7."""

    ASSIGNMENT = {0: [0, 1, 2, 3], 1: [1, 2, 3]}

    CLUSTER_DIGESTS = {
        ("jsq", "c-fcfs", 1): "de5d39896287b75fb83b9481a1e2ca9d57f9368927dbceda6686396b426540ce",
        ("jsq", "c-fcfs", 2): "5a696ab9ec2be2ed9cb17f39375bca47ef7c4707f5fda9e716b333b402ab74e6",
        ("jsq", "c-fcfs", 3): "56024c456bd6f579fd902300e9d68b376d115e1fca9e896923125bbda5a1aec6",
        ("jsq", "darc", 1): "97afff20609a7bb5b1ecbfad2037d8472c47aacc0301e890ac1b0e084d72fd82",
        ("jsq", "darc", 2): "98460fe62e4a8fd1240f53f4fb445b8ff78bdc8a85b03290b8020a56227c54cf",
        ("jsq", "darc", 3): "bce3828ffe9c440b04337ed16599feb395fb03d88e1abeaff5c1e95238844841",
        ("type-aware", "c-fcfs", 1): "3d6608ea406160246cda59511d8bc1afc912cc7b71ead488378213ffddf68eec",
        ("type-aware", "c-fcfs", 2): "413f8e55c7a7d69a60f152c5bf0d1cb045ab7cea400672129fd462066dbcd4ef",
        ("type-aware", "c-fcfs", 3): "d1d53e17d6df7b059acd1225a9387bfb503b76126f251949df3963173771c8a4",
        ("type-aware", "darc", 1): "3d6608ea406160246cda59511d8bc1afc912cc7b71ead488378213ffddf68eec",
        ("type-aware", "darc", 2): "06b19f5e2b991826ead8e321b9f332182a8f8da4248ef1627446963f308e25ef",
        ("type-aware", "darc", 3): "d1d53e17d6df7b059acd1225a9387bfb503b76126f251949df3963173771c8a4",
    }

    @classmethod
    def _type_aware(cls, servers, views, rngs, spec):
        from repro.rack.balancers import TypeAffinity

        return TypeAffinity(
            servers, views, cls.ASSIGNMENT, spill_threshold=sys.maxsize
        )

    @pytest.mark.parametrize("balancer,backend,seed", sorted(CLUSTER_DIGESTS))
    def test_oracle_rack_matches_cluster(self, balancer, backend, seed):
        from repro.rack.rack import run_rack
        from repro.systems.persephone import PersephoneCfcfsSystem

        system = (
            PersephoneCfcfsSystem(n_workers=4)
            if backend == "c-fcfs"
            else PersephoneSystem(n_workers=4, min_samples=200)
        )
        result = run_rack(
            system,
            high_bimodal(),
            balancer="jsq-stale" if balancer == "jsq" else self._type_aware,
            n_servers=4,
            utilization=0.7,
            n_requests=8000,
            seed=seed,
            staleness_us=0.0,
        )
        assert result.digest() == self.CLUSTER_DIGESTS[(balancer, backend, seed)]


class TestDarcProfiledWindowPins:
    """Profiled DARC past its first profiling window.  The 800-request
    pins above never reach the 2,000-sample window, so they cannot see
    the reservation-update path or the c-FCFS -> DARC handover.  These
    runs do, and pin the CPU-waste integral too: it is not in the
    digest, and DARC's O(1) pending counter and worker tally feed it.
    Captured on the scanning implementation (per-event queue and worker
    scans, an unconditional profile snapshot per completion)."""

    #: seed -> (digest, measured_waste(), reservation_updates) for
    #: PersephoneSystem(oracle=False), high bimodal, rho 0.85, n=12,000.
    STEADY_PINS = {
        1: ("7d238610f2876b3516a955d701ec737aaef242febdbc44e260a9ce772bf34da8",
            0.41378874407496197, 1),
        7: ("e29325c78dd7ad63dcd8fcd76591940611f30b3ee53c667ac173351e3ff01756",
            0.41081059773071255, 1),
        42: ("5f0ff1ffab9d969d84a234f42bc881263ff52ad4092acb934ad910d6fc06fbf8",
             0.3928886974499404, 1),
    }
    #: Same config, seed 3, cores 0 and 5 crash at 20 ms (after the
    #: first reservation) and recover at 30 ms, under the sanitizer.
    #: Updates were 6 while the breach re-check planned over every core
    #: instead of the surviving ones; the digest and waste did not move.
    CHAOS_PIN = (
        "20039dee5a705a8b5c6e039acd148ee4f6f1315a570baee4b18fb2425373169e",
        0.5481078725108718,
        5,
    )

    @pytest.mark.parametrize("seed", sorted(STEADY_PINS))
    def test_steady_run_matches_pin(self, seed):
        from repro.metrics.digest import digest_outcome

        result = run_once(
            PersephoneSystem(oracle=False),
            high_bimodal(),
            0.85,
            n_requests=12_000,
            seed=seed,
        )
        scheduler = result.scheduler
        digest = digest_outcome(result.server.recorder, result.server.loop)
        got = (digest, scheduler.measured_waste(), scheduler.reservation_updates)
        assert got == self.STEADY_PINS[seed]

    def test_crash_recover_run_matches_pin(self):
        from repro.faults.plan import FaultPlan
        from repro.faults.runner import run_chaos
        from repro.metrics.digest import digest_chaos_outcome

        result = run_chaos(
            PersephoneSystem(oracle=False),
            high_bimodal(),
            0.85,
            FaultPlan.crash_recover([0, 5], crash_at=20_000.0, recover_at=30_000.0),
            n_requests=12_000,
            seed=3,
            sanitize=True,
        )
        scheduler = result.scheduler
        digest = digest_chaos_outcome(
            result.recorder, result.server.loop, result.injector
        )
        first_install = scheduler.reservation_log[0][0]
        assert first_install < 20_000.0
        got = (digest, scheduler.measured_waste(), scheduler.reservation_updates)
        assert got == self.CHAOS_PIN


class TestDarcBreachPins:
    """Profiled DARC runs whose SLO-breach path re-runs Algorithm 2.

    Every :class:`TestDarcProfiledWindowPins` run installs one
    reservation and never reaches the branch where a re-run grants
    different worker counts.  Here extreme bimodal and TPC-C update the
    reservation on a breach (three groups on TPC-C), and high bimodal
    and RocksDB with a 500-sample window breach often while the re-run
    keeps the same grants.  The chaos run crashes and recovers cores
    while requests are queued and a core idles.  Each pins the digest,
    ``reservation_updates``, ``reservation_log`` and ``measured_waste()``.
    Captured on the per-event scanning dispatcher that recomputed the
    whole reservation on every breach re-check."""

    #: name -> (preset, rho, PersephoneSystem kwargs); seed 5, n=30,000.
    RUNS = {
        "extreme_bimodal": ("extreme_bimodal", 0.95, {}),
        "tpcc": ("tpcc", 0.9, {}),
        "high_bimodal-500": ("high_bimodal", 0.95, {"min_samples": 500}),
        "rocksdb-500": ("rocksdb", 0.9, {"min_samples": 500}),
    }
    #: name -> (digest, reservation_updates, reservation_log, waste).
    PINS = {
        "extreme_bimodal": (
            "e434ee7f6f316fc642db0be0b721056337814d3ba36f22545dc24199f83525fd",
            3,
            [
                (442.2160131409552, {0: 14}),
                (2235.948187337505, {0: 6, 1: 8}),
                (4068.820766718563, {0: 3, 1: 11}),
            ],
            3.476794543859422,
        ),
        "tpcc": (
            "dbd47cf15bbe66de92b38c1d0e7cdd1e3ad9daa15f4e12589a00ebcd102db631",
            2,
            [
                (2989.146086639803, {0: 2, 1: 2, 2: 6, 3: 5, 4: 5}),
                (5980.1258501789225, {0: 2, 1: 2, 2: 6, 3: 6, 4: 6}),
            ],
            0.5055907950245984,
        ),
        "high_bimodal-500": (
            "f463b6746bad5446b73694a86b68f81cc37a3915f7a64af68ce9d7012d8139f4",
            1,
            [(1846.5536367759128, {0: 1, 1: 13})],
            0.8275453785765599,
        ),
        "rocksdb-500": (
            "73f1be51130cb80fe49648330b608592545cae7408da692e5dc4c5c513f4dfa0",
            1,
            [(12233.783123585337, {0: 1, 1: 13})],
            0.763613678145647,
        ),
    }
    #: High bimodal, rho 0.95, n=12,000, seed 3, sanitized: cores 0, 5
    #: and 9 crash at 20 ms and recover at 30 ms.  Requests are queued
    #: and a core idles at both instants.  The waste was 0.7231144177175397
    #: when the crash and recovery handlers integrated the interval before
    #: them with the counts after the transition; the digest, updates and
    #: log did not move when that was fixed.  While the breach re-check
    #: planned over every core instead of the surviving ones, it also
    #: reinstalled the same 10-core reservation at 20001.485501699848
    #: and 28525.682905359707 (9 updates); the digest and waste did not
    #: move when that was fixed.
    CHAOS_PIN = (
        "68b8b844f6a2776c45c93d71e8659cca6bc816bf1fde7205639595f075769221",
        7,
        [
            (7771.83695960317, {0: 1, 1: 13}),
            (20000.0, {0: 1, 1: 12}),
            (20000.0, {0: 1, 1: 11}),
            (20000.0, {0: 1, 1: 10}),
            (30000.0, {0: 1, 1: 11}),
            (30000.0, {0: 1, 1: 12}),
            (30000.0, {0: 1, 1: 13}),
        ],
        0.7232627362619028,
    )

    @staticmethod
    def _outcome(scheduler, digest):
        return (
            digest,
            scheduler.reservation_updates,
            scheduler.reservation_log,
            scheduler.measured_waste(),
        )

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_run_matches_pin(self, name):
        from repro.metrics.digest import digest_outcome
        from repro.workload import presets

        workload, rho, kwargs = self.RUNS[name]
        result = run_once(
            PersephoneSystem(oracle=False, **kwargs),
            getattr(presets, workload)(),
            rho,
            n_requests=30_000,
            seed=5,
        )
        digest = digest_outcome(result.server.recorder, result.server.loop)
        assert self._outcome(result.scheduler, digest) == self.PINS[name]

    def test_crash_recover_while_pending_matches_pin(self):
        from repro.faults.plan import FaultPlan
        from repro.faults.runner import run_chaos
        from repro.metrics.digest import digest_chaos_outcome

        result = run_chaos(
            PersephoneSystem(oracle=False),
            high_bimodal(),
            0.95,
            FaultPlan.crash_recover([0, 5, 9], crash_at=20_000.0, recover_at=30_000.0),
            n_requests=12_000,
            seed=3,
            sanitize=True,
        )
        digest = digest_chaos_outcome(
            result.recorder, result.server.loop, result.injector
        )
        assert self._outcome(result.scheduler, digest) == self.CHAOS_PIN


@pytest.fixture(scope="module")
def sweep_plan():
    """One small real figure5 grid: 2 workloads × 3 systems × 2 seeds."""
    return plan_experiment(
        "figure5", seeds=(1, 2), n_requests=300, utilizations=(0.5,)
    )


@pytest.fixture(scope="module")
def rack_plan():
    """A reduced rack grid: 2 balancers × 3 systems × 2 seeds at one
    load point (16 servers each — the full two-level composition)."""
    plan = plan_experiment(
        "rack", seeds=(1, 2), n_requests=400, utilizations=(0.7,)
    )
    cells = tuple(
        c
        for c in plan.cells
        if c.params_dict["balancer"] in ("pow2", "type-affinity")
    )
    return plan._replace(cells=cells)


@pytest.fixture(scope="module")
def rack_serial_digests(rack_plan):
    outcomes = execute_cells(rack_plan.cells, jobs=1)
    assert all(o.ok for o in outcomes)
    return {o.cell.cell_id: o.result.digest for o in outcomes}


class TestRackSweepPlacementIndependence:
    """Rack cells carry the full two-level machinery (per-replica RNG
    forks, ``rack.*`` balancer streams, session stamping) — their
    digests must be just as placement-independent as single-server
    cells, and pinned so a behavior change cannot land silently."""

    PINNED_CELL = (
        "rack_balancer-pow2_n-servers-16_rho-0.7_system-Persephone_"
        "workload-high-bimodal_r1-8051d0d158"
    )
    PINNED_DIGEST = (
        "c009b698fbecd35fdc8d0fa2d03b46400028b74e5a92222968617ca4316e1218"
    )

    def test_two_worker_pool_matches_serial(self, rack_plan, rack_serial_digests):
        outcomes = execute_cells(rack_plan.cells, jobs=2)
        assert all(o.ok for o in outcomes)
        pooled = {o.cell.cell_id: o.result.digest for o in outcomes}
        assert pooled == rack_serial_digests

    def test_replicates_differ(self, rack_plan, rack_serial_digests):
        by_cell = {c.cell_id: c for c in rack_plan.cells}
        for cell_id, digest in rack_serial_digests.items():
            cell = by_cell[cell_id]
            sibling = next(
                c
                for c in rack_plan.cells
                if c.params == cell.params and c.replicate != cell.replicate
            )
            assert digest != rack_serial_digests[sibling.cell_id]

    def test_balancers_differ_at_shared_seed(self, rack_plan, rack_serial_digests):
        # Paired seeds (PAIRED_KEYS) give every balancer the same request
        # stream — yet placement differs, so outcomes must too.
        by_cell = {c.cell_id: c for c in rack_plan.cells}
        for cell_id, cell in by_cell.items():
            params = cell.params_dict
            if params["balancer"] != "pow2":
                continue
            sibling = next(
                c
                for c in rack_plan.cells
                if c.replicate == cell.replicate
                and c.params_dict["system"] == params["system"]
                and c.params_dict["balancer"] == "type-affinity"
            )
            assert cell.seed == sibling.seed
            assert rack_serial_digests[cell_id] != rack_serial_digests[
                sibling.cell_id
            ]

    def test_pinned_cell_digest(self, rack_serial_digests):
        assert rack_serial_digests[self.PINNED_CELL] == self.PINNED_DIGEST


@pytest.fixture(scope="module")
def serial_digests(sweep_plan):
    outcomes = execute_cells(sweep_plan.cells, jobs=1)
    assert all(o.ok for o in outcomes)
    return {o.cell.cell_id: o.result.digest for o in outcomes}


class TestSweepPlacementIndependence:
    """The sweep executor's core guarantee: a cell's digest is a pure
    function of the cell, never of where or when it ran.  Serial,
    2-worker-pool, and killed-then-resumed executions of the same
    figure5 grid must produce bit-identical per-cell digests."""

    #: Captured from the serial executor; placement-independence means no
    #: execution strategy may ever produce anything else for this cell.
    PINNED_CELL = (
        "figure5_rho-0.5_system-Persephone_workload-high-bimodal_r1-2c792a2d58"
    )
    PINNED_DIGEST = (
        "d7d283945aa115109ae234d494fcb4ebf9b5d5648efe1edb9600601da1bd6c92"
    )

    def test_two_worker_pool_matches_serial(self, sweep_plan, serial_digests):
        outcomes = execute_cells(sweep_plan.cells, jobs=2)
        assert all(o.ok for o in outcomes)
        pooled = {o.cell.cell_id: o.result.digest for o in outcomes}
        assert pooled == serial_digests

    def test_killed_then_resumed_matches_serial(
        self, sweep_plan, serial_digests, tmp_path
    ):
        root = str(tmp_path / "ckpt")
        # "Kill" mid-sweep: the first invocation stops after 5 of 12
        # cells, leaving a durable-but-incomplete checkpoint.
        first = run_plan(sweep_plan, root, jobs=2, max_cells=5)
        assert first.merged is None
        assert len(first.outcomes) == 5
        # Resume completes only the remainder, then merges.
        second = run_plan(sweep_plan, root, jobs=2, resume=True)
        assert second.merged is not None
        assert len(second.outcomes) == len(sweep_plan.cells) - 5
        resumed = {
            r.cell_id: r.digest for r in second.store.load_results()
        }
        assert resumed == serial_digests
        # The merged document carries the same digests as evidence.
        merged_digests = {
            d for g in second.merged.groups for _, d in g.digests
        }
        assert merged_digests == set(serial_digests.values())

    def test_replicates_differ(self, sweep_plan, serial_digests):
        by_cell = {c.cell_id: c for c in sweep_plan.cells}
        for cell_id, digest in serial_digests.items():
            cell = by_cell[cell_id]
            sibling = next(
                c
                for c in sweep_plan.cells
                if c.params == cell.params and c.replicate != cell.replicate
            )
            assert digest != serial_digests[sibling.cell_id]

    def test_pinned_cell_digest(self, serial_digests):
        assert serial_digests[self.PINNED_CELL] == self.PINNED_DIGEST


def _request_sequence_digest(requests):
    """SHA-256 over each request's exact (rid, type, arrival, service)."""
    import hashlib
    import struct

    sha = hashlib.sha256()
    for r in requests:
        sha.update(struct.pack("<qqdd", r.rid, r.type_id, r.arrival_time, r.service_time))
    return sha.hexdigest()


def _stochastic_spec():
    from repro.workload.distributions import Exponential, LogNormal
    from repro.workload.spec import TypedClass, WorkloadSpec

    return WorkloadSpec(
        "stochastic",
        [
            TypedClass("SHORT", 0.5, Exponential(1.0)),
            TypedClass("LONG", 0.5, LogNormal(100.0, sigma=0.5)),
        ],
    )


def _flash_crowd(spec, base_us, spike_us):
    """Steady load, an overload spike above rho = 1, then steady again."""
    from repro.workload.phases import Phase

    return [Phase(spec, base_us, 0.55), Phase(spec, spike_us, 1.2), Phase(spec, base_us, 0.55)]


class TestArrivalStreamPins:
    """Client paths the high-bimodal pins above never exercise: a phased
    run that swaps the spec and the rate mid-run with no request limit,
    service times that really draw from the ``service`` stream, bursty
    arrivals, and a run long enough to cross any block boundary of a
    pre-drawn stream.  Captured on the scalar
    generator (one numpy draw per value)."""

    #: ShenangoSystem(n_workers=4, work_stealing=True), 4-server
    #: jsq-stale rack, flash crowd of 10 ms / 5 ms / 10 ms phases
    #: (about 5,500 requests, so the unlimited stream is refilled), seed 2.
    FLASH_CROWD_DIGEST = (
        "f3b8f80e3ae7f201d56937ead4d5f47c9beed21edfa1f2d6038ef2eaa10e3cfd"
    )
    #: Same rack, seed 3, phases alternating high bimodal and the
    #: stochastic spec at different utilizations.
    SPEC_SWAP_DIGEST = (
        "25e94856ad64621b0d5d73a4f8e8053e8b1420054e78866e4c38104574667f26"
    )
    #: PersephoneSystem(n_workers=8, min_samples=200), stochastic spec,
    #: rho 0.7, n=3,000, seed 4.
    STOCHASTIC_SERVICE_DIGEST = (
        "0f419501d0dd2d5b19216e912de5ea6b44a23783d8e7115ed8a2bef9eb00a710"
    )
    #: BurstyArrivals(rate=0.5, burst_factor=2.0), high bimodal, 3,000
    #: requests, seed 5.
    BURSTY_SEQUENCE_DIGEST = (
        "e56c8870bc3780d9daf8be648e651c32fc63948a1e7f24782f36c5f47f004f8f"
    )
    #: PersephoneSystem(n_workers=8, min_samples=200), high bimodal,
    #: rho 0.7, n=10,000 (not a multiple of 4,096), seed 8.
    LONG_RUN_DIGEST = (
        "0bce2ed523aeb4e8c34de6401fe0c78f02b5ea5dc380b77829c92b75f3bdb498"
    )

    def _rack(self, phases, seed):
        from repro.rack.rack import run_rack

        return run_rack(
            ShenangoSystem(n_workers=4, work_stealing=True),
            high_bimodal(),
            balancer="jsq-stale",
            n_servers=4,
            seed=seed,
            phases=phases,
        ).digest()

    def test_flash_crowd_rack_matches_pin(self):
        phases = _flash_crowd(high_bimodal(), base_us=10_000.0, spike_us=5_000.0)
        assert self._rack(phases, seed=2) == self.FLASH_CROWD_DIGEST

    def test_spec_swapping_rack_matches_pin(self):
        from repro.workload.phases import Phase

        phases = [
            Phase(high_bimodal(), 1_500.0, 0.5),
            Phase(_stochastic_spec(), 1_500.0, 0.9),
            Phase(high_bimodal(), 1_500.0, 0.6),
            Phase(_stochastic_spec(), 1_500.0, None),
        ]
        assert self._rack(phases, seed=3) == self.SPEC_SWAP_DIGEST

    def test_stochastic_service_run_matches_pin(self):
        from repro.metrics.digest import digest_outcome

        result = run_once(
            PersephoneSystem(n_workers=8, min_samples=200),
            _stochastic_spec(),
            0.7,
            n_requests=3_000,
            seed=4,
        )
        digest = digest_outcome(result.server.recorder, result.server.loop)
        assert digest == self.STOCHASTIC_SERVICE_DIGEST

    def test_bursty_request_sequence_matches_pin(self):
        from repro.sim.engine import EventLoop
        from repro.sim.randomness import RngRegistry
        from repro.workload.arrivals import BurstyArrivals
        from repro.workload.generator import OpenLoopGenerator

        loop = EventLoop()
        rngs = RngRegistry(seed=5)
        requests = []
        OpenLoopGenerator(
            loop,
            high_bimodal(),
            BurstyArrivals(0.5, burst_factor=2.0),
            requests.append,
            type_rng=rngs.stream("types"),
            service_rng=rngs.stream("service"),
            arrival_rng=rngs.stream("arrivals"),
            limit=3_000,
        ).start()
        loop.run()
        assert len(requests) == 3_000
        assert _request_sequence_digest(requests) == self.BURSTY_SEQUENCE_DIGEST

    def test_block_crossing_run_matches_pin(self):
        from repro.metrics.digest import digest_outcome

        result = run_once(
            PersephoneSystem(n_workers=8, min_samples=200),
            high_bimodal(),
            0.7,
            n_requests=10_000,
            seed=8,
        )
        digest = digest_outcome(result.server.recorder, result.server.loop)
        assert digest == self.LONG_RUN_DIGEST


def _rack_draw_outcome(result):
    """What a rack run's draws can move: the digest, the views' read
    counters and the balancer's per-replica routing counts."""
    return (result.digest(), result.views.counters(), list(result.balancer.route_counts))


class TestRackDrawPins:
    """Rack runs long enough for every per-request rack draw (the
    balancer's sampled replicas, the session keys) to cross several
    4,096-value blocks, through pools that shrink below the sample size,
    and under the session balancer, the only one whose routing reads the
    session keys.  Captured with one numpy call per draw."""

    #: name -> (digest, views.counters(), route_counts).
    PINS = {
        "pow2-steady": (
            "964661f6e9dafa50dd6e7ce8f6f3512f0edbf555154a822b76cf59e9bafb6be2",
            {"stale_reads": 18327, "fresh_reads": 1673,
             "mean_view_error": 1.8772303159273203},
            [299, 303, 316, 321, 325, 321, 302, 300, 315, 320, 334, 305, 305, 300, 312,
             301, 328, 309, 329, 311, 297, 315, 312, 319, 289, 330, 308, 317, 291, 322,
             325, 319],
        ),
        "pow2-shrink": (
            "2099b6fac4c0fd536767be6a5d49f0c24778aafe29ff3aeaccd9bad21b2d53a1",
            {"stale_reads": 18368, "fresh_reads": 1263,
             "mean_view_error": 10.619827961672474},
            [1043, 1001, 1047, 230, 249, 230, 254, 253, 255, 241, 232, 228, 252, 221,
             234, 228, 243, 249, 234, 234, 229, 233, 244, 249, 243, 240, 234, 223, 231,
             245, 230, 241],
        ),
        "jsq-k-steady": (
            "50ac1d7f992061fbc1626468b3325fba2aede1a00da6e3ad5804735f426d55a7",
            {"stale_reads": 78208, "fresh_reads": 1792,
             "mean_view_error": 3.7097867225859247},
            [329, 308, 335, 314, 306, 286, 265, 314, 289, 324, 302, 345, 307, 335, 316,
             307, 292, 337, 349, 291, 324, 334, 328, 301, 301, 318, 341, 322, 318, 287,
             302, 273],
        ),
        "jsq-k-shrink": (
            "387535dac16bd6e3a55b314f3313199927405aea5e6efe2ba940ffdba28cbd5a",
            {"stale_reads": 62885, "fresh_reads": 1339,
             "mean_view_error": 7.192287508944899},
            [1050, 996, 1033, 283, 271, 224, 223, 260, 258, 279, 229, 240, 258, 224,
             193, 224, 220, 220, 234, 246, 224, 246, 241, 226, 246, 244, 259, 236, 232,
             216, 227, 238],
        ),
        "random-steady": (
            "410d6225922525645feba19a85e74c387364ac2afe4b1275cf1fb669c6f9bf43",
            {"stale_reads": 0, "fresh_reads": 0,
             "mean_view_error": 0.0},
            [339, 292, 324, 346, 317, 331, 290, 304, 293, 313, 300, 313, 297, 315, 318,
             318, 293, 316, 301, 316, 324, 319, 316, 322, 350, 306, 304, 301, 276, 320,
             307, 319],
        ),
        "random-shrink": (
            "cd7b9694ba481b18792962b5f475b719464128eabfb1e626b3f27d0c3ae6967e",
            {"stale_reads": 0, "fresh_reads": 0,
             "mean_view_error": 0.0},
            [1592, 965, 993, 241, 227, 233, 201, 219, 190, 238, 212, 222, 202, 205, 229,
             225, 200, 228, 228, 233, 232, 236, 231, 229, 254, 216, 222, 208, 208, 232,
             224, 225],
        ),
        "session-steady": (
            "78b9a856164a03d2a5827a314e3d627b9bbc32d8e31795ab34a2369b6766bab9",
            {"stale_reads": 9917, "fresh_reads": 1555,
             "mean_view_error": 1.599778158717354},
            [314, 320, 334, 326, 332, 307, 305, 305, 306, 327, 300, 313, 340, 316, 299,
             334, 308, 337, 310, 292, 311, 286, 349, 269, 288, 330, 312, 311, 299, 318,
             277, 325],
        ),
        "session-7-users": (
            "6210a116ce47f12ff719b32292614066bea32c2bf0f7dad5bb4d11aacc51641a",
            {"stale_reads": 226153, "fresh_reads": 1799,
             "mean_view_error": 5.59004744575575},
            [462, 433, 443, 451, 449, 480, 475, 436, 402, 431, 438, 414, 398, 326, 367,
             404, 370, 400, 439, 307, 410, 365, 343, 267, 156, 134, 0, 0, 0, 0, 0, 0],
        ),
        "session-phased": (
            "70fc1b3b8bdd7765131c6ba73d20428a3ca59fd181d8cf15b37c15b7c8f5efab",
            {"stale_reads": 50714, "fresh_reads": 2069,
             "mean_view_error": 6.330165240367552},
            [1598, 1537, 1608, 1640, 1605, 1584, 1669, 1654],
        ),
        "session-replay": (
            "d7d08ec3e60125b7a2f99dd85c11a3dc0e77071f01bedef7f4a5bf6046182f55",
            {"stale_reads": 4667, "fresh_reads": 697,
             "mean_view_error": 1.842511249196486},
            [1243, 1327, 1209, 1221],
        ),
    }

    @staticmethod
    def _shrink_plan():
        """Pool of 3 from 600 us, 2 from 800 us, 1 from 900 us (replica
        1 crashed), back to 2 at 1,000 us, 3 at 1,100 us and all 32
        from 1,400 us."""
        from repro.rack.faults import (
            RackFaultPlan,
            RackPartition,
            ServerCrash,
            ServerRecover,
        )

        return RackFaultPlan([
            RackPartition(600.0, 1_400.0, list(range(3, 32))),
            RackPartition(800.0, 1_000.0, [2]),
            ServerCrash(900.0, 1),
            ServerRecover(1_100.0, 1),
        ])

    @staticmethod
    def _run(balancer, **kwargs):
        from repro.rack.rack import run_rack

        config = dict(
            n_servers=32,
            utilization=0.7,
            n_requests=10_000,
            seed=11,
            staleness_us=50.0,
        )
        config.update(kwargs)
        return run_rack(
            PersephoneSystem(n_workers=8), high_bimodal(), balancer=balancer, **config
        )

    @classmethod
    def _trace(cls):
        from repro.sim.randomness import RngRegistry
        from repro.workload.arrivals import PoissonArrivals
        from repro.workload.trace import record_trace

        rngs = RngRegistry(seed=12)
        return record_trace(
            high_bimodal(),
            PoissonArrivals(0.5),
            5_000,
            type_rng=rngs.stream("types"),
            service_rng=rngs.stream("service"),
            arrival_rng=rngs.stream("arrivals"),
        )

    @classmethod
    def outcome(cls, name):
        if name == "pow2-steady":
            return _rack_draw_outcome(cls._run("pow2"))
        if name == "pow2-shrink":
            return _rack_draw_outcome(cls._run("pow2", plan=cls._shrink_plan()))
        if name == "jsq-k-steady":
            return _rack_draw_outcome(cls._run("jsq-k"))
        if name == "jsq-k-shrink":
            return _rack_draw_outcome(cls._run("jsq-k", plan=cls._shrink_plan()))
        if name == "random-steady":
            return _rack_draw_outcome(cls._run("random"))
        if name == "random-shrink":
            return _rack_draw_outcome(cls._run("random", plan=cls._shrink_plan()))
        if name == "session-steady":
            return _rack_draw_outcome(cls._run("session"))
        if name == "session-7-users":
            return _rack_draw_outcome(cls._run("session", n_users=7))
        if name == "session-phased":
            phases = _flash_crowd(high_bimodal(), base_us=6_000.0, spike_us=3_000.0)
            return _rack_draw_outcome(
                cls._run("session", n_servers=8, phases=phases, seed=13)
            )
        if name == "session-replay":
            return _rack_draw_outcome(
                cls._run("session", n_servers=4, trace=cls._trace(), seed=14)
            )
        raise KeyError(name)

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_run_matches_pin(self, name):
        assert self.outcome(name) == self.PINS[name]

    @pytest.mark.parametrize("n_users", [7, 1_000_000])
    def test_session_stream_ends_where_scalar_draws_end(self, n_users):
        from repro.sim.randomness import RngRegistry

        result = self._run("session", n_servers=4, n_requests=5_000, n_users=n_users)
        scalar = RngRegistry(seed=11).stream("rack.sessions")
        for _ in range(5_000):
            scalar.integers(0, n_users)
        got = result.rack._session_rng.bit_generator.state
        assert got == scalar.bit_generator.state


class _PolicySystem(SystemModel):
    """A system (four workers by default) running the scheduler
    ``factory(spec, rngs)`` builds, so policies no system preset wires up
    still run in a rack or a server."""

    name = "policy"

    def __init__(self, factory, n_workers=4):
        super().__init__(n_workers=n_workers)
        self._factory = factory

    def make_scheduler(self, spec, rngs):
        return self._factory(spec, rngs)


def _policy_factory(name):
    from repro.core.static import DarcStatic
    from repro.policies.fcfs import (
        CentralizedFCFS,
        DecentralizedFCFS,
        WorkStealingFCFS,
    )
    from repro.policies.srpt import ShortestRemainingProcessingTime
    from repro.policies.timesharing import TimeSharing
    from repro.policies.typed import (
        CSCQ,
        DeficitRoundRobin,
        EarliestDeadlineFirst,
        FixedPriority,
        ShortestJobFirst,
        StaticPartitioning,
    )

    return {
        "c-fcfs": lambda spec, rngs: CentralizedFCFS(),
        "srpt": lambda spec, rngs: ShortestRemainingProcessingTime(preempt_cost_us=1.0),
        "sjf": lambda spec, rngs: ShortestJobFirst(),
        "edf": lambda spec, rngs: EarliestDeadlineFirst(spec.type_specs()),
        "cscq": lambda spec, rngs: CSCQ(
            spec.type_specs(), threshold_us=10.0, n_short_workers=2
        ),
        "timesharing-multi": lambda spec, rngs: TimeSharing(
            quantum_us=10.0, mode="multi", type_specs=spec.type_specs()
        ),
        "d-fcfs": lambda spec, rngs: DecentralizedFCFS(rng=rngs.stream("rss")),
        "ws-fcfs": lambda spec, rngs: WorkStealingFCFS(
            rng=rngs.stream("rss"), victim="random"
        ),
        "fixed-priority": lambda spec, rngs: FixedPriority(spec.type_specs()),
        "drr": lambda spec, rngs: DeficitRoundRobin(
            spec.type_specs(), weights={1: 10.0}
        ),
        "static-partitioning": lambda spec, rngs: StaticPartitioning(spec.type_specs()),
        "darc-static": lambda spec, rngs: DarcStatic(spec.type_specs(), n_reserved=2),
    }[name]


class TestPendingCounterPins:
    """Oracle-view rack runs whose every routing decision reads each
    queueing policy's queued count, steady and through the crashes,
    recoveries and partitions of ``TestRackCounterParity`` (crash
    victims re-enter the scheduler's queues).  Captured with
    ``pending_count()`` summing the queues (d-FCFS through DARC-static)
    or reading their lengths (c-FCFS, SRPT, SJF, EDF, CSCQ) and with
    time sharing's private counter."""

    #: (policy, mode) -> digest.
    PINS = {
        ("c-fcfs", "steady"):
            "57a5dda3d6be845032701cdb00f0402e44223b60c4f2c187d6ed784435aefd82",
        ("c-fcfs", "faults"):
            "fc1f5af6a2a7c3091cf347cc215c0ef17d227afce10d4e3330841cbeb9798edb",
        ("srpt", "steady"):
            "a6deb114f6eb5795f95852383e81e7fb30114eceaa11386824cd284101d6a9d7",
        ("srpt", "faults"):
            "d4e3ad7a59327293e9cc5c1c66f39fc18e74e1006b80dd87ecad2c610acf7d97",
        ("sjf", "steady"):
            "8641403252981fd254aa5a285b349513585942b1e011246120cde058feb0a6b2",
        ("sjf", "faults"):
            "4ec7e5b7d1c93db530569fcb9ce8829619dbb06371a33f7d33d2d6fc01ddcc07",
        ("edf", "steady"):
            "8641403252981fd254aa5a285b349513585942b1e011246120cde058feb0a6b2",
        ("edf", "faults"):
            "c1eb64caa3cee4017b64124c97ee10d41b5e413424aea75388f615c168da8b52",
        ("cscq", "steady"):
            "ad44eab68e3ae2be6ee57a9597a8f3f0f61e8af2e456904ef8203d3b2e91a4bb",
        ("cscq", "faults"):
            "042bc04856788ee1830495169ddafb6534fae0e8a797719d14dac276eadd516a",
        ("timesharing-multi", "steady"):
            "3c303328f0f2e9f9d7bdac2301fbe61b3a07eea070b98df14582548080306544",
        ("timesharing-multi", "faults"):
            "f31032348f698c9fc269cf780e81fbcd01d71b7f7e5791ff269fab1992f5203d",
        ("d-fcfs", "steady"):
            "b8a71f08411c5f0256c5ba2bed432f5d1cb489ec34b761e25ca891030aafb79a",
        ("d-fcfs", "faults"):
            "5362068e93ec1b885434cf31fa18ce5f78a91a6058a7ad5cd4b4a7a5d6ffa4db",
        ("ws-fcfs", "steady"):
            "56eecf1f78fe2e71879c0330df4434f359b04a800824289edefa2d455b4e07f2",
        ("ws-fcfs", "faults"):
            "8be643192deb90e18d7fd0432ebc17d2b14e8dcb8d6829625f3b39f31613105b",
        ("fixed-priority", "steady"):
            "8641403252981fd254aa5a285b349513585942b1e011246120cde058feb0a6b2",
        ("fixed-priority", "faults"):
            "ba1dfe5ac4a7616b25b0b5e0b1245c2c69668e998d05c754cfe8e58eaf960ae6",
        ("drr", "steady"):
            "a95b4ccd898d7ddf2493fe70aec47d0986efdbfef2265ddfcbc1eb00abd3a0a4",
        ("drr", "faults"):
            "91727a35eabad8831764b7e7cb3ed91da20f8ba554bbc0905dc0334faef5135c",
        ("static-partitioning", "steady"):
            "853e700084ec191baddca3ebcc1f07689a5913836eee0be5ea916eaef22e5f00",
        ("static-partitioning", "faults"):
            "d3eac1975e03815a32b91ee54c36e04fc8390a1335304721699fedbc9e3e3403",
        ("darc-static", "steady"):
            "ad44eab68e3ae2be6ee57a9597a8f3f0f61e8af2e456904ef8203d3b2e91a4bb",
        ("darc-static", "faults"):
            "042bc04856788ee1830495169ddafb6534fae0e8a797719d14dac276eadd516a",
    }

    @staticmethod
    def outcome(policy, mode):
        from repro.rack.rack import run_rack

        result = run_rack(
            _PolicySystem(_policy_factory(policy)),
            high_bimodal(),
            balancer="jsq-stale",
            n_servers=4,
            utilization=1.1,
            n_requests=1_500,
            seed=5,
            staleness_us=0.0,
            plan=TestRackCounterParity._fault_plan() if mode == "faults" else None,
        )
        return result.digest()

    @pytest.mark.parametrize("policy,mode", sorted(PINS))
    def test_digest_matches_scanning_pending_count(self, policy, mode):
        assert self.outcome(policy, mode) == self.PINS[(policy, mode)]


class TestStaleJSQViewPins:
    """The 32x8 stale-JSQ rack of the benchmark (50 us staleness), steady
    and through ``TestRackDrawPins``'s partitions and crash, which
    shrink the pool to 3, 2 and 1 replicas and heal it.  Pins what a
    batched view read could move: the digest, the views' read counters
    and error, and the per-replica routing counts.  Captured with one
    ``QueueViews.load`` call per replica per pick."""

    #: name -> (digest, views.counters(), route_counts).
    PINS = {
        "steady": (
            "6d39cfd3ac10e8f53eee2f3a737f595fb01a5eae4502701b026eb6094d210f0c",
            {"stale_reads": 318176, "fresh_reads": 1824,
             "mean_view_error": 5.248456828924872},
            [257, 225, 238, 314, 312, 240, 381, 318, 335, 375, 311, 261, 320, 320, 433,
             433, 305, 291, 251, 274, 207, 284, 317, 218, 408, 310, 291, 434, 267, 336,
             423, 311],
        ),
        "shrink": (
            "6f64c1b7a80abfc2e5e85c0f5407feb76bedbbdac55ffd33c99936a4cb9cd74c",
            {"stale_reads": 233992, "fresh_reads": 1352,
             "mean_view_error": 5.694865636432015},
            [986, 932, 1021, 276, 245, 260, 349, 410, 300, 412, 274, 207, 154, 333, 231,
             105, 186, 209, 216, 210, 168, 135, 229, 145, 395, 252, 183, 213, 242, 151,
             427, 144],
        ),
    }

    @classmethod
    def outcome(cls, name):
        plan = TestRackDrawPins._shrink_plan() if name == "shrink" else None
        return _rack_draw_outcome(TestRackDrawPins._run("jsq-stale", plan=plan))

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_run_matches_pin(self, name):
        assert self.outcome(name) == self.PINS[name]


def _view_path_outcome(result):
    """``_rack_draw_outcome`` plus the exact error sum and the spills."""
    digest, counters, route_counts = _rack_draw_outcome(result)
    views = result.views
    return (digest, counters, views.error_sum, route_counts, result.balancer.spills)


class TestViewPathPins:
    """Rack runs through every view-reading path the benchmark rack does
    not take: stale JSQ with a dispatcher and ingress delay (requests
    reach the scheduler after routing), sampled JSQ(k), type affinity
    with spills, power of three choices, and shortest expected delay,
    steady and through ``TestRackDrawPins``'s shrinking pool.  Captured
    with ``QueueViews.least`` recomputing every pooled replica's load
    per pick and ``sed`` calling ``QueueViews.load`` once per replica."""

    #: name -> (digest, views.counters(), error_sum, route_counts, spills).
    PINS = {
        "jsq-stale-delayed": (
            "35a6b608b8989dec2f3e62f09bc38073ca2a6d6cf4f4ff9360303fb06d24d937",
            {"stale_reads": 318176, "fresh_reads": 1824,
             "mean_view_error": 5.260931057025043},
            1673902.0,
            [257, 225, 238, 314, 312, 240, 381, 318, 335, 375, 311, 261, 320, 320, 433,
             433, 305, 291, 251, 274, 207, 284, 317, 218, 408, 310, 291, 434, 267, 336,
             423, 311],
            0,
        ),
        "jsq-k": (
            "50ac1d7f992061fbc1626468b3325fba2aede1a00da6e3ad5804735f426d55a7",
            {"stale_reads": 78208, "fresh_reads": 1792,
             "mean_view_error": 3.7097867225859247},
            290135.0,
            [329, 308, 335, 314, 306, 286, 265, 314, 289, 324, 302, 345, 307, 335, 316,
             307, 292, 337, 349, 291, 324, 334, 328, 301, 301, 318, 341, 322, 318, 287,
             302, 273],
            0,
        ),
        "type-affinity": (
            "6db61b205f0f385917ce996195496b8303cbd65c35a7bec98d94a86f4209450e",
            {"stale_reads": 179783, "fresh_reads": 1823,
             "mean_view_error": 3.4607721530956765},
            622188.0,
            [4636, 359, 247, 264, 269, 242, 329, 276, 266, 212, 252, 168, 179, 259, 210,
             173, 184, 187, 196, 190, 174, 184, 105, 259, 80, 100, 0, 0, 0, 0, 0, 0],
            343,
        ),
        "pow3": (
            "573b5d6c0af2cafbb88bcfddb3ea69e3ca32b6a946101b57e34b0db8274a9b1a",
            {"stale_reads": 28277, "fresh_reads": 1723,
             "mean_view_error": 2.3502846836651696},
            66459.0,
            [312, 316, 307, 304, 292, 310, 335, 303, 313, 334, 322, 294, 298, 325, 311,
             282, 307, 326, 314, 329, 314, 293, 318, 342, 299, 309, 334, 320, 292, 310,
             308, 327],
            0,
        ),
        "sed-steady": (
            "d76eb788386a27ac187d2934068e738c7f404919a7f5e5ecb6155c8b78b871a1",
            {"stale_reads": 318176, "fresh_reads": 1824,
             "mean_view_error": 5.904810545107111},
            1878769.0,
            [515, 559, 532, 559, 505, 349, 356, 503, 401, 360, 509, 328, 376, 358, 401,
             369, 366, 317, 364, 359, 370, 327, 325, 235, 173, 184, 0, 0, 0, 0, 0, 0],
            0,
        ),
        "sed-shrink": (
            "439ec183923bdb1a7a69b54cdcd1b9a97bbf23ff6bf2aa6fb8bded5401e6a01d",
            {"stale_reads": 233992, "fresh_reads": 1352,
             "mean_view_error": 6.07182724195699},
            1420759.0,
            [1092, 1107, 1179, 543, 501, 464, 352, 485, 397, 365, 507, 317, 186, 164,
             188, 197, 212, 178, 155, 177, 181, 183, 161, 163, 194, 181, 171, 0, 0, 0, 0,
             0],
            0,
        ),
    }

    @staticmethod
    def _pow3(servers, views, rngs, spec):
        from repro.rack.balancers import PowerOfD

        return PowerOfD(servers, views, rngs.stream("rack.pow2"), d=3)

    @staticmethod
    def _affinity(servers, views, rngs, spec):
        from repro.rack.balancers import TypeAffinity, affinity_assignment

        assignment, default = affinity_assignment(spec, len(servers))
        return TypeAffinity(servers, views, assignment, default, spill_threshold=2)

    @classmethod
    def outcome(cls, name):
        from repro.rack.rack import run_rack

        run = TestRackDrawPins._run
        if name == "jsq-stale-delayed":
            result = run_rack(
                PersephoneSystem(n_workers=8, prototype_costs=True), high_bimodal(),
                balancer="jsq-stale", n_servers=32, utilization=0.7,
                n_requests=10_000, seed=11, staleness_us=50.0,
            )
        elif name == "jsq-k":
            result = run("jsq-k")
        elif name == "type-affinity":
            result = run(cls._affinity)
        elif name == "pow3":
            result = run(cls._pow3)
        elif name == "sed-steady":
            result = run("sed")
        elif name == "sed-shrink":
            result = run("sed", plan=TestRackDrawPins._shrink_plan())
        else:
            raise KeyError(name)
        return _view_path_outcome(result)

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_run_matches_pin(self, name):
        assert self.outcome(name) == self.PINS[name]


def _timesharing_accounting(scheduler, workers):
    """sha256 over what ``digest_outcome`` does not hash: every worker's
    busy, overhead and idle clocks and completion count, the scheduler's
    preemption count and its final BVT virtual times."""
    import hashlib
    import struct

    sha = hashlib.sha256()
    for worker in workers:
        sha.update(
            struct.pack(
                "<dddq",
                worker.total_busy_time,
                worker.total_overhead_time,
                worker.idle_since,
                worker.completed,
            )
        )
    sha.update(struct.pack("<q", scheduler.preemptions))
    for tid, vtime in scheduler.vtimes.items():
        sha.update(struct.pack("<qd", tid, vtime))
    return sha.hexdigest()


def _weighted_tpcc_timesharing(spec, rngs):
    from repro.policies.timesharing import TimeSharing

    return TimeSharing(
        quantum_us=10.0,
        preempt_overhead_us=1.0,
        preempt_delay_us=1.0,
        mode="multi",
        type_specs=spec.type_specs(),
        weights={0: 2.0, 2: 0.5, 3: 4.0},
    )


class TestTimeSharingPins:
    """Long Shinjuku runs through every quantum-boundary path: multi and
    single queue, timer and demand trigger, five BVT types with weights,
    a straggler and a crash that land mid-slice, and a traced run.  Each
    pins the digest and the worker accounting, which the digest does not
    cover.  Captured with every boundary going through the enqueue and
    dequeue round trip."""

    #: name -> (system factory, workload, rho) for the 10,000-request
    #: seed-1 runs.
    RUNS = {
        "multi-timer": (lambda: ShinjukuSystem(n_workers=14), "high_bimodal", 0.7),
        "multi-tpcc-weighted": (
            lambda: _PolicySystem(_weighted_tpcc_timesharing, n_workers=14),
            "tpcc",
            0.8,
        ),
        "single-timer": (
            lambda: ShinjukuSystem(n_workers=14, mode="single"),
            "extreme_bimodal",
            0.6,
        ),
        "single-demand": (
            lambda: ShinjukuSystem(n_workers=14, mode="single", trigger="demand"),
            "high_bimodal",
            0.7,
        ),
        "multi-demand": (
            lambda: ShinjukuSystem(n_workers=14, trigger="demand"),
            "high_bimodal",
            0.7,
        ),
    }

    #: name -> (digest, accounting sha).
    PINS = {
        "multi-timer": (
            "3ae85f21dfc1a43ee39b2a3a3625af9653eebc21c8e2067322833462e15bfa16",
            "223476479b57d662ffcb5bc8c420b74abc89f66ad56a84d27798a8eca7fbd274",
        ),
        "multi-tpcc-weighted": (
            "a014ae8bc086a8feff42d0f7515b14de1aa02e4c22c40e8eda2a913cb9e1ec01",
            "b01c0b9704ebddf4946eea5bb9baf6fc7d6d931018421b06b919a0f3902a5223",
        ),
        "single-timer": (
            "f57a836f8e03aa290e300996a698f83291817b6e985e49316b6d6077abf2fb99",
            "620dd740938c0672c2783c2f132e2470304078f11f5b2b16c4ccccc8ce8f113c",
        ),
        "single-demand": (
            "ae199b716aaeb1d0d7e19e62d7b639c40ce2e997708d5f5436140453cd97b0d6",
            "36bea50b1f20d7f840f5e5c2eba4a3870c9519429edaa5dbf3eeb2b2170503be",
        ),
        "multi-demand": (
            "e4208945fee1f088513e13d81fd2845e78dc3205a182219736ef07ca401bbdef",
            "38b07ac7a128fce018747942f9dfcbd38d1aef14335135fe81053b5f8d1e4c78",
        ),
    }
    #: Multi-queue timer Shinjuku, high bimodal, rho 0.7, n=10,000,
    #: seed 4, sanitized: core 3 straggles x3 from 2 ms to 9 ms, cores 1
    #: and 6 crash at 3.3 ms and recover at 6.1 ms.
    CHAOS_PIN = (
        "b15040c27a65b6889b95551110dde343b8e3cd498efd6e97b1f75016104ef882",
        "9031720d0b05f0c8857e98e2b86d1e4ecff2107c29dc719551c2af04c2ef6995",
    )
    #: sha256 over the traced "multi-timer" run's slices.
    TRACE_PIN = "b6269015b10d23ec8a2895c9f04c97457264bbe614c02f583c507e7babb76cb3"

    @classmethod
    def run(cls, name, tracer=None):
        from repro.metrics.digest import digest_outcome
        from repro.workload import presets

        factory, workload, rho = cls.RUNS[name]
        result = run_once(
            factory(),
            getattr(presets, workload)(),
            rho,
            n_requests=10_000,
            seed=1,
            tracer=tracer,
        )
        digest = digest_outcome(result.server.recorder, result.server.loop)
        return digest, _timesharing_accounting(result.scheduler, result.server.workers)

    @classmethod
    def chaos(cls):
        from repro.faults.plan import (
            FaultPlan,
            WorkerCrash,
            WorkerRecover,
            WorkerSlowdown,
        )
        from repro.faults.runner import run_chaos
        from repro.metrics.digest import digest_chaos_outcome

        plan = FaultPlan(
            [
                WorkerSlowdown(2_000.0, 3, factor=3.0, until=9_000.0),
                WorkerCrash(3_300.0, 1),
                WorkerCrash(3_300.0, 6),
                WorkerRecover(6_100.0, 1),
                WorkerRecover(6_100.0, 6),
            ]
        )
        result = run_chaos(
            ShinjukuSystem(n_workers=14),
            high_bimodal(),
            0.7,
            plan,
            n_requests=10_000,
            seed=4,
            sanitize=True,
        )
        # Both crashes evicted a request: they landed mid-slice.
        assert result.injector.requeued == 2
        digest = digest_chaos_outcome(
            result.recorder, result.server.loop, result.injector
        )
        return digest, _timesharing_accounting(result.scheduler, result.server.workers)

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_run_matches_pin(self, name):
        assert self.run(name) == self.PINS[name]

    #: seed -> (digest in the benchmark suite's recipe, events processed,
    #: accounting sha) of its server-shinjuku workload: 40,000 requests.
    BENCHMARK_PINS = {
        1: (
            "5f601b4dc5e145d908734c8ccca9de7ac574784bf9db8872f4f6ebe21da23560",
            461_026,
            "99ee43769b332e3a734b7bfc6013f3096afed1f6e0566af89daba3b1418928dc",
        ),
        2: (
            "5cc217fc5e0378b56dd8f7d471dca78df95c461bd1c8f3ae9dcd10345bf63b28",
            460_361,
            "51384a667c397ae86db22eb4d85cd0410b2865a8848cd0540ef26e6d6b017508",
        ),
    }

    @pytest.mark.parametrize("seed", sorted(BENCHMARK_PINS))
    def test_benchmark_configuration_matches_pin(self, seed):
        """The benchmark's server-shinjuku run, hashed as the suite hashes
        it (``model.digest``: the recorder's completion columns, then the
        completed, dropped and event counts)."""
        import hashlib

        result = run_once(
            ShinjukuSystem(n_workers=14, quantum_us=5, mode="multi", trigger="timer"),
            high_bimodal(),
            0.7,
            n_requests=40_000,
            seed=seed,
        )
        recorder, loop = result.server.recorder, result.server.loop
        columns = recorder.columns()
        sha = hashlib.sha256()
        for name in (
            "type_ids", "arrivals", "services", "finishes", "waits",
            "preemptions", "overheads",
        ):
            sha.update(name.encode())
            sha.update(getattr(columns, name).tobytes())
        events = loop.events_processed
        sha.update(
            f"completed={recorder.completed};dropped={recorder.dropped};"
            f"events={events}".encode()
        )
        accounting = _timesharing_accounting(result.scheduler, result.server.workers)
        assert (sha.hexdigest(), events, accounting) == self.BENCHMARK_PINS[seed]

    def test_faulted_sanitized_run_matches_pin(self):
        assert self.chaos() == self.CHAOS_PIN

    def test_traced_run_matches_untraced_pin(self):
        import hashlib
        import struct

        from repro.trace import Tracer

        tracer = Tracer()
        assert self.run("multi-timer", tracer=tracer) == self.PINS["multi-timer"]
        spans = tracer.finished_spans()
        assert len(spans) == 10_000
        # Every on-core slice, in span order: each preemption closes one
        # and the resumption opens the next at the same timestamp.
        sha = hashlib.sha256()
        for span in spans:
            for piece in span.slices:
                sha.update(
                    struct.pack("<qqdd", span.rid, piece.worker_id, piece.begin, piece.end)
                )
                sha.update(piece.kind.encode())
        assert sha.hexdigest() == self.TRACE_PIN
