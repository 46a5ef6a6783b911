"""Seed-determinism over the three simulated systems, and proof that the
sanitizer neither perturbs results nor fires on healthy experiments."""

import sys

import pytest

from repro.experiments.common import run_once
from repro.lint.determinism import check_all, check_system, digest_run
from repro.sweep.executor import execute_cells
from repro.sweep.orchestrator import run_plan
from repro.sweep.planner import plan_experiment
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
        assert len(reports) == 3
        assert all(r.identical for r in reports)
        names = " ".join(r.system for r in reports)
        assert "Persephone" in names and "Shenango" in names and "Shinjuku" in names

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

    def test_rack_load_defaults_are_the_old_literals(self):
        import inspect

        from repro.rack.load import diurnal_phases, flash_crowd_phases

        diurnal = inspect.signature(diurnal_phases).parameters
        assert diurnal["total_duration_us"].default == 1_200_000.0
        crowd = inspect.signature(flash_crowd_phases).parameters
        assert crowd["base_duration_us"].default == 300_000.0
        assert crowd["spike_duration_us"].default == 120_000.0

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
        from repro.lint.determinism import digest_outcome

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
