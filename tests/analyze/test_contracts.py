"""The Policy/System/Balancer contract verifier (A201/A202/A203).

Fixture trees place files under ``repro/`` so classes key exactly like
the shipped tree (``repro.policies.base.Scheduler`` ...), which is how
the contract specs address their roots.
"""


def rule_ids(findings):
    return sorted(f.rule_id for f in findings)


BASE = {
    "repro/policies/base.py": """
    import abc

    class Scheduler(abc.ABC):
        traits = None

        def __init__(self):
            self.loop = None
            self.workers = []
            self._bound = False

        def bind(self, loop, workers):
            self.loop = loop
            self.workers = workers
            self._bound = True

        @abc.abstractmethod
        def on_request(self, request):
            ...

        @abc.abstractmethod
        def on_worker_free(self, worker):
            ...

        def on_worker_crash(self, worker):
            pass
    """
}

GOOD_POLICY = """
from .base import Scheduler

class Fcfs(Scheduler):
    traits = "fcfs"

    def __init__(self):
        super().__init__()
        self.queue = []

    def on_request(self, request):
        self.queue.append(request)

    def on_worker_free(self, worker):
        pass
"""


class TestRequiredOverrides:
    def test_compliant_subclass_clean(self, analyze):
        files = dict(BASE, **{"repro/policies/fcfs.py": GOOD_POLICY})
        assert analyze(files, select=["A201", "A202"]) == []

    def test_missing_method_and_attr(self, analyze):
        files = dict(
            BASE,
            **{
                "repro/policies/broken.py": """
                from .base import Scheduler

                class Broken(Scheduler):
                    def on_request(self, request):
                        pass
                """
            },
        )
        findings = analyze(files, select=["A201"])
        assert rule_ids(findings) == ["A201", "A201"]
        symbols = {f.symbol for f in findings}
        assert symbols == {
            "repro.policies.broken.Broken.on_worker_free",
            "repro.policies.broken.Broken.traits",
        }

    def test_abstract_intermediate_is_exempt(self, analyze):
        files = dict(
            BASE,
            **{
                "repro/policies/mid.py": """
                import abc
                from .base import Scheduler

                class QueueingScheduler(Scheduler, abc.ABC):
                    def __init__(self):
                        super().__init__()
                        self.queue = []
                """
            },
        )
        assert analyze(files, select=["A201"]) == []

    def test_attr_inherited_from_intermediate_counts(self, analyze):
        files = dict(
            BASE,
            **{
                "repro/policies/mid.py": """
                import abc
                from .base import Scheduler

                class Tagged(Scheduler, abc.ABC):
                    traits = "tagged"
                """,
                "repro/policies/leaf.py": """
                from .mid import Tagged

                class Leaf(Tagged):
                    def __init__(self):
                        super().__init__()

                    def on_request(self, request):
                        pass

                    def on_worker_free(self, worker):
                        pass
                """,
            },
        )
        assert analyze(files, select=["A201"]) == []


BALANCER_BASE = {
    "repro/rack/balancers.py": """
    import abc

    class RackBalancer(abc.ABC):
        def __init__(self, servers, views):
            self.servers = list(servers)
            self.views = views
            self.routed = 0

        @abc.abstractmethod
        def pick(self, request):
            ...

        def ingress(self, request):
            self.routed += 1
            self.servers[self.pick(request)].ingress(request)
    """
}


class TestBalancerContract:
    def test_missing_pick_fires(self, analyze):
        files = dict(
            BALANCER_BASE,
            **{
                "repro/rack/lazy.py": """
                from .balancers import RackBalancer

                class Lazy(RackBalancer):
                    pass
                """
            },
        )
        findings = analyze(files, select=["A201"])
        assert rule_ids(findings) == ["A201"]
        assert "rack balancer" in findings[0].message

    def test_unchained_ingress_fires(self, analyze):
        files = dict(
            BALANCER_BASE,
            **{
                "repro/rack/bypass.py": """
                from .balancers import RackBalancer

                class Bypass(RackBalancer):
                    def pick(self, request):
                        return 0

                    def ingress(self, request):
                        self.servers[0].ingress(request)
                """
            },
        )
        findings = analyze(files, select=["A202"])
        assert [f.symbol for f in findings] == ["repro.rack.bypass.Bypass.ingress"]


class TestSuperChains:
    def test_init_without_super_fires(self, analyze):
        files = dict(
            BASE,
            **{
                "repro/policies/rogue.py": GOOD_POLICY.replace(
                    "super().__init__()\n        self.queue = []", "self.queue = []"
                ).replace("class Fcfs", "class Rogue")
            },
        )
        findings = analyze(files, select=["A202"])
        assert rule_ids(findings) == ["A202"]
        assert findings[0].symbol == "repro.policies.rogue.Rogue.__init__"

    def test_explicit_base_call_accepted(self, analyze):
        files = dict(
            BASE,
            **{
                "repro/policies/explicit.py": GOOD_POLICY.replace(
                    "super().__init__()", "Scheduler.__init__(self)"
                ).replace("class Fcfs", "class Explicit")
            },
        )
        assert analyze(files, select=["A202"]) == []

    def test_unchained_crash_hook_fires(self, analyze):
        files = dict(
            BASE,
            **{
                "repro/policies/crashy.py": GOOD_POLICY.replace("class Fcfs", "class Crashy")
                + """
    def on_worker_crash(self, worker):
        self.queue.clear()
"""
            },
        )
        findings = analyze(files, select=["A202"])
        assert [f.symbol for f in findings] == [
            "repro.policies.crashy.Crashy.on_worker_crash"
        ]

    def test_override_of_abstract_method_needs_no_chain(self, analyze):
        """on_request is abstract in the base — implementing it is not
        'overriding engine-side state', no chain required."""
        files = dict(BASE, **{"repro/policies/fcfs.py": GOOD_POLICY})
        assert analyze(files, select=["A202"]) == []


class TestReservedFields:
    def test_foreign_worker_field_write(self, analyze):
        files = {
            "repro/faults/inject.py": """
            def crash(worker):
                worker.failed = True
            """
        }
        findings = analyze(files, select=["A203"])
        assert rule_ids(findings) == ["A203"]
        assert "call the owner's API" in findings[0].message

    def test_owner_module_may_write(self, analyze):
        files = {
            "repro/server/worker.py": """
            class Worker:
                def fail(self):
                    self.failed = True
            """
        }
        assert analyze(files, select=["A203"]) == []

    def test_scheduler_wiring_rebind_in_subclass(self, analyze):
        files = dict(
            BASE,
            **{
                "repro/policies/rewire.py": GOOD_POLICY.replace(
                    "self.queue = []", "self.queue = []\n        self.workers = {}"
                ).replace("class Fcfs", "class Rewire")
            },
        )
        findings = analyze(files, select=["A203"])
        assert rule_ids(findings) == ["A203"]
        assert findings[0].symbol.endswith(":workers")

    def test_base_module_may_wire(self, analyze):
        assert analyze(BASE, select=["A203"]) == []

    def test_noncritical_package_out_of_scope(self, analyze):
        files = {
            "repro/analysis/tool.py": """
            def crash(worker):
                worker.failed = True
            """
        }
        assert analyze(files, select=["A203"]) == []

    def test_unreserved_attr_ignored(self, analyze):
        files = {
            "repro/faults/inject.py": """
            def tag(worker):
                worker.note = "x"
            """
        }
        assert analyze(files, select=["A203"]) == []
