"""Positive + negative fixtures for every single-module rule (A701–A708,
formerly R001–R008), the observer-purity analysis (A301, which absorbed
R009) on the same fixtures, plus the suppression machinery."""

import textwrap

import pytest

from repro.analyze.filerules import RULES
from repro.analyze.findings import ANALYSIS_RULES
from repro.analyze.model import Program
from repro.analyze.runner import analyze_program, has_errors
from repro.errors import AnalysisError

#: Path prefixes that put a fixture inside / outside the sim-critical scope.
CRITICAL = "src/repro/sim/fixture.py"
CRITICAL_CORE = "src/repro/core/fixture.py"
DRIVER = "src/repro/experiments/fixture.py"

#: The single-module rule family plus suppression hygiene.
FILE_RULES = sorted(RULES) + ["A000"]


def lint(source: str, path: str = CRITICAL, select=None):
    program = Program()
    program.add_module(path, textwrap.dedent(source))
    return analyze_program(program, select=select or FILE_RULES)


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestDirectRandom:
    def test_stdlib_random_flagged(self):
        findings = lint(
            """
            import random
            def pick():
                return random.random()
            """
        )
        assert rule_ids(findings) == ["A701"]

    def test_numpy_global_rng_flagged(self):
        findings = lint(
            """
            import numpy as np
            def pick():
                return np.random.default_rng().integers(0, 4)
            """
        )
        assert "A701" in rule_ids(findings)

    def test_from_import_alias_flagged(self):
        findings = lint(
            """
            from random import randint
            def pick():
                return randint(0, 3)
            """
        )
        assert rule_ids(findings) == ["A701"]

    def test_registry_stream_ok(self):
        findings = lint(
            """
            def pick(rngs):
                return rngs.stream("victims").integers(0, 4)
            """
        )
        assert findings == []

    def test_randomness_module_exempt(self):
        findings = lint(
            """
            import numpy as np
            def make(seed):
                return np.random.default_rng(seed)
            """,
            path="src/repro/sim/randomness.py",
        )
        assert findings == []

    def test_generator_annotation_not_flagged(self):
        findings = lint(
            """
            import numpy as np
            def draw(rng: np.random.Generator) -> float:
                return rng.random()
            """
        )
        assert findings == []


class TestWallClock:
    @pytest.mark.parametrize(
        "call",
        ["time.time()", "time.monotonic()", "time.perf_counter()", "time.sleep(1)"],
    )
    def test_time_module_flagged_in_sim(self, call):
        findings = lint(f"import time\nnow = lambda: {call}\n")
        assert rule_ids(findings) == ["A702"]

    def test_datetime_now_flagged(self):
        findings = lint(
            """
            from datetime import datetime
            def stamp():
                return datetime.now()
            """
        )
        assert rule_ids(findings) == ["A702"]

    def test_driver_code_exempt(self):
        findings = lint("import time\nstart = time.time()\n", path=DRIVER)
        assert findings == []

    def test_sim_time_ok(self):
        findings = lint(
            """
            def stamp(loop):
                return loop.now
            """
        )
        assert findings == []


class TestMutableDefault:
    def test_list_default_flagged(self):
        findings = lint("def f(acc=[]):\n    return acc\n")
        assert rule_ids(findings) == ["A703"]

    def test_dict_set_call_defaults_flagged(self):
        findings = lint(
            """
            def f(a={}, b=set(), c=dict()):
                return a, b, c
            """
        )
        assert rule_ids(findings) == ["A703", "A703", "A703"]

    def test_kwonly_default_flagged(self):
        findings = lint("def f(*, acc=[]):\n    return acc\n")
        assert rule_ids(findings) == ["A703"]

    def test_flagged_outside_critical_scope_too(self):
        findings = lint("def f(acc=[]):\n    return acc\n", path=DRIVER)
        assert rule_ids(findings) == ["A703"]

    def test_none_default_ok(self):
        findings = lint(
            """
            def f(acc=None, n=3, name="x"):
                return acc or []
            """
        )
        assert findings == []


class TestUnorderedIteration:
    def test_set_literal_iteration_flagged(self):
        findings = lint(
            """
            def dispatch():
                for tid in {3, 1, 2}:
                    yield tid
            """,
            path=CRITICAL_CORE,
        )
        assert rule_ids(findings) == ["A704"]

    def test_set_call_iteration_flagged(self):
        findings = lint(
            """
            def dispatch(ids):
                for tid in set(ids):
                    yield tid
            """,
            path=CRITICAL_CORE,
        )
        assert rule_ids(findings) == ["A704"]

    def test_set_typed_attribute_iteration_flagged(self):
        findings = lint(
            """
            class Sched:
                def __init__(self):
                    self.orphans = set()
                def drain(self):
                    for tid in self.orphans:
                        yield tid
            """,
            path=CRITICAL_CORE,
        )
        assert rule_ids(findings) == ["A704"]

    def test_sorted_set_ok(self):
        findings = lint(
            """
            def dispatch(pending):
                for tid in sorted({3, 1, 2} | pending):
                    yield tid
            """,
            path=CRITICAL_CORE,
        )
        assert findings == []

    def test_list_iteration_ok(self):
        findings = lint(
            """
            def dispatch(order):
                for tid in order:
                    yield tid
            """,
            path=CRITICAL_CORE,
        )
        assert findings == []


class TestRawUnitLiteral:
    def test_mult_by_1e6_flagged(self):
        findings = lint("def conv(s):\n    return s * 1e6\n")
        assert rule_ids(findings) == ["A705"]

    def test_div_by_billion_flagged(self):
        findings = lint("def conv(ns):\n    return ns / 1_000_000_000\n")
        assert rule_ids(findings) == ["A705"]

    def test_units_module_exempt(self):
        findings = lint(
            "US_PER_SECOND = 1_000_000.0\ndef seconds(s):\n    return s * 1_000_000.0\n",
            path="src/repro/sim/units.py",
        )
        assert findings == []

    def test_named_constant_ok(self):
        findings = lint(
            """
            from repro.sim.units import seconds
            def conv(s):
                return seconds(s)
            """
        )
        assert findings == []

    def test_non_magic_literal_ok(self):
        findings = lint("def double(x):\n    return x * 2\n")
        assert findings == []


class TestHandlerGlobalMutation:
    def test_global_statement_flagged(self):
        findings = lint(
            """
            COUNT = 0
            def bump():
                global COUNT
                COUNT += 1
            """
        )
        assert rule_ids(findings) == ["A706"]

    def test_handler_subscript_mutation_flagged(self):
        findings = lint(
            """
            CACHE = {}
            def on_request(self, request):
                CACHE[request.rid] = request
            """
        )
        assert rule_ids(findings) == ["A706"]

    def test_handler_method_mutation_flagged(self):
        findings = lint(
            """
            PENDING = []
            def on_request(self, request):
                PENDING.append(request)
            """
        )
        assert rule_ids(findings) == ["A706"]

    def test_instance_state_ok(self):
        findings = lint(
            """
            class Sched:
                def on_request(self, request):
                    self.pending.append(request)
            """
        )
        assert findings == []

    def test_local_mutation_ok(self):
        findings = lint(
            """
            def on_request(self, request):
                batch = []
                batch.append(request)
                return batch
            """
        )
        assert findings == []


class TestNondeterministicSource:
    @pytest.mark.parametrize(
        "snippet",
        [
            "import uuid\nrid = lambda: uuid.uuid4()\n",
            "import os\ntoken = lambda: os.urandom(8)\n",
            "import secrets\npick = lambda: secrets.randbelow(10)\n",
        ],
    )
    def test_entropy_sources_flagged(self, snippet):
        assert rule_ids(lint(snippet)) == ["A707"]

    def test_counter_ok(self):
        findings = lint(
            """
            def next_rid(counter):
                return counter + 1
            """
        )
        assert findings == []


class TestBuiltinHashOrder:
    def test_hash_flagged_as_warning(self):
        findings = lint(
            """
            def steer(key, n):
                return hash(key) % n
            """
        )
        assert rule_ids(findings) == ["A708"]
        assert findings[0].severity == "warning"

    def test_warning_does_not_fail_unless_strict(self):
        findings = lint("def steer(k, n):\n    return hash(k) % n\n")
        assert not has_errors(findings)
        assert has_errors(findings, strict=True)

    def test_crc_ok(self):
        findings = lint(
            """
            import zlib
            def steer(key, n):
                return zlib.crc32(key) % n
            """
        )
        assert findings == []


class TestSuppression:
    def test_line_suppression(self):
        findings = lint(
            """
            import random
            def pick():
                return random.random()  # repro-analyze: disable=A701
            """
        )
        assert findings == []

    def test_line_suppression_multiple_ids(self):
        findings = lint(
            """
            import time
            def f(acc=[]):
                return time.time(), acc  # repro-analyze: disable=A702,A703
            """
        )
        # A703 fires on the default's line (the def line), so it survives —
        # and the A703 half of the pragma is therefore stale (A000).
        assert rule_ids(findings) == ["A703", "A000"]

    def test_file_suppression(self):
        findings = lint(
            """
            # repro-analyze: disable-file=A701
            import random
            def pick():
                return random.random()
            """
        )
        assert findings == []

    def test_disable_all(self):
        findings = lint(
            """
            # repro-analyze: disable-file=all
            import random, time
            def f(acc=[]):
                return random.random() + time.time()
            """
        )
        assert findings == []

    def test_unknown_rule_id_is_a000(self):
        findings = lint("x = 1  # repro-analyze: disable=R999\n")
        assert rule_ids(findings) == ["A000"]
        assert "unknown rule id 'R999'" in findings[0].message

    def test_late_file_pragma_is_a000(self):
        source = "\n" * 30 + "# repro-analyze: disable-file=A701\n"
        findings = lint(source)
        assert rule_ids(findings) == ["A000"]
        assert "first 10 lines" in findings[0].message

    def test_pragma_inside_docstring_ignored(self):
        findings = lint(
            '''
            def doc():
                """Example: # repro-analyze: disable-file=A701"""
                return 1
            '''
        )
        assert findings == []


class TestRegistry:
    def test_at_least_six_rules(self):
        assert len(RULES) >= 6

    def test_ids_unique_and_documented(self):
        family = [rid for rid, meta in ANALYSIS_RULES.items() if meta.analysis == "filerules"]
        assert family == sorted(RULES)
        for rule_id in family:
            meta = ANALYSIS_RULES[rule_id]
            assert rule_id.startswith("A7")
            assert meta.severity in ("error", "warning")
            assert meta.description, f"{rule_id} has no description"

    def test_select_subset(self):
        source = "import random\ndef f(acc=[]):\n    return random.random()\n"
        only_defaults = lint(source, select=["A703"])
        assert rule_ids(only_defaults) == ["A703"]

    def test_select_unknown_raises(self):
        with pytest.raises(AnalysisError, match="unknown analysis rule id"):
            lint("x = 1\n", select=["R999"])

    def test_syntax_error_raises_lint_error(self):
        """An unparseable module is fatal (an AnalysisError), never a finding."""
        with pytest.raises(AnalysisError, match="cannot parse"):
            lint("def broken(:\n")

    def test_symbol_names_module_and_enclosing_def(self):
        findings = lint(
            """
            import time
            class Clock:
                def stamp(self):
                    return time.time()
            """
        )
        assert [f.symbol for f in findings] == ["repro.sim.fixture.Clock.stamp:time.time"]


class TestTracePurity:
    """R009's cases, now A301's: the observer packages' purity contract."""

    TRACE = "src/repro/trace/tracer.py"

    def test_wall_clock_in_trace_flagged(self):
        findings = lint(
            """
            import time
            def on_loop_event(loop):
                return time.monotonic()
            """,
            path=self.TRACE,
            select=["A301"],
        )
        assert rule_ids(findings) == ["A301"]
        assert "wall-clock read" in findings[0].message

    def test_direct_rng_in_trace_flagged(self):
        findings = lint(
            """
            import random
            def sample_id():
                return random.random()
            """,
            path=self.TRACE,
            select=["A301"],
        )
        assert rule_ids(findings) == ["A301"]
        assert "direct RNG draw" in findings[0].message

    def test_host_entropy_in_trace_flagged(self):
        findings = lint(
            """
            import uuid
            def trace_id():
                return uuid.uuid4()
            """,
            path=self.TRACE,
            select=["A301"],
        )
        assert rule_ids(findings) == ["A301"]
        assert "host-entropy source" in findings[0].message

    def test_sim_time_reads_ok(self):
        findings = lint(
            """
            def on_loop_event(self, loop):
                now = loop.now
                self.samples.append(now)
            """,
            path=self.TRACE,
            select=["A301"],
        )
        assert findings == []

    def test_rule_scoped_to_trace_package_only(self):
        source = "import time\ndef elapsed():\n    return time.perf_counter()\n"
        outside = lint(source, path=DRIVER, select=["A301"])
        assert outside == []
        inside = lint(source, path="src/repro/trace/export.py", select=["A301"])
        assert rule_ids(inside) == ["A301"]

    def test_trace_package_also_gets_scoped_rules(self):
        # 'trace' is not a driver package, so the scoped single-module
        # rules apply there too.  Only the calls A301 owns (wall clock,
        # direct RNG, host entropy) are left to A301, so each impure
        # call is reported once.
        source = """
            import time
            def stamp(ids):
                for tid in set(ids):
                    yield time.time() * 1e6
            """
        findings = lint(source, path=self.TRACE, select=FILE_RULES + ["A301"])
        assert sorted(rule_ids(findings)) == ["A301", "A704", "A705"]

    def test_error_severity(self):
        assert ANALYSIS_RULES["A301"].severity == "error"
