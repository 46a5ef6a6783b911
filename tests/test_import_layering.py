"""What ``import repro`` loads, and what every package exports.

``import repro`` loads the simulator and nothing else; tooling (figure
drivers, sweeps, analysis, apps, faults, observers, the rack) loads on
first use.  The closure checks run in a fresh interpreter, since this
test process has long since imported everything.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Module prefixes a plain ``import repro`` or ``run_once`` must not load.
TOOLING = (
    "repro.experiments.figure",
    "repro.sweep",
    "repro.analyze",
    "repro.forensics",
    "repro.apps",
    "repro.faults",
    "repro.trace",
    "repro.telemetry",
    "repro.rack",
    "repro.metrics.sanitizer",
)

CLOSURE_SCRIPT = """
import json, sys

import repro
from repro.policies.base import Scheduler


def subclasses(cls):
    found, todo = set(), [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


defined = subclasses(Scheduler)
after_import = sorted(m for m in sys.modules if m.startswith("repro"))

from repro.sim.randomness import RngRegistry
from repro.systems.persephone import (
    PersephoneCfcfsSystem,
    PersephoneDfcfsSystem,
    PersephoneStaticSystem,
    PersephoneSystem,
)
from repro.systems.shenango import ShenangoSystem
from repro.systems.shinjuku import ShinjukuSystem
from repro.workload.presets import high_bimodal

spec = high_bimodal()
systems = [
    PersephoneSystem(n_workers=4, oracle=True),
    PersephoneSystem(n_workers=4, oracle=False),
    PersephoneStaticSystem(n_reserved=1, n_workers=4),
    PersephoneCfcfsSystem(n_workers=4),
    PersephoneDfcfsSystem(n_workers=4),
    ShenangoSystem(n_workers=4),
    ShenangoSystem(n_workers=4, work_stealing=False),
    ShinjukuSystem(n_workers=4),
    ShinjukuSystem(n_workers=4, mode="single", trigger="demand"),
]
built = {type(s.make_scheduler(spec, RngRegistry(seed=1))) for s in systems}
before_run = set(sys.modules)
repro.run_once(PersephoneSystem(n_workers=4), spec, 0.5, n_requests=300, seed=1)
added_by_run = sorted(m for m in set(sys.modules) - before_run if m.startswith("repro"))
print(json.dumps({
    "built": sorted(cls.__qualname__ for cls in built),
    "undefined": sorted(cls.__qualname__ for cls in built - defined),
    "after_import": after_import,
    "added_by_run": added_by_run,
}))
"""


def fresh_interpreter(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def closure():
    return fresh_interpreter(CLOSURE_SCRIPT)


def tooling(modules):
    return [m for m in modules if m.startswith(TOOLING)]


class TestImportClosure:
    def test_every_built_scheduler_is_defined_at_import(self, closure):
        # Tools that patch Scheduler subclasses right after ``import
        # repro`` must see every class a shipped system builds.
        assert {"DarcScheduler", "DarcStatic", "TimeSharing"} <= set(closure["built"])
        assert closure["undefined"] == []

    def test_import_repro_loads_no_tooling(self, closure):
        assert tooling(closure["after_import"]) == []

    def test_run_once_loads_no_tooling(self, closure):
        assert tooling(closure["added_by_run"]) == []


def packages():
    return sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ) + ["repro"]


def declared_exports(package: str) -> dict:
    """The ``lazy_exports`` mapping an ``__init__`` declares, or None."""
    module = importlib.import_module(package)
    tree = ast.parse(inspect.getsource(module))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lazy_exports":
            return ast.literal_eval(node.args[1])
    return None


@pytest.mark.parametrize("package", packages())
class TestPackageExports:
    def test_exports_through_the_helper(self, package):
        module = importlib.import_module(package)
        if not hasattr(module, "__all__"):
            return
        assert declared_exports(package) is not None, f"{package} exports eagerly"

    def test_each_name_resolves_to_its_defining_module(self, package):
        module = importlib.import_module(package)
        exports = declared_exports(package)
        if exports is None:
            return
        names = []
        for source, entries in exports.items():
            for entry in entries:
                attr, _, alias = entry.partition(" as ")
                name = alias or attr
                names.append(name)
                value = getattr(module, name)
                if source == ".":
                    expected = getattr(module, attr)
                    assert inspect.ismodule(expected) or expected.__module__ == package
                else:
                    defining = importlib.import_module(source, package)
                    expected = getattr(defining, attr)
                    if inspect.isclass(value) or inspect.isfunction(value):
                        assert value.__module__ == defining.__name__, f"{package}.{name}"
                assert value is expected, f"{package}.{name}"
        assert module.__all__ == names
        assert set(names) <= set(dir(module))

    def test_star_import(self, package):
        module = importlib.import_module(package)
        if not hasattr(module, "__all__"):
            return
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(module.__all__)

    def test_unknown_name_is_an_attribute_error(self, package):
        module = importlib.import_module(package)
        assert not hasattr(module, "no_such_export")
