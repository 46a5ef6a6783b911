"""``benchmarks/reachability.py`` matches each ``def`` it lists to the
code object the profiler reports by ``(file, first line)``.  Every key
it derives from the AST must be a real code object's, or a reached
function would read as unreached."""

import importlib.util
import os
import types

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script():
    path = os.path.join(ROOT, "benchmarks", "reachability.py")
    spec = importlib.util.spec_from_file_location("reachability", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def code_keys(path):
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    keys = set()
    while todo:
        code = todo.pop()
        keys.add((path, code.co_firstlineno))
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return keys


def test_every_listed_def_is_a_code_object():
    script = load_script()
    assert os.path.samefile(script.SRC, os.path.dirname(os.path.dirname(repro.__file__)))
    defined = script.defined_functions()
    assert len(defined) > 500
    files = {path for path, _ in defined}
    real = set().union(*(code_keys(path) for path in files))
    assert sorted(set(defined) - real) == []


def test_tooling_is_not_scanned():
    names = load_script().defined_functions().values()
    assert not [n for n in names if n.startswith(("repro.analyze.", "repro.trace."))]
    assert "repro.core.protocol.peek_type" in names
