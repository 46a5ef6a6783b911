"""Shared fixtures for the whole-program analyzer tests.

``make_tree`` materializes an in-memory {relative path: source} mapping
under ``tmp_path`` and returns the root; ``build`` turns one into a
:class:`repro.analyze.model.Program`.  Fixture trees that exercise the
contract analyses place files under a ``repro/`` directory so their
classes key as ``repro.policies.base.Scheduler`` etc., exactly like the
shipped tree.
"""

import os
import textwrap

import pytest

from repro.analyze.model import build_program
from repro.analyze.runner import analyze_paths
from repro.analyze.model import iter_python_files


@pytest.fixture
def make_tree(tmp_path):
    def _make(files):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        return str(tmp_path)

    return _make


@pytest.fixture
def build(make_tree):
    def _build(files):
        root = make_tree(files)
        return build_program(iter_python_files([root]), root=root)

    return _build


@pytest.fixture
def analyze(make_tree):
    def _analyze(files, select=None):
        root = make_tree(files)
        return analyze_paths([root], select=select, root=root)

    return _analyze
