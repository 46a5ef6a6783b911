"""Whole-program model: symbol table, class hierarchy, and call graph.

The single-module rules (:mod:`repro.analyze.filerules`) read one
module at a time; the other analyses need the *cross-module* picture:
which class extends which, which handler calls which helper, which
constructor a stream object is passed into.  :func:`build_program` parses a file set
once into a :class:`Program` that every analysis shares.

Resolution is deliberately best-effort and *static*: attribute chains
rooted at ``self`` resolve through the class hierarchy, bare names
resolve through each module's import table (including relative
imports), and everything else is left unresolved rather than guessed.
Unresolved calls simply fall out of the analyses' reach — the analyzer
under-reports instead of inventing edges.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import AnalysisError


def _module_name_for(path: str, root: Optional[str]) -> Tuple[str, bool]:
    """Dotted module name for ``path`` and whether it is a package.

    Files under a ``repro`` directory are named from that anchor
    (``.../src/repro/sim/engine.py`` -> ``repro.sim.engine``); other
    trees (test fixtures) are named relative to ``root``.
    """
    norm = path.replace("\\", "/")
    parts = norm.split("/")
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        rel_parts = parts[idx:]
    elif root is not None:
        rel = os.path.relpath(path, root).replace("\\", "/")
        rel_parts = [p for p in rel.split("/") if p not in (".", "")]
    else:
        rel_parts = [parts[-1]]
    is_package = rel_parts[-1] == "__init__.py"
    if is_package:
        rel_parts = rel_parts[:-1]
    else:
        rel_parts = rel_parts[:-1] + [rel_parts[-1].rsplit(".py", 1)[0]]
    return ".".join(rel_parts), is_package


class ModuleInfo:
    """One parsed module plus its import table."""

    def __init__(self, name: str, path: str, source: str, tree: ast.Module, is_package: bool):
        self.name = name
        self.path = path
        self.source = source
        self.tree = tree
        self.is_package = is_package
        #: First dotted component below ``repro`` (or below the scan
        #: root), e.g. ``"policies"`` — the subsystem granularity the
        #: RNG-escape and contract analyses reason at.
        parts = name.split(".")
        self.package: Optional[str] = None
        if parts and parts[0] == "repro":
            self.package = parts[1] if len(parts) > 1 else None
        elif parts:
            if len(parts) > 1:
                self.package = parts[0]
            elif is_package:
                # A top-level package's own __init__ module.
                self.package = parts[0]
        #: local alias -> fully dotted target, relative imports resolved.
        self.aliases: Dict[str, str] = {}
        self._build_aliases()

    def _resolve_relative(self, level: int, module: Optional[str]) -> str:
        base = self.name.split(".")
        if not self.is_package:
            base = base[:-1]
        if level > 1:
            base = base[: len(base) - (level - 1)]
        if module:
            base = base + module.split(".")
        return ".".join(base)

    def _build_aliases(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.aliases[head] = head
            elif isinstance(node, ast.ImportFrom):
                if node.level > 0:
                    target = self._resolve_relative(node.level, node.module)
                elif node.module:
                    target = node.module
                else:  # pragma: no cover - "from import" is a syntax error
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.aliases[alias.asname or alias.name] = f"{target}.{alias.name}"

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve an attribute chain to a dotted name with the root
        expanded through the import table; None for non-name roots."""
        chain: List[str] = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        chain.append(self.aliases.get(node.id, node.id))
        return ".".join(reversed(chain))


class FunctionInfo:
    """A function or method definition."""

    def __init__(
        self,
        module: "ModuleInfo",
        node: ast.FunctionDef,
        class_key: Optional[str],
    ):
        self.module = module
        self.node = node
        self.name = node.name
        self.class_key = class_key
        if class_key is not None:
            self.qualname = f"{class_key.rsplit('.', 1)[-1]}.{node.name}"
        else:
            self.qualname = node.name
        self.key = f"{module.name}.{self.qualname}"
        self.lineno = node.lineno


class ClassInfo:
    """A class definition with resolved base names."""

    def __init__(self, module: "ModuleInfo", node: ast.ClassDef):
        self.module = module
        self.node = node
        self.name = node.name
        self.key = f"{module.name}.{node.name}"
        self.lineno = node.lineno
        #: Base classes as dotted names (resolved through the module's
        #: import table); may point outside the program (e.g. ``abc.ABC``).
        #: A bare name with no import backing is assumed module-local.
        self.base_names: List[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name) and base.id not in module.aliases:
                self.base_names.append(f"{module.name}.{base.id}")
                continue
            dotted = module.dotted_name(base)
            if dotted is not None:
                self.base_names.append(dotted)
        self.methods: Dict[str, FunctionInfo] = {}
        #: Names bound at class level (class attributes, annotations).
        self.class_attrs: Set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.class_attrs.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if stmt.value is not None:
                    self.class_attrs.add(stmt.target.id)

    @property
    def is_abstract_decorated(self) -> bool:
        """True when the class declares itself abstract: any own method
        carries an ``abstractmethod`` decorator, ``ABC`` appears among
        its bases, or it sets ``metaclass=ABCMeta``."""
        for base in self.node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
            if name == "ABC":
                return True
        for kw in self.node.keywords:
            if kw.arg == "metaclass":
                value = kw.value
                name = value.attr if isinstance(value, ast.Attribute) else getattr(value, "id", "")
                if name == "ABCMeta":
                    return True
        for method in self.methods.values():
            for deco in method.node.decorator_list:
                name = deco.attr if isinstance(deco, ast.Attribute) else getattr(deco, "id", "")
                if name == "abstractmethod":
                    return True
        return False


class Program:
    """The parsed file set with cross-module lookups."""

    def __init__(self, root: Optional[str] = None):
        self.root = root
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: Subsystem packages present in the program (``policies``,
        #: ``faults``, ...), used by the RNG prefix convention.
        self.packages: Set[str] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_module(self, path: str, source: str) -> ModuleInfo:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise AnalysisError(f"{path}: cannot parse: {exc}") from exc
        name, is_package = _module_name_for(path, self.root)
        info = ModuleInfo(name, path, source, tree, is_package)
        self.modules[name] = info
        if info.package:
            self.packages.add(info.package)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(info, node, None)
                self.functions[fn.key] = fn
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(info, node)
                self.classes[cls.key] = cls
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = FunctionInfo(info, stmt, cls.key)
                        cls.methods[stmt.name] = fn
                        self.functions[fn.key] = fn
        return info

    # ------------------------------------------------------------------
    # hierarchy
    # ------------------------------------------------------------------
    def bases_of(self, cls: ClassInfo) -> List[ClassInfo]:
        """In-program base classes, in declaration order."""
        found = []
        for base in cls.base_names:
            info = self.classes.get(base)
            if info is not None:
                found.append(info)
        return found

    def ancestry(self, cls: ClassInfo) -> List[ClassInfo]:
        """``cls`` plus every in-program ancestor, depth-first, deduped."""
        seen: Dict[str, ClassInfo] = {}
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.key in seen:
                continue
            seen[current.key] = current
            stack.extend(self.bases_of(current))
        return list(seen.values())

    def is_subclass_of(self, cls: ClassInfo, base_key: str) -> bool:
        """True when ``base_key`` (dotted) is in ``cls``'s ancestry —
        including bases declared but defined outside the program."""
        for ancestor in self.ancestry(cls):
            if ancestor.key == base_key:
                return True
            if base_key in ancestor.base_names:
                return True
        return False

    def subclasses_of(self, base_key: str) -> List[ClassInfo]:
        """Every in-program strict subclass of ``base_key``, sorted."""
        out = [
            cls
            for cls in self.classes.values()
            if cls.key != base_key and self.is_subclass_of(cls, base_key)
        ]
        return sorted(out, key=lambda c: (c.module.path, c.lineno))

    def resolve_method(self, cls: ClassInfo, method: str) -> Optional[FunctionInfo]:
        """Look ``method`` up through the in-program ancestry."""
        for ancestor in self.ancestry(cls):
            fn = ancestor.methods.get(method)
            if fn is not None:
                return fn
        return None

    @staticmethod
    def _ancestor_defines_attr(ancestor: ClassInfo, attr: str) -> bool:
        if attr in ancestor.class_attrs:
            return True
        for fn in ancestor.methods.values():
            for node in ast.walk(fn.node):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and target.attr == attr
                        ):
                            return True
        return False

    def resolve_class_attr(self, cls: ClassInfo, attr: str) -> bool:
        """True when ``attr`` is bound at class level anywhere in the
        ancestry (or set as ``self.attr`` inside any ancestor method)."""
        return any(
            self._ancestor_defines_attr(ancestor, attr)
            for ancestor in self.ancestry(cls)
        )

    def resolve_class_attr_excluding(
        self, cls: ClassInfo, attr: str, exclude_key: str
    ) -> bool:
        """Like :meth:`resolve_class_attr` but skipping the ancestor whose
        key is ``exclude_key`` — used to ignore a contract base's own
        placeholder default when checking required attributes."""
        return any(
            self._ancestor_defines_attr(ancestor, attr)
            for ancestor in self.ancestry(cls)
            if ancestor.key != exclude_key
        )

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def resolve_call(self, fn: FunctionInfo, call: ast.Call) -> Optional[FunctionInfo]:
        """Best-effort static resolution of ``call`` made inside ``fn``.

        Handles: bare names (same module first, then imports), dotted
        module functions, classes (resolving to ``__init__``), and
        ``self.method`` through the hierarchy.  Returns None when the
        receiver's type is unknown.
        """
        func = call.func
        module = fn.module
        if isinstance(func, ast.Name):
            name = func.id
            if name not in module.aliases:
                local = self.functions.get(f"{module.name}.{name}")
                if local is not None and local.class_key is None:
                    return local
                local_cls = self.classes.get(f"{module.name}.{name}")
                if local_cls is not None:
                    return self.resolve_method(local_cls, "__init__")
            dotted = module.aliases.get(name)
            if dotted is not None:
                return self._resolve_dotted_callable(dotted)
            return None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                if fn.class_key is not None:
                    cls = self.classes.get(fn.class_key)
                    if cls is not None:
                        return self.resolve_method(cls, func.attr)
                return None
            dotted = module.dotted_name(func)
            if dotted is not None:
                return self._resolve_dotted_callable(dotted)
        return None

    def _resolve_dotted_callable(self, dotted: str) -> Optional[FunctionInfo]:
        fn = self.functions.get(dotted)
        if fn is not None:
            return fn
        cls = self.classes.get(dotted)
        if cls is not None:
            return self.resolve_method(cls, "__init__")
        return None

    def resolve_callable_owner(self, fn: FunctionInfo, call: ast.Call) -> Optional[str]:
        """Package owning the callee of ``call``, or None when unknown.

        Unlike :meth:`resolve_call` this also answers for classes whose
        ``__init__`` is inherited or implicit: the *class's* package is
        what ownership questions care about.
        """
        func = call.func
        module = fn.module
        dotted: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
            if name not in module.aliases and f"{module.name}.{name}" in self.classes:
                dotted = f"{module.name}.{name}"
            elif name not in module.aliases and f"{module.name}.{name}" in self.functions:
                dotted = f"{module.name}.{name}"
            else:
                dotted = module.aliases.get(name)
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                resolved = self.resolve_call(fn, call)
                if resolved is not None:
                    return resolved.module.package
                return None
            dotted = module.dotted_name(func)
        if dotted is None:
            return None
        target = self.classes.get(dotted) or self.functions.get(dotted)
        if target is not None:
            return target.module.package
        owner = self.modules.get(dotted.rsplit(".", 1)[0]) if "." in dotted else None
        if owner is not None:
            return owner.package
        return None

    # ------------------------------------------------------------------
    # iteration helpers
    # ------------------------------------------------------------------
    def iter_functions(self) -> Iterator[FunctionInfo]:
        for key in sorted(self.functions):
            yield self.functions[key]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Program(modules={len(self.modules)}, classes={len(self.classes)}, "
            f"functions={len(self.functions)})"
        )


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            collected.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__pycache__")))
                for name in sorted(files):
                    if name.endswith(".py"):
                        collected.append(os.path.join(root, name))
        else:
            raise AnalysisError(f"no such file or directory: {path!r}")
    return sorted(dict.fromkeys(collected))


def build_program(paths: Sequence[str], root: Optional[str] = None) -> Program:
    """Parse every file into one :class:`Program`."""
    program = Program(root=root)
    for path in paths:
        with open(path, "r", encoding="utf-8") as fp:
            program.add_module(path, fp.read())
    return program
