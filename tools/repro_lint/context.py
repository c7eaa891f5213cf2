"""The shared static-analysis model every lint rule reads.

A :class:`LintContext` is built once per lint run: it parses every
Python file under the linted roots into a :class:`ModuleInfo` (dotted
module name + AST), extracts the *registry model* — each ``VAR =
Registry(kind, modules=(...))`` declaration, the ``register_*`` helper
→ registry mapping, and every registration call site — and derives a
static import graph so rules can reason about which modules a
registry's lazy-load list actually reaches.  Rules are pure functions
of this context; nothing here imports the code under analysis.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import ReproError

#: Registry variables whose registrations mark a module as *kernel
#: hosting*: the vectorized one-slot transmission kernels, the
#: whole-trace collection recurrences and the batched forecaster banks.
KERNEL_REGISTRY_VARS = frozenset(
    {"SLOT_KERNELS", "COLLECTION_BACKENDS", "FORECASTER_BANKS"}
)

#: Modules hosting the *shared* scalar/batch kernels the banks iterate
#: (``ewma_run``, ``hold_forecast``, ``fit_yule_walker_batch``, …) —
#: kernel-purity rules cover them even though the registrations that
#: re-export them live in ``forecasting/bank.py``.  The scenario
#: engine's link and churn models are held to the same bar: their only
#: randomness must come from explicitly seeded, checkpointable
#: generators (waived per call site), never ambient ``np.random`` or
#: wall clocks.
KERNEL_SHARED_PATTERNS = (
    "*.forecasting.exponential",
    "*.forecasting.sample_hold",
    "*.forecasting.yule_walker",
    "*.scenarios.links",
    "*.scenarios.churn",
    # The shard runner calls registered collection backends on helper
    # threads: any ambient randomness or wall-clock read there would
    # silently break the sharded == single-shard bit-identity pin.
    "*.simulation.shard_pool",
)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str  #: Dotted module name (``repro.core.ring``).
    path: Path  #: Absolute file path.
    rel_path: str  #: Path relative to the linted root (for findings).
    source: str
    tree: ast.Module

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)


@dataclass
class RegistryDecl:
    """A parsed ``VAR = Registry(kind, modules=(...))`` declaration."""

    var: str
    kind: str
    module: str  #: Module the declaration lives in.
    lineno: int
    seed_modules: Tuple[str, ...]
    seeds_literal: bool  #: False when ``modules=`` was not a literal.


@dataclass
class RegisterSite:
    """One registration call (decorator or direct) in a module."""

    registry_var: str
    module: str
    lineno: int


@dataclass
class WaiverProblem:
    """A malformed inline waiver (missing/empty reason)."""

    module: str
    rel_path: str
    lineno: int
    rule_id: str


def package_root(path: Path) -> Path:
    """Topmost ancestor of ``path`` that is still inside a package."""
    current = path if path.is_dir() else path.parent
    while (current / "__init__.py").exists() and current.parent != current:
        if not (current.parent / "__init__.py").exists():
            return current
        current = current.parent
    return current


def module_name_for(path: Path) -> str:
    """Dotted module name of a file, derived from its package layout."""
    path = path.resolve()
    root = package_root(path)
    if (root / "__init__.py").exists():
        base = root.parent
    else:
        base = root
    relative = path.relative_to(base)
    parts = list(relative.parts)
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else path.stem


def discover_files(paths: Iterable[Path]) -> List[Path]:
    """All ``.py`` files under the given files/directories, sorted.

    Raises:
        ReproError: A path does not exist (a mistyped path would
            otherwise lint nothing and pass).
    """
    found: Set[Path] = set()
    for entry in paths:
        entry = Path(entry)
        if not entry.exists():
            raise ReproError(f"lint path does not exist: {entry}")
        if entry.is_dir():
            for child in entry.rglob("*.py"):
                if "__pycache__" not in child.parts:
                    found.add(child.resolve())
        elif entry.suffix == ".py":
            found.add(entry.resolve())
    return sorted(found)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class LintContext:
    """Everything the static rules need, parsed once.

    Args:
        modules: Parsed modules keyed by dotted name.
        root: The directory findings' paths are reported relative to.
    """

    def __init__(self, modules: Dict[str, ModuleInfo], root: Path) -> None:
        self.modules = modules
        self.root = root
        self.waiver_problems: List[WaiverProblem] = []
        self.parse_failures: List[Tuple[str, int, str]] = []
        self.registries: Dict[str, RegistryDecl] = {}
        self.helper_to_registry: Dict[str, str] = {}
        self.register_sites: List[RegisterSite] = []
        self._imports: Dict[str, Set[str]] = {}
        self._analyze_registries()
        self._collect_register_sites()
        self._build_import_graph()

    # -- registry model -------------------------------------------------

    def _analyze_registries(self) -> None:
        for info in self.modules.values():
            for node in info.walk():
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                if not (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "Registry"
                ):
                    continue
                targets = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                if not targets:
                    continue
                kind = ""
                if value.args and isinstance(value.args[0], ast.Constant):
                    kind = str(value.args[0].value)
                seeds: Tuple[str, ...] = ()
                literal = True
                for keyword in value.keywords:
                    if keyword.arg != "modules":
                        continue
                    if isinstance(keyword.value, (ast.Tuple, ast.List)):
                        elements = keyword.value.elts
                        if all(
                            isinstance(e, ast.Constant)
                            and isinstance(e.value, str)
                            for e in elements
                        ):
                            seeds = tuple(e.value for e in elements)
                        else:
                            literal = False
                    else:
                        literal = False
                self.registries[targets[0]] = RegistryDecl(
                    var=targets[0],
                    kind=kind,
                    module=info.name,
                    lineno=node.lineno,
                    seed_modules=seeds,
                    seeds_literal=literal,
                )
            # Helper functions: ``def register_x(...): return
            # VAR.register(...)`` map the helper name to its registry.
            for node in info.walk():
                if not isinstance(node, ast.FunctionDef):
                    continue
                for stmt in ast.walk(node):
                    if not (
                        isinstance(stmt, ast.Return)
                        and isinstance(stmt.value, ast.Call)
                        and isinstance(stmt.value.func, ast.Attribute)
                        and stmt.value.func.attr == "register"
                        and isinstance(stmt.value.func.value, ast.Name)
                    ):
                        continue
                    var = stmt.value.func.value.id
                    if var in self.registries:
                        self.helper_to_registry[node.name] = var

    def _collect_register_sites(self) -> None:
        for info in self.modules.values():
            for node in info.walk():
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                var: Optional[str] = None
                if (
                    isinstance(func, ast.Name)
                    and func.id in self.helper_to_registry
                ):
                    var = self.helper_to_registry[func.id]
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "register"
                    and isinstance(func.value, ast.Name)
                    and func.value.id in self.registries
                ):
                    var = func.value.id
                if var is not None:
                    self.register_sites.append(
                        RegisterSite(var, info.name, node.lineno)
                    )

    # -- import graph ---------------------------------------------------

    def _resolve_relative(self, info: ModuleInfo, level: int) -> str:
        parts = info.name.split(".")
        # A package's __init__ has name == package; level 1 from a
        # module means its own package, from __init__ it also means
        # the package itself.
        if info.path.name == "__init__.py":
            parts = parts + ["__init__"]
        return ".".join(parts[:-level]) if level < len(parts) else ""

    def _build_import_graph(self) -> None:
        for info in self.modules.values():
            edges: Set[str] = set()
            # Importing any module implicitly imports its ancestor
            # packages first.
            parts = info.name.split(".")
            for k in range(1, len(parts)):
                edges.add(".".join(parts[:k]))
            for node in info.walk():
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        edges.add(alias.name)
                elif isinstance(node, ast.ImportFrom):
                    if node.level:
                        base = self._resolve_relative(info, node.level)
                        if node.module:
                            base = (
                                f"{base}.{node.module}"
                                if base
                                else node.module
                            )
                    else:
                        base = node.module or ""
                    if base:
                        edges.add(base)
                        for alias in node.names:
                            # ``from pkg import sub`` may import a
                            # submodule, not an attribute.
                            candidate = f"{base}.{alias.name}"
                            if candidate in self.modules:
                                edges.add(candidate)
            self._imports[info.name] = {
                e for e in edges if e in self.modules and e != info.name
            }

    def reachable(self, seeds: Iterable[str]) -> Set[str]:
        """Modules transitively imported from ``seeds`` (inclusive)."""
        frontier = [s for s in seeds if s in self.modules]
        seen: Set[str] = set(frontier)
        while frontier:
            current = frontier.pop()
            for nxt in self._imports.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    # -- derived module sets --------------------------------------------

    def kernel_modules(self) -> List[ModuleInfo]:
        """Modules hosting slot/collection/bank kernels.

        Detected from the registrations themselves (any module
        registering into ``SLOT_KERNELS`` / ``COLLECTION_BACKENDS`` /
        ``FORECASTER_BANKS``) plus the named shared-kernel modules, so
        the set tracks the code instead of a hand-maintained list.
        """
        from fnmatch import fnmatch

        names = {
            site.module
            for site in self.register_sites
            if site.registry_var in KERNEL_REGISTRY_VARS
        }
        for info in self.modules.values():
            if any(
                fnmatch(info.name, pat) for pat in KERNEL_SHARED_PATTERNS
            ):
                names.add(info.name)
        return [self.modules[n] for n in sorted(names)]

    def iter_modules(self) -> Iterator[ModuleInfo]:
        for name in sorted(self.modules):
            yield self.modules[name]


def build_context(paths: Iterable[Path], root: Optional[Path] = None):
    """Parse the given files/directories into a :class:`LintContext`.

    Files that fail to parse are recorded in
    :attr:`LintContext.parse_failures` (surfaced as ``PARSE-001``
    findings by the runner) instead of aborting the whole run.
    """
    paths = [Path(p) for p in paths]
    files = discover_files(paths)
    if root is None:
        dirs = [(p if p.is_dir() else p.parent).resolve() for p in paths]
        root = Path(os.path.commonpath(dirs)) if dirs else Path.cwd()
    modules: Dict[str, ModuleInfo] = {}
    failures: List[Tuple[str, int, str]] = []
    for file_path in files:
        source = file_path.read_text()
        try:
            rel = str(file_path.relative_to(root))
        except ValueError:
            rel = str(file_path)
        try:
            tree = ast.parse(source, filename=str(file_path))
        except SyntaxError as exc:
            failures.append((rel, exc.lineno or 1, exc.msg or "syntax error"))
            continue
        name = module_name_for(file_path)
        modules[name] = ModuleInfo(
            name=name,
            path=file_path,
            rel_path=rel,
            source=source,
            tree=tree,
        )
    context = LintContext(modules, root)
    context.parse_failures = failures
    return context


__all__ = [
    "KERNEL_REGISTRY_VARS",
    "KERNEL_SHARED_PATTERNS",
    "LintContext",
    "ModuleInfo",
    "RegisterSite",
    "RegistryDecl",
    "WaiverProblem",
    "build_context",
    "discover_files",
    "dotted_name",
    "module_name_for",
    "package_root",
]
