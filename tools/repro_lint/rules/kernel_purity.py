"""Kernel-purity rules for slot/collection/bank kernel modules.

The columnar hot paths stay exchangeable with the reference per-node
loops only because the kernels are pure array recurrences:
deterministic, mutation-disciplined and free of Python loops over the
node/series axis.  These rules scope to the kernel-hosting modules
(detected from the ``SLOT_KERNELS``/``COLLECTION_BACKENDS``/
``FORECASTER_BANKS`` registrations plus the shared scalar-kernel
modules — see :meth:`LintContext.kernel_modules`):

* ``KER-001`` — no nondeterminism sources (``np.random.*``,
  ``time.*``, ``datetime.now``, ``random.*``).  Seeded draws that are
  deterministic by construction carry a waiver saying so.
* ``KER-002`` — no in-place mutation of function parameters unless the
  function's docstring documents it ("in place") or the parameter is
  named ``out``.  Undocumented aliasing is how batch and streaming
  paths drift apart.
* ``KER-003`` — no Python ``for`` loops over the node/series axis;
  whole-fleet work is one array operation.  The sanctioned object-path
  fallbacks carry waivers naming themselves as such.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro_lint.context import LintContext, ModuleInfo, dotted_name
from repro_lint.findings import Finding
from repro_lint.rules import LintRule, register_lint_rule

#: ``time`` module calls that read wall clocks (nondeterministic).
_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "sleep",
    }
)

#: ``datetime``/``date`` constructors that read wall clocks.
_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

#: Identifiers that name the node/series axis when they drive a loop.
AXIS_NAMES = frozenset(
    {
        "num_nodes",
        "n_nodes",
        "nodes",
        "node_ids",
        "num_series",
        "n_series",
        "num_clusters",
        "policies",
        "forecasters",
        "_models",
    }
)


def _is_kernel_module(context: LintContext, info: ModuleInfo) -> bool:
    names = getattr(context, "_kernel_module_names", None)
    if names is None:
        names = {m.name for m in context.kernel_modules()}
        context._kernel_module_names = names
    return info.name in names


def _docstring_documents_mutation(func: ast.FunctionDef) -> bool:
    doc = ast.get_docstring(func) or ""
    # Collapse whitespace so "in\n    place" in a wrapped docstring
    # still counts as documentation.
    lowered = " ".join(doc.lower().split())
    return "in place" in lowered or "in-place" in lowered


def _function_params(func: ast.FunctionDef) -> Set[str]:
    names = {a.arg for a in func.args.args}
    names |= {a.arg for a in func.args.posonlyargs}
    names |= {a.arg for a in func.args.kwonlyargs}
    names.discard("self")
    names.discard("cls")
    return names


def _iter_functions(info: ModuleInfo) -> Iterator[ast.FunctionDef]:
    for node in info.walk():
        if isinstance(node, ast.FunctionDef):
            yield node


def _terminal_identifiers(node: ast.AST) -> Set[str]:
    """Every Name id and Attribute attr appearing in an expression."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
    return names


class KernelDeterminismRule(LintRule):
    """KER-001: kernel modules must not read clocks or global RNGs."""

    rule_id = "KER-001"
    family = "kernel-purity"
    description = (
        "kernel modules may not call np.random.*, time.*, datetime.now "
        "or random.* (determinism is the equivalence contract)"
    )

    def check_module(
        self, context: LintContext, info: ModuleInfo
    ) -> Iterator[Finding]:
        if not _is_kernel_module(context, info):
            return
        imports = self._imported_modules(info)
        for node in info.walk():
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            offense = self._classify(dotted, imports)
            if offense is not None:
                yield Finding(
                    path=info.rel_path,
                    line=node.lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"kernel module calls {dotted}(): {offense}"
                    ),
                )

    @staticmethod
    def _imported_modules(info: ModuleInfo) -> Set[str]:
        names: Set[str] = set()
        for node in info.walk():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    names.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.split(".")[0])
        return names

    @staticmethod
    def _classify(dotted: str, imports: Set[str]) -> Optional[str]:
        parts = dotted.split(".")
        if len(parts) >= 2 and parts[0] in ("np", "numpy"):
            if parts[1] == "random":
                return "global/constructed RNG in a kernel module"
        if parts[0] == "time" and "time" in imports:
            if len(parts) == 2 and parts[1] in _TIME_ATTRS:
                return "wall-clock read"
        if parts[0] == "random" and "random" in imports:
            return "stdlib RNG in a kernel module"
        if "datetime" in parts or "date" in parts:
            if parts[-1] in _DATETIME_ATTRS:
                return "wall-clock read"
        return None


class KernelMutationRule(LintRule):
    """KER-002: parameter mutation must be documented."""

    rule_id = "KER-002"
    family = "kernel-purity"
    description = (
        "kernel functions may not mutate parameters in place unless the "
        "docstring documents it or the parameter is named 'out'"
    )

    def check_module(
        self, context: LintContext, info: ModuleInfo
    ) -> Iterator[Finding]:
        if not _is_kernel_module(context, info):
            return
        for func in _iter_functions(info):
            if _docstring_documents_mutation(func):
                continue
            params = _function_params(func) - {"out"}
            if not params:
                continue
            yield from self._check_function(info, func, params)

    def _check_function(
        self, info: ModuleInfo, func: ast.FunctionDef, params: Set[str]
    ) -> Iterator[Finding]:
        for node in func.body:
            for stmt in ast.walk(node):
                target = None
                if isinstance(stmt, ast.AugAssign):
                    target = stmt.target
                elif isinstance(stmt, ast.Assign):
                    for candidate in stmt.targets:
                        if isinstance(candidate, ast.Subscript):
                            target = candidate
                param = self._mutated_param(target, params)
                if param is not None:
                    yield Finding(
                        path=info.rel_path,
                        line=stmt.lineno,
                        rule_id=self.rule_id,
                        message=(
                            f"{func.name} mutates parameter {param!r} in "
                            "place without documenting it (say 'in "
                            "place' in the docstring, or take an out= "
                            "parameter)"
                        ),
                    )

    @staticmethod
    def _mutated_param(
        target: Optional[ast.AST], params: Set[str]
    ) -> Optional[str]:
        if isinstance(target, ast.Name) and target.id in params:
            return target.id
        if isinstance(target, ast.Subscript):
            base = target.value
            while isinstance(base, ast.Subscript):
                base = base.value
            if isinstance(base, ast.Name) and base.id in params:
                return base.id
        return None


class KernelAxisLoopRule(LintRule):
    """KER-003: no Python loops over the node/series axis."""

    rule_id = "KER-003"
    family = "kernel-purity"
    description = (
        "kernel modules may not iterate Python for loops over the "
        "node/series axis (use one array operation)"
    )

    def check_module(
        self, context: LintContext, info: ModuleInfo
    ) -> Iterator[Finding]:
        if not _is_kernel_module(context, info):
            return
        for node in info.walk():
            if not isinstance(node, ast.For):
                continue
            axis = _terminal_identifiers(node.iter) & AXIS_NAMES
            if axis:
                name = sorted(axis)[0]
                yield Finding(
                    path=info.rel_path,
                    line=node.lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"for loop iterates the node/series axis "
                        f"({name}); kernels advance the whole fleet "
                        "in one array operation"
                    ),
                )


register_lint_rule(KernelDeterminismRule())
register_lint_rule(KernelMutationRule())
register_lint_rule(KernelAxisLoopRule())

__all__ = [
    "AXIS_NAMES",
    "KernelAxisLoopRule",
    "KernelDeterminismRule",
    "KernelMutationRule",
]
