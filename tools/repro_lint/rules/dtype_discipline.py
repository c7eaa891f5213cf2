"""Dtype-discipline rule for fleet-scale allocation sites.

:class:`FleetState` takes a ``dtype`` parameter so million-node fleets
can run in float32.  Every ``np.zeros(...)`` without a ``dtype=``
silently pins float64, so ``DT-001`` keeps the dtype explicit in the
modules the float32 lane runs through: the fleet columns, the slot
ring, the transmission kernels and the forecaster banks.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterator

from repro_lint.context import LintContext, ModuleInfo, dotted_name
from repro_lint.findings import Finding
from repro_lint.rules import LintRule, register_lint_rule

#: Modules where fleet-scale arrays are allocated (fnmatch on the
#: dotted module name; ``*`` also matches the empty prefix so bare
#: fixture packages match too).
DTYPE_MODULE_PATTERNS = (
    "*simulation.fleet",
    # The shard runner allocates nothing itself today, but it runs the
    # collection backends, so a helper added there is held to DT-001.
    "*simulation.shard_pool",
    "*core.ring",
    "*transmission.*",
    "*forecasting.bank",
)

#: Allocator → index of its positional ``dtype`` parameter.
_ALLOCATORS = {
    "zeros": 1,
    "empty": 1,
    "full": 2,
    "asarray": 1,
}


class DtypeDisciplineRule(LintRule):
    """DT-001: allocations in fleet-scale modules state their dtype."""

    rule_id = "DT-001"
    family = "dtype"
    description = (
        "np.zeros/np.empty/np.full/np.asarray in fleet-scale modules "
        "must pass an explicit dtype"
    )

    def check_module(
        self, context: LintContext, info: ModuleInfo
    ) -> Iterator[Finding]:
        if not any(
            fnmatch(info.name, pat) for pat in DTYPE_MODULE_PATTERNS
        ):
            return
        for node in info.walk():
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if len(parts) != 2 or parts[0] not in ("np", "numpy"):
                continue
            allocator = parts[1]
            dtype_pos = _ALLOCATORS.get(allocator)
            if dtype_pos is None:
                continue
            has_dtype = any(
                keyword.arg == "dtype" for keyword in node.keywords
            ) or len(node.args) > dtype_pos
            if not has_dtype:
                yield Finding(
                    path=info.rel_path,
                    line=node.lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"np.{allocator}() without an explicit dtype "
                        "in a fleet-scale module; implicit float64 "
                        "pins precision the float32 fleet refactor "
                        "must control"
                    ),
                )


register_lint_rule(DtypeDisciplineRule())

__all__ = ["DTYPE_MODULE_PATTERNS", "DtypeDisciplineRule"]
