"""DT-002: dtype dataflow — no float64 values in state-dtype arithmetic.

``DT-001`` checks allocation sites; it cannot see what happens to the
array afterwards.  A float32 pipeline stays float32 only while every
operand of its kernels' arithmetic does.  Under NumPy 2's promotion
rules (NEP 50) two kinds of operand promote a float32 array to
float64:

* a float64-typed value: an ``np.float64`` scalar or a float64 array,
  including the 0-d array ``np.asarray(0.3)``;
* an integer array combined with a float (``times + 1.0`` with an
  int64 ``times`` is float64), whose result then meets the state
  arrays.

A bare Python float literal does not: ``np.zeros(3, np.float32) + 1.0``
stays float32.  The dataflow layer tags every local whose dtype is
parameterized (*state-dtype* — see :mod:`repro_lint.dataflow`), and
``DT-002`` flags arithmetic that combines such an array with a
float64-typed value.  It also flags a bare float literal there, which
does not promote but leaves the scalar's dtype implicit.  It does not
track integer arrays, so it misses the second case.  The sanctioned
idioms pass clean::

    dtype = queues.dtype
    clock = np.asarray(times, dtype=dtype)               # cast array
    v_t = v0s * (clock + dtype.type(1.0)) ** gammas      # cast scalar

while a float64 value is caught::

    v_t = v0s * (clock + np.float64(1.0)) ** gammas      # DT-002

and an integer clock mixed with a literal is not::

    v_t = v0s * (times + 1.0) ** gammas                  # promotes; passes

The pass is intraprocedural with a call-graph summary layer: a kernel
called with a state-dtype fleet column has its parameters tagged
state-dtype at every depth, without annotations.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Iterator

from repro_lint.context import LintContext, ModuleInfo
from repro_lint.dataflow import module_summaries
from repro_lint.findings import Finding
from repro_lint.rules import LintRule, register_lint_rule
from repro_lint.rules.dtype_discipline import DTYPE_MODULE_PATTERNS

#: Modules the dataflow pass covers: the DT-001 allocator modules plus
#: the whole-trace collection recurrences and the scenario link models
#: (both consume fleet columns whose dtype the config controls).
DTYPE_FLOW_MODULE_PATTERNS = DTYPE_MODULE_PATTERNS + (
    "*simulation.collection",
    "*scenarios.links",
    "*forecasting.exponential",
    "*forecasting.sample_hold",
    "*forecasting.yule_walker",
)


class DtypeFlowRule(LintRule):
    """DT-002: state-dtype arrays never meet bare float64 arithmetic."""

    rule_id = "DT-002"
    family = "dtype"
    description = (
        "arithmetic may not mix state-dtype arrays with float64 values "
        "(which promote them) or bare float literals (which do not "
        "under NEP 50 but leave the dtype implicit); cast via "
        "dtype.type(...) or np.asarray(..., dtype=...)"
    )

    def check_module(
        self, context: LintContext, info: ModuleInfo
    ) -> Iterator[Finding]:
        if not any(
            fnmatch(info.name, pat) for pat in DTYPE_FLOW_MODULE_PATTERNS
        ):
            return
        summaries = module_summaries(context)
        for facts in summaries.facts_for(info):
            for mixing in facts.mixings:
                yield Finding(
                    path=info.rel_path,
                    line=mixing.lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"{mixing.detail} — cast the scalar with "
                        "dtype.type(...) or the array with "
                        "np.asarray(..., dtype=...)"
                    ),
                )


register_lint_rule(DtypeFlowRule())

__all__ = ["DTYPE_FLOW_MODULE_PATTERNS", "DtypeFlowRule"]
