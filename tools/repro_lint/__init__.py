"""``repro_lint`` — repo-specific invariant checks, importable by tests.

The engine's correctness rests on a handful of cross-cutting contracts
that ordinary tests catch late or not at all: every stateful component
round-trips through ``get_state``/``set_state`` (checkpoint/resume),
every registry's lazy-load list stays in sync with the ``@register_*``
call sites, the vectorized kernels stay pure and loop-free over the
node axis, fleet-scale array allocations state their dtype, and
state-dtype arrays never meet float64 arithmetic.  This package
checks those contracts *statically* over the AST — the dtype-flow
family on a dataflow layer (:mod:`repro_lint.dataflow`) rather than
single-node syntax — plus an optional runtime pass that drives live
components.  Findings render as ``file:line: RULE-ID message``
diagnostics with inline ``# repro: noqa RULE-ID(reason)`` waivers and
text/JSON/GitHub reporters.

It is a development tool, not part of the shipped ``repro`` package.
Run it from the repository root::

    PYTHONPATH=src:tools python -m repro_lint            # src/repro + itself
    PYTHONPATH=src:tools python -m repro_lint --runtime  # plus live checks
    PYTHONPATH=src:tools python -m repro_lint path/ --format json

or from tests::

    from repro_lint import lint_paths
    assert lint_paths().ok
"""

from repro_lint.context import LintContext, build_context
from repro_lint.dataflow import ModuleSummaries, module_summaries
from repro_lint.findings import Finding
from repro_lint.report import (
    REPORT_SCHEMA_VERSION,
    render_github,
    render_json,
    render_text,
)
from repro_lint.rules import (
    LINT_RULES,
    LintRule,
    register_lint_rule,
    runtime_rules,
    static_rules,
)
from repro_lint.runner import LintResult, default_targets, lint_paths
from repro_lint.runtime import run_runtime_checks
from repro_lint.waivers import parse_waivers

__all__ = [
    "Finding",
    "LINT_RULES",
    "LintContext",
    "LintResult",
    "LintRule",
    "ModuleSummaries",
    "REPORT_SCHEMA_VERSION",
    "build_context",
    "default_targets",
    "lint_paths",
    "module_summaries",
    "parse_waivers",
    "register_lint_rule",
    "render_github",
    "render_json",
    "render_text",
    "run_runtime_checks",
    "runtime_rules",
    "static_rules",
]
