"""``repro lint`` — repo-specific invariant checks, importable by tests.

The engine's correctness rests on a handful of cross-cutting contracts
that ordinary tests catch late or not at all: every stateful component
round-trips through ``get_state``/``set_state`` (checkpoint/resume),
every registry's lazy-load list stays in sync with the ``@register_*``
call sites, the vectorized kernels stay pure and loop-free over the
node axis, fleet-scale array allocations state their dtype, and
state-dtype arrays never meet bare float64 arithmetic.  This package
checks those contracts *statically* over the AST — the dtype-flow
family on a dataflow layer (:mod:`repro.lint.dataflow`) rather than
single-node syntax — plus an optional runtime pass that drives live
components.  Findings render as ``file:line: RULE-ID message``
diagnostics with inline ``# repro: noqa RULE-ID(reason)`` waivers and
text/JSON/GitHub reporters; file-granularity results cache
incrementally by content hash.

Use it from the CLI::

    repro lint                       # static rules over the installed tree
    repro lint --runtime             # plus live contract verification
    repro lint src/ --format json    # machine-readable report
    repro lint --cache .lint-cache --changed origin/main   # incremental CI

or from tests::

    from repro.lint import lint_paths
    assert lint_paths([Path("src/repro")]).ok
"""

from repro.lint.cache import LintCache, cache_key, content_hash
from repro.lint.context import LintContext, build_context
from repro.lint.dataflow import ModuleSummaries, module_summaries
from repro.lint.findings import Finding
from repro.lint.report import (
    REPORT_SCHEMA_VERSION,
    render_github,
    render_json,
    render_text,
)
from repro.lint.rules import (
    LINT_RULES,
    LintRule,
    register_lint_rule,
    rules_by_id,
    runtime_rules,
    static_rules,
)
from repro.lint.runner import (
    LintResult,
    changed_files,
    default_target,
    lint_paths,
)
from repro.lint.runtime import run_runtime_checks
from repro.lint.waivers import parse_waivers

__all__ = [
    "Finding",
    "LINT_RULES",
    "LintCache",
    "LintContext",
    "LintResult",
    "LintRule",
    "ModuleSummaries",
    "REPORT_SCHEMA_VERSION",
    "build_context",
    "cache_key",
    "changed_files",
    "content_hash",
    "default_target",
    "lint_paths",
    "module_summaries",
    "parse_waivers",
    "register_lint_rule",
    "render_github",
    "render_json",
    "render_text",
    "rules_by_id",
    "run_runtime_checks",
    "runtime_rules",
    "static_rules",
]
