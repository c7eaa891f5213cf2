"""Inline waivers: ``# repro: noqa RULE-ID(reason)``.

A finding is suppressed when the physical line it is anchored to
carries a waiver naming its rule id *with a written reason* — the
reason is part of the syntax, not a convention, so every suppression in
the tree documents why the invariant does not apply at that site.
Several waivers may share one comment::

    for node in self.nodes:  # repro: noqa KER-003(object-path fallback)

A trailing waiver applies to its own line; a waiver comment on a line
of its own applies to the *next* line (like
``eslint-disable-next-line``), so long reasons never force long source
lines::

    # repro: noqa DT-001(ring adopts the caller's dtype by design)
    arr = np.asarray(value)

A waiver without a reason (``# repro: noqa KER-003`` or an empty
``()``) suppresses nothing and is itself reported as ``WAIVE-001``.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, List, Tuple

from repro_lint.context import LintContext, ModuleInfo, WaiverProblem
from repro_lint.findings import Finding
from repro_lint.rules import LintRule, register_lint_rule

#: Marks a waiver comment; everything after it is parsed as entries.
_MARKER = re.compile(r"#\s*repro:\s*noqa\b(?P<entries>.*)", re.IGNORECASE)

#: One waiver entry: ``RULE-ID`` with an optional ``(reason)``.
_ENTRY = re.compile(r"([A-Z]{2,10}-\d{3})\s*(?:\(([^()]*)\))?")


def parse_waivers(
    info: ModuleInfo,
) -> Tuple[Dict[int, Dict[str, str]], List[WaiverProblem]]:
    """Extract waivers from a module's comments.

    Returns:
        ``(waivers, problems)`` — ``waivers[line][rule_id] = reason``
        for well-formed entries, and one :class:`WaiverProblem` per
        entry missing its reason.
    """
    waivers: Dict[int, Dict[str, str]] = {}
    problems: List[WaiverProblem] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(info.source).readline)
        comments = [
            (token.start[0], token.start[1], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except tokenize.TokenizeError:  # pragma: no cover - parse rule fires
        return waivers, problems
    source_lines = info.source.splitlines()
    for line, column, text in comments:
        # An own-line comment (nothing before the #) waives the next
        # line; a trailing comment waives its own line.
        prefix = source_lines[line - 1][:column] if line <= len(
            source_lines
        ) else ""
        target = line + 1 if not prefix.strip() else line
        marked = _MARKER.search(text)
        if marked is None:
            continue
        for rule_id, reason in _ENTRY.findall(marked.group("entries")):
            reason = (reason or "").strip()
            if not reason:
                problems.append(
                    WaiverProblem(
                        module=info.name,
                        rel_path=info.rel_path,
                        lineno=line,
                        rule_id=rule_id,
                    )
                )
                continue
            waivers.setdefault(target, {})[rule_id] = reason
    return waivers, problems


def collect_waivers(
    context: LintContext,
) -> Dict[str, Dict[int, Dict[str, str]]]:
    """Parse every module's waivers; problems land on the context."""
    by_module: Dict[str, Dict[int, Dict[str, str]]] = {}
    context.waiver_problems = []
    for info in context.iter_modules():
        waivers, problems = parse_waivers(info)
        by_module[info.name] = waivers
        context.waiver_problems.extend(problems)
    return by_module


class WaiverReasonRule(LintRule):
    """WAIVE-001: every inline waiver must carry a written reason."""

    rule_id = "WAIVE-001"
    family = "waivers"
    description = (
        "inline waivers must carry a reason: # repro: noqa RULE-ID(why)"
    )

    def check(self, context: LintContext):
        # The runner parses every module's waivers once, before any rule
        # runs (collect_waivers); the malformed ones wait on the context.
        for problem in context.waiver_problems:
            yield Finding(
                path=problem.rel_path,
                line=problem.lineno,
                rule_id=self.rule_id,
                message=(
                    f"waiver for {problem.rule_id} has no reason; write "
                    f"# repro: noqa {problem.rule_id}(reason) — a bare "
                    "waiver suppresses nothing"
                ),
            )


register_lint_rule(WaiverReasonRule())

__all__ = ["WaiverReasonRule", "collect_waivers", "parse_waivers"]
