"""The lint runner: build the context, run the rules, apply waivers.

:func:`lint_paths` is the one entry point both the command line
(``python -m repro_lint``) and the test suite use — tests import it
directly and assert on the returned :class:`LintResult` instead of
scraping command output.

Every static rule runs ``check(context)`` over the whole tree, and each
finding's waiver is looked up by its path.  Runtime rules drive live
components; their findings are appended **after** waiver filtering —
they are never waivable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro_lint.context import build_context
from repro_lint.findings import Finding
from repro_lint.rules import runtime_rules, static_rules
from repro_lint.waivers import collect_waivers


@dataclass
class LintResult:
    """Outcome of one lint run.

    Attributes:
        findings: Active (non-waived) findings, sorted by location.
        waived: Findings suppressed by a reasoned inline waiver (each
            carries its ``waive_reason``).
        files: Number of files analyzed.
        rules_run: Ids of the rules that ran.
    """

    findings: List[Finding] = field(default_factory=list)
    waived: List[Finding] = field(default_factory=list)
    files: int = 0
    rules_run: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """True when no active findings remain."""
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def default_targets() -> List[Path]:
    """What a bare run lints: the imported ``repro`` package and this tool."""
    import repro

    return [Path(repro.__file__).parent, Path(__file__).parent]


def lint_paths(
    paths: Optional[Sequence] = None, *, runtime: bool = False
) -> LintResult:
    """Run the repro invariant checks.

    Args:
        paths: Files/directories to lint; defaults to
            :func:`default_targets`.  A path that does not exist raises
            :class:`repro.exceptions.ReproError`.
        runtime: Also run the runtime contract verifier
            (``--runtime``); runtime findings are never waivable — they
            describe live components, not source lines.

    Returns:
        A :class:`LintResult`; ``result.ok`` is the pass/fail verdict
        and ``result.exit_code`` the command's exit status.
    """
    if paths is None:
        paths = default_targets()
    context = build_context(paths)
    waivers_by_path: Dict[str, Dict[int, Dict[str, str]]] = {
        context.modules[name].rel_path: module_waivers
        for name, module_waivers in collect_waivers(context).items()
    }
    rules = static_rules()
    raw = [finding for rule in rules for finding in rule.check(context)]
    for rel_path, lineno, message in context.parse_failures:
        raw.append(
            Finding(
                path=rel_path,
                line=lineno,
                rule_id="PARSE-001",
                message=f"file does not parse: {message}",
            )
        )

    active: List[Finding] = []
    waived: List[Finding] = []
    for finding in raw:
        reason = (
            waivers_by_path.get(finding.path, {})
            .get(finding.line, {})
            .get(finding.rule_id)
        )
        if reason is None:
            active.append(finding)
        else:
            waived.append(replace(finding, waive_reason=reason))

    if runtime:
        from repro_lint.runtime import run_runtime_checks

        rules += runtime_rules()
        active.extend(run_runtime_checks())
    active.sort(key=lambda f: f.sort_key())
    waived.sort(key=lambda f: f.sort_key())
    return LintResult(
        findings=active,
        waived=waived,
        files=len(context.modules) + len(context.parse_failures),
        rules_run=tuple(sorted(r.rule_id for r in rules)),
    )


__all__ = ["LintResult", "default_targets", "lint_paths"]
