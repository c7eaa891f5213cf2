"""Reporters: render a :class:`LintResult` as text or JSON.

The text form is one ``path:line: RULE-ID message`` per finding (the
shape every editor and CI annotator already parses).  The JSON form is
a stable schema for tooling::

    {
      "version": 1,
      "ok": false,
      "files": 42,
      "rules": ["DT-001", "KER-001", ...],
      "findings": [
        {"rule": "DT-001", "path": "core/ring.py", "line": 45,
         "message": "..."},
        ...
      ],
      "waived": [
        {"rule": "KER-003", "path": "...", "line": 155,
         "message": "...", "reason": "object-path fallback"}
      ]
    }
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro_lint.runner import LintResult

#: Bumped on any change to the JSON reporter's field layout.
REPORT_SCHEMA_VERSION = 1


def render_text(result: "LintResult") -> str:
    """One diagnostic per line, plus a one-line summary."""
    lines: List[str] = [str(finding) for finding in result.findings]
    count = len(result.findings)
    noun = "finding" if count == 1 else "findings"
    summary = (
        f"{count} {noun} in {result.files} files "
        f"({len(result.waived)} waived, {len(result.rules_run)} rules)"
    )
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: "LintResult") -> str:
    """The stable machine-readable report (see module docstring)."""
    payload: Dict[str, object] = {
        "version": REPORT_SCHEMA_VERSION,
        "ok": result.ok,
        "files": result.files,
        "rules": sorted(result.rules_run),
        "findings": [f.to_dict() for f in result.findings],
        "waived": [f.to_dict() for f in result.waived],
    }
    return json.dumps(payload, indent=2, sort_keys=False)


def _github_escape(text: str) -> str:
    """Escape the workflow-command property/message metacharacters."""
    return (
        text.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
    )


def render_github(result: "LintResult") -> str:
    """GitHub workflow commands: one ``::error`` per active finding.

    Emitted to stdout inside an Actions job, each line becomes an
    inline annotation on the pull-request diff at ``path:line``.  Runtime
    findings carry a component coordinate instead of a file path; they
    are emitted without ``file=`` so they still surface in the job
    summary.
    """
    lines: List[str] = []
    for finding in result.findings:
        message = _github_escape(finding.message)
        if finding.line > 0:
            lines.append(
                f"::error file={finding.path},line={finding.line},"
                f"title={finding.rule_id}::{message}"
            )
        else:
            coordinate = _github_escape(finding.path)
            lines.append(
                f"::error title={finding.rule_id}::"
                f"{coordinate}: {message}"
            )
    return "\n".join(lines)


__all__ = [
    "REPORT_SCHEMA_VERSION",
    "render_github",
    "render_json",
    "render_text",
]
