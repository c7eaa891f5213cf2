"""The lint driver: build the context, run the rules, apply waivers.

:func:`lint_paths` is the one entry point both the CLI (``repro
lint``) and the test suite use — tests import it directly and assert
on the returned :class:`LintResult` instead of scraping CLI output.

The run is staged by rule granularity:

* *file* rules run per module through the incremental cache (when a
  ``cache_path`` is given): a module whose content hash and the
  run-wide cache key both match is served from the cache, everything
  else is re-linted and stored back;
* *tree* rules (the registry family) reason across files and always
  re-run;
* *runtime* rules drive live components; their findings are appended
  **after** waiver filtering — they are never waivable and never
  cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.context import LintContext, build_context
from repro.lint.findings import Finding
from repro.lint.rules import (
    LintRule,
    rules_by_id,
    runtime_rules,
    static_rules,
)
from repro.lint.waivers import collect_waivers


@dataclass
class LintResult:
    """Outcome of one lint run.

    Attributes:
        findings: Active (non-waived) findings, sorted by location.
        waived: Findings suppressed by a reasoned inline waiver (each
            carries its ``waive_reason``).
        files: Number of files analyzed.
        rules_run: Ids of the rules that ran.
        files_reused: Files served from the incremental cache.
        files_relinted: Files actually re-analyzed this run.
    """

    findings: List[Finding] = field(default_factory=list)
    waived: List[Finding] = field(default_factory=list)
    files: int = 0
    rules_run: Tuple[str, ...] = ()
    files_reused: int = 0
    files_relinted: int = 0

    @property
    def ok(self) -> bool:
        """True when no active findings remain."""
        return not self.findings

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def default_target() -> Path:
    """The installed ``repro`` package — what bare ``repro lint`` checks."""
    import repro

    return Path(repro.__file__).parent


def _split_waived(
    waivers: Dict[int, Dict[str, str]], findings: Iterable[Finding]
) -> Tuple[List[Finding], List[Finding]]:
    """Split one file's raw findings into (active, waived)."""
    active: List[Finding] = []
    waived: List[Finding] = []
    for finding in findings:
        reason = waivers.get(finding.line, {}).get(finding.rule_id)
        if reason is None:
            active.append(finding)
        else:
            waived.append(
                Finding(
                    path=finding.path,
                    line=finding.line,
                    rule_id=finding.rule_id,
                    message=finding.message,
                    waive_reason=reason,
                )
            )
    return active, waived


def changed_files(ref: str, repo_root: Optional[Path] = None) -> Set[Path]:
    """Absolute paths of files changed relative to a git ref.

    Combines committed changes since ``ref`` with staged and unstaged
    working-tree edits, so ``repro lint --changed origin/main`` sees
    exactly what a PR diff will.
    """
    import subprocess

    root = Path(repo_root) if repo_root is not None else Path.cwd()
    top = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        cwd=root,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    names: Set[str] = set()
    for args in (["diff", "--name-only", ref], ["diff", "--name-only"]):
        out = subprocess.run(
            ["git", *args],
            cwd=top,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        names.update(line for line in out.splitlines() if line.strip())
    return {(Path(top) / name).resolve() for name in names}


def _filter_changed(
    context: LintContext,
    findings: List[Finding],
    changed: Set[Path],
) -> List[Finding]:
    """Keep findings on changed files (non-file findings always pass)."""
    abs_by_rel = {
        info.rel_path: Path(info.path).resolve()
        for info in context.iter_modules()
    }
    kept = []
    for finding in findings:
        abs_path = abs_by_rel.get(finding.path)
        if abs_path is None or abs_path in changed:
            kept.append(finding)
    return kept


def lint_paths(
    paths: Optional[Sequence] = None,
    *,
    rules: Optional[Sequence[str]] = None,
    runtime: bool = False,
    cache_path: Optional[Path] = None,
    changed: Optional[Set[Path]] = None,
) -> LintResult:
    """Run the repro invariant checks.

    Args:
        paths: Files/directories to lint; defaults to the installed
            ``repro`` package.
        rules: Restrict to these rule ids (default: all rules of the
            selected scopes).
        runtime: Also run the runtime contract verifier
            (``repro lint --runtime``); runtime findings are never
            waivable — they describe live components, not source lines.
        cache_path: Incremental cache file; file-granularity results
            are reused for files whose content hash and summary-layer
            key are unchanged.
        changed: Restrict *reported* file findings to these absolute
            paths (``repro lint --changed REF``); non-file (runtime)
            findings always pass through.

    Returns:
        A :class:`LintResult`; ``result.ok`` is the pass/fail verdict
        and ``result.exit_code`` the CLI exit status.
    """
    if paths is None:
        paths = [default_target()]
    selected: List[LintRule]
    if rules is not None:
        selected = rules_by_id(rules)
    else:
        selected = static_rules()
        if runtime:
            selected += runtime_rules()
    file_rules = [
        r
        for r in selected
        if r.scope == "static" and r.granularity == "file"
    ]
    tree_rules = [
        r
        for r in selected
        if r.scope == "static" and r.granularity != "file"
    ]
    context = build_context(paths)
    waivers_by_module = collect_waivers(context)

    cache = None
    if cache_path is not None:
        from repro.lint.cache import LintCache, cache_key
        from repro.lint.dataflow import module_summaries

        key = cache_key(
            module_summaries(context).digest(),
            [r.rule_id for r in file_rules],
        )
        cache = LintCache.load(Path(cache_path), key=key)

    active: List[Finding] = []
    waived: List[Finding] = []
    files_reused = 0
    files_relinted = 0
    for info in context.iter_modules():
        from repro.lint.cache import content_hash

        file_hash = content_hash(info.source)
        hit = (
            cache.lookup(info.rel_path, file_hash)
            if cache is not None
            else None
        )
        if hit is not None:
            file_active, file_waived = hit
            files_reused += 1
        else:
            raw: List[Finding] = []
            for rule in file_rules:
                raw.extend(rule.check_module(context, info))
            file_active, file_waived = _split_waived(
                waivers_by_module.get(info.name, {}), raw
            )
            if cache is not None:
                cache.store(
                    info.rel_path, file_hash, file_active, file_waived
                )
            files_relinted += 1
        active.extend(file_active)
        waived.extend(file_waived)

    tree_raw: List[Finding] = []
    for rule in tree_rules:
        tree_raw.extend(rule.check(context))
    for rel_path, lineno, message in context.parse_failures:
        tree_raw.append(
            Finding(
                path=rel_path,
                line=lineno,
                rule_id="PARSE-001",
                message=f"file does not parse: {message}",
            )
        )
    waivers_by_path: Dict[str, Dict[int, Dict[str, str]]] = {
        context.modules[name].rel_path: module_waivers
        for name, module_waivers in waivers_by_module.items()
    }
    for finding in tree_raw:
        file_active, file_waived = _split_waived(
            waivers_by_path.get(finding.path, {}), [finding]
        )
        active.extend(file_active)
        waived.extend(file_waived)

    if cache is not None:
        cache.save()
    if changed is not None:
        active = _filter_changed(context, active, changed)
        waived = _filter_changed(context, waived, changed)

    runtime_ids = tuple(r.rule_id for r in selected if r.scope == "runtime")
    if runtime_ids:
        from repro.lint.runtime import run_runtime_checks

        active.extend(run_runtime_checks(only=runtime_ids))
    active.sort(key=lambda f: f.sort_key())
    waived.sort(key=lambda f: f.sort_key())
    return LintResult(
        findings=active,
        waived=waived,
        files=len(context.modules) + len(context.parse_failures),
        rules_run=tuple(sorted(r.rule_id for r in selected)),
        files_reused=files_reused,
        files_relinted=files_relinted,
    )


__all__ = ["LintResult", "changed_files", "default_target", "lint_paths"]
