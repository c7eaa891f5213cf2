"""The lint-rule registry: one :class:`LintRule` per invariant.

Rules self-register in the module that defines them, exactly like the
engine's pluggable stages — :data:`LINT_RULES` is a
:class:`repro.registry.Registry` keyed by rule id, loaded lazily from
the rule modules, so the linter discovers rules the same way
``Engine`` discovers forecasters.

Rule families:

* ``state-contract`` — ``get_state``/``set_state`` symmetry (the
  bit-identical checkpoint/resume contract);
* ``registry`` — lazy-load module lists and ``@register_*`` call sites
  stay in sync (no dead entries, no orphan registrations);
* ``kernel-purity`` — slot/collection/bank kernel modules stay pure,
  deterministic and loop-free over the node/series axis (what keeps
  the columnar paths exchangeable with the reference loops);
* ``dtype`` — explicit dtypes at every fleet-scale allocation site
  (the float32 lane runs through exactly these);
* ``waivers`` — inline suppressions must carry a written reason;
* ``runtime`` — contract checks that need live components
  (``python -m repro_lint --runtime``).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.registry import Registry
from repro_lint.findings import Finding


class LintRule:
    """One named invariant check.

    Attributes:
        rule_id: Stable identifier (``FAMILY-NNN``) used in findings
            and waivers.
        family: Rule family (see the module docstring).
        description: One-line summary of the invariant.
        scope: ``"static"`` rules run over the AST context;
            ``"runtime"`` rules run under ``--runtime``.
    """

    rule_id: str = ""
    family: str = ""
    description: str = ""
    scope: str = "static"

    def check(self, context) -> Iterator[Finding]:
        """Yield findings against the given :class:`LintContext`.

        Rules that judge one module at a time implement
        :meth:`check_module` instead; this default fans out over every
        module.
        """
        for info in context.iter_modules():
            yield from self.check_module(context, info)

    def check_module(self, context, info) -> Iterator[Finding]:
        """Yield this rule's findings for one module."""
        return iter(())


#: Rule id → :class:`LintRule` instance; the defining modules
#: self-register on first lookup.
LINT_RULES = Registry(
    "lint rule",
    modules=(
        "repro_lint.rules.state_contract",
        "repro_lint.rules.checkpoint_coverage",
        "repro_lint.rules.registry_sync",
        "repro_lint.rules.kernel_purity",
        "repro_lint.rules.dtype_discipline",
        "repro_lint.rules.dtype_flow",
        "repro_lint.waivers",
        "repro_lint.runtime",
    ),
)


def register_lint_rule(rule: LintRule, *, override: bool = False) -> LintRule:
    """Register a rule instance under its ``rule_id``."""
    return LINT_RULES.register(rule.rule_id, rule, override=override)


class ParseRule(LintRule):
    """Surfaced by the runner for files that fail to parse."""

    rule_id = "PARSE-001"
    family = "framework"
    description = "every linted file must parse as Python source"


register_lint_rule(ParseRule())


def static_rules() -> List[LintRule]:
    """All registered static-scope rules, by rule id."""
    return [
        LINT_RULES.get(name)
        for name in LINT_RULES.available()
        if LINT_RULES.get(name).scope == "static"
    ]


def runtime_rules() -> List[LintRule]:
    """All registered runtime-scope rules, by rule id."""
    return [
        LINT_RULES.get(name)
        for name in LINT_RULES.available()
        if LINT_RULES.get(name).scope == "runtime"
    ]


__all__ = [
    "LINT_RULES",
    "LintRule",
    "ParseRule",
    "register_lint_rule",
    "runtime_rules",
    "static_rules",
]
