"""Registry-consistency rules: lazy-load lists ↔ registrations.

Every :class:`repro.registry.Registry` names the modules whose import
side effects populate it (``modules=(...)``), and the components
self-register where they are defined.  Both halves rot independently:
a renamed module leaves a dead lazy-load entry (the registry silently
loads nothing), and a new component registered in a module the
registry never imports is invisible until something else happens to
import it — the classic "works in tests, missing in production" bug.

* ``REG-001`` — every lazy-load entry must exist in the tree and reach
  (through the static import graph) at least one matching
  ``@register_*`` call.
* ``REG-002`` — every ``@register_*`` call must live in a module the
  owning registry's lazy-load list reaches.
"""

from __future__ import annotations

from typing import Iterator

from repro_lint.context import LintContext
from repro_lint.findings import Finding
from repro_lint.rules import LintRule, register_lint_rule


class RegistrySeedRule(LintRule):
    """REG-001: lazy-load entries resolve to real registrations."""

    rule_id = "REG-001"
    family = "registry"
    description = (
        "every Registry(modules=...) entry must exist and reach a "
        "matching @register_* call"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        sites_by_var: dict = {}
        for site in context.register_sites:
            sites_by_var.setdefault(site.registry_var, set()).add(site.module)
        for decl in context.registries.values():
            if not decl.seeds_literal:
                continue
            decl_path = context.modules[decl.module].rel_path
            root_package = decl.module.split(".")[0]
            registered = sites_by_var.get(decl.var, set())
            for seed in decl.seed_modules:
                if seed.split(".")[0] != root_package:
                    continue  # outside the linted tree; cannot check
                if seed not in context.modules:
                    yield Finding(
                        path=decl_path,
                        line=decl.lineno,
                        rule_id=self.rule_id,
                        message=(
                            f"registry {decl.var} lazy-loads {seed!r}, "
                            "which does not exist in the tree"
                        ),
                    )
                    continue
                if not (context.reachable([seed]) & registered):
                    yield Finding(
                        path=decl_path,
                        line=decl.lineno,
                        rule_id=self.rule_id,
                        message=(
                            f"registry {decl.var} lazy-loads {seed!r}, "
                            f"but no module reachable from it registers "
                            f"a {decl.kind or 'component'}"
                        ),
                    )


class OrphanRegistrationRule(LintRule):
    """REG-002: registrations are reachable from their registry."""

    rule_id = "REG-002"
    family = "registry"
    description = (
        "every @register_* call must be reachable from its registry's "
        "lazy-load module list"
    )

    def check(self, context: LintContext) -> Iterator[Finding]:
        reachable_by_var = {
            var: context.reachable(decl.seed_modules)
            for var, decl in context.registries.items()
            if decl.seeds_literal
        }
        for site in context.register_sites:
            decl = context.registries.get(site.registry_var)
            if decl is None or not decl.seeds_literal:
                continue
            if site.module == decl.module:
                continue  # registered next to the registry itself
            if site.module not in reachable_by_var[site.registry_var]:
                yield Finding(
                    path=context.modules[site.module].rel_path,
                    line=site.lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"module {site.module} registers into "
                        f"{site.registry_var} but is not reachable from "
                        f"its lazy-load modules "
                        f"{list(decl.seed_modules)!r}; the entry is "
                        "invisible until something else imports this "
                        "module"
                    ),
                )


register_lint_rule(RegistrySeedRule())
register_lint_rule(OrphanRegistrationRule())

__all__ = ["OrphanRegistrationRule", "RegistrySeedRule"]
