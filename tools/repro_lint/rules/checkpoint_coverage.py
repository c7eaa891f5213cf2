"""STATE-003: checkpoint coverage — mutable fields must be in state.

``STATE-002`` proves the getter and setter agree on keys; neither rule
notices a *new mutable field* that never enters the state dict at all —
without this rule that is a bit-identity failure discovered late, when a
resumed session diverges because some counter silently restarted at
its constructor value.  ``STATE-003`` closes the gap statically: for
every class providing ``get_state``/``_state``, the set of attributes
assigned on ``self`` in *runtime* methods is diffed against the
returned state keys.

What counts as runtime mutation: any ``self.X = …`` / ``self.X += …``
outside the constructor (``__init__``/``__post_init__``), the
checkpoint methods themselves (``get_state``/``set_state``/``_state``/
``_load_state``) and ``reset`` (re-initialization, not evolution).
Attributes assigned *only* in the constructor are reconstructible from
config and need no checkpointing.

Coverage is name-based modulo leading underscores: state key
``"queue"`` covers ``self._queue``.  An attribute restored by the
setter (assigned inside ``set_state``/``_load_state``) is covered even
when its key spelling differs.  Getters whose key set is open (spreads,
dynamic composition) are skipped — only closed sets are diffed, so
dynamic state never false-positives.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Set

from repro_lint.context import LintContext, ModuleInfo
from repro_lint.findings import Finding
from repro_lint.rules import LintRule, register_lint_rule
from repro_lint.rules.state_contract import (
    BASE_STATE_KEYS,
    STATE_PAIRS,
    written_keys,
)

#: Methods whose ``self.X = …`` assignments are not runtime mutation.
EXEMPT_METHODS = frozenset(
    {
        "__init__",
        "__post_init__",
        "__new__",
        "get_state",
        "set_state",
        "_state",
        "_load_state",
        "reset",
    }
)


def _normalize(name: str) -> str:
    return name.lstrip("_")


def _self_name(func: ast.FunctionDef) -> str:
    args = func.args.posonlyargs + func.args.args
    return args[0].arg if args else "self"


def _assigned_attrs(func: ast.FunctionDef) -> Dict[str, int]:
    """``self.X`` assignment targets in a method → first line."""
    owner = _self_name(func)
    attrs: Dict[str, int] = {}
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == owner
            ):
                attrs.setdefault(target.attr, node.lineno)
    return attrs


class CheckpointCoverageRule(LintRule):
    """STATE-003: runtime-mutated attributes must reach the state dict."""

    rule_id = "STATE-003"
    family = "state-contract"
    description = (
        "every attribute mutated outside __init__/reset in a class "
        "with get_state/_state must appear in the returned state keys "
        "(or be restored by the setter)"
    )

    def check_module(
        self, context: LintContext, info: ModuleInfo
    ) -> Iterator[Finding]:
        for node in info.walk():
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(info, node)

    def _check_class(
        self, info: ModuleInfo, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = {
            item.name: item
            for item in cls.body
            if isinstance(item, ast.FunctionDef)
        }
        covered: Set[str] = set()
        getters: List[ast.FunctionDef] = []
        is_hooks = False
        for getter_name, setter_name in STATE_PAIRS:
            if getter_name not in methods:
                continue
            getters.append(methods[getter_name])
            is_hooks |= getter_name == "_state"
            writes, writes_open = written_keys(methods[getter_name])
            if writes_open:
                return  # dynamic state: nothing to diff against
            covered |= {_normalize(key) for key in writes}
            setter = methods.get(setter_name)
            if setter is not None:
                covered |= {
                    _normalize(attr)
                    for attr in _assigned_attrs(setter)
                }
        if not getters:
            return
        if is_hooks:
            covered |= {_normalize(key) for key in BASE_STATE_KEYS}
        mutated: Dict[str, int] = {}
        for name, func in methods.items():
            if name in EXEMPT_METHODS:
                continue
            for attr, lineno in _assigned_attrs(func).items():
                current = mutated.get(attr)
                if current is None or lineno < current:
                    mutated[attr] = lineno
        for attr in sorted(mutated):
            if _normalize(attr) in covered:
                continue
            yield Finding(
                path=info.rel_path,
                line=mutated[attr],
                rule_id=self.rule_id,
                message=(
                    f"{cls.name}.{attr} is mutated at runtime but never "
                    "appears in the checkpoint state keys; a resumed "
                    "instance silently restarts it at the constructor "
                    "value (add it to get_state/set_state or waive with "
                    "the reason it is derived/ephemeral)"
                ),
            )


register_lint_rule(CheckpointCoverageRule())

__all__ = ["CheckpointCoverageRule", "EXEMPT_METHODS"]
