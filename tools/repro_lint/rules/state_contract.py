"""State-contract rules: ``get_state``/``set_state`` symmetry.

Bit-identical checkpoint/resume rests on every stateful component
writing and reading the *same* state keys.  These rules enforce the
two statically checkable halves of that contract:

* ``STATE-001`` — the methods come in pairs.  A class defining
  ``get_state`` without ``set_state`` (or ``_state`` without
  ``_load_state``) can be snapshotted but never restored, which only
  surfaces at resume time.
* ``STATE-002`` — the literal keys written by the getter match the
  literal keys read by the setter.  A key written but never read is
  dead state; a key read but never written is a guaranteed ``KeyError``
  on the first resume.

The analysis is conservative: a getter whose returned dict is not a
literal (or spreads ``**hooks``) marks the written set *open*, and a
setter that forwards the state dict to another callable marks the read
set open — only closed sets are compared, so dynamic composition never
false-positives.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set, Tuple

from repro_lint.context import LintContext, ModuleInfo
from repro_lint.findings import Finding
from repro_lint.rules import LintRule, register_lint_rule

#: Method pairs forming the checkpoint protocol (the public pair, and
#: the subclass hook pair composed by the ``Forecaster``/
#: ``ForecasterBank`` base classes).
STATE_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("get_state", "set_state"),
    ("_state", "_load_state"),
)

#: Keys the base-class ``get_state`` contributes to the full state dict
#: — hook-pair setters may legitimately read them even though the
#: matching hook getter never writes them.
BASE_STATE_KEYS = frozenset({"history", "fitted"})


def _own_nodes(func: ast.FunctionDef) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested scopes."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _dict_keys(node: ast.expr) -> Tuple[Set[str], bool]:
    """Literal string keys of a dict expression; ``open`` on spreads."""
    keys: Set[str] = set()
    is_open = False
    if isinstance(node, ast.Dict):
        for key in node.keys:
            if key is None:  # ``**spread``
                is_open = True
            elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                keys.add(key.value)
            else:
                is_open = True
    elif (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
    ):
        for keyword in node.keywords:
            if keyword.arg is None:
                is_open = True
            else:
                keys.add(keyword.arg)
        if node.args:
            is_open = True
    else:
        is_open = True
    return keys, is_open


def written_keys(func: ast.FunctionDef) -> Tuple[Set[str], bool]:
    """State keys a getter writes, and whether the set is open.

    Handles both the ``return {...}`` idiom and the build-then-return
    idiom (``state = {...}; state["k"] = v; return state``) including
    conditional key writes.
    """
    keys: Set[str] = set()
    is_open = False
    returned_names: Set[str] = set()
    for node in _own_nodes(func):
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Name):
                returned_names.add(node.value.id)
            else:
                found, open_here = _dict_keys(node.value)
                keys |= found
                is_open |= open_here
    for node in _own_nodes(func):
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id in returned_names
                and isinstance(node, ast.Assign)
            ):
                found, open_here = _dict_keys(node.value)
                keys |= found
                is_open |= open_here
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in returned_names
            ):
                index = target.slice
                if isinstance(index, ast.Constant) and isinstance(
                    index.value, str
                ):
                    keys.add(index.value)
                else:
                    is_open = True
    return keys, is_open


def _state_param(func: ast.FunctionDef) -> Optional[str]:
    args = [a.arg for a in func.args.args]
    if args and args[0] in ("self", "cls"):
        args = args[1:]
    return args[0] if args else None


def read_keys(func: ast.FunctionDef) -> Tuple[Set[str], bool]:
    """State keys a setter reads, and whether the set is open.

    Reads are literal subscripts, ``.get(...)`` calls and ``"k" in
    state`` membership tests on the state parameter; passing the
    parameter to any callable (``self._load_state(state)``) opens the
    set.
    """
    keys: Set[str] = set()
    is_open = False
    param = _state_param(func)
    if param is None:
        return keys, True
    for node in _own_nodes(func):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
        ):
            index = node.slice
            if isinstance(index, ast.Constant) and isinstance(
                index.value, str
            ):
                keys.add(index.value)
            else:
                is_open = True
        elif isinstance(node, ast.Call):
            func_node = node.func
            if (
                isinstance(func_node, ast.Attribute)
                and func_node.attr == "get"
                and isinstance(func_node.value, ast.Name)
                and func_node.value.id == param
            ):
                if node.args and isinstance(node.args[0], ast.Constant):
                    keys.add(str(node.args[0].value))
                else:
                    is_open = True
            else:
                # The state dict forwarded to another callable: keys
                # may be consumed elsewhere.
                for arg in list(node.args) + [k.value for k in node.keywords]:
                    if isinstance(arg, ast.Name) and arg.id == param:
                        is_open = True
        elif isinstance(node, ast.Compare):
            if any(
                isinstance(op, (ast.In, ast.NotIn))
                for op in node.ops
            ) and any(
                isinstance(c, ast.Name) and c.id == param
                for c in node.comparators
            ):
                if isinstance(node.left, ast.Constant) and isinstance(
                    node.left.value, str
                ):
                    keys.add(node.left.value)
    return keys, is_open


def _class_methods(node: ast.ClassDef):
    return {
        item.name: item
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }


class StatePairRule(LintRule):
    """STATE-001: checkpoint methods must be defined in pairs."""

    rule_id = "STATE-001"
    family = "state-contract"
    description = (
        "a class defining get_state/_state must define the matching "
        "set_state/_load_state (and vice versa)"
    )

    def check_module(
        self, context: LintContext, info: ModuleInfo
    ) -> Iterator[Finding]:
        for node in info.walk():
            if not isinstance(node, ast.ClassDef):
                continue
            methods = _class_methods(node)
            for getter, setter in STATE_PAIRS:
                has_get, has_set = getter in methods, setter in methods
                if has_get == has_set:
                    continue
                present = getter if has_get else setter
                missing = setter if has_get else getter
                yield Finding(
                    path=info.rel_path,
                    line=methods[present].lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"class {node.name} defines {present} without "
                        f"{missing}; checkpoint state must round-trip"
                    ),
                )


class StateKeysRule(LintRule):
    """STATE-002: getter/setter literal state keys must match."""

    rule_id = "STATE-002"
    family = "state-contract"
    description = (
        "literal state keys written by get_state/_state must match the "
        "keys read by set_state/_load_state"
    )

    def check_module(
        self, context: LintContext, info: ModuleInfo
    ) -> Iterator[Finding]:
        for node in info.walk():
            if not isinstance(node, ast.ClassDef):
                continue
            methods = _class_methods(node)
            for getter, setter in STATE_PAIRS:
                if getter not in methods or setter not in methods:
                    continue
                yield from self._check_pair(
                    info, node, methods[getter], methods[setter],
                    hooks=getter == "_state",
                )

    def _check_pair(
        self,
        info: ModuleInfo,
        cls: ast.ClassDef,
        getter: ast.FunctionDef,
        setter: ast.FunctionDef,
        *,
        hooks: bool,
    ) -> Iterator[Finding]:
        writes, writes_open = written_keys(getter)
        reads, reads_open = read_keys(setter)
        allowed_reads = writes | (BASE_STATE_KEYS if hooks else set())
        if not writes_open:
            for key in sorted(reads - allowed_reads):
                yield Finding(
                    path=info.rel_path,
                    line=setter.lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"{cls.name}.{setter.name} reads state key "
                        f"{key!r} that {getter.name} never writes "
                        "(KeyError on the first resume)"
                    ),
                )
        if not reads_open:
            for key in sorted(writes - reads):
                yield Finding(
                    path=info.rel_path,
                    line=getter.lineno,
                    rule_id=self.rule_id,
                    message=(
                        f"{cls.name}.{getter.name} writes state key "
                        f"{key!r} that {setter.name} never reads "
                        "(dead state, silently dropped on restore)"
                    ),
                )


register_lint_rule(StatePairRule())
register_lint_rule(StateKeysRule())

__all__ = [
    "BASE_STATE_KEYS",
    "STATE_PAIRS",
    "StateKeysRule",
    "StatePairRule",
    "read_keys",
    "written_keys",
]
