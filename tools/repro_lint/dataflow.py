"""The dataflow IR: array/dtype tags propagated through functions.

The other rules are syntactic — one AST node, one verdict.  The
dtype rules need to know what a *value* is, not what an expression
looks like: whether a local is an ndarray, and whether its dtype is
parameterized (and therefore possibly float32).  This module is that
layer: a small abstract interpreter over function bodies that assigns
every local one of the :data:`TAGS`, plus a call-graph summary pass
that propagates tags through calls (so a kernel whose caller passes it
a state-dtype column knows its parameters are state-dtype without
annotations).

The lattice, from most to least specific:

* ``STATE`` — an ndarray whose dtype is *parameterized*: allocated
  with a non-literal ``dtype=`` expression, ``.astype(dtype_var)``, or
  explicitly float32 (any dtype the default float64 promotion would
  silently destroy);
* ``FLOAT64`` — an ndarray or numpy scalar pinned to float64;
* ``ARRAY`` — an ndarray of unknown dtype;
* ``None`` — not an ndarray (python scalars, strings, configs, …).

The analysis is deliberately a single forward pass per function
(branches merge to the higher-ranked tag, loops are not iterated): it
is a lint, not a verifier — precision errors surface as findings a
human waives with a reason, never as silent unsoundness in shipped
code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro_lint.context import LintContext, ModuleInfo

#: Value tags, in increasing specificity rank (see module docstring).
TAGS = ("ARRAY", "FLOAT64", "STATE")

_RANK = {None: 0, "ARRAY": 1, "FLOAT64": 2, "STATE": 3}

#: Array tags (everything except ``None``).
ARRAY_TAGS = frozenset(TAGS)

#: numpy allocators that default to float64 when dtype is omitted.
_FLOAT_ALLOCATORS = frozenset({"zeros", "empty", "full", "ones", "linspace"})

#: numpy constructors that adopt their input's dtype when omitted.
_ADOPTING_ALLOCATORS = frozenset(
    {"asarray", "array", "ascontiguousarray", "atleast_1d", "atleast_2d"}
)

#: numpy functions that propagate their array arguments' dtype.
_PROPAGATING = frozenset(
    {
        "abs", "clip", "where", "maximum", "minimum", "sum", "mean",
        "cumsum", "sqrt", "square", "exp", "log", "concatenate", "stack",
        "sort", "take", "reshape", "transpose", "ravel", "copy",
        "zeros_like", "empty_like", "ones_like", "full_like",
    }
)

#: Methods that return an array with the receiver's dtype.
_PROPAGATING_METHODS = frozenset(
    {
        "sum", "mean", "copy", "reshape", "ravel", "clip", "cumsum",
        "take", "transpose", "squeeze", "flatten", "max", "min",
    }
)

#: dtype literals that mark an array STATE (promotion-fragile).
_STATE_DTYPES = frozenset({"float32", "float16", "single", "half"})

#: dtype literals that pin FLOAT64.
_FLOAT64_DTYPES = frozenset({"float64", "float", "double"})


def max_tag(*tags: Optional[str]) -> Optional[str]:
    """The highest-ranked tag among the arguments."""
    best: Optional[str] = None
    for tag in tags:
        if _RANK[tag] > _RANK[best]:
            best = tag
    return best


@dataclass
class Mixing:
    """One STATE-array ∘ float64-ish arithmetic site (DT-002 fodder)."""

    lineno: int
    detail: str


@dataclass
class FunctionFacts:
    """Everything one pass over a function body learned."""

    qualname: str
    mixings: List[Mixing] = field(default_factory=list)
    return_tag: Optional[str] = None
    #: Call sites: callee bare name → highest tag seen per parameter
    #: position / keyword.
    calls: List[Tuple[str, Dict[object, Optional[str]]]] = field(
        default_factory=list
    )


@dataclass
class FunctionSummary:
    """Converged interprocedural facts about one function."""

    qualname: str
    param_tags: Dict[str, Optional[str]] = field(default_factory=dict)
    return_tag: Optional[str] = None


def _dtype_tag(node: Optional[ast.expr]) -> Optional[str]:
    """Classify a ``dtype=`` argument expression into a tag."""
    if node is None:
        return "FLOAT64"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    elif isinstance(node, ast.Name):
        name = node.id
        if name == "float":
            return "FLOAT64"
        # A bare variable holding the dtype: parameterized.
        return "STATE"
    elif isinstance(node, ast.Attribute):
        name = node.attr
        if name in _STATE_DTYPES:
            return "STATE"
        if name in _FLOAT64_DTYPES:
            return "FLOAT64"
        # self.dtype, data.dtype, config.np_dtype, …: parameterized.
        return "STATE"
    elif isinstance(node, ast.Call):
        # np.dtype(x) adopts x's classification.
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "dtype":
            return _dtype_tag(node.args[0]) if node.args else "STATE"
        return "STATE"
    else:
        return "STATE"
    if name in _STATE_DTYPES:
        return "STATE"
    if name in _FLOAT64_DTYPES:
        return "FLOAT64"
    return "STATE"


def _describe(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return "<expr>"


class FunctionFlow:
    """One forward abstract-interpretation pass over a function body.

    Args:
        func: The function to analyze.
        qualname: Its dotted coordinate (for summaries).
        param_tags: Converged tags for its parameters (empty on the
            first fixpoint iteration).
        resolve: Bare callee name → :class:`FunctionSummary` (or
            ``None``), the call-graph summary layer.
    """

    def __init__(
        self,
        func: ast.FunctionDef,
        qualname: str,
        param_tags: Dict[str, Optional[str]],
        resolve,
    ) -> None:
        self.func = func
        self.facts = FunctionFacts(qualname=qualname)
        self.env: Dict[str, Optional[str]] = dict(param_tags)
        self.resolve = resolve

    # -- statement dispatch ---------------------------------------------

    def run(self) -> FunctionFacts:
        for stmt in self.func.body:
            self._stmt(stmt)
        return self.facts

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            tag = self._expr(node.value)
            for target in node.targets:
                self._bind(target, tag)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._bind(node.target, self._expr(node.value))
        elif isinstance(node, ast.AugAssign):
            # In-place ops keep the target's dtype (numpy casts the
            # operand down), so they are never upcast sites.
            self._expr(node.value)
            if isinstance(node.target, ast.Subscript):
                self._expr(node.target.value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.facts.return_tag = max_tag(
                    self.facts.return_tag, self._expr(node.value)
                )
        elif isinstance(node, ast.Expr):
            self._expr(node.value)
        elif isinstance(node, (ast.If, ast.For, ast.While)):
            if isinstance(node, (ast.For,)):
                self._bind(node.target, self._element_tag(node.iter))
            if hasattr(node, "test"):
                self._expr(node.test)  # type: ignore[attr-defined]
            elif isinstance(node, ast.For):
                self._expr(node.iter)
            for child in node.body + node.orelse:
                self._stmt(child)
        elif isinstance(node, ast.Try):
            for child in (
                node.body
                + [s for h in node.handlers for s in h.body]
                + node.orelse
                + node.finalbody
            ):
                self._stmt(child)
        elif isinstance(node, ast.With):
            for item in node.items:
                tag = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, tag)
            for child in node.body:
                self._stmt(child)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested scopes are analyzed separately
        elif isinstance(node, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._expr(child)

    def _bind(self, target: ast.expr, tag: Optional[str]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = max_tag(self.env.get(target.id), tag)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, None)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            # Storing into a state-dtype column casts silently (never
            # upcasts the column), so stores are not mixing sites.
            self._expr(target.value)

    # -- expressions ----------------------------------------------------

    def _element_tag(self, iterable: ast.expr) -> Optional[str]:
        return self._expr(iterable)

    def _expr(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.BinOp):
            left = self._expr(node.left)
            right = self._expr(node.right)
            self._check_mix(node, left, node.left, right, node.right)
            return max_tag(left, right)
        if isinstance(node, ast.UnaryOp):
            return self._expr(node.operand)
        if isinstance(node, ast.Compare):
            self._expr(node.left)
            for comparator in node.comparators:
                self._expr(comparator)
            return None
        if isinstance(node, ast.BoolOp):
            return max_tag(*(self._expr(v) for v in node.values))
        if isinstance(node, ast.IfExp):
            self._expr(node.test)
            return max_tag(self._expr(node.body), self._expr(node.orelse))
        if isinstance(node, ast.Subscript):
            base = self._expr(node.value)
            self._expr(node.slice)
            return base
        if isinstance(node, ast.Attribute):
            base = self._expr(node.value)
            if node.attr in ("T", "real", "imag"):
                return base
            return None
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._expr(element)
            return None
        if isinstance(node, ast.Dict):
            for value in node.values:
                if value is not None:
                    self._expr(value)
            return None
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            return None
        if isinstance(node, ast.Starred):
            return self._expr(node.value)
        return None

    # -- calls ----------------------------------------------------------

    def _call(self, node: ast.Call) -> Optional[str]:
        arg_tags: Dict[object, Optional[str]] = {}
        for position, arg in enumerate(node.args):
            arg_tags[position] = self._expr(arg)
        for keyword in node.keywords:
            if keyword.arg is not None:
                arg_tags[keyword.arg] = self._expr(keyword.value)
            else:
                self._expr(keyword.value)
        func = node.func

        if isinstance(func, ast.Attribute):
            owner = func.value
            # <dtype expr>.type(x): the sanctioned scalar cast.
            if func.attr == "type":
                return None
            if isinstance(owner, ast.Name) and owner.id in ("np", "numpy"):
                return self._numpy_call(func.attr, node, arg_tags)
            # method on a tagged receiver
            receiver = self._expr(owner)
            if func.attr == "astype":
                dtype_arg = node.args[0] if node.args else None
                for keyword in node.keywords:
                    if keyword.arg == "dtype":
                        dtype_arg = keyword.value
                return _dtype_tag(dtype_arg)
            if receiver in ARRAY_TAGS and func.attr in _PROPAGATING_METHODS:
                return receiver
            self.facts.calls.append((func.attr, arg_tags))
            summary = self.resolve(func.attr)
            if summary is not None:
                return summary.return_tag
            return None

        if isinstance(func, ast.Name):
            if func.id in ("float", "int", "bool", "str", "len", "range"):
                return None
            self.facts.calls.append((func.id, arg_tags))
            summary = self.resolve(func.id)
            if summary is not None:
                return summary.return_tag
        return None

    def _numpy_call(
        self,
        name: str,
        node: ast.Call,
        arg_tags: Dict[object, Optional[str]],
    ) -> Optional[str]:
        if name == "float64":
            return "FLOAT64"
        if name in _STATE_DTYPES:
            return "STATE"
        if name in _FLOAT_ALLOCATORS or name in _ADOPTING_ALLOCATORS:
            dtype_arg = None
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    dtype_arg = keyword.value
            positions = {"zeros": 1, "empty": 1, "ones": 1, "full": 2,
                         "asarray": 1, "array": 1}
            position = positions.get(name)
            if dtype_arg is None and position is not None:
                if len(node.args) > position:
                    dtype_arg = node.args[position]
            if dtype_arg is not None:
                return _dtype_tag(dtype_arg)
            if name in _FLOAT_ALLOCATORS:
                return "FLOAT64"
            # adopting constructor without dtype: propagate the input
            source = max_tag(
                *(tag for tag in arg_tags.values())
            )
            return source if source in ("STATE", "FLOAT64") else "ARRAY"
        if name in _PROPAGATING or name.endswith("_like"):
            return max_tag(*(tag for tag in arg_tags.values()))
        if name == "dtype":
            return None
        return None

    # -- checks ---------------------------------------------------------

    def _is_float_literal(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.UnaryOp):
            return self._is_float_literal(node.operand)
        return False

    def _check_mix(
        self,
        site: ast.AST,
        left: Optional[str],
        left_node: ast.expr,
        right: Optional[str],
        right_node: ast.expr,
    ) -> None:
        operator = getattr(site, "op", None)
        if isinstance(operator, (ast.BitOr, ast.BitAnd, ast.BitXor,
                                 ast.LShift, ast.RShift, ast.Mod)):
            return
        pairs = (
            (left, right, right_node),
            (right, left, left_node),
        )
        for state_side, other_side, other_node in pairs:
            if state_side != "STATE":
                continue
            if self._is_float_literal(other_node):
                self.facts.mixings.append(
                    Mixing(
                        lineno=getattr(site, "lineno", other_node.lineno),
                        detail=(
                            f"state-dtype array combined with bare float "
                            f"literal {_describe(other_node)}; NumPy 2 "
                            "keeps the array's dtype here (NEP 50), but "
                            "the scalar's dtype is left implicit"
                        ),
                    )
                )
                return
            if other_side == "FLOAT64":
                self.facts.mixings.append(
                    Mixing(
                        lineno=getattr(site, "lineno", other_node.lineno),
                        detail=(
                            "state-dtype array combined with float64-"
                            f"typed value {_describe(other_node)}; the "
                            "result promotes to float64 and breaks the "
                            "float32-pipeline bit-identity pin"
                        ),
                    )
                )
                return


# ---------------------------------------------------------------------------
# Module summaries: the call-graph layer
# ---------------------------------------------------------------------------


def _iter_functions(
    info: ModuleInfo,
) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """Yield ``(qualname, func)`` for module- and class-level defs."""
    for node in info.tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{info.name}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{info.name}.{node.name}.{item.name}", item


def _param_names(func: ast.FunctionDef) -> List[str]:
    names = [a.arg for a in func.args.posonlyargs + func.args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    names += [a.arg for a in func.args.kwonlyargs]
    return names


class ModuleSummaries:
    """Fixpoint call-graph summaries over the whole linted context.

    Maps every module/class-level function to the converged tags of its
    parameters (joined over every resolvable call site) and its return
    value.  Resolution is by bare function name across the linted set —
    deliberately import-blind: over-approximation produces at worst a
    finding a human reviews, never a silent miss.
    """

    MAX_ITERATIONS = 8

    def __init__(self, context: LintContext) -> None:
        self.functions: Dict[str, Tuple[ModuleInfo, ast.FunctionDef]] = {}
        self.by_name: Dict[str, List[str]] = {}
        self.summaries: Dict[str, FunctionSummary] = {}
        for info in context.iter_modules():
            for qualname, func in _iter_functions(info):
                self.functions[qualname] = (info, func)
                self.by_name.setdefault(func.name, []).append(qualname)
                self.summaries[qualname] = FunctionSummary(
                    qualname=qualname,
                    param_tags={n: None for n in _param_names(func)},
                )
        self._converge()

    def resolve(self, name: str) -> Optional[FunctionSummary]:
        """Join of every summary sharing the bare name (or ``None``)."""
        qualnames = self.by_name.get(name)
        if not qualnames:
            return None
        if len(qualnames) == 1:
            return self.summaries[qualnames[0]]
        joined = FunctionSummary(qualname=name)
        joined.return_tag = max_tag(
            *(self.summaries[q].return_tag for q in qualnames)
        )
        return joined

    def _converge(self) -> None:
        for _ in range(self.MAX_ITERATIONS):
            changed = False
            for qualname, (info, func) in self.functions.items():
                summary = self.summaries[qualname]
                flow = FunctionFlow(
                    func, qualname, dict(summary.param_tags), self.resolve
                )
                facts = flow.run()
                if facts.return_tag != summary.return_tag and (
                    _RANK[facts.return_tag] > _RANK[summary.return_tag]
                ):
                    summary.return_tag = facts.return_tag
                    changed = True
                for callee, arg_tags in facts.calls:
                    changed |= self._feed_call(callee, arg_tags)
            if not changed:
                break

    def _feed_call(
        self, callee: str, arg_tags: Dict[object, Optional[str]]
    ) -> bool:
        changed = False
        for qualname in self.by_name.get(callee, ()):
            info, func = self.functions[qualname]
            params = _param_names(func)
            summary = self.summaries[qualname]
            for key, tag in arg_tags.items():
                if tag is None:
                    continue
                if isinstance(key, int):
                    if key >= len(params):
                        continue
                    param = params[key]
                else:
                    if key not in summary.param_tags:
                        continue
                    param = key
                if _RANK[tag] > _RANK[summary.param_tags.get(param)]:
                    summary.param_tags[param] = tag
                    changed = True
        return changed

    def facts_for(self, info: ModuleInfo) -> List[FunctionFacts]:
        """Final-pass facts for every function in one module."""
        results: List[FunctionFacts] = []
        for qualname, func in _iter_functions(info):
            summary = self.summaries[qualname]
            flow = FunctionFlow(
                func, qualname, dict(summary.param_tags), self.resolve
            )
            results.append(flow.run())
        return results


def module_summaries(context: LintContext) -> ModuleSummaries:
    """The (memoized) summary layer for a context."""
    cached = getattr(context, "_dataflow_summaries", None)
    if cached is None:
        cached = ModuleSummaries(context)
        context._dataflow_summaries = cached
    return cached


def function_node_for(
    info: ModuleInfo, qualname: str
) -> Optional[ast.FunctionDef]:
    """Look the AST node back up from a facts qualname."""
    for candidate, func in _iter_functions(info):
        if candidate == qualname:
            return func
    return None


__all__ = [
    "ARRAY_TAGS",
    "FunctionFacts",
    "FunctionFlow",
    "FunctionSummary",
    "Mixing",
    "ModuleSummaries",
    "TAGS",
    "function_node_for",
    "max_tag",
    "module_summaries",
]
