"""Tests for ``repro_lint`` — the AST-based invariant checker.

Each rule family gets a seeded-violation fixture (proving the linter
exits non-zero on it) and a clean fixture (proving no false positive),
plus waiver semantics, the JSON/GitHub reporter schemas, the command
line (in process and as CI runs it), the runtime contract verifier,
and the meta-test that the shipped tree itself lints clean.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro_lint import (
    LINT_RULES,
    build_context,
    default_targets,
    lint_paths,
    parse_waivers,
    render_github,
    render_json,
    render_text,
    run_runtime_checks,
)
from repro_lint.__main__ import main
from repro_lint.runner import LintResult

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_pkg(root: Path, files: dict) -> Path:
    """Materialize ``{relative/path.py: source}`` as a package tree."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        for parent in path.relative_to(root).parents:
            if str(parent) != ".":
                init = root / parent / "__init__.py"
                if not init.exists():
                    init.write_text("")
        path.write_text(source)
    return root


def rule_ids(result: LintResult):
    return sorted({f.rule_id for f in result.findings})


# ---------------------------------------------------------------------------
# State-contract family
# ---------------------------------------------------------------------------


def test_state_001_missing_setter_fails(tmp_path):
    write_pkg(tmp_path, {
        "pkg/comp.py": (
            "class Broken:\n"
            "    def get_state(self):\n"
            "        return {'a': 1}\n"
        ),
    })
    result = lint_paths([tmp_path])
    assert "STATE-001" in rule_ids(result)
    assert result.exit_code == 1


def test_state_001_hook_pair_also_checked(tmp_path):
    write_pkg(tmp_path, {
        "pkg/comp.py": (
            "class Broken:\n"
            "    def _state(self):\n"
            "        return {'w': 2.0}\n"
        ),
    })
    result = lint_paths([tmp_path])
    assert "STATE-001" in rule_ids(result)


def test_state_002_key_read_but_never_written(tmp_path):
    write_pkg(tmp_path, {
        "pkg/comp.py": (
            "class Mismatch:\n"
            "    def get_state(self):\n"
            "        return {'a': self.a}\n"
            "    def set_state(self, state):\n"
            "        self.a = state['b']\n"
        ),
    })
    result = lint_paths([tmp_path])
    findings = [f for f in result.findings if f.rule_id == "STATE-002"]
    assert len(findings) == 2  # 'b' never written, 'a' never read
    assert any("'b'" in f.message for f in findings)


def test_state_002_symmetric_keys_pass(tmp_path):
    write_pkg(tmp_path, {
        "pkg/comp.py": (
            "class Good:\n"
            "    def get_state(self):\n"
            "        return {'a': self.a, 'b': self.b}\n"
            "    def set_state(self, state):\n"
            "        self.a = state['a']\n"
            "        self.b = state.get('b')\n"
        ),
    })
    assert lint_paths([tmp_path]).ok


def test_state_002_open_sets_never_flag(tmp_path):
    # Spread on the write side, forwarding on the read side: both
    # sides open, so dynamic composition is never a false positive.
    write_pkg(tmp_path, {
        "pkg/comp.py": (
            "class Dynamic:\n"
            "    def get_state(self):\n"
            "        return {'a': 1, **self._state()}\n"
            "    def set_state(self, state):\n"
            "        self._load_state(state)\n"
            "    def _state(self):\n"
            "        return {}\n"
            "    def _load_state(self, state):\n"
            "        pass\n"
        ),
    })
    assert lint_paths([tmp_path]).ok


def test_state_002_build_then_return_idiom(tmp_path):
    write_pkg(tmp_path, {
        "pkg/comp.py": (
            "class Builder:\n"
            "    def get_state(self):\n"
            "        state = {'a': 1}\n"
            "        if self.extra is not None:\n"
            "            state['extra'] = self.extra\n"
            "        return state\n"
            "    def set_state(self, state):\n"
            "        self.a = state['a']\n"
            "        self.extra = state.get('extra')\n"
        ),
    })
    assert lint_paths([tmp_path]).ok


# ---------------------------------------------------------------------------
# Registry family
# ---------------------------------------------------------------------------

_REGISTRY_FIXTURE = {
    "pkg/reg.py": (
        "from repro.registry import Registry\n"
        "THINGS = Registry('thing', modules=('pkg.impl',))\n"
        "def register_thing(name, *, override=False):\n"
        "    return THINGS.register(name, override=override)\n"
    ),
    "pkg/impl.py": (
        "from pkg.reg import register_thing\n"
        "@register_thing('alpha')\n"
        "def build_alpha():\n"
        "    return object()\n"
    ),
}


def test_registry_in_sync_passes(tmp_path):
    write_pkg(tmp_path, dict(_REGISTRY_FIXTURE))
    assert lint_paths([tmp_path]).ok


def test_reg_001_dead_lazy_load_entry(tmp_path):
    files = dict(_REGISTRY_FIXTURE)
    files["pkg/reg.py"] = files["pkg/reg.py"].replace(
        "'pkg.impl'", "'pkg.gone'"
    )
    write_pkg(tmp_path, files)
    result = lint_paths([tmp_path])
    assert "REG-001" in rule_ids(result)
    # The orphaned registration in pkg/impl.py is also reported.
    assert "REG-002" in rule_ids(result)
    assert result.exit_code == 1


def test_reg_001_entry_without_registration(tmp_path):
    files = dict(_REGISTRY_FIXTURE)
    files["pkg/impl.py"] = "def build_alpha():\n    return object()\n"
    write_pkg(tmp_path, files)
    result = lint_paths([tmp_path])
    assert rule_ids(result) == ["REG-001"]


def test_reg_002_orphan_registration(tmp_path):
    files = dict(_REGISTRY_FIXTURE)
    files["pkg/orphan.py"] = (
        "from pkg.reg import register_thing\n"
        "@register_thing('beta')\n"
        "def build_beta():\n"
        "    return object()\n"
    )
    write_pkg(tmp_path, files)
    result = lint_paths([tmp_path])
    assert rule_ids(result) == ["REG-002"]
    assert any("pkg.orphan" in f.message for f in result.findings)


def test_reg_002_reachable_through_package_init(tmp_path):
    # Seeding the package makes everything its __init__ imports
    # reachable — the idiom repro.forecasting uses.
    files = dict(_REGISTRY_FIXTURE)
    files["pkg/reg.py"] = files["pkg/reg.py"].replace(
        "modules=('pkg.impl',)", "modules=('pkg.sub',)"
    )
    files["pkg/sub/__init__.py"] = "from pkg.sub import impl\n"
    files["pkg/sub/impl.py"] = (
        "from pkg.reg import register_thing\n"
        "@register_thing('gamma')\n"
        "def build_gamma():\n"
        "    return object()\n"
    )
    del files["pkg/impl.py"]
    write_pkg(tmp_path, files)
    assert lint_paths([tmp_path]).ok


# ---------------------------------------------------------------------------
# Kernel-purity family
# ---------------------------------------------------------------------------

_KERNEL_HEADER = (
    "import numpy as np\n"
    "from repro.registry import Registry\n"
    "SLOT_KERNELS = Registry('slot kernel', modules=('kpkg.kern',))\n"
)


def _kernel_fixture(body: str) -> dict:
    return {"kpkg/kern.py": _KERNEL_HEADER + body}


def test_ker_001_rng_in_kernel_module(tmp_path):
    write_pkg(tmp_path, _kernel_fixture(
        "def kernel(x):\n"
        "    return x + np.random.default_rng(0).uniform()\n"
        "SLOT_KERNELS.register('bad', kernel)\n"
    ))
    result = lint_paths([tmp_path])
    assert "KER-001" in rule_ids(result)
    assert result.exit_code == 1


def test_ker_002_undocumented_param_mutation(tmp_path):
    write_pkg(tmp_path, _kernel_fixture(
        "def kernel(x, queues):\n"
        "    queues += 1.0\n"
        "    return x\n"
        "SLOT_KERNELS.register('bad', kernel)\n"
    ))
    result = lint_paths([tmp_path])
    assert "KER-002" in rule_ids(result)
    assert result.exit_code == 1


def test_ker_002_documented_mutation_passes(tmp_path):
    write_pkg(tmp_path, _kernel_fixture(
        "def kernel(x, queues):\n"
        '    """Advance queues in place."""\n'
        "    queues += 1.0\n"
        "    return x\n"
        "SLOT_KERNELS.register('ok', kernel)\n"
    ))
    assert lint_paths([tmp_path]).ok


def test_ker_002_out_param_passes(tmp_path):
    write_pkg(tmp_path, _kernel_fixture(
        "def kernel(x, out):\n"
        "    out[:] = x * 2\n"
        "    return out\n"
        "SLOT_KERNELS.register('ok', kernel)\n"
    ))
    assert lint_paths([tmp_path]).ok


def test_ker_003_axis_loop_in_kernel_module(tmp_path):
    write_pkg(tmp_path, _kernel_fixture(
        "def kernel(x, num_nodes):\n"
        "    total = 0.0\n"
        "    for i in range(num_nodes):\n"
        "        total += x[i]\n"
        "    return total\n"
        "SLOT_KERNELS.register('bad', kernel)\n"
    ))
    result = lint_paths([tmp_path])
    assert "KER-003" in rule_ids(result)
    assert result.exit_code == 1


def test_kernel_rules_ignore_non_kernel_modules(tmp_path):
    # Same code, but nothing registers into a kernel registry: the
    # kernel-purity rules must not apply.
    write_pkg(tmp_path, {"mpkg/metrics.py": (
        "import numpy as np\n"
        "def shuffle(values, num_nodes):\n"
        "    for i in range(num_nodes):\n"
        "        values[i] = np.random.default_rng(i).uniform()\n"
    )})
    assert lint_paths([tmp_path]).ok


# ---------------------------------------------------------------------------
# Dtype-discipline family
# ---------------------------------------------------------------------------


def test_dt_001_dtypeless_allocation(tmp_path):
    write_pkg(tmp_path, {"cpkg/core/ring.py": (
        "import numpy as np\n"
        "def make_buffer(n):\n"
        "    return np.zeros((n, 4))\n"
    )})
    result = lint_paths([tmp_path])
    assert rule_ids(result) == ["DT-001"]
    assert result.exit_code == 1


def test_dt_001_explicit_dtype_passes(tmp_path):
    write_pkg(tmp_path, {"cpkg/core/ring.py": (
        "import numpy as np\n"
        "def make_buffer(n):\n"
        "    a = np.zeros((n, 4), dtype=float)\n"
        "    b = np.asarray(a, dtype=np.float32)\n"
        "    c = np.full((n,), 0.0, float)\n"
        "    return a, b, c\n"
    )})
    assert lint_paths([tmp_path]).ok


def test_dt_001_scoped_to_fleet_scale_modules(tmp_path):
    write_pkg(tmp_path, {"cpkg/metrics/report.py": (
        "import numpy as np\n"
        "def make_buffer(n):\n"
        "    return np.zeros((n, 4))\n"
    )})
    assert lint_paths([tmp_path]).ok


# ---------------------------------------------------------------------------
# Dtype-dataflow family (DT-002)
# ---------------------------------------------------------------------------


def test_dt_002_bare_literal_mixed_with_state_dtype(tmp_path):
    write_pkg(tmp_path, {"fpkg/transmission/kern.py": (
        "import numpy as np\n"
        "def kernel(dtype):\n"
        "    col = np.zeros(4, dtype=dtype)\n"
        "    return col * 1.5\n"
    )})
    result = lint_paths([tmp_path])
    assert rule_ids(result) == ["DT-002"]
    assert result.findings[0].line == 4


def test_dt_002_sanctioned_cast_idioms_pass(tmp_path):
    write_pkg(tmp_path, {"fpkg/transmission/kern.py": (
        "import numpy as np\n"
        "def kernel(dtype, values):\n"
        "    col = np.zeros(4, dtype=dtype)\n"
        "    d = col.dtype\n"
        "    scaled = col * (np.asarray(values, dtype=d) + d.type(1.5))\n"
        "    col += 0.5\n"  # in-place never changes the target dtype
        "    return scaled\n"
    )})
    assert lint_paths([tmp_path]).ok


def test_dt_002_float64_value_mixed_with_state_dtype(tmp_path):
    write_pkg(tmp_path, {"fpkg/transmission/kern.py": (
        "import numpy as np\n"
        "def kernel(dtype):\n"
        "    col = np.zeros(4, dtype=dtype)\n"
        "    bias = np.zeros(4, dtype=np.float64)\n"
        "    return col + bias\n"
    )})
    result = lint_paths([tmp_path])
    assert rule_ids(result) == ["DT-002"]


def test_dt_002_propagates_through_calls(tmp_path):
    # The call-graph summary layer tags helper's parameter state-dtype
    # from its call site; the literal mix inside helper is flagged
    # without any annotation.
    write_pkg(tmp_path, {"fpkg/transmission/kern.py": (
        "import numpy as np\n"
        "def helper(column):\n"
        "    return column - 0.25\n"
        "def kernel(dtype):\n"
        "    col = np.zeros(4, dtype=dtype)\n"
        "    return helper(col)\n"
    )})
    result = lint_paths([tmp_path])
    assert rule_ids(result) == ["DT-002"]
    assert result.findings[0].line == 3


def test_dt_002_scoped_to_dataflow_modules(tmp_path):
    write_pkg(tmp_path, {"fpkg/metrics/report.py": (
        "import numpy as np\n"
        "def kernel(dtype):\n"
        "    col = np.zeros(4, dtype=dtype)\n"
        "    return col * 1.5\n"
    )})
    assert lint_paths([tmp_path]).ok


# ---------------------------------------------------------------------------
# Checkpoint coverage (STATE-003)
# ---------------------------------------------------------------------------


def test_state_003_runtime_mutation_not_in_state(tmp_path):
    write_pkg(tmp_path, {"pkg/comp.py": (
        "class Counter:\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "        self.label = 'x'\n"
        "    def step(self):\n"
        "        self.count += 1\n"
        "    def get_state(self):\n"
        "        return {'label': self.label}\n"
        "    def set_state(self, state):\n"
        "        self.label = state['label']\n"
    )})
    result = lint_paths([tmp_path])
    assert rule_ids(result) == ["STATE-003"]
    (finding,) = result.findings
    assert "count" in finding.message
    assert finding.line == 6


def test_state_003_covered_by_getter_key_modulo_underscores(tmp_path):
    write_pkg(tmp_path, {"pkg/comp.py": (
        "class Good:\n"
        "    def step(self):\n"
        "        self._count += 1\n"
        "    def get_state(self):\n"
        "        return {'count': self._count}\n"
        "    def set_state(self, state):\n"
        "        self._count = state['count']\n"
    )})
    assert lint_paths([tmp_path]).ok


def test_state_003_covered_by_setter_assignment(tmp_path):
    # The key spelling differs from the attribute name, but the setter
    # restores the attribute — that is coverage.
    write_pkg(tmp_path, {"pkg/comp.py": (
        "class Alias:\n"
        "    def step(self):\n"
        "        self.steps_done += 1\n"
        "    def get_state(self):\n"
        "        return {'progress': self.steps_done}\n"
        "    def set_state(self, state):\n"
        "        self.steps_done = state['progress']\n"
    )})
    assert lint_paths([tmp_path]).ok


def test_state_003_open_state_sets_are_skipped(tmp_path):
    write_pkg(tmp_path, {"pkg/comp.py": (
        "class Dynamic:\n"
        "    def step(self):\n"
        "        self.cursor += 1\n"
        "    def get_state(self):\n"
        "        return {'a': 1, **self.extra()}\n"
        "    def set_state(self, state):\n"
        "        self.apply(state)\n"
        "    def extra(self):\n"
        "        return {}\n"
        "    def apply(self, state):\n"
        "        pass\n"
    )})
    assert lint_paths([tmp_path]).ok


def test_state_003_constructor_only_attrs_pass(tmp_path):
    write_pkg(tmp_path, {"pkg/comp.py": (
        "class Config:\n"
        "    def __init__(self, n):\n"
        "        self.n = n\n"
        "    def reset(self):\n"
        "        self.n = 0\n"
        "    def get_state(self):\n"
        "        return {'n': self.n}\n"
        "    def set_state(self, state):\n"
        "        self.n = state['n']\n"
    )})
    assert lint_paths([tmp_path]).ok


# ---------------------------------------------------------------------------
# Waivers
# ---------------------------------------------------------------------------

_DT_VIOLATION = (
    "import numpy as np\n"
    "def make_buffer(n):\n"
    "    return np.zeros((n, 4))\n"
)


def test_trailing_waiver_with_reason_suppresses(tmp_path):
    write_pkg(tmp_path, {"cpkg/core/ring.py": _DT_VIOLATION.replace(
        "np.zeros((n, 4))",
        "np.zeros((n, 4))  # repro: noqa DT-001(fixture says so)",
    )})
    result = lint_paths([tmp_path])
    assert result.ok
    assert len(result.waived) == 1
    assert result.waived[0].waive_reason == "fixture says so"


def test_own_line_waiver_applies_to_next_line(tmp_path):
    write_pkg(tmp_path, {"cpkg/core/ring.py": _DT_VIOLATION.replace(
        "    return np.zeros((n, 4))",
        "    # repro: noqa DT-001(next-line form)\n"
        "    return np.zeros((n, 4))",
    )})
    result = lint_paths([tmp_path])
    assert result.ok
    assert result.waived[0].waive_reason == "next-line form"


def test_bare_waiver_suppresses_nothing_and_is_flagged(tmp_path):
    write_pkg(tmp_path, {"cpkg/core/ring.py": _DT_VIOLATION.replace(
        "np.zeros((n, 4))",
        "np.zeros((n, 4))  # repro: noqa DT-001",
    )})
    result = lint_paths([tmp_path])
    assert sorted(rule_ids(result)) == ["DT-001", "WAIVE-001"]
    assert result.exit_code == 1


def test_waiver_for_other_rule_does_not_suppress(tmp_path):
    write_pkg(tmp_path, {"cpkg/core/ring.py": _DT_VIOLATION.replace(
        "np.zeros((n, 4))",
        "np.zeros((n, 4))  # repro: noqa KER-001(wrong rule)",
    )})
    result = lint_paths([tmp_path])
    assert rule_ids(result) == ["DT-001"]


def test_parse_waivers_multiple_entries(tmp_path):
    write_pkg(tmp_path, {"pkg/mod.py": (
        "x = 1  # repro: noqa DT-001(first) KER-003(second)\n"
    )})
    context = build_context([tmp_path])
    waivers, problems = parse_waivers(context.modules["pkg.mod"])
    assert waivers[1] == {"DT-001": "first", "KER-003": "second"}
    assert problems == []


def test_waiver_inside_string_literal_is_not_a_waiver(tmp_path):
    write_pkg(tmp_path, {"pkg/mod.py": (
        "TEXT = '# repro: noqa DT-001'\n"
    )})
    result = lint_paths([tmp_path])
    assert result.ok  # no WAIVE-001: it's a string, not a comment


_DECORATED_STATE_VIOLATION = (
    "def register(cls):\n"
    "    return cls\n"
    "@register\n"
    "class Broken:\n"
    "    def get_state(self):{waiver}\n"
    "        return {{'a': 1}}\n"
)


def test_trailing_waiver_on_decorated_def_suppresses(tmp_path):
    # STATE-001 anchors at the ``def`` line, so a trailing waiver
    # there covers it even when the class carries decorators.
    write_pkg(tmp_path, {"pkg/comp.py": _DECORATED_STATE_VIOLATION.format(
        waiver="  # repro: noqa STATE-001(fixture)",
    )})
    result = lint_paths([tmp_path])
    assert result.ok
    assert result.waived[0].rule_id == "STATE-001"


def test_own_line_waiver_above_decorator_misses_def_line(tmp_path):
    # An own-line waiver covers only the *next* line — placed above
    # the decorator it waives the decorator line, not the def.
    write_pkg(tmp_path, {"pkg/comp.py": (
        "def register(cls):\n"
        "    return cls\n"
        "# repro: noqa STATE-001(wrong line)\n"
        "@register\n"
        "class Broken:\n"
        "    def get_state(self):\n"
        "        return {'a': 1}\n"
    )})
    result = lint_paths([tmp_path])
    assert "STATE-001" in rule_ids(result)


def test_multi_rule_waiver_on_single_line(tmp_path):
    # One expression that fires two rules on the same line; one
    # own-line waiver naming both suppresses both.
    write_pkg(tmp_path, {"cpkg/transmission/kern.py": (
        "import numpy as np\n"
        "def kernel(dtype):\n"
        "    col = np.zeros(4, dtype=dtype)\n"
        "    # repro: noqa DT-001(fixture) DT-002(fixture)\n"
        "    return col + np.zeros(4)\n"
    )})
    result = lint_paths([tmp_path])
    assert result.ok
    assert sorted(f.rule_id for f in result.waived) == ["DT-001", "DT-002"]


# ---------------------------------------------------------------------------
# Framework: parse failures, reporters, CLI
# ---------------------------------------------------------------------------


def test_parse_001_on_syntax_error(tmp_path):
    write_pkg(tmp_path, {"pkg/broken.py": "def oops(:\n"})
    result = lint_paths([tmp_path])
    assert rule_ids(result) == ["PARSE-001"]
    assert result.exit_code == 1


def test_json_report_schema(tmp_path):
    write_pkg(tmp_path, {"cpkg/core/ring.py": _DT_VIOLATION})
    result = lint_paths([tmp_path])
    payload = json.loads(render_json(result))
    assert payload["version"] == 1
    assert payload["ok"] is False
    assert isinstance(payload["files"], int)
    assert "DT-001" in payload["rules"]
    (finding,) = payload["findings"]
    assert finding["rule"] == "DT-001"
    assert finding["path"].endswith("ring.py")
    assert finding["line"] == 3
    assert "dtype" in finding["message"]
    assert payload["waived"] == []


def test_text_report_format(tmp_path):
    write_pkg(tmp_path, {"cpkg/core/ring.py": _DT_VIOLATION})
    text = render_text(lint_paths([tmp_path]))
    assert "ring.py:3: DT-001" in text
    assert text.strip().endswith("(0 waived, 12 rules)")


def test_cli_lint_exits_nonzero_on_violation(tmp_path, capsys):
    write_pkg(tmp_path, {"cpkg/core/ring.py": _DT_VIOLATION})
    assert main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DT-001" in out


def test_cli_lint_clean_tree_exits_zero(tmp_path, capsys):
    write_pkg(tmp_path, {"pkg/mod.py": "x = 1\n"})
    assert main([str(tmp_path)]) == 0


def test_cli_lint_json_format(tmp_path, capsys):
    write_pkg(tmp_path, {"pkg/mod.py": "x = 1\n"})
    assert main([str(tmp_path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


@pytest.mark.parametrize(
    "missing", ["no_such_dir", "pkg/no_such_module.py"]
)
def test_cli_lint_missing_path_exits_two(tmp_path, capsys, missing):
    # A mistyped path must not pass: a directory would lint 0 files,
    # and a file's traceback would exit 1, the status for findings.
    write_pkg(tmp_path, {"pkg/mod.py": "x = 1\n"})
    assert main([str(tmp_path / missing)]) == 2
    assert missing in capsys.readouterr().err


def _run_ci_command(*paths):
    """``python -m repro_lint --format github`` as CI runs it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", "tools"]))
    return subprocess.run(
        [sys.executable, "-m", "repro_lint", "--format", "github", *paths],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def test_ci_command_passes_on_shipped_tree():
    completed = _run_ci_command()
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == ""
    assert completed.stderr == ""


def test_ci_command_annotates_a_violation(tmp_path):
    write_pkg(tmp_path, {"cpkg/core/ring.py": _DT_VIOLATION})
    completed = _run_ci_command(str(tmp_path))
    assert completed.returncode == 1, completed.stderr
    (line,) = completed.stdout.splitlines()
    assert line.startswith("::error file=")
    assert "title=DT-001" in line


def test_github_report_format(tmp_path):
    write_pkg(tmp_path, {"cpkg/core/ring.py": (
        "import numpy as np\n"
        "def make_buffer(n):\n"
        "    return np.zeros((n, 4))\n"
    )})
    result = lint_paths([tmp_path])
    out = render_github(result)
    assert out.startswith("::error file=")
    assert "title=DT-001" in out
    assert ",line=3," in out


def test_github_report_escapes_newlines():
    from repro_lint.findings import Finding

    result = LintResult(
        findings=[
            Finding(
                path="pkg/mod.py",
                line=2,
                rule_id="DT-001",
                message="bad%\nmessage",
            )
        ],
        files=1,
        rules_run=("DT-001",),
    )
    out = render_github(result)
    assert "%0A" in out and "%25" in out
    assert "\n" not in out.split("::error", 2)[-1].rstrip("\n")


# ---------------------------------------------------------------------------
# The shipped tree and the runtime contracts
# ---------------------------------------------------------------------------


def test_shipped_tree_lints_clean():
    # The same two roots CI lints: the repro package and the linter.
    result = lint_paths(default_targets())
    assert result.findings == [], "\n".join(
        str(f) for f in result.findings
    )
    # Every shipped waiver carries a written reason.
    assert result.waived, "expected the tree to document some waivers"
    for finding in result.waived:
        assert finding.waive_reason


def test_every_rule_has_id_family_description():
    for rule_id in LINT_RULES.available():
        rule = LINT_RULES.get(rule_id)
        assert rule.rule_id == rule_id
        assert rule.family
        assert rule.description
        assert rule.scope in ("static", "runtime")


@pytest.mark.slow
def test_runtime_contracts_hold_for_all_components():
    findings = run_runtime_checks()
    assert findings == [], "\n".join(str(f) for f in findings)


@pytest.mark.slow
def test_cli_lint_runtime_flag(capsys):
    assert main(["--runtime"]) == 0
    out = capsys.readouterr().out
    assert "15 rules" in out
