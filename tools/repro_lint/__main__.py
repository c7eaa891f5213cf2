"""Command line: ``python -m repro_lint [paths...] [--format F] [--runtime]``.

Run from the repository root with ``PYTHONPATH=src:tools``.  Without
paths it lints the ``repro`` package and this tool.  Exit status: 0
when clean, 1 on findings, 2 on a usage error (including a path that
does not exist).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.exceptions import ReproError
from repro_lint.report import render_github, render_json, render_text
from repro_lint.runner import lint_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro_lint",
        description="Check the repo-specific invariants of repro.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the repro package "
             "and this tool)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="report format (default: text; 'github' emits ::error "
             "workflow commands for inline pull-request annotations)",
    )
    parser.add_argument(
        "--runtime", action="store_true",
        help="also drive every registered component through the "
             "checkpoint round-trip and determinism contracts",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        result = lint_paths(args.paths or None, runtime=args.runtime)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(result))
    elif args.format == "github":
        output = render_github(result)
        if output:
            print(output)
    else:
        print(render_text(result))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
