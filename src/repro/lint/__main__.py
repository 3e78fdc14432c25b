"""CLI for reprolint: ``python -m repro.lint [--format text|json] ...``.

Exit status: 0 when the tree is clean (every finding, if any, is
suppressed inline), 1 when any finding survives, 2 on usage errors or an
unreadable root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .checkers import RULES
from .engine import LintResult, lint_root

#: src/repro — the default scan root.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def _render_text(result: LintResult) -> str:
    lines = [finding.render() for finding in result.findings]
    verdict = "clean" if result.clean else f"{len(result.findings)} finding(s)"
    lines.append(
        f"reprolint: {result.files_checked} file(s) checked, {verdict}, "
        f"{result.suppressed} suppressed inline"
    )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant checker for the repro codebase: determinism "
            "(RNG and wall-clock discipline), hot-path slots, dispatcher "
            "protocol exhaustiveness, float-time equality, and hygiene."
        ),
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=PACKAGE_ROOT,
        help="directory tree to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and rationale"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, rationale in RULES.items():
            print(f"{rule}: {rationale}")
        return 0

    try:
        result = lint_root(args.root)
    except OSError as exc:
        print(f"reprolint: cannot scan {args.root}: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(result.to_jsonable(), indent=2, sort_keys=True))
    else:
        print(_render_text(result))
    return 0 if result.clean else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream closed early (e.g. `... | head`); die quietly with the
        # conventional 128+SIGPIPE status instead of a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
