"""Shared helpers for the reprolint tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.engine import LintResult, lint_root

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def lint_tree(tmp_path):
    """Write ``{relpath: source}`` under a temp root and lint it."""

    def run(files: dict[str, str]) -> LintResult:
        for relpath, source in files.items():
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        return lint_root(tmp_path)

    return run


def rules_of(result: LintResult) -> list[str]:
    return [finding.rule for finding in result.findings]
