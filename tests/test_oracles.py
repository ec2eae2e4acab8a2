"""The naive oracles the suite checks against share no code with the package."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def imported_modules(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


@pytest.mark.parametrize("path", ["bench/oracle.py", "tests/oracles.py"])
def test_oracle_does_not_import_the_package(path):
    modules = imported_modules((ROOT / path).read_text())
    assert [m for m in modules if m.split(".")[0] == "fairslice"] == []
