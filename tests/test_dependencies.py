"""The runtime dependencies declared in pyproject.toml and README are the
third-party modules the package imports, no more and no fewer."""

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loadlaw"


def imported_third_party() -> set[str]:
    """Top-level names of the absolute imports in the package, stdlib dropped."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def declared() -> set[str]:
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower() for spec in project["dependencies"]}


def test_pyproject_declares_exactly_the_imported_packages():
    assert imported_third_party() == declared() == {"numpy", "orjson"}


def test_readme_names_the_declared_packages():
    sentence = re.search(r"the runtime dependencies are ([^.;]+)", (ROOT / "README.md").read_text())
    assert sentence, "README has no 'the runtime dependencies are ...' sentence"
    assert set(re.split(r",\s*|\s+and\s+", sentence.group(1).strip())) == declared()
