"""The package imports exactly the third-party modules it declares."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _top_level_imports(path: Path) -> set[str]:
    """Top-level module names of every absolute import in ``path``, those
    inside functions included."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def _requirement_names(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in requirements}


def test_runtime_imports_are_the_declared_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    imported = set().union(
        *(_top_level_imports(path) for path in (ROOT / "src" / "diffsched").glob("*.py"))
    )
    third_party = imported - set(sys.stdlib_module_names) - {"diffsched"}
    assert third_party == _requirement_names(project["dependencies"])
    # scipy is the tests' oracle, not a runtime dependency
    assert "scipy" in _requirement_names(project["optional-dependencies"]["test"])
