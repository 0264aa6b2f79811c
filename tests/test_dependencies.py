"""Every third-party package the code imports is declared in pyproject.toml."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "bench")


def _top_level_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _declared() -> set:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    reqs = list(project["dependencies"])
    for extra in project.get("optional-dependencies", {}).values():
        reqs += extra
    # "scipy>=1.10" -> "scipy"; distribution names compare case- and dash-blind
    return {re.split(r"[\s<>=!~\[;]", r, maxsplit=1)[0].lower().replace("-", "_")
            for r in reqs}


def test_third_party_imports_are_declared():
    # local modules: the package itself, and the bench scripts, which
    # import each other from their own directory
    local = {"piercedcodes"} | {p.stem for p in (ROOT / "bench").glob("*.py")}
    used = {}
    for d in DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            for name in _top_level_imports(path):
                if name not in sys.stdlib_module_names and name not in local:
                    used.setdefault(name, str(path.relative_to(ROOT)))
    undeclared = {name: path for name, path in used.items()
                  if name.lower() not in _declared()}
    assert not undeclared, f"imported but not declared in pyproject.toml: {undeclared}"
