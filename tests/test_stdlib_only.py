"""The runtime is stdlib-only: every import in the package names a standard
library module or the package itself.  Start-up stays light too: importing
the CLI loads neither `dataclasses` nor the `inspect` it pulls in."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "blocklie").glob("*.py"))


def top_level_imports(path: Path) -> set[str]:
    """The top-level module of every absolute import in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_package_imports_only_the_standard_library(path):
    foreign = {
        name
        for name in top_level_imports(path)
        if name != "blocklie" and name not in sys.stdlib_module_names
    }
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def test_every_module_is_scanned():
    assert {path.stem for path in SOURCES} >= {"cli", "engine", "novikov", "scalars"}
    assert all(top_level_imports(path) for path in SOURCES if path.stem != "__init__")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    heavy = "{'dataclasses', 'inspect'}"
    probe = f"import sys, blocklie.cli; print(sorted({heavy} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "[]"
