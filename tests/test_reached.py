"""Every definition of the program is reached by the program or its tracer.

A top-level function or class of `src/blocklie/*.py` (the package's
`__init__.py` aside) passes when another module of the package, or the rest
of its own module, refers to it by name; when the benchmark's tracer wraps it
(`SPANS`, `COUNTED`); or when it is the entry point `cli.main`.  A helper
that only tests call belongs next to those tests, as an oracle.
"""

import ast
from pathlib import Path

from test_benchmark_hooks import tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "blocklie"


def referenced_names(nodes):
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name)
    return names


def unreferenced_definitions():
    """`module.name` of each top-level definition that no program code names."""
    modules = {
        path.stem: ast.parse(path.read_text()).body
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }
    out = []
    for module, body in modules.items():
        elsewhere = referenced_names(
            node for other, nodes in modules.items() if other != module for node in nodes
        )
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                rest = referenced_names(other for other in body if other is not node)
                if node.name not in elsewhere | rest:
                    out.append(f"{module}.{node.name}")
    return out


def test_every_definition_is_reached_by_the_program_or_the_tracer():
    traced = {f"{module}.{name}" for module, names in tracer.SPANS.items() for name in names}
    traced |= {f"{module}.{attr}" for module, cls, attr in tracer.COUNTED.values() if cls is None}
    unreferenced = unreferenced_definitions()
    library_only = [name for name in unreferenced if name not in traced | {"cli.main"}]
    assert not library_only, f"no program code names {unreferenced}"
