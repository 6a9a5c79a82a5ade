"""Every definition of the program is reached by the program or its tracer.

A top-level function or class of `src/blocklie/*.py` (the package's
`__init__.py` aside) passes when another module of the package, or the rest
of its own module, refers to it by name; when the benchmark's tracer wraps it
(`SPANS`, `COUNTED`); or when it is the entry point `cli.main`.  A method or
property of a class, dunders aside, passes when program code outside its own
body reads it as an attribute (`.name`), or when the tracer's source does; a
variable that shares its name does not count.  A helper that only tests call
belongs next to those tests, as an oracle.
"""

import ast
from collections import Counter
from pathlib import Path

from test_benchmark_hooks import TRACER, tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "blocklie"


def name_counts(nodes) -> Counter:
    """How often each name is referred to in `nodes`, as a variable, an
    attribute or an import."""
    names = Counter()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                names[sub.attr] += 1
            elif isinstance(sub, ast.alias):
                names[sub.name] += 1
    return names


def attribute_counts(nodes) -> Counter:
    """How often each name is read as an attribute (`.name`) in `nodes`."""
    return Counter(
        sub.attr for node in nodes for sub in ast.walk(node) if isinstance(sub, ast.Attribute)
    )


def module_bodies() -> dict[str, list]:
    return {
        path.stem: ast.parse(path.read_text()).body
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }


def unreferenced_definitions():
    """`module.name` of each top-level definition that no program code names."""
    modules = module_bodies()
    out = []
    for module, body in modules.items():
        elsewhere = name_counts(
            node for other, nodes in modules.items() if other != module for node in nodes
        )
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                rest = name_counts(other for other in body if other is not node)
                if node.name not in elsewhere | rest:
                    out.append(f"{module}.{node.name}")
    return out


def unreferenced_members():
    """`module.Class.name` of each method or property, dunders aside, that no
    program code outside its own body reads as an attribute."""
    modules = module_bodies()
    everywhere = attribute_counts(node for body in modules.values() for node in body)
    out = []
    for module, body in modules.items():
        for cls in (node for node in body if isinstance(node, ast.ClassDef)):
            for member in cls.body:
                if not isinstance(member, ast.FunctionDef) or member.name.startswith("__"):
                    continue
                if everywhere[member.name] <= attribute_counts([member])[member.name]:
                    out.append(f"{module}.{cls.name}.{member.name}")
    return out


def test_every_definition_is_reached_by_the_program_or_the_tracer():
    traced = {f"{module}.{name}" for module, names in tracer.SPANS.items() for name in names}
    traced |= {f"{module}.{attr}" for module, cls, attr in tracer.COUNTED.values() if cls is None}
    unreferenced = unreferenced_definitions()
    library_only = [name for name in unreferenced if name not in traced | {"cli.main"}]
    assert not library_only, f"no program code names {unreferenced}"


# constructors of the test fixtures, which build the expected Elements of
# about 120 test lines; the program builds its Elements from terms dicts
FIXTURE_CONSTRUCTORS = {"engine.Element.basis", "engine.Element.scaled"}


def test_every_method_is_named_by_the_program_or_read_by_the_tracer():
    read = attribute_counts([ast.parse(TRACER.read_text())])
    unreferenced = unreferenced_members()
    library_only = [
        name
        for name in unreferenced
        if name.rsplit(".", 1)[1] not in read and name not in FIXTURE_CONSTRUCTORS
    ]
    assert not library_only, f"no program code reads {library_only}"
