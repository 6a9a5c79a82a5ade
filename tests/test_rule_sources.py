"""Every closed-form rule of the program is its terms.

A `BracketRule` built in `src/blocklie/*.py` passes no pair of its own: a
rule with terms gets the pair that its terms and cocycle define, so a grid
scan reads the same data as the proof and the closure.  Only a table,
which has no terms, gives a pair (`novikov.table_product_rule`).  The test
reads the source, so a hand-written pair fails it before any job runs it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "blocklie"


def is_rule_call(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name == "BracketRule"


def definitions_passing_a_pair() -> set[str]:
    """`module.name` of each top-level definition, or `module` for module
    level code, that calls `BracketRule` with a positional argument (the
    pair comes first) or a `pair` keyword."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            where = f"{path.stem}.{node.name}" if named else path.stem
            for call in filter(is_rule_call, ast.walk(node)):
                if call.args or any(k.arg == "pair" for k in call.keywords):
                    out.add(where)
    return out


def test_only_the_table_rule_passes_a_pair_of_its_own():
    assert definitions_passing_a_pair() == {"novikov.table_product_rule"}
