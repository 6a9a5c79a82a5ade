"""The runtime is stdlib-only: every import in the package names a standard
library module or the package itself.  Start-up stays light too: importing
the CLI loads neither `dataclasses` nor the `inspect` it pulls in, and runs
the body of no module that only some job kinds read (`hweight`,
`intermediate`, `novikov`) until a job reads it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SOURCES = sorted((SRC / "blocklie").glob("*.py"))
DEFERRED = ("hweight", "intermediate", "novikov")


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


def fresh_python(probe: str, *args: str) -> str:
    """The stdout of `probe` run in a new interpreter that imports the package
    from this tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", probe, *args], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.strip()


# the deferred modules whose bodies have run: a module not yet run is a
# LazyLoader module, and `type` reads no attribute, which would run it
EXECUTED = (
    "import sys, types; print([name for name in "
    f"{DEFERRED} if type(sys.modules['blocklie.' + name]) is types.ModuleType])"
)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    heavy = "{'dataclasses', 'inspect'}"
    probe = f"import sys, blocklie.cli; print(sorted({heavy} & set(sys.modules)))"
    assert fresh_python(probe) == "[]"


def test_cli_import_registers_the_deferred_modules_without_running_them():
    # the three are in sys.modules, where perfbench's tracer looks them up;
    # what every run reads is loaded at import
    probe = (
        "import sys, blocklie, blocklie.cli\n"
        "eager = ['argparse', 'json', 'fractions', 'blocklie.block', 'blocklie.engine']\n"
        "print(all(name in sys.modules for name in eager))\n"
        f"print(all(sys.modules['blocklie.' + name] is getattr(blocklie, name) "
        f"for name in {DEFERRED}))\n"
    )
    assert fresh_python(probe + EXECUTED).split("\n") == ["True", "True", "[]"]


def singular_config(tmp_path) -> str:
    # no archived config is a singular job; this one has crosscheck_p0's inputs
    payload = json.loads((REPO / "golden" / "crosscheck_p0.json").read_text())
    payload["job"] = "singular"
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(payload))
    return str(path)


# one config per job kind, and the deferred modules its job runs
KIND_CONFIGS = {
    "closure_block": ("tests/data/closure_cocycle_pair.json", []),
    "blockcheck": ("tests/data/blockcheck_concrete.json", []),
    "classify": ("golden/classify_qp.json", ["hweight"]),
    "singular": (None, ["hweight"]),
    "crosscheck": ("golden/crosscheck_p0.json", ["hweight"]),
    "axioms": ("golden/axioms_witt.json", ["novikov"]),
    "affinize": ("tests/data/affinize_mutation_sweep.json", ["novikov"]),
    "closure_affinized": ("tests/data/closure_affinized_dim48.json", ["novikov"]),
    "modcheck": ("tests/data/modcheck_central_one_narrow.json", ["intermediate"]),
}


@pytest.mark.parametrize("kind", KIND_CONFIGS)
def test_a_job_runs_only_the_deferred_modules_its_kind_reads(kind, tmp_path):
    config, expected = KIND_CONFIGS[kind]
    path = singular_config(tmp_path) if config is None else str(REPO / config)
    probe = "import sys\nfrom blocklie import cli\ncli.run_job(cli.load_config(sys.argv[1]))\n"
    assert fresh_python(probe + EXECUTED, path) == str(expected)


@pytest.mark.parametrize("name", DEFERRED)
def test_a_module_imported_before_the_cli_is_the_one_the_cli_reads(name):
    # a second, deferred copy would let a test patch a function on the copy
    # that the CLI does not call
    probe = (
        f"import sys, blocklie.{name} as first, blocklie.cli as cli\n"
        f"print(cli.{name} is first is sys.modules['blocklie.{name}'])"
    )
    assert fresh_python(probe) == "True"
