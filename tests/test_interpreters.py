"""The archived reports under the other supported interpreters.

`pyproject.toml` asks for Python 3.10 or later, and tier-1 runs on one
interpreter.  This test runs every archived config (`golden/`,
`tests/data/`) with `--format machine` under the newest pyenv-installed
CPython of each other minor version from 3.10 on, one child process per
interpreter, and compares each job's exit code and stdout with its archived
`.report.json` byte for byte.  An interpreter that pyenv does not have is
skipped; those interpreters need no pytest, since the child imports only the
package.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import CONFIGS, archived_report

SRC = Path(__file__).resolve().parent.parent / "src"
# one child runs every config through `cli.main` and prints, per config, its
# exit code and the stdout it wrote
CHILD = """
import contextlib, io, json, sys
from blocklie.cli import main
runs = []
for path in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--config", path, "--format", "machine"])
    runs.append([code, out.getvalue()])
json.dump(runs, sys.stdout)
"""


def pyenv_python(minor: str) -> Path | None:
    """The newest pyenv-installed CPython `minor` (such as "3.10"), if any."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return None
    root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
    found = [
        (tuple(int(part) for part in path.parent.parent.name.split(".")), path)
        for path in Path(root).glob(f"versions/{minor}.*/bin/python")
        if path.parent.parent.name.replace(".", "").isdecimal()
    ]
    return max(found)[1] if found else None


@pytest.mark.parametrize("minor", ["3.10", "3.11", "3.12", "3.13"])
def test_archived_reports_are_byte_identical_under_each_interpreter(minor):
    if minor == f"{sys.version_info[0]}.{sys.version_info[1]}":
        pytest.skip("tier-1 runs on this interpreter")
    python = pyenv_python(minor)
    if python is None:
        pytest.skip(f"pyenv has no CPython {minor}")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [str(python), "-c", CHILD, *map(str, CONFIGS)],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    runs = json.loads(result.stdout)
    assert len(runs) == len(CONFIGS) == 25
    for config, (code, out) in zip(CONFIGS, runs):
        report = archived_report(config)
        assert out == report, config.name
        assert code == (0 if json.loads(report)["positive"] else 1), config.name
