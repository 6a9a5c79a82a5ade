"""Every line of `src/blocklie` runs, and every condition in it goes both
ways, in some job.

`tests/reach.py` runs the archived configs, a benchmark block per workload
and the CLI's exit cases under an opcode tracer and prints each executable
line that none of them ran, and each condition (an `if`, `elif` or `while`
test, an `and`/`or` clause, a conditional expression's test, a
comprehension's `if`) that was always true or always false, that no
exemption covers.  It runs in a child process: the test session has
imported the package already, and a tracer installed now would miss the
module bodies.  To read a failure, run `python tests/reach.py`: a line it
prints is code that no job reaches, and a condition it prints is a test
whose outcome no job changes.  Delete it, or give `reach.CLI_CASES` the
input that reaches it; a guard that no input can reach goes on
`reach.ALLOWLIST`, with its kind and reason.
"""

import subprocess
import sys
from pathlib import Path

REACH = Path(__file__).resolve().parent / "reach.py"


def test_every_line_runs_in_some_job():
    result = subprocess.run(
        [sys.executable, str(REACH)], capture_output=True, text=True, timeout=120
    )
    found = result.stdout
    assert found == "", f"lines and conditions that no job runs both ways:\n{found}"
    assert result.returncode == 0, result.stderr
