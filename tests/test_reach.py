"""Every line of `src/blocklie` runs in some job.

`tests/reach.py` runs the archived configs, a benchmark block per workload
and the CLI's exit cases under a line tracer and prints each executable line
that none of them ran and no exemption covers.  It runs in a child process:
the test session has imported the package already, and a tracer installed
now would miss the module bodies.  To read a failure, run `python
tests/reach.py`: a line it prints is code that no job reaches.  Delete it,
or give `reach.CLI_CASES` the input that reaches it; a guard that only a
defect in the program can reach goes on `reach.ALLOWLIST`, with its reason.
"""

import subprocess
import sys
from pathlib import Path

REACH = Path(__file__).resolve().parent / "reach.py"


def test_every_line_runs_in_some_job():
    result = subprocess.run(
        [sys.executable, str(REACH)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "", f"lines that no job runs:\n{result.stdout}"
