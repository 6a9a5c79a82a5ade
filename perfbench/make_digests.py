"""Regenerate digests.json: the sha256 of every machine report in the first
DIGEST_BLOCKS blocks of each workload at the default seed.

    python3 perfbench/make_digests.py

Run from the root of a checkout whose reports are known good; the jobs run
through the same child process as a benchmark run, and every report must pass
its oracle before its digest is stored.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

import run
import workloads

DIGEST_BLOCKS = 30


def main() -> int:
    root = Path.cwd()
    out = {"seed": run.DEFAULT_SEED, "blocks": DIGEST_BLOCKS, "workloads": {}}
    for name in sorted(workloads.WORKLOADS):
        work = root / ".bench_build" / "perfbench" / f"digests-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        jobs = run.write_jobs(work, name, run.DEFAULT_SEED, DIGEST_BLOCKS)
        _, records = run.run_batch(root, work, "digests", len(jobs), 0, len(jobs), False)
        bad = run.failures(jobs, records, [])
        if bad or len(records) != len(jobs):
            print("\n".join(bad) or "batch incomplete", file=sys.stderr)
            return 1
        out["workloads"][name] = [
            hashlib.sha256(r["report"].encode()).hexdigest() for r in records
        ]
        print(f"{name}: {len(records)} digests")
    (run.HERE / "digests.json").write_text(json.dumps(out, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
