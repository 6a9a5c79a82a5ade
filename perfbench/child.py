"""One workload process: import the program, then run job configs back to back.

    python3 perfbench/child.py SPAWNED_AT [PLAN]

SPAWNED_AT is the parent's `time.monotonic()` just before it started this
process (the clock is system-wide), so the first numbers this process prints
are its set-up time (interpreter start plus `import blocklie.cli`) and the
interpreter start alone (until this script's first line runs), the reference
by which run.py normalizes set-up time.  Without a PLAN that is all it does.  A PLAN is a JSON file naming the job configs, the
block size, the time budget, the minimum job count, the output file and, for
a traced run, the trace file.  Jobs run through the public CLI path
`load_config -> run_job -> emit_report(..., "machine")`, one at a time in this
one thread; the batch stops at the first block boundary where both the time
budget and the minimum job count are reached.  Between jobs, at most every
`reference.REFRESH_S`, the host-speed reference kernel is timed (see
reference.py); each job's record carries the latest kernel time.
"""

import sys
import time

_spawned_at = float(sys.argv[1])
_start_s = time.monotonic() - _spawned_at
import blocklie.cli as cli  # noqa: E402  (set-up ends when this import returns)

_setup_s = time.monotonic() - _spawned_at

import json  # noqa: E402
import resource  # noqa: E402

import reference  # noqa: E402


def run(plan: dict) -> dict:
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    paths, block = plan["paths"], plan["block"]
    ref, ref_at = None, 0.0
    with open(plan["out"], "w", encoding="utf-8") as out:
        batch_start = time.perf_counter()
        done = 0
        for index, path in enumerate(paths):
            if ref is None or time.perf_counter() - ref_at >= reference.REFRESH_S:
                ref = reference.measure()
                ref_at = time.perf_counter()
            if tracer is not None:
                tracer.job = index
            start = time.perf_counter()
            try:
                report = cli.run_job(cli.load_config(path))
                document = cli.emit_report(report, "machine")
                record = {"latency": time.perf_counter() - start, "report": document}
            except Exception as exc:  # a job that raises is counted failed; the batch goes on
                record = {
                    "latency": time.perf_counter() - start,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            record["ref"] = ref
            if tracer is not None and "report" in record:
                tracer.note_report(record["report"].encode())
            out.write(json.dumps(record) + "\n")
            done = index + 1
            if (
                done % block == 0
                and done >= plan["min_jobs"]
                and time.perf_counter() - batch_start >= plan["seconds"]
            ):
                break
        wall = time.perf_counter() - batch_start
    if tracer is not None:
        tracer.write(plan["trace"])
    return {
        "setup_s": _setup_s,
        "start_s": _start_s,
        "jobs": done,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.metrics() if tracer is not None else None,
    }


if __name__ == "__main__":
    if len(sys.argv) == 2:
        print(json.dumps({"setup_s": _setup_s, "start_s": _start_s}))
    else:
        with open(sys.argv[2], encoding="utf-8") as handle:
            summary = run(json.load(handle))
        print(json.dumps(summary))
