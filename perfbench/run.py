"""Seeded job-sweep benchmark for the blocklie batch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark generates job configs from the
seed, writes them under `.bench_build/perfbench/`, and runs them in a fresh
child process through `cli.load_config -> cli.run_job -> cli.emit_report`: a
closed loop with one client, jobs back to back in one thread.  Every report is
checked by a per-job oracle (`oracles.py`) and, for the default seed, against
stored sha256 digests.  Once per invocation the archived configs under
`golden/` and `tests/data/` run as `python -m blocklie.cli` subprocesses and
must reproduce their reports byte for byte.

With `--trace 0` the run is timed for `--seconds` (at least MIN_JOBS jobs,
whole blocks) and prints the end-to-end metrics.  With `--trace 1` a fixed
batch of TRACE_BLOCKS blocks runs untraced and then traced, each in its own
child, and the per-layer spans and counters are printed; `trace_overhead` is
the traced batch's job time over the untraced one's.  Times are normalized
for host speed (see reference.py); the table also shows them raw.  A human-readable table
precedes the last stdout line, which is one JSON object.  Exit status: 0 when
every check passed, 1 when the result is printed with `"correct": false`, 2
when the program or its archived configs are missing (nothing is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import reference
import workloads

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
MIN_JOBS = 100  # job_p90_s needs >= 10 samples beyond it
TRACE_BLOCKS = 5
MAX_BLOCKS = 120  # configs written per timed run; the batch stops earlier on time
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 170
# archived configs and the exit status each must produce; the nonzero-p
# cross-check disagreement (exit 1) is recorded data, not a defect
ARCHIVED = [
    ("golden/axioms_witt", 0),
    ("golden/classify_qp", 0),
    ("golden/crosscheck_p0", 0),
    ("tests/data/crosscheck_p2", 1),
    ("tests/data/crosscheck_phalf", 1),
]


class CannotRun(Exception):
    """The program, its archived configs or a child process is missing or failed."""


def _env(root: Path) -> dict:
    """Child environment: the checkout's sources, with their bytecode cached
    under .bench_build, as an installed tool would have it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_build" / "pycache")
    return env


def _spawn(root: Path, *args: str) -> dict:
    """Run child.py to completion and return its summary (last stdout line)."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), repr(spawned), *args],
        cwd=root,
        env=_env(root),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise CannotRun(f"child process failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probe_setup(root: Path) -> tuple[float, float]:
    """(set-up time of one fresh process, its interpreter start alone)."""
    probe = _spawn(root)
    return probe["setup_s"], probe["start_s"]


def archived_gate(root: Path) -> list[str]:
    """Run each archived config through the CLI; return the mismatches."""
    problems = []
    for stem, expected_exit in ARCHIVED:
        config, report = root / f"{stem}.json", root / f"{stem}.report.json"
        if not config.is_file() or not report.is_file():
            raise CannotRun(f"archived config {stem} is missing")
        proc = subprocess.run(
            [sys.executable, "-m", "blocklie.cli", "--config", str(config), "--format", "machine"],
            cwd=root,
            env=_env(root),
            capture_output=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != expected_exit:
            problems.append(f"{stem}: exit {proc.returncode}, expected {expected_exit}")
        elif proc.stdout != report.read_bytes():
            problems.append(f"{stem}: report differs from the archived one")
    return problems


def write_jobs(work: Path, workload: str, seed: int, blocks: int) -> list[workloads.Job]:
    jobs = []
    for b in range(blocks):
        jobs.extend(workloads.make_block(workload, seed, b))
    for index, job in enumerate(jobs):
        (work / f"{index:05d}.json").write_text(json.dumps(job.config, indent=1))
    return jobs


def run_batch(root: Path, work: Path, name: str, count: int, seconds: float, min_jobs: int, trace: bool):
    """One child over the first `count` configs; returns (summary, records)."""
    plan = {
        "paths": [str(work / f"{index:05d}.json") for index in range(count)],
        "block": workloads.BLOCK_SIZE,
        "seconds": seconds,
        "min_jobs": min_jobs,
        "out": str(work / f"{name}.jsonl"),
        "trace": str(work / "trace.jsonl") if trace else None,
    }
    plan_path = work / f"{name}.plan.json"
    plan_path.write_text(json.dumps(plan))
    summary = _spawn(root, str(plan_path))
    with open(plan["out"], encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    return summary, records


def _busy(records) -> float:
    """Normalized time the batch spent in jobs: the sum of its job latencies."""
    return sum(r["latency"] * reference.NOMINAL_S / r["ref"] for r in records)


def failures(jobs, records, digests) -> list[str]:
    """One line per job that raised, or whose report fails its oracle or digest."""
    out = []
    for index, (job, record) in enumerate(zip(jobs, records)):
        if "error" in record:
            reason = f"raised {record['error']}"
        else:
            reason = oracles.check(job.oracle, record["report"])
            digest = hashlib.sha256(record["report"].encode()).hexdigest()
            if reason is None and index < len(digests) and digest != digests[index]:
                reason = "report differs from the stored digest"
        if reason is not None:
            out.append(f"job {index} ({job.cls}): {reason}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "blocklie" / "cli.py").is_file():
            raise CannotRun("src/blocklie/cli.py not found; run from a checkout root")
        result = measure(root, args)
    except (CannotRun, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def measure(root: Path, args) -> dict:
    work = root / ".bench_build" / "perfbench" / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stored = json.loads((HERE / "digests.json").read_text())
    digests = stored["workloads"][args.workload] if args.seed == stored["seed"] else []
    unit_of = units(args.trace)

    gate = archived_gate(root)  # also fills the program's bytecode cache
    jobs = write_jobs(work, args.workload, args.seed, TRACE_BLOCKS if args.trace else MAX_BLOCKS)
    problems = []
    if args.trace:
        n = len(jobs)
        plain, plain_records = run_batch(root, work, "untraced", n, 0, n, False)
        summary, records = run_batch(root, work, "traced", n, 0, n, True)
        if [r.get("report") for r in plain_records] != [r.get("report") for r in records]:
            problems.append("traced and untraced reports differ")
        overhead = _busy(records) / _busy(plain_records)
        layers = {**summary["layers"], "trace_overhead": overhead}
        metrics = {name: layers[name] for name in unit_of}
        raw = {}
    else:
        # set-up probes before and after the batch sample more than one host-speed phase
        setups = [_probe_setup(root) for _ in range(SETUP_PROBES // 2)]
        summary, records = run_batch(root, work, "timed", len(jobs), args.seconds, MIN_JOBS, False)
        setups += [_probe_setup(root) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        latencies = [r["latency"] for r in records]
        normalized = [r["latency"] * reference.NOMINAL_S / r["ref"] for r in records]
        metrics = {
            "jobs_per_s": len(records) / _busy(records),
            "job_p50_s": statistics.median(normalized),
            "job_p90_s": statistics.quantiles(normalized, n=10)[8],
            # process start-up does not follow the kernel; each probe's own
            # interpreter start is its reference
            "setup_s": statistics.median(t / s for t, s in setups) * reference.START_NOMINAL_S,
            "peak_rss_mb": summary["maxrss_kb"] / 1024,
        }
        raw = {
            "jobs_per_s": len(records) / sum(latencies),
            "job_p50_s": statistics.median(latencies),
            "job_p90_s": statistics.quantiles(latencies, n=10)[8],
            "setup_s": statistics.median(t for t, _ in setups),
        }
    bad = failures(jobs, records, digests)
    problems += bad + [f"archived-config gate: {line}" for line in gate]
    attempted, failed = summary["jobs"], len(bad)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {attempted} in {summary['wall_s']:.2f} s")
    refs = [r["ref"] for r in records]
    print(f"  host-speed reference kernel: median {statistics.median(refs) * 1e3:.3f} ms, "
          f"nominal {reference.NOMINAL_S * 1e3:.3f} ms; times below are normalized")
    for name, value in metrics.items():
        note = f" (n={attempted})" if name in ("job_p50_s", "job_p90_s") else ""
        if name in raw:
            note += f"  [raw {raw[name]:.6g}]"
        print(f"  {name:48s} {value:.6g} {unit_of[name]}{note}")
    print(f"  {'failed_frac':48s} {failed / attempted:.6g} fraction ({failed} of {attempted})")
    print(f"  archived-config gate: {len(ARCHIVED) - len(gate)}/{len(ARCHIVED)} ok")
    for line in problems[:20]:
        print(f"  FAIL {line}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()
        },
    }


def units(trace: int) -> dict:
    """Metric name -> unit, in BENCHMARK.json order, for the run's mode."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
