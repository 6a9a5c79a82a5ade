"""Self-tests of the benchmark: generator, oracles, tracer and entry point.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Scratch files go under .bench_build/ in the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from blocklie import cli  # noqa: E402

SCRATCH = ROOT / ".bench_build" / "selftest"


def _fresh(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_configs_load(workload, seed):
    work = _fresh(f"load-{workload}-{seed}")
    jobs = run.write_jobs(work, workload, seed, blocks=3)
    for index in range(len(jobs)):
        cli.load_config(str(work / f"{index:05d}.json"))  # raises ConfigError if invalid


def test_blocks_are_pure_functions_of_their_seed():
    for workload in workloads.WORKLOADS:
        first = [j.config for j in workloads.make_block(workload, 7, 3)]
        assert first == [j.config for j in workloads.make_block(workload, 7, 3)]
        assert first != [j.config for j in workloads.make_block(workload, 8, 3)]


def test_generator_skips_unrealizable_singular_index():
    # 2q + (1 - p^2) k vanishes at k = 4 for p = 2, q = 6
    assert workloads.singular_index(Fraction(2), Fraction(6), 40) == 4
    assert workloads.singular_index(Fraction(2), Fraction(6), 3) is None
    assert workloads.singular_index(Fraction(1), Fraction(6), 40) is None
    for seed in range(3):
        for job in workloads.make_block("classify_sweep", seed, 0):
            config = job.config
            if "qp" not in config["weight"]:
                continue
            p, q = Fraction(config["p"]), Fraction(config["q"])
            horizon = config["horizon"] + config.get("max_level", 0)
            k = workloads.singular_index(p, q, horizon)
            terms = [
                ([Fraction(c) for c in t["poly"]], Fraction(t["base"]))
                for t in config["weight"]["qp"]
            ]
            assert k is None or workloads.qp_coefficient(terms, k) == 0


def _report(job: workloads.Job) -> str:
    work = _fresh("oracle")
    path = work / "job.json"
    path.write_text(json.dumps(job.config))
    return cli.emit_report(cli.run_job(cli.load_config(str(path))), "machine")


def test_oracles_reject_wrong_reports():
    blocks = {w: workloads.make_block(w, 1, 0) for w in workloads.WORKLOADS}
    qp = next(j for j in blocks["classify_sweep"] if j.cls == "qp_classify")
    doc = json.loads(_report(qp))
    assert oracles.check(qp.oracle, json.dumps(doc)) is None
    doc["results"]["certificate"]["annihilator"][0] += "1"
    assert oracles.check(qp.oracle, json.dumps(doc)) is not None

    closure = next(j for j in blocks["closure_sweep"] if j.cls == "sparse_pair")
    doc = json.loads(_report(closure))
    assert oracles.check(closure.oracle, json.dumps(doc)) is None
    doc["results"]["basis_by_grade"] = {}
    doc["results"]["dimension"] = 0
    assert oracles.check(closure.oracle, json.dumps(doc)) is not None

    modcheck = next(j for j in blocks["verify_sweep"] if j.cls == "modcheck")
    doc = json.loads(_report(modcheck))
    doc["positive"] = False
    assert oracles.check(modcheck.oracle, json.dumps(doc)) is not None


def _counters(layers: dict) -> dict:
    """Every deterministic per-layer value: counts, not times or shares."""
    return {
        k: v
        for k, v in layers.items()
        if not k.endswith("_s") and not k.startswith("share.")
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_runs_repeat_and_match_untraced(workload):
    work = _fresh(f"trace-{workload}")
    jobs = run.write_jobs(work, workload, 1, blocks=1)
    n = len(jobs)
    plain, plain_records = run.run_batch(ROOT, work, "plain", n, 0, n, False)
    first, first_records = run.run_batch(ROOT, work, "first", n, 0, n, True)
    second, _ = run.run_batch(ROOT, work, "second", n, 0, n, True)
    assert plain["layers"] is None
    assert _counters(first["layers"]) == _counters(second["layers"])
    assert [r["report"] for r in first_records] == [r["report"] for r in plain_records]
    assert run.failures(jobs, first_records, []) == []


def test_run_refuses_a_checkout_without_the_program():
    bare = _fresh("bare")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classify_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
