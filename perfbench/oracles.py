"""Per-job correctness checks on machine reports.

Every check holds for any seed: it follows from how the generator built the
job (a quasipolynomial's closed-form annihilator, a generator's membership in
its own closure, the Witt family being Novikov, ...), and it recomputes what
it can with the benchmark's own exact arithmetic instead of trusting the
report.  `check` returns None for a correct report, else a one-line reason.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import normalizer, qp_coefficient

_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?(?:L\[(-?\d+),(-?\d+)\]|(c))")


def _rationals(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def parse_element(text: str) -> dict:
    """Element text as printed in reports ("2*L[1,0] - 1/3*L[-2,4] + c")."""
    compact = text.replace(" ", "")
    out: dict = {}
    pos = 0
    for match in _TERM.finditer(compact):
        if match.start() != pos:
            break
        sign, coeff, grade, level, central = match.groups()
        value = Fraction(coeff or 1) * (-1 if sign == "-" else 1)
        key = "c" if central else (int(grade), int(level))
        out[key] = out.get(key, Fraction(0)) + value
        pos = match.end()
    if pos != len(compact) or not compact:
        raise ValueError(f"unparsable element {text!r}")
    return out


def _order(key):
    return (1, 0, 0) if key == "c" else (0, *key)


def in_span(vector: dict, rows: list[dict]) -> bool:
    """Exact test that `vector` is a linear combination of `rows`."""
    basis: list[tuple] = []  # (pivot, row with 1 at pivot), in insertion order

    def reduce(row: dict) -> dict:
        row = {k: v for k, v in row.items() if v}
        for pivot, brow in basis:
            factor = row.get(pivot)
            if factor:
                for k, v in brow.items():
                    row[k] = row.get(k, Fraction(0)) - factor * v
                row = {k: v for k, v in row.items() if v}
        return row

    for row in rows:
        row = reduce(row)
        if row:
            pivot = min(row, key=_order)
            inv = row[pivot]
            basis.append((pivot, {k: v / inv for k, v in row.items()}))
    return not reduce(vector)


def _labels(oracle: dict) -> list[Fraction]:
    """Lambda_k = c_k / (2q + (1-p^2)k), and 0 at a singular index."""
    p, q = oracle["p"], oracle["q"]
    out = []
    for k in range(oracle["max_level"] + oracle["horizon"] + 1):
        denom = normalizer(p, q, k)
        out.append(qp_coefficient(oracle["terms"], k) / denom if denom else Fraction(0))
    return out


def _kernel_residual(oracle: dict, labels: list[Fraction], coefficients: list[Fraction]) -> bool:
    """True when x solves M x = 0, M[j,i] = (2q + i + j + p(i-j)) Lambda_{i+j}."""
    p, q = oracle["p"], oracle["q"]
    for j in range(oracle["horizon"] + 1):
        total = sum(
            (2 * q + i + j + p * (i - j)) * labels[i + j] * x
            for i, x in enumerate(coefficients)
        )
        if total:
            return False
    return True


def _verdicts_hold(results: dict, names, label: str = "holds_universally"):
    for name in names:
        if results[name]["verdict"] != label:
            return f"{name} verdict {results[name]['verdict']}"
    return None


def _check(oracle: dict, doc: dict):
    kind = oracle["kind"]
    results = doc["results"]
    positive = doc["positive"]
    if kind == "classify_qp":
        if results["verdict"] != "quasifinite" or not positive:
            return f"quasipolynomial weight classified {results['verdict']}"
        if results["certificate_matches_annihilator"] is not True:
            return "certificate does not match the generator's annihilator"
        if _rationals(results["certificate"]["annihilator"]) != oracle["annihilator"]:
            return "certificate differs from the closed-form annihilator"
        return None
    if kind == "classify_labels":
        cert = results["certificate"]
        if cert is None:
            ok = results["verdict"] == "not_quasifinite_up_to_horizon" and not positive
            return None if ok else "negative verdict reported inconsistently"
        h = _rationals(cert["annihilator"])
        p, q = oracle["p"], oracle["q"]
        series = [normalizer(p, q, k) * lab for k, lab in enumerate(oracle["labels"])]
        for k in range(len(series) - len(h) + 1):
            if sum(h[j] * series[k + j] for j in range(len(h))):
                return f"certificate fails on the series at k={k}"
        return None if positive else "certificate found but verdict negative"
    if kind in ("crosscheck", "singular"):
        vectors = (
            results["kernel"]
            if kind == "crosscheck"
            else [c["coefficients"] for c in results["candidates"]]
        )
        labels = _labels(oracle) if vectors else []
        for vec in vectors:
            if not _kernel_residual(oracle, labels, _rationals(vec)):
                return "kernel vector does not solve the singular-vector system"
        expected_dim = oracle["max_level"] - (len(oracle["annihilator"]) - 1) + 1
        if kind == "singular":
            if results["kernel_dimension"] != len(vectors) or positive != bool(vectors):
                return "kernel dimension or verdict inconsistent"
            if oracle["p"] == 0 and len(vectors) != expected_dim:
                return f"p = 0 kernel dimension {len(vectors)}, expected {expected_dim}"
            return None
        if not results["delta_route"] or _rationals(
            results["certificate"]["annihilator"]
        ) != oracle["annihilator"]:
            return "recurrence route missed the closed-form annihilator"
        agree = results["routes_agree"]
        if positive != (agree and results["annihilator_vs_kernel"] != "different"):
            return "crosscheck verdict inconsistent with its routes"
        if oracle["p"] == 0 and not (agree and results["annihilator_vs_kernel"] == "equal"):
            return "p = 0 routes disagree"
        return None
    if kind == "closure":
        rows = [parse_element(r) for rs in results["basis_by_grade"].values() for r in rs]
        if results["dimension"] != len(rows):
            return "closure dimension differs from its basis size"
        for k, gen in enumerate(oracle["generators"]):
            if not in_span(gen, rows):
                return f"generator {k} is not in its own closure"
        if not all(m["member"] for m in results["membership"]) or not positive:
            return "a generator combination is not a member"
        return None
    if kind == "axioms":
        failure = _verdicts_hold(results, ("left_symmetry", "right_commutativity"))
        return failure or (None if positive else "negative verdict")
    if kind == "affinize":
        base = results["base"]
        mutations = results.get("mutations", {"all_equivalence_observed": True})
        if not base["equivalence_observed"] or not mutations["all_equivalence_observed"]:
            return "Novikov/Jacobi equivalence not observed"
        failure = _verdicts_hold(base["novikov"], ("left_symmetry", "right_commutativity"))
        failure = failure or _verdicts_hold(base, ("jacobi_of_affinization",))
        return failure or (None if positive else "negative verdict")
    if kind == "blockcheck":
        failure = _verdicts_hold(
            results,
            ("cocycle_jacobi", "virasoro_embedding", "laurent_realization", "delta_free_jacobi"),
        )
        return failure or (None if positive else "negative verdict")
    if kind == "modcheck":
        if results["module_axiom"]["verdict"] != "holds" or not positive:
            return "module axiom fails"
        return None
    raise ValueError(f"no oracle for {kind!r}")


def check(oracle: dict, report: str):
    """None if the machine report passes the job's oracle, else the reason."""
    try:
        return _check(oracle, json.loads(report))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
