"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each criterion prints its own [PASS]/[FAIL] line (visible with pytest -s);
all expected values are either trivial, derived from independent closed
forms computed here, or frozen report bytes generated once and kept under
version control.
"""

import contextlib
import json
import random
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

from test_engine import adjoint_chain, assert_same_terms
from test_intermediate import (
    diagonal_exception_family,
    weight_shift_family,
    zero_exception_family,
)
from test_novikov import block_sZ_reindex_check

from blocklie.block import (
    BlockParams,
    block_bracket_rule,
    cocycle_jacobi_check,
    laurent_realization_check,
    virasoro_embedding_check,
)
from blocklie.cli import emit_report, load_config, run_job
from blocklie.engine import (
    Element,
    Graded,
    Window,
    grid_identity_check,
)
from blocklie.hweight import (
    classify_quasifinite,
    criteria_cross_check,
    delta_from_labels,
    labels_from_quasipolynomial,
    qp_annihilator,
    QuasiPolynomial,
    singular_vector_solve,
)
from blocklie.intermediate import module_axiom_check
from blocklie.novikov import (
    AffinizationParams,
    WittNovikovParams,
    affinize,
    perturbed_witt_rule,
    theorem22_probe,
    witt_product_rule,
)
from blocklie.scalars import PolyRing

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "golden"
DATA = Path(__file__).resolve().parent / "data"


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def nonzero_rational(rng, span=6, den=4) -> Fraction:
    while True:
        value = Fraction(rng.randint(-span, span), rng.randint(1, den))
        if value != 0:
            return value


def test_criterion_01_axiom_suite_grid_jacobi():
    with criterion(1, "grid Jacobi for the four-parameter family, 25 random draws, < 10 s"):
        rng = random.Random(101)
        started = time.monotonic()
        for _ in range(25):
            params = WittNovikovParams(
                p=nonzero_rational(rng),
                mu=Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                theta=rng.randint(-2, 2),
            )
            q = nonzero_rational(rng)
            rule = affinize(witt_product_rule(params), AffinizationParams(q=q))
            verdict = grid_identity_check(rule, "jacobi", [-1, 0, 1], [0, 1, 2])
            assert verdict.holds, (params, q)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"axiom suite took {elapsed:.2f}s"


def test_criterion_02_theorem22_equivalence_under_mutation():
    with criterion(2, "Novikov verdict and affinized-Jacobi verdict agree on 50 mutations"):
        rng = random.Random(202)
        base = WittNovikovParams(p=Fraction(2), mu=Fraction(1, 2), theta=1)
        aff = AffinizationParams(q=Fraction(1))
        broken = 0
        for _ in range(50):
            target = rng.choice(["main", "shift"])
            exponents = (rng.randint(0, 2), rng.randint(0, 2))
            delta = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            rule = perturbed_witt_rule(base, target, exponents, delta)
            bound = rule.grade_degree_bound
            grades = list(range(-bound, bound + 1))
            report = theorem22_probe(rule, affinize(rule, aff), grades, [0, 1, 2])
            assert report.equivalence_observed, (target, exponents, delta)
            if not report.novikov.holds:
                broken += 1
        assert broken > 0, "mutation sweep never left the Novikov family"


def test_criterion_03_block_sZ_reindexing():
    with criterion(3, "reindexed bracket reproduces the Block s,Z relation for s in {1, 2, 5/2}"):
        window = Window(-3, 3, 3)
        for s in (Fraction(1), Fraction(2), Fraction(5, 2)):
            assert block_sZ_reindex_check(s, window).holds, s


def test_criterion_04_block_algebra_checks():
    with criterion(4, "cocycle Jacobi (symbolic q), Virasoro embedding, Laurent realization"):
        ring = PolyRing("q")
        symbolic = BlockParams(p=Fraction(2), q=ring.var("q"))
        assert cocycle_jacobi_check(symbolic).holds
        for p, q in ((3, 2), (1, 1), (-2, Fraction(1, 2))):
            params = BlockParams(p=Fraction(p), q=Fraction(q))
            assert virasoro_embedding_check(params).holds, (p, q)
            assert laurent_realization_check(params).holds, (p, q)


def closed_form_chain(mu0: int, l1: int, l2: int, q):
    """Independent closed form of the iterated adjoint chain, as terms."""
    coeff = q ** (l1 + l2 - 1)
    for i in range(1, l1 + 1):
        coeff = coeff * (-(i - 1) * mu0 + i - 2)
    for j in range(1, l2):
        coeff = coeff * (-(l1 + j - 1) * mu0 + l1)
    return {Graded(l1 * (1 - mu0) - l2 * mu0, 0): coeff} if coeff else {}


def test_criterion_05_adjoint_chain_closed_form():
    with criterion(5, "adjoint chains match the closed form, 75 cases, q symbolic"):
        ring = PolyRing("q")
        q = ring.var("q")
        params = BlockParams(p=Fraction(7, 3), q=q)
        rule = block_bracket_rule(params)
        cases = 0
        for mu0 in (-1, -2, -3):
            z1 = Element({Graded(1 - mu0, 0): 1})
            z2 = Element({Graded(-mu0, 0): 1})
            for l1 in range(1, 6):
                for l2 in range(1, 6):
                    got = adjoint_chain(rule, z1, z2, l1, l2)
                    assert_same_terms(got, closed_form_chain(mu0, l1, l2, q))
                    cases += 1
        assert cases == 75


SAFE_PARAMS = [
    (Fraction(2), Fraction(1)),
    (Fraction(3), Fraction(2)),
    (Fraction(1, 2), Fraction(1)),
    (Fraction(0), Fraction(1)),
    (Fraction(1), Fraction(5)),
]


def test_criterion_06_classification_round_trip():
    with criterion(6, "10 random quasipolynomials classify quasifinite with exact certificate"):
        rng = random.Random(606)
        done = 0
        while done < 10:
            terms = []
            bases = set()
            for _ in range(rng.randint(1, 3)):
                base = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if base in bases:
                    continue
                bases.add(base)
                degree = rng.randint(0, 2)
                coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(degree)]
                coeffs.append(Fraction(rng.randint(1, 5)))  # leading term nonzero
                terms.append((coeffs, base))
            qp = QuasiPolynomial.of(terms)
            if qp.is_zero():
                continue
            p, q = SAFE_PARAMS[done % len(SAFE_PARAMS)]
            params = BlockParams(p=p, q=q)
            annihilator = qp_annihilator(qp)
            horizon = 2 * (len(annihilator) - 1) + 4
            labels = labels_from_quasipolynomial(qp, params, horizon)[0]
            report = classify_quasifinite(delta_from_labels(labels, params, horizon), qp)
            assert report.verdict == "quasifinite", qp
            assert report.certificate.annihilator == annihilator, qp
            assert report.certificate_matches_annihilator is True
            done += 1


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_criterion_07_negative_controls():
    with criterion(7, "factorial and Fibonacci(k^2) labels are not quasifinite at K = 12"):
        params = BlockParams(p=Fraction(2), q=Fraction(1))
        for labels in (
            [factorial(k) for k in range(13)],
            [fibonacci(k * k) for k in range(13)],
        ):
            series = delta_from_labels(tuple(map(Fraction, labels)), params, 12)
            report = classify_quasifinite(series, None)
            assert report.verdict == "not_quasifinite_up_to_horizon"
            assert report.certificate is None


def test_criterion_08_cross_check_oracle():
    with criterion(8, "p = 0 kernel equals annihilator; p in {2, 1/2} reports archived"):
        params = BlockParams(p=Fraction(0), q=Fraction(1))
        for scale, base in ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(-1)),
                            (Fraction(1, 2), Fraction(1, 3))):
            qp = QuasiPolynomial.of([([scale], base)])
            labels = labels_from_quasipolynomial(qp, params, 10)[0]
            candidates = singular_vector_solve(labels, params, 1, 6)
            assert [c.coefficients for c in candidates] == [(-base, Fraction(1))]
            assert qp_annihilator(qp) == (-base, Fraction(1))
            report = criteria_cross_check(labels, params, 1, 6)
            assert report.routes_agree and report.annihilator_vs_kernel == "equal"
        # the p != 0 regime: emit the reports and compare against the archived
        # data; agreement is recorded, not asserted (open question upstream)
        for name in ("crosscheck_p2", "crosscheck_phalf"):
            config = load_config(str(DATA / f"{name}.json"))
            report = run_job(config)
            archived = (DATA / f"{name}.report.json").read_text()
            assert emit_report(report, "machine") == archived


def test_criterion_09_intermediate_series():
    with criterion(9, "module axioms hold for 20 random draws; central perturbation witness exact"):
        rng = random.Random(909)
        window = Window(-3, 3, 2)
        for _ in range(20):
            params = BlockParams(p=nonzero_rational(rng), q=nonzero_rational(rng))
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for kind in (
                weight_shift_family(a, b),
                zero_exception_family(a),
                diagonal_exception_family(a),
            ):
                assert module_axiom_check(kind, params, window, (-6, 6)).holds, (
                    params,
                    kind,
                )
        perturbed = module_axiom_check(
            weight_shift_family(Fraction(1, 2), Fraction(0)),
            BlockParams(p=Fraction(3), q=Fraction(1)),
            Window(-2, 2, 1),
            (-2, 2),
            central_value=Fraction(1),
        )
        assert not perturbed.holds
        assert perturbed.witness[:4] == (2, -2, 0, 0)


JOB_CONFIGS = {
    "axioms": {"job": "axioms", "p": "2", "mu": "3", "theta": 1},
    "affinize": {
        "job": "affinize",
        "p": "2",
        "mu": "1/2",
        "theta": 1,
        "q": "1",
        "mutations": {"count": 3, "seed": 9},
    },
    "blockcheck": {
        "job": "blockcheck",
        "p": "3",
        "q": "2",
        "window": {"grade_min": -3, "grade_max": 3, "level_max": 1},
    },
    "classify": {
        "job": "classify",
        "p": "2",
        "q": "1",
        "horizon": 10,
        "weight": {"qp": [{"poly": ["2"], "base": "1"}], "central": "0"},
    },
    "singular": {
        "job": "singular",
        "p": "0",
        "q": "1",
        "max_level": 1,
        "horizon": 6,
        "weight": {"qp": [{"poly": ["1"], "base": "2"}], "central": "0"},
    },
    "crosscheck": {
        "job": "crosscheck",
        "p": "0",
        "q": "1",
        "max_level": 1,
        "horizon": 6,
        "weight": {"qp": [{"poly": ["1"], "base": "2"}], "central": "0"},
    },
    "closure": {
        "job": "closure",
        "p": "1",
        "q": "1",
        "window": {"grade_min": 0, "grade_max": 6, "level_max": 0},
        "generators": ["L[1,0]", "L[2,0]"],
        "membership": ["L[4,0]", "c"],
    },
    "modcheck": {
        "job": "modcheck",
        "p": "3",
        "q": "1",
        "family": "Aab",
        "a": "1/2",
        "b": "0",
        "window": {"grade_min": -2, "grade_max": 2, "level_max": 1},
        "weight_range": [-3, 3],
    },
}


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical machine reports for every job kind on re-run"):
        for name, payload in JOB_CONFIGS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            config_a = load_config(str(path))
            config_b = load_config(str(path))
            first = emit_report(run_job(config_a), "machine")
            second = emit_report(run_job(config_b), "machine")
            assert first == second, name
            text_a = emit_report(run_job(config_a), "text")
            text_b = emit_report(run_job(config_b), "text")
            assert text_a == text_b, name
        for name in ("classify_qp", "axioms_witt", "crosscheck_p0"):
            config = load_config(str(GOLDEN / f"{name}.json"))
            frozen = (GOLDEN / f"{name}.report.json").read_text()
            assert emit_report(run_job(config), "machine") == frozen, name
