import itertools
import json
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_block import parabolic_degree_zero
from test_recurrence import SETTINGS, fraction_series, qp_series, qp_terms, rationals

from blocklie.block import BlockParams
from blocklie.cli import load_config, run_job
from blocklie.engine import Element, Graded
from blocklie.hweight import (
    DeltaSeries,
    QuasiPolynomial,
    UnrealizableError,
    _kernel_rows,
    _label_factor,
    classify_quasifinite,
    criteria_cross_check,
    delta_from_labels,
    delta_from_quasipolynomial,
    detect_linear_recurrence,
    format_poly,
    labels_from_quasipolynomial,
    qp_annihilator,
    singular_vector_solve,
)


def singular_indices(params: BlockParams, horizon: int) -> tuple[int, ...]:
    """Indices k <= horizon where 2q + (1-p^2)k vanishes (at most one)."""
    a, b, _ = _label_factor(params)
    return tuple(k for k in range(horizon + 1) if a + b * k == 0)


P21 = BlockParams(p=Fraction(2), q=Fraction(1))
P01 = BlockParams(p=Fraction(0), q=Fraction(1))


def qp_exp(scale, base):
    return QuasiPolynomial.of([([scale], base)])


def as_labels(values) -> tuple[Fraction, ...]:
    """Given labels as the label tuple the routes take."""
    return tuple(map(Fraction, values))


def synthesized(qp, params, horizon) -> tuple[Fraction, ...]:
    """The labels synthesized from `qp`."""
    return labels_from_quasipolynomial(qp, params, horizon)[0]


def test_delta_from_labels_examples():
    labels = as_labels([1, -2, Fraction(-1, 2)])
    assert delta_from_labels(labels, P21, 2).coeffs == (2, 2, 2)
    assert delta_from_labels(labels, P21, 1).coeffs == (2, 2)
    zero = as_labels([0, 0, 0])
    assert delta_from_labels(zero, P21, 2).coeffs == (0, 0, 0)
    # p = 1 kills the second sum: c_k = 2q * Lambda_k
    p1 = BlockParams(p=Fraction(1), q=Fraction(3))
    labels = as_labels([5, 7, -1])
    assert delta_from_labels(labels, p1, 2).coeffs == (30, 42, -6)


def test_labels_from_quasipolynomial_examples():
    assert labels_from_quasipolynomial(qp_exp(2, 1), P21, 2) == ((1, -2, Fraction(-1, 2)), ())

    p34 = BlockParams(p=Fraction(3), q=Fraction(4))
    assert singular_indices(p34, 5) == (1,)
    constant = qp_exp(1, 0)  # the constant function 1
    assert labels_from_quasipolynomial(constant, p34, 4) == ((Fraction(1, 8), 0, 0, 0, 0), (1,))

    zero = QuasiPolynomial.of([])
    assert labels_from_quasipolynomial(zero, P21, 3)[0] == (0, 0, 0, 0)


def test_delta_from_quasipolynomial_examples():
    # 2 e^{z/2}: c_k = 2 (1/2)^k over the one denominator 2^2
    series, singular = delta_from_quasipolynomial(qp_exp(2, Fraction(1, 2)), P21, 2)
    assert series == ((8, 4, 2), 4) and singular == ()
    assert all(type(c) is int for c in series.coeffs)
    p34 = BlockParams(p=Fraction(3), q=Fraction(4))
    series, singular = delta_from_quasipolynomial(qp_exp(1, 0), p34, 4)
    assert series.coeffs == (1, 0, 0, 0, 0) and singular == (1,)
    zero = QuasiPolynomial.of([])
    assert delta_from_quasipolynomial(zero, P21, 3)[0].coeffs == (0, 0, 0, 0)


def test_unrealizable_quasipolynomial_names_the_index():
    p34 = BlockParams(p=Fraction(3), q=Fraction(4))
    for synthesize in (labels_from_quasipolynomial, delta_from_quasipolynomial):
        with pytest.raises(UnrealizableError, match="k=1, got 1/3$"):
            synthesize(qp_exp(Fraction(1, 3), 1), p34, 3)


def test_quasipolynomial_series_coefficients():
    # z*e^z has k![z^k] = k for k >= 1
    qp = QuasiPolynomial.of([([0, 1], 1)])
    assert qp_series(qp, 7) == (0, 1, 2, 3, 4, 5, 6, 7)
    # bases merge and zero polynomials drop
    qp = QuasiPolynomial.of([([1], 2), ([Fraction(1, 2)], 2), ([0], 5)])
    assert qp.terms == (((Fraction(3, 2),), Fraction(2)),)


def test_detect_linear_recurrence_examples():
    cert = detect_linear_recurrence(DeltaSeries(tuple(map(Fraction, [2] * 6))))
    assert cert.annihilator == (-1, 1)
    assert cert.verified_horizon == 5

    cert = detect_linear_recurrence(DeltaSeries(tuple(map(Fraction, range(8)))))
    assert cert.annihilator == (1, -2, 1)
    assert format_poly(cert.annihilator) == "t^2 - 2*t + 1"

    facts = DeltaSeries(tuple(Fraction(factorial(k)) for k in range(8)))
    assert detect_linear_recurrence(facts) is None


def test_zero_series_certificate_is_t():
    cert = detect_linear_recurrence(DeltaSeries(tuple(map(Fraction, [0] * 6))))
    assert cert.annihilator == (0, 1)
    assert format_poly(cert.annihilator) == "t"


def test_qp_annihilator_examples():
    assert qp_annihilator(qp_exp(2, 1)) == (-1, 1)
    assert qp_annihilator(QuasiPolynomial.of([([0, 1], 1)])) == (1, -2, 1)
    assert qp_annihilator(QuasiPolynomial.of([([1], 2), ([1], 0)])) == (0, -2, 1)
    with pytest.raises(ValueError):
        qp_annihilator(QuasiPolynomial.of([]))


def test_singular_vector_solve_geometric_case():
    # Lambda_k = 2^k/(2+k) synthesized from Delta = e^{2z} at p=0, q=1
    labels = synthesized(qp_exp(1, 2), P01, 10)
    assert labels[:3] == (Fraction(1, 2), Fraction(2, 3), 1)
    candidates = singular_vector_solve(labels, P01, 1, 3)
    assert len(candidates) == 1
    assert candidates[0].coefficients == (-2, 1)
    assert candidates[0].verified_horizon == 3


def test_singular_vector_solve_zero_weight():
    zero = as_labels([0, 0, 0])
    candidates = singular_vector_solve(zero, P21, 0, 2)
    assert [c.coefficients for c in candidates] == [(1,)]


def test_singular_vector_solve_generic_weight_has_no_kernel():
    rng = random.Random(31337)
    labels = as_labels(Fraction(rng.randint(1, 50), rng.randint(1, 7)) for _ in range(6))
    assert singular_vector_solve(labels, P21, 1, 4) == []


def test_singular_matrix_rows_are_weight_of_parabolic_images():
    # each entry M[j,i] of the kernel matrix, as singular_vector_solve builds
    # it, is the weight of the image w_j of L[-1,i] and the closed form
    labels = [Fraction(k * k + 1, 3) for k in range(9)]
    max_level, horizon = 2, 4

    def weight_of(elem: Element) -> Fraction:
        return sum(
            (labels[idx.level] * coeff for idx, coeff in elem.terms.items()),
            Fraction(0),
        )

    for p, q in ((Fraction(5, 2), Fraction(-3)), (0, 1), (Fraction(2, 3), Fraction(-5, 7))):
        params = BlockParams(p=p, q=q)
        rows = list(_kernel_rows(labels, params, max_level, horizon))
        # the rows are integers: M scaled by pd*qd and the labels' lcm denominator
        den = Fraction(p).denominator * Fraction(q).denominator * 3  # each label is n/3
        for i in range(max_level + 1):
            images = parabolic_degree_zero(params, Element.basis(Graded(-1, i)), horizon)
            column = [weight_of(w) for w in images]
            expected = [
                (2 * q + i + j + p * (i - j)) * labels[i + j] for j in range(horizon + 1)
            ]
            assert column == expected
            assert column == [Fraction(row.get(i, 0), den) for row in rows]


def test_classify_quasifinite_generator_mode():
    qp = qp_exp(2, 1)
    report = classify_quasifinite(delta_from_quasipolynomial(qp, P21, 10)[0], qp)
    assert report.verdict == "quasifinite"
    assert report.horizon == 10
    assert report.certificate.annihilator == (-1, 1)
    assert report.annihilator == (-1, 1)
    assert report.certificate_matches_annihilator is True


@st.composite
def generator_cases(draw):
    """A quasipolynomial, horizon and parameters: p = 0, or p != 0 with a
    singular index k inside the horizon, where three draws in four cancel
    c_k so that the generator is realizable."""
    qp = QuasiPolynomial.of(draw(qp_terms))
    horizon = draw(st.integers(1, 40))
    if draw(st.booleans()):
        return qp, BlockParams(p=Fraction(0), q=draw(rationals.filter(bool))), horizon
    p = draw(rationals.filter(lambda p: p * p not in (0, 1)))
    k = draw(st.integers(1, horizon))  # 2q + (1-p^2)k = 0
    params = BlockParams(p=p, q=(p * p - 1) * k / 2)
    if draw(st.integers(0, 3)):
        # z^k/k! * e^{0z} has series 1 at k and 0 elsewhere: cancel c_k
        c_k = fraction_series(qp, horizon)[k]
        qp = QuasiPolynomial.of(qp.terms + (([0] * k + [-c_k / factorial(k)], 0),))
    return qp, params, horizon


@SETTINGS
@given(generator_cases())
def test_integer_series_route_matches_labels_route(case):
    # the oracle classifies the series of the labels synthesized from the
    # generator, as classify did before it read the generator's series
    qp, params, horizon = case
    try:
        labels, singular = labels_from_quasipolynomial(qp, params, horizon)
    except UnrealizableError as exc:
        with pytest.raises(UnrealizableError) as raised:
            delta_from_quasipolynomial(qp, params, horizon)
        assert str(raised.value) == str(exc)
        return
    expected = classify_quasifinite(delta_from_labels(labels, params, horizon), qp)
    series, singular_too = delta_from_quasipolynomial(qp, params, horizon)
    assert singular_too == singular
    assert all(type(c) is int for c in series.coeffs)
    assert classify_quasifinite(series, qp) == expected


def test_classify_factorial_labels_not_quasifinite():
    labels = as_labels(factorial(k) for k in range(10))
    report = classify_quasifinite(delta_from_labels(labels, P21, 9), None)
    assert report.verdict == "not_quasifinite_up_to_horizon"
    assert report.certificate is None


def test_classify_zero_weight():
    report = classify_quasifinite(delta_from_labels(as_labels([0] * 11), P21, 10), None)
    assert report.verdict == "quasifinite"
    assert report.certificate.annihilator == (0, 1)


def test_round_trip_reproduces_series_off_singular_indices():
    rng = random.Random(2718)
    for _ in range(10):
        terms = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))
            ]
            base = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            terms.append((coeffs, base))
        qp = QuasiPolynomial.of(terms)
        horizon = 9
        params = P21  # no singular indices: 2 - 3k never vanishes on integers
        series = delta_from_labels(synthesized(qp, params, horizon), params, horizon)
        assert series.coeffs == qp_series(qp, horizon)


@pytest.mark.parametrize(
    "p,q,singular",
    [(3, 4, 1), (Fraction(1, 3), Fraction(-4, 9), 1), (Fraction(1, 2), -3, 8)],
)
def test_round_trip_reproduces_series_at_a_singular_index(p, q, singular):
    rng = random.Random(1414)
    params = BlockParams(p=Fraction(p), q=Fraction(q))
    horizon = 12
    assert singular_indices(params, horizon) == (singular,)
    for _ in range(10):
        terms = []
        for _ in range(rng.randint(1, 3)):
            coeffs = [
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))
            ]
            terms.append((coeffs, Fraction(rng.randint(-7, 7), rng.randint(1, 5))))
        # z^s / s! * e^{0z} has series 1 at k = s and 0 elsewhere: cancel c_s
        c_s = qp_series(QuasiPolynomial.of(terms), horizon)[singular]
        terms.append(([0] * singular + [-c_s / factorial(singular)], 0))
        qp = QuasiPolynomial.of(terms)
        series = qp_series(qp, horizon)
        assert series[singular] == 0
        labels, singulars = labels_from_quasipolynomial(qp, params, horizon)
        assert singulars == (singular,)
        assert labels[singular] == 0
        p_, q_ = params.p, params.q
        assert all(
            (2 * q_ + (1 - p_ * p_) * k) * labels[k] == series[k] for k in range(horizon + 1)
        )
        # the synthesized labels give the series back
        assert delta_from_labels(labels, params, horizon).coeffs == series


def _poly_divides(d, n):
    n = list(n)
    d = list(d)
    while len(n) >= len(d) and any(n):
        factor = n[-1] / d[-1]
        shift = len(n) - len(d)
        for k, c in enumerate(d):
            n[shift + k] -= factor * c
        while n and n[-1] == 0:
            n.pop()
    return not any(n)


def test_certificate_is_minimal_and_divides_annihilator():
    rng = random.Random(5151)
    for _ in range(8):
        terms = []
        used_bases = set()
        for _ in range(rng.randint(1, 3)):
            base = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if base in used_bases:
                continue
            used_bases.add(base)
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 3))]
            terms.append((coeffs, base))
        qp = QuasiPolynomial.of(terms)
        if qp.is_zero():
            continue
        annihilator = qp_annihilator(qp)
        degree = len(annihilator) - 1
        horizon = 2 * degree + 4
        cert = detect_linear_recurrence(DeltaSeries(qp_series(qp, horizon)))
        assert cert is not None
        assert cert.annihilator == annihilator
        # on shorter (but still overdetermined) horizons the detected
        # recurrence still divides the closed-form annihilator
        for shorter in range(2 * degree, horizon):
            partial = detect_linear_recurrence(DeltaSeries(qp_series(qp, shorter)))
            if partial is not None:
                assert _poly_divides(partial.annihilator, annihilator)


def test_criteria_cross_check_p0_oracle():
    report = criteria_cross_check(synthesized(qp_exp(1, 2), P01, 10), P01, 1, 6)
    assert report.delta_route and report.kernel_route
    assert report.routes_agree
    assert report.annihilator_vs_kernel == "equal"
    assert report.certificate.annihilator == (-2, 1)
    assert [c.coefficients for c in report.candidates] == [(-2, 1)]


def test_criteria_cross_check_zero_weight():
    report = criteria_cross_check(as_labels([0] * 9), P21, 1, 6)
    assert report.delta_route and report.kernel_route
    assert report.annihilator_vs_kernel == "equal"


def test_criteria_cross_check_p2_disagreement_is_reported_not_patched():
    report = criteria_cross_check(synthesized(qp_exp(2, 1), P21, 10), P21, 1, 6)
    assert report.delta_route is True
    assert report.kernel_route is False
    assert not report.routes_agree
    assert report.annihilator_vs_kernel == "not_applicable"


def test_p0_kernel_is_exactly_series_annihilation():
    # at p=0 a vector x lies in the kernel for all j <= J iff the polynomial
    # f(t) = sum x_i t^i annihilates the normalized series to order J
    params = P01
    qp = QuasiPolynomial.of([([1, 1], 2)])  # (1+z)e^{2z}, annihilator (t-2)^2
    horizon = 12
    labels = synthesized(qp, params, horizon)
    series = qp_series(qp, horizon)
    max_level, j_max = 2, 6

    def annihilates(vec):
        return all(
            sum(vec[i] * series[i + j] for i in range(len(vec))) == 0
            for j in range(j_max + 1)
        )

    candidates = singular_vector_solve(labels, params, max_level, j_max)
    assert candidates, "expected the (t-2)^2 kernel vector"
    for cand in candidates:
        assert annihilates(cand.coefficients)
    assert candidates[0].polynomial() == (4, -4, 1)
    assert not annihilates((1, 0, 0))


def test_central_label_never_enters_any_verdict(tmp_path):
    # a config's weight.central is echoed, and no route reads it
    weights = ({"qp": [{"poly": ["1"], "base": "2"}]}, {"labels": [str(k) for k in range(9)]})
    shapes = {"classify": {"horizon": 8}, "singular": {"max_level": 1, "horizon": 5}}
    shapes["crosscheck"] = shapes["singular"]
    for (job, shape), weight in itertools.product(shapes.items(), weights):
        results = []
        for central in ("0", "17/3"):
            payload = {"job": job, "p": "0", "q": "1", **shape}
            payload["weight"] = {**weight, "central": central}
            path = tmp_path / "config.json"
            path.write_text(json.dumps(payload))
            report = run_job(load_config(str(path)))
            assert report.config["weight"]["central"] == central
            results.append(report.results)
        assert results[0] == results[1], (job, weight)
