"""Differential tests of the exact solvers in the classification.

`detect_linear_recurrence` runs fraction-free Berlekamp-Massey over the
integers.  Its oracles here are the degree-by-degree search that preceded
Berlekamp-Massey, which solves a fresh overdetermined system for each degree
1..floor(horizon/2) and takes the canonical solution (free variables zero),
and Berlekamp-Massey over Fraction, which preceded the integer version.
`QuasiPolynomial.scaled_series` accumulates integers; its oracle, through
`qp_series`, is the per-term Fraction loop it replaced.  `qp_annihilator`
multiplies integer linear factors; its oracle is the Fraction polynomial
product it replaced.  `engine._Echelon.kernel`, over integer rows, is
checked against a standalone reduced-echelon kernel over Fraction.  No oracle
shares code with the program.
"""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_closure import integer_row

from blocklie.engine import _Echelon
from blocklie.hweight import (
    DeltaSeries,
    QuasiPolynomial,
    RecurrenceCertificate,
    detect_linear_recurrence,
    qp_annihilator,
)

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def qp_series(qp: QuasiPolynomial, horizon: int) -> tuple[Fraction, ...]:
    """Normalized coefficients c_k = k! [z^k] of `qp`, k = 0..horizon."""
    numerators, common = qp.scaled_series(horizon)
    return tuple(Fraction(n, common) for n in numerators)


def _solve_exact(rows, rhs):
    """Canonical solution (free variables zero) of an overdetermined exact
    system, or None if inconsistent."""
    width = len(rows[0]) if rows else 0
    aug = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    pivots = []
    rank = 0
    for col in range(width):
        pivot_row = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        inv = aug[rank][col]
        aug[rank] = [v / inv for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    for r in range(rank, len(aug)):
        if aug[r][width] != 0:
            return None
    solution = [Fraction(0)] * width
    for r, col in enumerate(pivots):
        solution[col] = aug[r][width]
    return solution


def degree_search(coeffs, max_degree=None):
    """Annihilator (ascending, monic) of the lowest degree 1..cap, or None."""
    horizon = len(coeffs) - 1
    limit = horizon // 2
    if max_degree is not None:
        limit = min(limit, max_degree)
    for degree in range(1, limit + 1):
        rows = [[coeffs[k + j] for j in range(degree)] for k in range(horizon - degree + 1)]
        rhs = [-coeffs[k + degree] for k in range(horizon - degree + 1)]
        solution = _solve_exact(rows, rhs)
        if solution is not None:
            return tuple(solution) + (Fraction(1),)
    return None


def fraction_berlekamp_massey(
    series: DeltaSeries, max_degree: int | None = None
) -> RecurrenceCertificate | None:
    """Berlekamp-Massey over Fraction, as `detect_linear_recurrence` ran it
    before the integer version (same cap, same padding)."""
    coeffs = series.coeffs
    if len(coeffs) < 2:
        raise ValueError("need at least two series coefficients")
    horizon = series.horizon
    limit = horizon // 2
    if max_degree is not None:
        limit = min(limit, max_degree)
    if limit < 1:
        return None
    # connection polynomial C (C_0 = 1) with sum_i C_i c_{n-i} = 0 for n >= length;
    # `previous` is C before the last length change, `last` its discrepancy
    connection = [Fraction(1)]
    previous = [Fraction(1)]
    length, shift, last = 0, 1, Fraction(1)
    for n in range(len(coeffs)):
        discrepancy = sum(
            connection[i] * coeffs[n - i] for i in range(min(len(connection), n + 1))
        )
        if discrepancy == 0:
            shift += 1
            continue
        factor = discrepancy / last
        update = connection + [Fraction(0)] * (shift + len(previous) - len(connection))
        for i, b in enumerate(previous):
            update[i + shift] -= factor * b
        if 2 * length <= n:
            previous, last, length, shift = connection, discrepancy, n + 1 - length, 1
            if length > limit:  # the length never decreases
                return None
        else:
            shift += 1
        connection = update
    if length == 0:
        return RecurrenceCertificate((Fraction(0), Fraction(1)), horizon)
    padded = (connection + [Fraction(0)] * length)[: length + 1]
    return RecurrenceCertificate(tuple(reversed(padded)), horizon)


def fraction_series(self: QuasiPolynomial, horizon: int) -> tuple[Fraction, ...]:
    """Normalized coefficients c_k = k! [z^k] of this function, k = 0..horizon,
    summed term by term over Fraction, as `QuasiPolynomial.series` did before
    it accumulated integers."""
    out = [Fraction(0)] * (horizon + 1)
    for coeffs, base in self.terms:
        powers = [Fraction(1)]  # b^0..b^horizon; 0^0 = 1
        for _ in range(horizon):
            powers.append(powers[-1] * base)
        for d, c in enumerate(coeffs):
            if c == 0:
                continue
            falling = factorial(d)
            for k in range(d, horizon + 1):
                # k! [z^k] z^d e^{bz} = k!/(k-d)! * b^(k-d)
                out[k] += c * falling * powers[k - d]
                falling = falling * (k + 1) // (k + 1 - d)
    return tuple(out)


def poly_mul(a, b) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def fraction_annihilator(qp: QuasiPolynomial) -> tuple[Fraction, ...]:
    """prod (t - b)^(deg f + 1) multiplied out over Fraction, as
    `qp_annihilator` did before it multiplied integers."""
    out = (Fraction(1),)
    for coeffs, base in qp.terms:
        for _ in coeffs:
            out = poly_mul(out, (-base, Fraction(1)))
    return out


def _kernel_basis(rows, width):
    """Reduced-echelon kernel basis; each vector has entry 1 at its own free
    column and 0 at later free columns."""
    aug = [row[:] for row in rows]
    pivots = []
    rank = 0
    for col in range(width):
        pivot_row = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        inv = aug[rank][col]
        aug[rank] = [v / inv for v in aug[rank]]
        for r in range(len(aug)):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [Fraction(0)] * width
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -aug[r][free]
        basis.append(tuple(vec))
    return basis


def certificate_of(coeffs, max_degree=None):
    cert = detect_linear_recurrence(DeltaSeries(tuple(coeffs)), max_degree=max_degree)
    return None if cert is None else cert.annihilator


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
wide_rationals = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 97))
horizons = st.integers(1, 40)
max_degrees = st.one_of(st.none(), st.integers(0, 6))
# bases with denominators 1..5 (several at once make the lcm M > 5), base 0
# (the 0^0 = 1 convention), and the empty quasipolynomial
bases = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
)
qp_terms = st.lists(
    st.tuples(st.lists(rationals, min_size=1, max_size=3), bases),
    min_size=0,
    max_size=3,
)


@st.composite
def series(draw):
    horizon = draw(horizons)
    kind = draw(
        st.sampled_from(["qp", "dense", "dense_wide", "sparse", "perturbed", "zero"])
    )
    if kind in ("qp", "perturbed"):
        coeffs = list(qp_series(QuasiPolynomial.of(draw(qp_terms)), horizon))
        if kind == "perturbed":
            k = draw(st.integers(0, horizon))
            coeffs[k] += draw(rationals.filter(bool))
    elif kind in ("dense", "dense_wide"):
        values = rationals if kind == "dense" else wide_rationals
        coeffs = draw(st.lists(values, min_size=horizon + 1, max_size=horizon + 1))
    elif kind == "sparse":
        values = st.sampled_from([Fraction(v) for v in (0, 0, 0, 1, -1, -2)])
        coeffs = draw(st.lists(values, min_size=horizon + 1, max_size=horizon + 1))
    else:
        coeffs = [Fraction(0)] * (horizon + 1)
    return coeffs


@SETTINGS
@given(series(), max_degrees)
def test_berlekamp_massey_matches_degree_search(coeffs, max_degree):
    cert = detect_linear_recurrence(DeltaSeries(tuple(coeffs)), max_degree=max_degree)
    expected = degree_search(coeffs, max_degree)
    if expected is None:
        assert cert is None
    else:
        assert cert.annihilator == expected
        assert all(isinstance(v, Fraction) for v in cert.annihilator)
        assert cert.verified_horizon == len(coeffs) - 1


@SETTINGS
@given(series(), max_degrees)
def test_integer_berlekamp_massey_matches_fraction_version(coeffs, max_degree):
    delta = DeltaSeries(tuple(coeffs))
    cert = detect_linear_recurrence(delta, max_degree=max_degree)
    assert cert == fraction_berlekamp_massey(delta, max_degree)
    if cert is not None:
        assert all(type(c) is Fraction for c in cert.annihilator)


@SETTINGS
@given(qp_terms, st.integers(0, 40))
def test_integer_series_matches_fraction_loop(terms, horizon):
    qp = QuasiPolynomial.of(terms)
    got = qp_series(qp, horizon)
    assert got == fraction_series(qp, horizon)
    assert all(type(c) is Fraction for c in got)


@SETTINGS
@given(qp_terms.map(QuasiPolynomial.of).filter(lambda qp: not qp.is_zero()))
def test_integer_annihilator_matches_fraction_product(qp):
    got = qp_annihilator(qp)
    assert got == fraction_annihilator(qp)
    assert all(type(c) is Fraction for c in got)


def test_series_of_base_zero_and_of_the_empty_quasipolynomial():
    # 0^0 = 1: (1 + 3z) e^{0z} has c_0 = 1, c_1 = 3 and nothing after
    assert qp_series(QuasiPolynomial.of([([1, 3], 0)]), 4) == (1, 3, 0, 0, 0)
    assert qp_series(QuasiPolynomial.of([]), 3) == (0, 0, 0, 0)


def test_zero_series_gets_t_when_the_cap_allows_degree_one():
    assert certificate_of([Fraction(0)] * 6) == (0, 1)


def test_zero_series_at_horizon_one_has_no_certificate():
    # the cap floor(1/2) = 0 admits no degree at all
    assert certificate_of([Fraction(0)] * 2) is None


def test_max_degree_zero_has_no_certificate():
    assert certificate_of([Fraction(2)] * 8, max_degree=0) is None
    assert certificate_of([Fraction(0)] * 8, max_degree=0) is None


def test_recurrence_longer_than_the_cap_has_no_certificate():
    # c_k = 2^k + k^2 needs degree 4 (annihilator (t-2)(t-1)^3)
    coeffs = [Fraction(2**k + k * k) for k in range(12)]
    assert certificate_of(coeffs, max_degree=3) is None
    assert certificate_of(coeffs[:7]) is None  # cap floor(6/2) = 3
    assert certificate_of(coeffs) == (2, -7, 9, -5, 1)


@pytest.mark.parametrize("coeffs", [(), (Fraction(1),)])
def test_fewer_than_two_coefficients_raise(coeffs):
    with pytest.raises(ValueError):
        detect_linear_recurrence(DeltaSeries(coeffs))


@st.composite
def matrices(draw):
    """Rows spanned by `rank` random vectors, mostly fewer than the width."""
    width = draw(st.integers(1, 6))
    rank = draw(st.integers(0, width))
    vector = st.lists(rationals, min_size=width, max_size=width)
    spanning = draw(st.lists(vector, min_size=rank, max_size=rank))
    mix = st.lists(rationals, min_size=rank, max_size=rank)
    rows = [
        [sum((m * v[i] for m, v in zip(weights, spanning)), Fraction(0)) for i in range(width)]
        for weights in draw(st.lists(mix, max_size=8))
    ]
    return rows, width


@SETTINGS
@given(matrices())
def test_echelon_kernel_matches_reduced_echelon_oracle(case):
    rows, width = case
    echelon = _Echelon(width)
    for row in rows:
        echelon.insert(integer_row(row))
    kernel = echelon.kernel()
    assert kernel == _kernel_basis(rows, width)
    for vec in kernel:
        assert all(sum(r * x for r, x in zip(row, vec)) == 0 for row in rows)
