"""Differential tests of the two exact solvers in the classification.

`detect_linear_recurrence` runs Berlekamp-Massey; the oracle here is the
degree-by-degree search it replaced, which solves a fresh overdetermined
system for each degree 1..floor(horizon/2) and takes the canonical solution
(free variables zero).  `engine._Echelon.kernel` is checked against a
standalone reduced-echelon kernel.  Neither oracle shares code with the
program.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklie.engine import _Echelon
from blocklie.hweight import DeltaSeries, QuasiPolynomial, detect_linear_recurrence

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)


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
horizons = st.integers(1, 40)
max_degrees = st.one_of(st.none(), st.integers(0, 6))
qp_terms = st.lists(
    st.tuples(st.lists(rationals, min_size=1, max_size=3), st.integers(-3, 3)),
    min_size=1,
    max_size=3,
)


@st.composite
def series(draw):
    horizon = draw(horizons)
    kind = draw(st.sampled_from(["qp", "dense", "sparse", "perturbed", "zero"]))
    if kind in ("qp", "perturbed"):
        coeffs = list(QuasiPolynomial.of(draw(qp_terms)).series(horizon))
        if kind == "perturbed":
            k = draw(st.integers(0, horizon))
            coeffs[k] += draw(rationals.filter(bool))
    elif kind == "dense":
        coeffs = draw(st.lists(rationals, min_size=horizon + 1, max_size=horizon + 1))
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
        echelon.insert({k: v for k, v in enumerate(row) if v})
    kernel = echelon.kernel()
    assert kernel == _kernel_basis(rows, width)
    for vec in kernel:
        assert all(sum(r * x for r, x in zip(row, vec)) == 0 for row in rows)
