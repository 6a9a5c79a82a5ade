"""Quasifinite highest-weight classification for the Block type algebra.

A weight functional is given by its labels at the degree-zero levels,
Lambda_k = Lambda(L[0,k]), plus a central label, or by a quasipolynomial
generator of its series below.  Each job reads one input, built when it
loads (`cli._weight`): classification the series of the labels or of the
generator, which it reads again only to compare annihilators; the
singular-vector solve and the cross-check the labels, given or synthesized
from the generator.  The classification runs through the normalized
generating series

    c_k = k! [z^k] Delta = (2q + (1 - p^2) k) Lambda_k,

because the irreducible highest-weight module is quasifinite exactly when
Delta is a quasipolynomial, i.e. when the c_k satisfy a constant-coefficient
linear recurrence.  Working with the normalized coefficients turns the
differential-equation criterion into minimal-recurrence synthesis, which
Berlekamp-Massey does in time quadratic in the horizon.  The route runs on
integers: a generator's series is accumulated as integers over the one
denominator E * M^horizon (E and M the lcms of its coefficient and base
denominators), and the recurrence search scales a series of given labels by
the lcm of its denominators once.  A recurrence is unchanged when its series
is scaled by a constant, so every certificate is the one exact rational
arithmetic gives; each synthesized label is one Fraction normalization.

The second, independent criterion looks for a degree -1 singular vector
a = sum_i x_i L[-1,i]: the weight must kill the degree-zero slice of the
minimal parabolic subalgebra through a, giving the exact linear system

    M[j,i] = (2q + i + j + p(i-j)) Lambda_{i+j},        M x = 0,

whose kernel is read off the reduced echelon form of `engine._Echelon`.

At p = 0 the matrix rows are shifted series coefficients and the kernel
matches the annihilator; for general nonzero p the two criteria are computed
independently and `criteria_cross_check` reports what it sees.

With only finitely many labels, "not quasifinite" can never be absolute, so
every negative verdict is horizon-qualified.  At singular label indices
(2q + (1-p^2)k = 0) the series carries no information about Lambda_k: a
generator must give c_k = 0 there, else it is unrealizable, and label
synthesis applies the convention Lambda_k = 0.

The central label never enters any verdict: the cocycle vanishes at grade
+-1, so neither Delta nor the singular-vector system sees it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm
from typing import NamedTuple, Sequence

from .block import BlockParams, structure_numerator
from .engine import Graded, _Echelon
from .scalars import RationalLike, format_rational, signed_sum

Coeffs = tuple[Fraction, ...]


class UnrealizableError(ValueError):
    """A quasipolynomial demanding a nonzero series value at a singular index."""


def _poly_strip(coeffs: Sequence[Fraction]) -> Coeffs:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def format_poly(coeffs: Sequence[Fraction], variable: str = "t") -> str:
    """Render an ascending coefficient list as e.g. "t^2 - 2*t + 1"."""
    def monomial(power: int) -> str:
        return "" if power == 0 else variable if power == 1 else f"{variable}^{power}"

    return signed_sum(
        (coeffs[k], monomial(k)) for k in reversed(range(len(coeffs))) if coeffs[k]
    )


class QuasiPolynomial(NamedTuple):
    """Finite sum of f_r(z) * exp(b_r z) with rational polynomial f_r and
    pairwise distinct rational bases b_r; canonical: bases sorted, no zero f."""

    terms: tuple[tuple[Coeffs, Fraction], ...]

    @staticmethod
    def of(terms: Sequence[tuple[Sequence, object]]) -> "QuasiPolynomial":
        merged: dict[Fraction, list[Fraction]] = {}
        for coeffs, base in terms:
            acc = merged.setdefault(Fraction(base), [])
            acc += [Fraction(0)] * (len(coeffs) - len(acc))
            for k, c in enumerate(coeffs):
                acc[k] += Fraction(c)
        polys = ((_poly_strip(merged[base]), base) for base in sorted(merged))
        return QuasiPolynomial(tuple((poly, base) for poly, base in polys if poly))

    def is_zero(self) -> bool:
        return not self.terms

    def scaled_series(self, horizon: int) -> tuple[tuple[int, ...], int]:
        """Integers n_k and D = E * M^horizon with c_k = n_k / D, k = 0..horizon,
        where E and M are the lcms of the coefficient and base denominators."""
        scale = lcm(*(c.denominator for coeffs, _ in self.terms for c in coeffs))
        radix = lcm(*(base.denominator for _, base in self.terms))
        out = [0] * (horizon + 1)
        for coeffs, base in self.terms:
            step = base.numerator * (radix // base.denominator)  # M b
            powers = [1]  # (M b)^0..(M b)^horizon; 0^0 = 1
            for _ in range(horizon):
                powers.append(powers[-1] * step)
            for d, c in enumerate(coeffs):
                if c == 0:
                    continue
                # k! [z^k] z^d e^{bz} = k!/(k-d)! * b^(k-d), times E * M^k
                term = c.numerator * (scale // c.denominator) * radix**d
                falling = factorial(d)
                for k in range(d, horizon + 1):
                    out[k] += term * falling * powers[k - d]
                    falling = falling * (k + 1) // (k + 1 - d)
        lift = [1]  # M^0..M^horizon
        for _ in range(horizon):
            lift.append(lift[-1] * radix)
        # c_k = out[k] / (E M^k), brought to the one denominator E M^horizon
        return tuple(n * m for n, m in zip(out, reversed(lift))), scale * lift[-1]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({format_poly(coeffs, 'z')})*exp({format_rational(base)}*z)"
            for coeffs, base in self.terms
        )


def qp_annihilator(qp: QuasiPolynomial) -> Coeffs:
    """Minimal monic constant-coefficient annihilator prod (t - b)^(deg f + 1),
    multiplied out over the integers as prod (M t - N)^(deg f + 1), b = N/M,
    and divided by its leading coefficient."""
    if qp.is_zero():
        raise ValueError("the zero quasipolynomial has no minimal annihilator")
    out = [1]
    for coeffs, base in qp.terms:
        for _ in coeffs:  # out <- out * (M t - N)
            out = [
                base.denominator * high - base.numerator * low
                for low, high in zip(out + [0], [0] + out)
            ]
    return tuple(Fraction(c, out[-1]) for c in out)


def _label_factor(params: BlockParams) -> tuple[int, int, int]:
    """Integers (a, b, g) with 2q + (1-p^2)k = (a + b k) / g."""
    p, q = Fraction(params.p), Fraction(params.q)
    square = p.denominator**2
    a = 2 * q.numerator * square
    b = (square - p.numerator**2) * q.denominator
    return a, b, q.denominator * square


class DeltaSeries(NamedTuple):
    """Normalized generating-series coefficients c_k = k! [z^k] Delta,
    k = 0..horizon, as coeffs[k] / denominator: exact c_k over 1 from given
    labels, integers over E * M^horizon from a generator.  A recurrence does
    not see the denominator, so the recurrence search never reads it."""

    coeffs: tuple[RationalLike, ...]
    denominator: int = 1

    @property
    def horizon(self) -> int:
        return len(self.coeffs) - 1


def delta_from_labels(labels: Coeffs, params: BlockParams, horizon: int) -> DeltaSeries:
    """c_k = (2q + (1-p^2) k) Lambda_k for k = 0..horizon, exactly."""
    a, b, g = _label_factor(params)
    return DeltaSeries(
        tuple(
            Fraction((a + b * k) * v.numerator, g * v.denominator)
            for k, v in enumerate(labels[: horizon + 1])
        )
    )


def delta_from_quasipolynomial(
    qp: QuasiPolynomial, params: BlockParams, horizon: int
) -> tuple[DeltaSeries, tuple[int, ...]]:
    """The series of a generator (`QuasiPolynomial.scaled_series`) and the
    singular indices, where realizability requires c_k = 0."""
    a, b, _ = _label_factor(params)
    series = DeltaSeries(*qp.scaled_series(horizon))
    singular = tuple(k for k in range(horizon + 1) if a + b * k == 0)
    for k in singular:
        if series.coeffs[k]:
            raise UnrealizableError(
                f"series coefficient must vanish at singular index k={k}, "
                f"got {Fraction(series.coeffs[k], series.denominator)}"
            )
    return series, singular


def labels_from_quasipolynomial(
    qp: QuasiPolynomial, params: BlockParams, horizon: int
) -> tuple[Coeffs, tuple[int, ...]]:
    """Invert the series map: Lambda_k = c_k / (2q + (1-p^2)k) off the singular
    indices, where the convention Lambda_k = 0 applies.  Returns the labels
    Lambda_0..Lambda_horizon and the singular indices."""
    a, b, g = _label_factor(params)
    (coeffs, common), singular = delta_from_quasipolynomial(qp, params, horizon)
    # Lambda_k = (n / D) / ((a + b k) / g), one normalization
    labels = tuple(
        Fraction(n * g, common * (a + b * k)) if a + b * k else Fraction(0)
        for k, n in enumerate(coeffs)
    )
    return labels, singular


class RecurrenceCertificate(NamedTuple):
    """Monic annihilator h with sum_j h_j c_{k+j} = 0 verified for all
    0 <= k <= verified_horizon - deg h."""

    annihilator: Coeffs
    verified_horizon: int

    @property
    def degree(self) -> int:
        return len(self.annihilator) - 1


def detect_linear_recurrence(
    series: DeltaSeries, max_degree: int | None = None
) -> RecurrenceCertificate | None:
    """Minimal-degree monic recurrence satisfied on the whole horizon, if any.

    Berlekamp-Massey (Massey 1969) synthesizes the shortest recurrence in
    O(horizon^2).  Degrees above floor(horizon/2) (and above `max_degree`) do
    not count: that cap keeps every recurrence overdetermined, so a square
    fit with zero verification redundancy is never a detection, and it makes
    the certificate unique, because a minimal recurrence of length L is
    unique when 2L <= horizon.  The annihilator is the reversed connection
    polynomial, padded to degree L and made monic.  The zero series has L = 0
    and gets the degree-1 annihilator t whenever the cap allows a degree 1.
    The verdict is horizon-relative by construction.

    The search is fraction-free: the series is scaled once by the lcm of its
    denominators, and each update C <- last*C - d*x^shift*B of the connection
    polynomial is divided by the gcd of its entries.  Every integer C is then
    a nonzero multiple of the rational one (whose C_0 is 1), so discrepancies
    vanish, and the length changes, at the same steps as over the rationals,
    and dividing by C_0 at the end gives the same certificate.
    """
    coeffs = series.coeffs
    if len(coeffs) < 2:
        raise ValueError("need at least two series coefficients")
    horizon = series.horizon
    limit = horizon // 2
    if max_degree is not None:
        limit = min(limit, max_degree)
    if limit < 1:
        return None
    scale = lcm(*(c.denominator for c in coeffs))
    values = [c.numerator * (scale // c.denominator) for c in coeffs]
    # connection polynomial C (C_0 != 0) with sum_i C_i c_{n-i} = 0 for n >= length;
    # `previous` is C before the last length change, `last` its discrepancy
    connection = [1]
    previous = [1]
    length, shift, last = 0, 1, 1
    for n in range(len(values)):
        discrepancy = sum(c * v for c, v in zip(connection, values[n::-1]))
        if discrepancy == 0:
            shift += 1
            continue
        update = [last * c for c in connection]
        update += [0] * (shift + len(previous) - len(update))
        for i, b in enumerate(previous):
            update[i + shift] -= discrepancy * b
        content = gcd(*update)
        update = [c // content for c in update]
        if 2 * length <= n:
            previous, last, length, shift = connection, discrepancy, n + 1 - length, 1
            if length > limit:  # the length never decreases
                return None
        else:
            shift += 1
        connection = update
    if length == 0:
        return RecurrenceCertificate((Fraction(0), Fraction(1)), horizon)
    padded = (connection + [0] * length)[: length + 1]
    return RecurrenceCertificate(
        tuple(Fraction(c, connection[0]) for c in reversed(padded)), horizon
    )


class SingularCandidate(NamedTuple):
    """Coefficients x_0..x_D of a degree -1 singular-vector candidate
    a = sum_i x_i L[-1,i]; all parabolic degree-zero conditions vanish for
    j = 0..verified_horizon."""

    coefficients: Coeffs
    verified_horizon: int

    def polynomial(self) -> Coeffs:
        """The candidate read as the polynomial sum_i x_i t^i."""
        return _poly_strip(self.coefficients)


def singular_vector_solve(
    labels: Coeffs, params: BlockParams, max_level: int, horizon: int
) -> list[SingularCandidate]:
    """Exact kernel of M[j,i] = (2q + i + j + p(i-j)) Lambda_{i+j},
    j = 0..horizon, i = 0..max_level.

    The rows are the weight applied to the parabolic degree-zero images of
    the candidate, so kernel vectors are exactly the degree -1 elements the
    weight kills."""
    echelon = _Echelon(max_level + 1)
    for row in _kernel_rows(labels[: max_level + horizon + 1], params, max_level, horizon):
        echelon.insert(row)
    return [SingularCandidate(vec, horizon) for vec in echelon.kernel()]


def _kernel_rows(labels: Sequence[Fraction], params: BlockParams, max_level: int, horizon: int):
    """Rows j = 0..horizon of pd*qd*D*M, D the lcm of the label denominators,
    each as {i: int} over its nonzero entries.  The coefficient of L[0,i+j] in
    [L[-1,i], L[1,j]] is read from `block.structure_numerator`, the numerator
    of the structure coefficient."""
    scale = lcm(*(v.denominator for v in labels))
    values = [v.numerator * (scale // v.denominator) for v in labels]
    xs = [Graded(-1, i) for i in range(max_level + 1)]
    for j in range(horizon + 1):
        y = Graded(1, j)
        row = ((i, structure_numerator(params, x, y) * values[i + j]) for i, x in enumerate(xs))
        yield {i: v for i, v in row if v}


class ClassificationReport(NamedTuple):
    verdict: str  # "quasifinite" | "not_quasifinite_up_to_horizon"
    horizon: int
    certificate: RecurrenceCertificate | None
    annihilator: Coeffs | None  # a nonzero generator's only
    certificate_matches_annihilator: bool | None

    @property
    def quasifinite(self) -> bool:
        return self.verdict == "quasifinite"


def classify_quasifinite(
    series: DeltaSeries, generator: QuasiPolynomial | None
) -> ClassificationReport:
    """Quasifinite iff the normalized series admits a linear recurrence on its
    horizon.  `generator` is the quasipolynomial the series was computed
    from (`delta_from_quasipolynomial`), or None for a series of given labels
    (`delta_from_labels`); a nonzero one's closed-form annihilator is compared
    with the certificate."""
    certificate = detect_linear_recurrence(series)
    annihilator = matches = None
    if generator is not None and not generator.is_zero():
        annihilator = qp_annihilator(generator)
        if certificate is not None:
            matches = certificate.annihilator == annihilator
    verdict = "quasifinite" if certificate is not None else "not_quasifinite_up_to_horizon"
    return ClassificationReport(verdict, series.horizon, certificate, annihilator, matches)


class CrossCheckReport(NamedTuple):
    """Both criteria side by side; `annihilator_vs_kernel` compares the monic
    recurrence with each kernel candidate's polynomial."""

    delta_route: bool
    kernel_route: bool
    annihilator_vs_kernel: str  # "equal" | "different" | "not_applicable"
    certificate: RecurrenceCertificate | None
    candidates: tuple[SingularCandidate, ...]

    @property
    def routes_agree(self) -> bool:
        return self.delta_route == self.kernel_route


def criteria_cross_check(
    labels: Coeffs, params: BlockParams, max_level: int, horizon: int
) -> CrossCheckReport:
    """Run the recurrence criterion (degree <= max_level, series horizon
    max_level + horizon) and the singular-vector solve, and compare."""
    series = delta_from_labels(labels, params, max_level + horizon)
    certificate = detect_linear_recurrence(series, max_degree=max_level)
    candidates = singular_vector_solve(labels, params, max_level, horizon)
    if certificate is None or not candidates:
        comparison = "not_applicable"
    else:
        comparison = (
            "equal"
            if any(c.polynomial() == certificate.annihilator for c in candidates)
            else "different"
        )
    return CrossCheckReport(
        certificate is not None,
        bool(candidates),
        comparison,
        certificate,
        tuple(candidates),
    )
