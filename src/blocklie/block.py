"""The centrally extended Block type Lie algebra with two parameters.

Basis L[a,i] for integer grade a and level i >= 0, plus a central element c:

    [L[a,i], L[b,j]] = ((i+q)(b+p) - (j+q)(a+p)) L[a+b,i+j]
                       + delta_{a+b,0} delta_{i,0} delta_{j,0} (a^3-a)/12 c

The delta-free part is polynomial in the indices and is proved by the
engine's identity check (it is the mu=0 affinization of the Witt-type
Novikov product); the Kronecker-delta cocycle is not polynomial, so its
Jacobi contribution gets a dedicated proof here, over a cocycle given as a
one-variable Poly.

The Laurent realization stores the formal factor t^q unexpanded: monomial
exponents are pairs (q-multiplicity, integer offset) and differentiation
uses (t^(q+n))' = (q+n) t^(q+n-1), so nothing assumes q is an integer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Sequence

from .engine import (
    CENTRAL,
    BracketRule,
    Element,
    Graded,
    Verdict,
    Window,
    _require_grid,
    decide,
    extend_bilinearly,
    first_failure,
    index_ring,
)
from .scalars import Poly, PolyRing, Scalar, accumulate


@dataclass(frozen=True)
class BlockParams:
    """Algebra parameters; a concrete q must be nonzero (q is inverted in the
    Virasoro rescaling).  p = 0 is accepted: it is the regime settled by
    earlier work and is used as the exact cross-check oracle downstream."""

    p: Scalar
    q: Scalar

    def __post_init__(self):
        if not isinstance(self.q, Poly) and Fraction(self.q) == 0:
            raise ValueError("q must be nonzero")


def cocycle_value(grade) -> Fraction:
    """(a^3 - a)/12, the central 2-cocycle evaluated at a grade."""
    return Fraction(grade**3 - grade, 12)


_X = PolyRing("x").var("x")
CUBIC_COCYCLE = (_X**3 - _X) / 12  # `cocycle_value` as a one-variable Poly


def triangular_part(index) -> str:
    """Triangular slot of a basis label: "negative", "zero" or "positive" by
    grade sign; the central element belongs to the zero part."""
    if index is CENTRAL:
        return "zero"
    if index.grade < 0:
        return "negative"
    return "zero" if index.grade == 0 else "positive"


def structure_coefficient(params: BlockParams, x: Graded, y: Graded) -> Scalar:
    """(i+q)(b+p) - (j+q)(a+p) for x = L[a,i], y = L[b,j].

    For rational p = pn/pd and q = qn/qd it is computed over the integers as
    ((i*qd+qn)(b*pd+pn) - (j*qd+qn)(a*pd+pn)) / (pd*qd), with one
    normalization."""
    p, q = params.p, params.q
    if isinstance(p, Poly) or isinstance(q, Poly):
        return (x.level + q) * (y.grade + p) - (y.level + q) * (x.grade + p)
    pn, pd, qn, qd = p.numerator, p.denominator, q.numerator, q.denominator
    return Fraction(
        (x.level * qd + qn) * (y.grade * pd + pn) - (y.level * qd + qn) * (x.grade * pd + pn),
        pd * qd,
    )


def _check_levels(element: Element) -> None:
    for index in element.terms:
        if index is not CENTRAL and index.level < 0:
            raise ValueError(f"negative level in {index}: levels must be >= 0")


def basis_bracket(params: BlockParams, x: Graded, y: Graded) -> Element:
    """Bracket of two basis vectors, cocycle included."""
    label = Graded(x.grade + y.grade, x.level + y.level)
    terms = {label: structure_coefficient(params, x, y)}
    if x.grade + y.grade == 0 and x.level == 0 and y.level == 0:
        terms[CENTRAL] = cocycle_value(x.grade)
    return Element(terms)


def block_bracket(params: BlockParams, x: Element, y: Element) -> Element:
    """Bilinear extension of the bracket; c is central, levels must be >= 0."""
    _check_levels(x)
    _check_levels(y)
    return Element._wrap(extend_bilinearly(partial(basis_bracket, params), x.terms, y.terms))


def block_bracket_rule(params: BlockParams) -> BracketRule:
    """Full bracket (with cocycle) packaged for closure/adjoint machinery.

    It has no terms, since the delta factors are not polynomial, so an
    identity check on it would speak only for its grid.  Every output lands
    at offset (0, 0), the cocycle's c only at a+b = 0, i = j = 0, as the
    `offsets` contract asks.
    """
    return BracketRule(lambda x, y: basis_bracket(params, x, y), offsets=((0, 0),))


def delta_free_rule(params: BlockParams) -> BracketRule:
    """The cocycle-free structure constants, valid for all integer levels;
    this is what the engine's Jacobi proof runs on.  Its one term is
    ((i+q)(b+p) - (j+q)(a+p)) at output offset (0, 0)."""
    ring, (p, q) = index_ring(params.p, params.q)
    a, i, b, j = (ring.var(name) for name in "aibj")
    return BracketRule(
        lambda x, y: Element.basis(
            Graded(x.grade + y.grade, x.level + y.level),
            structure_coefficient(params, x, y),
        ),
        terms=(((0, 0), (i + q) * (b + p) - (j + q) * (a + p)),),
    )


def cocycle_jacobi_check(
    params: BlockParams, grade_values: Sequence, cocycle: Poly = CUBIC_COCYCLE
) -> Verdict:
    """Prove the cocycle's Jacobi contribution; scan the grid for a witness.

    The central component of the Jacobi identity reduces to level-zero
    triples with total grade zero, where it reads

        q(g-b) K(a) + q(a-g) K(b) + q(b-a) K(g) = 0,   g = -a-b,

    for the cocycle K, a Poly in one variable.  The identity is proved as a
    polynomial in a and b by `Poly.compose`.  When the proof fails, the
    residual has per-variable degree at most deg K + 1, so a grid of
    deg K + 2 distinct grades holds a witness; that size is required either
    way (5 for the cubic cocycle).  Failures are reported as the residual
    times c at (a, b, g).
    """
    if len(cocycle.ring.symbols) != 1:
        raise ValueError(f"the cocycle must be a Poly in one variable, got {cocycle}")
    (symbol,) = cocycle.ring.symbols
    _require_grid("grade", grade_values, cocycle.degree_bound(symbol) + 2)
    q = params.q
    ring, (q_poly,) = index_ring(q)
    a, b = ring.var("a"), ring.var("b")
    g = -a - b

    def lifted(x: Poly) -> Poly:
        return cocycle.compose(ring, {symbol: x})

    proof = q_poly * ((g - b) * lifted(a) + (a - g) * lifted(b) + (b - a) * lifted(g))

    def value(x) -> Fraction:
        return cocycle.substitute({symbol: x}).constant_value()

    def residual(t: tuple) -> Element:
        a, b, g = t
        return Element.basis(
            CENTRAL, q * (g - b) * value(a) + q * (a - g) * value(b) + q * (b - a) * value(g)
        )

    triples = ((a, b, -a - b) for a, b in itertools.product(grade_values, repeat=2))
    return decide(proof, triples, residual)


def virasoro_embedding_check(params: BlockParams, window: Window) -> Verdict:
    """Verify the Virasoro relations of the rescaled level-zero generators.

    With V_a = q^-1 L[a,0] and k = q^-2 c the claim is
    [V_a, V_b] = (b-a) V_{a+b} + (a^3-a)/12 delta_{a+b,0} k; both sides are
    compared after clearing q^2, so a symbolic q needs no inverse (q is a
    unit).  A concrete q = 0 is already rejected by BlockParams.  The
    witness is (a, b).
    """

    def residual(t: tuple) -> Element:
        a, b = t
        terms = {Graded(a + b, 0): (b - a) * params.q}
        if a + b == 0:
            terms[CENTRAL] = cocycle_value(a)
        return basis_bracket(params, Graded(a, 0), Graded(b, 0)) - Element(terms)

    level_zero = replace(window, level_max=0).pairs()
    return first_failure(((a, b) for a, _, b, _ in level_zero), residual)


@dataclass(frozen=True)
class _TPower:
    """t^(q_mult*q + offset); the factor t^q stays formal."""

    q_mult: int
    offset: int

    def __mul__(self, other: "_TPower") -> "_TPower":
        return _TPower(self.q_mult + other.q_mult, self.offset + other.offset)

    def d_dt(self, q: Scalar) -> tuple[Scalar, "_TPower"]:
        """The derivative e*t^(e-1) as (e, t^(e-1))."""
        return self.q_mult * q + self.offset, self * _TPower(0, -1)


def laurent_realization_check(params: BlockParams, window: Window) -> Verdict:
    """Compare the bracket against its Laurent realization L[a,i] = x^a t^(q+i).

    The realization bracket of monomials f = t^(q+i), g = t^(q+j) is computed
    by formal differentiation,

        x^(a+b) t^(1-q) ((b+p) f' g - (a+p) f g')
        + delta_{a+b,0} (a^3-a)/12 Res_t(t^(-2q-1) f g) c,

    and both routes must agree as Elements for every window index (a, i, b, j)."""
    p, q = params.p, params.q
    shift, dual = _TPower(-1, 1), _TPower(-2, -1)  # t^(1-q), t^(-2q-1)

    def residual(t: tuple) -> Element:
        a, i, b, j = t
        f, g = _TPower(1, i), _TPower(1, j)
        (ef, df), (eg, dg) = f.d_dt(q), g.d_dt(q)
        terms: dict = {}
        for coeff, power in (((b + p) * ef, df * g * shift), (-(a + p) * eg, f * dg * shift)):
            # t^q appears once, so x^(a+b) t^(q+offset) is L[a+b, offset]
            accumulate(terms, ((Graded(a + b, power.offset), coeff),))
        # Res_t picks the t^-1 coefficient; with t^q formal that needs q_mult 0
        if a + b == 0 and dual * f * g == _TPower(0, -1):
            accumulate(terms, ((CENTRAL, cocycle_value(a)),))
        return basis_bracket(params, Graded(a, i), Graded(b, j)) - Element(terms)

    return first_failure(window.pairs(), residual)


def parabolic_degree_zero(
    params: BlockParams, a: Element, level_max: int
) -> list[Element]:
    """Degree-zero slice of the minimal parabolic subalgebra through `a`.

    For a = sum_i c_i L[-1,i] (nonzero, homogeneous of grade -1) the slice is
    spanned by the images w_j = [a, L[1,j]], which come out cocycle-free as

        w_j = sum_i c_i (2q + i + j + p(i-j)) L[0,i+j],   j = 0..level_max,

    the coefficient being `structure_coefficient` of L[-1,i] and L[1,j]; the
    kernel rows of `hweight.singular_vector_solve` read the same function.
    """
    if a.is_zero():
        raise ValueError("the grade -1 element must be nonzero")
    for index in a.terms:
        if index is CENTRAL or index.grade != -1 or index.level < 0:
            raise ValueError(f"not homogeneous of grade -1: contains {index}")
    images = []
    for j in range(level_max + 1):
        y = Graded(1, j)
        w: dict = {}
        for x, coeff in a.terms.items():
            accumulate(w, ((Graded(0, x.level + j), coeff * structure_coefficient(params, x, y)),))
        images.append(Element(w))
    return images
