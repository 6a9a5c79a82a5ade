"""The centrally extended Block type Lie algebra with two parameters.

Basis L[a,i] for integer grade a and level i >= 0, plus a central element c:

    [L[a,i], L[b,j]] = ((i+q)(b+p) - (j+q)(a+p)) L[a+b,i+j]
                       + delta_{a+b,0} delta_{i,0} delta_{j,0} (a^3-a)/12 c

The delta-free part is polynomial in the indices and is proved by the
engine's identity check (it is the mu=0 affinization of the Witt-type
Novikov product); the Kronecker-delta cocycle is not polynomial, so its
Jacobi contribution gets a dedicated proof here, over a cocycle given as a
one-variable Poly.  The Virasoro embedding and the Laurent realization are
proved the same way: one polynomial identity for the delta-free part and
one for the cocycle on its stratum a+b = 0, i = j = 0.  Both are theorems of
B(p,q) for every p and q, so they read no window and scan nothing: a proof
that fails can come only from a defect in the bracket's own terms or
cocycle, and it raises.

The three proofs run on integers, as the engine's prover does: each lifts
its inputs (the parameters, the delta-free term, the cocycle) once over one
common denominator D (`_lift`) and builds its residuals as `scalars.Packed`
polynomials, whose monomials are packed ints.  A residual is a fixed power
of D times the rational one, so it vanishes with it, and each residual is
kept apart, so none can cancel another.

The Laurent realization stores the formal factor t^q unexpanded: monomial
exponents are pairs (q-multiplicity, offset), the offset a Packed
polynomial in the levels, and differentiation uses
(t^(q+n))' = (q+n) t^(q+n-1), so nothing assumes q is an integer.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Iterator, NamedTuple, Sequence

from .engine import (
    CENTRAL,
    BracketRule,
    Element,
    Graded,
    Verdict,
    _require_grid,
    decide,
    index_ring,
)
from .scalars import (
    Packed,
    Packing,
    Poly,
    PolyRing,
    Scalar,
    accumulate,
    lift,
    total_degree,
)


class BlockParams(NamedTuple("BlockParams", [("p", Scalar), ("q", Scalar)])):
    """Algebra parameters; a concrete q must be nonzero (q is inverted in the
    Virasoro rescaling).  p = 0 is accepted: it is the regime settled by
    earlier work and is used as the exact cross-check oracle downstream."""

    def __new__(cls, p: Scalar, q: Scalar):
        if not isinstance(q, Poly) and Fraction(q) == 0:
            raise ValueError("q must be nonzero")
        return super().__new__(cls, p, q)

    @cached_property
    def delta_free_terms(self) -> tuple:
        """`_delta_free_terms`, built on first use and kept in the instance
        dict (so the class has no `__slots__`): a blockcheck reads it thrice."""
        return _delta_free_terms(self)


_X = PolyRing("x").var("x")
CUBIC_COCYCLE = (_X**3 - _X) / 12  # the central 2-cocycle (a^3 - a)/12


def structure_numerator(params: BlockParams, x: Graded, y: Graded) -> int:
    """(i*qd+qn)(b*pd+pn) - (j*qd+qn)(a*pd+pn) for x = L[a,i], y = L[b,j] and
    rational p = pn/pd, q = qn/qd: (i+q)(b+p) - (j+q)(a+p) times pd*qd."""
    p, q = params.p, params.q
    pn, pd, qn, qd = p.numerator, p.denominator, q.numerator, q.denominator
    return (x.level * qd + qn) * (y.grade * pd + pn) - (y.level * qd + qn) * (x.grade * pd + pn)


def basis_bracket(params: BlockParams, x: Graded, y: Graded) -> Element:
    """Bracket of two basis vectors, cocycle included: the pair of
    `block_bracket_rule`, whose terms it compiles for this one call."""
    return block_bracket_rule(params).pair(x, y)


def block_bracket_rule(params: BlockParams) -> BracketRule:
    """The full bracket, cocycle included, as the rule that closure jobs take.

    Its terms are `delta_free_rule`'s and its cocycle is `CUBIC_COCYCLE`, so
    the closure brackets it by integer evaluation and its landing columns
    come from the terms.  The Kronecker delta keeps the terms from proving anything
    about the full bracket, so an identity check refuses it.
    """
    return BracketRule(terms=params.delta_free_terms, cocycle=CUBIC_COCYCLE)


def delta_free_rule(params: BlockParams) -> BracketRule:
    """The cocycle-free structure constants, valid for all integer levels;
    this is what the engine's Jacobi proof runs on.  Its one term is the
    structure coefficient at output offset (0, 0) (`_delta_free_terms`)."""
    return BracketRule(terms=params.delta_free_terms)


def _delta_free_terms(params: BlockParams) -> tuple:
    """The structure coefficient (i+q)(b+p) - (j+q)(a+p) over the index ring
    as the one term, at offset (0, 0), in its closed form ib - ja + p(i-j) +
    q(b-a): one terms dict, with p's and q's terms each moved onto one index
    symbol, so no Poly is multiplied."""
    ring, (p, q) = index_ring(params.p, params.q)

    def times(poly: Poly, *names: str) -> Iterator[tuple]:
        # the terms of poly times the named index symbols
        shift = [int(symbol in names) for symbol in ring.symbols]
        return ((tuple(map(add, exps, shift)), c) for exps, c in poly.terms.items())

    one = ring.one
    terms = (
        *times(one, "i", "b"),
        *times(-one, "j", "a"),
        *times(p, "i"),
        *times(-p, "j"),
        *times(q, "b"),
        *times(-q, "a"),
    )
    return (((0, 0), Poly._wrap(ring, accumulate({}, terms))),)


def _lift(ring: PolyRing, *inputs: Poly) -> tuple[Packing, int, list[dict]]:
    """A Block proof's inputs lifted once: (packing, D, terms), where D is
    their common denominator and `terms` each input times D, as ints.  Each
    monomial of a residual is a product of at most one monomial of each
    input and three index symbols (a linear factor, or the a^3 of the
    Virasoro cocycle), so the packing holds the inputs' total degrees plus 3."""
    den, terms = lift(*inputs)
    return Packing(ring, sum(map(total_degree, inputs)) + 3), den, terms


def cocycle_jacobi_check(
    params: BlockParams, grade_values: Sequence, cocycle: Poly = CUBIC_COCYCLE
) -> Verdict:
    """Prove the cocycle's Jacobi contribution; scan the grid for a witness.

    The central component of the Jacobi identity reduces to level-zero
    triples with total grade zero, where it reads

        q(g-b) K(a) + q(a-g) K(b) + q(b-a) K(g) = 0,   g = -a-b,

    for the cocycle K, a Poly in one variable.  The identity is proved as a
    polynomial in a and b, with q and K lifted to integers.  When the proof
    fails, the residual has per-variable degree at most deg K + 1, so a grid of
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
    packing, _, (k_terms, q_terms) = _lift(ring, cocycle, q_poly)
    a, b = packing.var("a"), packing.var("b")
    g = -a - b

    def lifted(x: Packed) -> Packed:
        return packing.compose(k_terms, {0: x})

    jacobi = (g - b) * lifted(a) + (a - g) * lifted(b) + (b - a) * lifted(g)
    proof = packing.compose(q_terms) * jacobi

    def value(x) -> Fraction:
        return cocycle.compose(cocycle.ring, {symbol: x}).constant_value()

    def residual(t: tuple) -> Element:
        a, b, g = t
        return Element.basis(
            CENTRAL, q * (g - b) * value(a) + q * (a - g) * value(b) + q * (b - a) * value(g)
        )

    triples = ((a, b, -a - b) for a, b in itertools.product(grade_values, repeat=2))
    return decide(proof, triples, residual)


def _proved(check: str, residuals: list) -> Verdict:
    """`holds_universally` when every residual of the proof is zero.  The
    check is a theorem of B(p,q), so a nonzero residual can come only from a
    defect in the bracket's own terms or cocycle: it raises, naming the check."""
    if any(residuals):
        raise ValueError(f"the {check} proof fails, so the bracket's terms or cocycle are wrong")
    return Verdict(True)


def virasoro_embedding_check(params: BlockParams) -> Verdict:
    """Prove the Virasoro relations of the rescaled level-zero generators.

    With V_a = q^-1 L[a,0] and k = q^-2 c the claim is
    [V_a, V_b] = (b-a) V_{a+b} + (a^3-a)/12 delta_{a+b,0} k; both sides are
    compared after clearing q^2, so a symbolic q needs no inverse (q is a
    unit).  A concrete q = 0 is already rejected by BlockParams.

    The proof composes the delta-free coefficient at i = j = 0 and subtracts
    q(b-a) at offset (0, 0); on the stratum b = -a it compares the bracket's
    cocycle K(a) with the Virasoro one, (a^3-a)/12, both times 12.  Each
    residual is kept apart, so two cannot cancel, and a nonzero one raises
    (`_proved`).
    """
    ring, (_, q) = index_ring(params.p, params.q)
    terms = params.delta_free_terms
    packing, den, (k_terms, q_terms, *coeffs) = _lift(
        ring, CUBIC_COCYCLE, q, *(coeff for _, coeff in terms)
    )
    a, b = packing.var("a"), packing.var("b")
    zero = Packed(packing, {})
    level_zero = {ring.index("i"): zero, ring.index("j"): zero}
    graded = accumulate(
        {}, ((offset, packing.compose(c, level_zero)) for (offset, _), c in zip(terms, coeffs))
    )
    accumulate(graded, (((0, 0), packing.compose(q_terms) * (b - a)),), -1)
    central = 12 * packing.compose(k_terms, {0: a}) - den * (a * a * a - a)
    return _proved("Virasoro embedding", [*graded.values(), central])


class _TPower(NamedTuple):
    """t^(q_mult*q + offset); the factor t^q stays formal.  The offset is a
    Packed polynomial in the levels, or an int for a power that reads none."""

    q_mult: int
    offset: Packed | int

    def __mul__(self, other: "_TPower") -> "_TPower":
        return _TPower(self.q_mult + other.q_mult, self.offset + other.offset)

    def d_dt(self, q: Packed, one: int) -> tuple:
        """The derivative e*t^(e-1) as (e, t^(e-1)), `one` the unit exponent."""
        return self.q_mult * q + self.offset, self * _TPower(0, -one)


def _realization(p, q, a, i, b, j, one: int) -> tuple[tuple, _TPower]:
    """The realization bracket of x^a f and x^b g, f = t^(q+i), g = t^(q+j),
    for Packed polynomials: its two graded terms (offset, coefficient), each
    x^(a+b) t^(q+offset) since t^q appears once, and the power t^(-2q-1) f g
    whose t^-1 coefficient scales the cocycle.

    The bracket is homogeneous: with every input and the unit exponent
    `one` times D, each offset comes out times D and each coefficient times
    D^2, which lets the proof pass integers for rational p and q."""
    shift, dual = _TPower(-1, one), _TPower(-2, -one)  # t^(1-q), t^(-2q-1)
    f, g = _TPower(1, i), _TPower(1, j)
    (ef, df), (eg, dg) = f.d_dt(q, one), g.d_dt(q, one)
    graded = (((df * g * shift).offset, (b + p) * ef), ((f * dg * shift).offset, -(a + p) * eg))
    return graded, dual * f * g


def _positive_off_origin(poly: Packed, levels: str) -> bool:
    """A sufficient test that `poly` is positive wherever the `levels` are
    nonnegative integers, not all zero: every coefficient is positive, every
    monomial reads only levels, and each level is a monomial of its own."""
    packing = poly.packing
    alone = set(map(packing.monomial, levels))
    reads = {packing.ring.index(name) for name in levels}
    return alone <= poly.terms.keys() and all(
        c > 0 and all(pos in reads for pos, e in enumerate(packing.exponents(m)) if e)
        for m, c in poly.terms.items()
    )


def _laurent_proof(params: BlockParams) -> list[Packed]:
    """The residuals of the Laurent realization over the index ring, one per
    stratum and output offset, kept apart so that none can cancel another:
    all zero only when the bracket equals its realization at every
    (a, i, b, j) with levels >= 0.

    Everywhere, the delta-free term at offset (0, 0) meets the realization's
    graded terms, each at L[a+b, i+j+dlevel].  On the bracket's cocycle
    stratum b = -a, i = j = 0 its cocycle meets the realization's, which
    lives where a + b = 0 and Res_t picks t^-1 from t^(-2q-1) f g: t^q must
    cancel and the offset + 1 must vanish.  That offset + 1 is read from the
    exponent.  When it is positive off the origin of nonnegative levels, the
    residue lives on the cocycle stratum alone; otherwise the realization's
    cocycle off that stratum is one more residual.

    The realization runs on its inputs times D (see `_realization`), so its
    coefficients and the delta-free term times D are D^2 times the rational
    ones, and its offsets are D times the true ones."""
    ring, (p, q) = index_ring(params.p, params.q)
    terms = params.delta_free_terms
    packing, den, (p_terms, q_terms, k_terms, *coeffs) = _lift(
        ring, p, q, CUBIC_COCYCLE, *(coeff for _, coeff in terms)
    )
    a, i, b, j = (den * packing.var(name) for name in "aibj")
    p, q = packing.compose(p_terms), packing.compose(q_terms)
    graded, residue = _realization(p, q, a, i, b, j, den)
    by_offset = accumulate(
        {}, ((offset, den * packing.compose(c)) for (offset, _), c in zip(terms, coeffs))
    )
    lands = (((0, (offset - i - j).constant() // den), coeff) for offset, coeff in graded)
    accumulate(by_offset, lands, -1)
    grade = packing.var("a")
    zero = Packed(packing, {})
    stratum = {"b": -grade, "i": zero, "j": zero}
    cocycle = packing.compose(k_terms, {0: grade})
    rise = residue.offset + den
    realized = cocycle if residue.q_mult == 0 and not rise.compose(stratum) else 0
    proof = [*by_offset.values(), (cocycle - realized).compose(stratum)]
    if residue.q_mult == 0 and not _positive_off_origin(rise, "ij"):
        proof.append(cocycle)
    return proof


def laurent_realization_check(params: BlockParams) -> Verdict:
    """Prove the bracket equals its Laurent realization L[a,i] = x^a t^(q+i).

    The realization bracket of monomials f = t^(q+i), g = t^(q+j) is computed
    by formal differentiation,

        x^(a+b) t^(1-q) ((b+p) f' g - (a+p) f g')
        + delta_{a+b,0} (a^3-a)/12 Res_t(t^(-2q-1) f g) c,

    and both routes must agree as Elements for every index (a, i, b, j):
    proved over the index ring (`_laurent_proof`), and a failed proof raises
    (`_proved`)."""
    return _proved("Laurent realization", _laurent_proof(params))
