"""The centrally extended Block type Lie algebra with two parameters.

Basis L[a,i] for integer grade a and level i >= 0, plus a central element c:

    [L[a,i], L[b,j]] = ((i+q)(b+p) - (j+q)(a+p)) L[a+b,i+j]
                       + delta_{a+b,0} delta_{i,0} delta_{j,0} (a^3-a)/12 c

The delta-free part is polynomial in the indices and is proved by the
engine's identity check (it is the mu=0 affinization of the Witt-type
Novikov product); the Kronecker-delta cocycle is not polynomial, so its
Jacobi contribution gets a dedicated proof here, over the fixed cubic
cocycle `CUBIC_COCYCLE`.  The Virasoro embedding and the Laurent
realization are proved the same way: one polynomial identity for the
delta-free part and one for the cocycle on its stratum a+b = 0, i = j = 0.
All three are theorems of B(p,q) for every p and q, so they read no grid or
window and scan nothing: a proof that fails can come only from a defect in
the bracket's own terms or cocycle, and it raises.

The three proofs run on integers, as the engine's prover does: they read
one lift of their inputs (the parameters, the delta-free term, the cocycle)
over one common denominator D, `BlockParams.lifted`, and build their
residuals as `scalars.Packed` polynomials, whose monomials are packed ints.
A residual is a fixed power of D times the rational one, so it vanishes
with it, and each residual is kept apart, so none can cancel another.

The Laurent realization stores the formal factor t^q unexpanded: monomial
exponents are pairs (q-multiplicity, offset), the offset a Packed
polynomial in the levels, and differentiation uses
(t^(q+n))' = (q+n) t^(q+n-1), so nothing assumes q is an integer.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Iterator, NamedTuple

from .engine import BracketRule, Element, Graded, Verdict, index_ring
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
        dict (so the class has no `__slots__`): a blockcheck's delta-free
        rule, `lifted` and two proofs read it."""
        return _delta_free_terms(self)

    @cached_property
    def lifted(self) -> tuple:
        """The inputs of the three Block proofs lifted once, as (packing, D,
        p, q, cocycle terms, delta-free coefficients): D is the common
        denominator of p, q, `CUBIC_COCYCLE` and the delta-free term's
        coefficients, p and q are Packed constants and the rest terms dicts,
        each times D with int coefficients.  Each monomial of a residual is a
        product of at most one monomial of each input and three index symbols
        (a linear factor, or the a^3 of the Virasoro cocycle), so the packing
        holds the inputs' total degrees plus 3.  It reads `CUBIC_COCYCLE` on
        first use and keeps what it read."""
        ring, (p, q) = index_ring(self.p, self.q)
        inputs = (p, q, CUBIC_COCYCLE, *(coeff for _, coeff in self.delta_free_terms))
        packing = Packing(ring, sum(map(total_degree, inputs)) + 3)
        den, (p_terms, q_terms, k_terms, *coeffs) = lift(*inputs)
        return packing, den, packing.compose(p_terms), packing.compose(q_terms), k_terms, coeffs


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
    return (((0, 0), Poly(ring, accumulate({}, terms))),)


def cocycle_jacobi_check(params: BlockParams) -> Verdict:
    """Prove the cocycle's Jacobi contribution.

    The central component of the Jacobi identity reduces to level-zero
    triples with total grade zero, where it reads

        q(g-b) K(a) + q(a-g) K(b) + q(b-a) K(g) = 0,   g = -a-b,

    for the cocycle K = `CUBIC_COCYCLE`.  The identity is proved as a
    polynomial in a and b over `params.lifted`, and a failed proof raises
    (`_proved`).
    """
    packing, _, _, q, k_terms, _ = params.lifted
    a, b = packing.var("a"), packing.var("b")
    g = -a - b

    def lifted(x: Packed) -> Packed:
        return packing.compose(k_terms, {0: x})

    proof = q * ((g - b) * lifted(a) + (a - g) * lifted(b) + (b - a) * lifted(g))
    return _proved("cocycle Jacobi", [proof])


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
    packing, den, _, q, k_terms, coeffs = params.lifted
    ring = packing.ring
    a, b = packing.var("a"), packing.var("b")
    zero = Packed(packing, {})
    level_zero = {ring.index("i"): zero, ring.index("j"): zero}
    terms = params.delta_free_terms
    graded = accumulate(
        {}, ((offset, packing.compose(c, level_zero)) for (offset, _), c in zip(terms, coeffs))
    )
    accumulate(graded, (((0, 0), q * (b - a)),), -1)
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


def _laurent_proof(params: BlockParams) -> list[Packed]:
    """The residuals of the Laurent realization over the index ring, one per
    output offset, kept apart so that none can cancel another: all zero only
    when the bracket equals its realization at every (a, i, b, j) with
    levels >= 0.

    Everywhere, the delta-free term at offset (0, 0) meets the realization's
    graded terms, each at L[a+b, i+j+dlevel].  The realization's cocycle
    lives where a + b = 0 and Res_t picks t^-1 from t^(-2q-1) f g: t^q must
    cancel and the offset + 1 must vanish.  The realization gives offset + 1
    = i + j, which on levels >= 0 vanishes exactly at i = j = 0, so its
    cocycle K(a) meets the bracket's on the cocycle stratum b = -a, i = j = 0
    and lives nowhere else.  Any other exponent leaves K(a) as one more
    residual, so the proof fails.

    The realization runs on its inputs times D (see `_realization`), so its
    coefficients and the delta-free term times D are D^2 times the rational
    ones, and its offsets are D times the true ones."""
    packing, den, p, q, k_terms, coeffs = params.lifted
    a, i, b, j = (den * packing.var(name) for name in "aibj")
    graded, residue = _realization(p, q, a, i, b, j, den)
    terms = params.delta_free_terms
    by_offset = accumulate(
        {}, ((offset, den * packing.compose(c)) for (offset, _), c in zip(terms, coeffs))
    )
    lands = (((0, (offset - i - j).constant() // den), coeff) for offset, coeff in graded)
    accumulate(by_offset, lands, -1)
    proof = list(by_offset.values())
    if residue.q_mult or residue.offset + den - i - j:
        proof.append(packing.compose(k_terms, {0: packing.var("a")}))
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
