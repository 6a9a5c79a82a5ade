"""The three families of intermediate-series modules over the Block algebra.

All three share the basis {v_m | m in Z}; every graded piece is a line, which
is what makes them intermediate series (uniformly bounded with bound 1).
Only the level-zero generators act; L[alpha,i] with i > 0 and the central
element act as zero.  With q the algebra parameter and rational a, b:

    Aab:  L[alpha,0] v_m = q(a + m + b*alpha) v_{alpha+m}
    Aa:   L[alpha,0] v_m = q(m + alpha) v_{alpha+m}        (m != 0)
          L[alpha,0] v_0 = q*alpha(a + alpha) v_alpha
    Ba:   L[alpha,0] v_m = q*m v_{alpha+m}                 (m != -alpha)
          L[alpha,0] v_{-alpha} = -q*alpha(a + alpha) v_0

The parameter p never enters the action; the axiom check ranges over p to
confirm that.  The central element must act as zero: the bracket of opposite
level-zero generators contains the cocycle, and a nonzero central action
breaks the commutator identity (module_axiom_check exhibits the witness).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from math import lcm

from .block import BlockParams
from .engine import CENTRAL, Element, Verdict, Window, first_failure
from .scalars import accumulate, as_fraction

VARIANTS = ("Aab", "Aa", "Ba")


class IntermediateKind:
    """A family of VARIANTS and its parameters; b is given exactly for Aab.
    The loader checks both (`cli._validate_modcheck`).  Treat instances as
    immutable."""

    __slots__ = ("variant", "a", "b")

    def __init__(self, variant: str, a: Fraction, b: Fraction | None = None):
        self.variant, self.a, self.b = variant, a, b


class ModuleVector(Element):
    """Finitely supported combination of the weight basis v_m, m in Z, keyed by
    the integer m.  It prints only as a failed check's residual, which is
    never zero, with every coefficient written out: "1*v[0] + 2/3*v[1]"."""

    __slots__ = ()

    def __str__(self) -> str:
        return " + ".join(
            f"{c}*v[{m}]" for m, c in sorted(self.terms.items())
        )


def _scaled(kind: IntermediateKind, q: Fraction) -> tuple[int, int, int, int]:
    """(q, a, b, 1) times d, the common denominator of q, a and b (b = 0 in
    the families without it): the integers that `_basis_action` reads."""
    values = (q, kind.a, kind.b or 0, 1)
    d = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (d // v.denominator) for v in values)


def _basis_action(kind: IntermediateKind, scaled: tuple, alpha: int, m: int) -> int:
    """d^2 times the coefficient with which L[alpha,0] sends v_m to
    v_{alpha+m}, from the family's integer parameters `scaled` (`_scaled`)."""
    q, a, b, d = scaled
    if kind.variant == "Aab":
        return q * (a + d * m + b * alpha)
    if kind.variant == "Aa":
        return q * d * (m + alpha) if m != 0 else q * alpha * (a + d * alpha)
    return q * d * m if m != -alpha else -q * alpha * (a + d * alpha)


def act(
    kind: IntermediateKind,
    params: BlockParams,
    x: Element,
    v: ModuleVector,
    central_value: Fraction = Fraction(0),
) -> ModuleVector:
    """Linear extension of the family's action formulas: L[alpha,0] sends v_m
    to v_{alpha+m}, L[alpha,i] with i > 0 acts as zero.

    `central_value` is the scalar by which c acts; the modules themselves
    require 0 (the default), and the nonzero setting exists so the axiom
    check can demonstrate why."""
    scaled = _scaled(kind, as_fraction(params.q))
    acc: dict[int, Fraction] = {}
    for index, coeff in x.terms.items():
        scale = as_fraction(coeff)
        if index is CENTRAL:
            accumulate(acc, v.terms.items(), scale * central_value)
        elif index.level <= 0:
            alpha = index.grade
            images = (
                (alpha + m, _basis_action(kind, scaled, alpha, m) * c) for m, c in v.terms.items()
            )
            accumulate(acc, images, scale / scaled[3] ** 2)
    return ModuleVector(acc)


def module_axiom_check(
    kind: IntermediateKind,
    params: BlockParams,
    window: Window,
    weight_range: tuple[int, int],
    central_value: Fraction = Fraction(0),
) -> Verdict:
    """Verify [x,y].v = x.(y.v) - y.(x.v) exactly on all window basis pairs
    and weights; a verdict that holds holds on the window.

    [L[alpha,i], L[beta,j]] lies at level i + j, so a pair with a positive
    level has residual zero and only x = L[alpha,0], y = L[beta,0] are
    checked.  Their bracket is q(beta-alpha) L[alpha+beta,0], plus
    (alpha^3-alpha)/12 c on alpha+beta = 0 (`block`).  With A(l, m) the
    coefficient of l.v_m (`central_value` for c), the residual on v_m is
    r v_{alpha+beta+m}:

        r = sum_{c l in [x,y]} c A(l, m) - A(alpha, beta+m) A(beta, m)
                                         + A(beta, alpha+m) A(alpha, m)

    It is antisymmetric in x, y, so tuples (alpha, beta, 0, 0, m) run over
    beta < alpha in grade order, then over the weight.

    The loop multiplies only ints.  With d the common denominator of q, a
    and b, `_basis_action` returns A d^2, so r times 12 den(central_value)
    d^4 is an integer; a Fraction is built only for a witness's residual.
    Each A(l, m) at a tuple's own weight m is computed once (`own`).
    A(alpha, beta+m) and A(beta, alpha+m) are not cached: on a wide window
    with few weights they almost never recur, and a cache of them would hold
    one entry per pair.
    """
    scaled = _scaled(kind, as_fraction(params.q))
    qd, _, _, d = scaled
    A = partial(_basis_action, kind, scaled)
    own = cache(A)
    lo, hi = weight_range
    # r times 12 den(central_value) d^4, where each A carries d^2 and q is qd/d
    twelve = 12 * central_value.denominator
    graded = twelve * qd * d
    central = central_value.numerator * d**4
    denominator = twelve * d**4

    def residual(t: tuple):
        alpha, beta, _, _, m = t
        r = graded * (beta - alpha) * own(alpha + beta, m)
        r += twelve * (A(beta, alpha + m) * own(alpha, m) - A(alpha, beta + m) * own(beta, m))
        if alpha + beta == 0:
            r += (alpha**3 - alpha) * central
        return r and ModuleVector({alpha + beta + m: Fraction(r, denominator)})

    tuples = (
        (alpha, beta, 0, 0, m)
        for alpha in range(window.grade_min, window.grade_max + 1)
        for beta in range(window.grade_min, alpha)
        for m in range(lo, hi + 1)
    )
    return first_failure(tuples, residual, "on_window")
