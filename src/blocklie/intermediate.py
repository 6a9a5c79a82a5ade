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

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial

from .block import BlockParams, basis_bracket
from .engine import CENTRAL, Element, Graded, Verdict, Window, first_failure
from .scalars import accumulate, as_fraction, format_rational

VARIANTS = ("Aab", "Aa", "Ba")


@dataclass(frozen=True)
class IntermediateKind:
    variant: str
    a: Fraction
    b: Fraction | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown intermediate-series variant {self.variant!r}")
        if (self.variant == "Aab") != (self.b is not None):
            raise ValueError("parameter b is required exactly for the Aab family")


class ModuleVector(Element):
    """Finitely supported combination of the weight basis v_m, m in Z, keyed by
    the integer m; the arithmetic is Element's."""

    __slots__ = ()

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{format_rational(c)}*v[{m}]" for m, c in sorted(self.terms.items())
        )

    def __repr__(self) -> str:
        return f"ModuleVector({self})"


def _basis_action(kind: IntermediateKind, q: Fraction, alpha: int, m: int) -> Fraction:
    """The coefficient with which L[alpha,0] sends v_m to v_{alpha+m}."""
    if kind.variant == "Aab":
        return q * (kind.a + m + kind.b * alpha)
    if kind.variant == "Aa":
        return q * (m + alpha) if m != 0 else q * alpha * (kind.a + alpha)
    return q * m if m != -alpha else -q * alpha * (kind.a + alpha)


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
    q = as_fraction(params.q)
    acc: dict[int, Fraction] = {}
    for index, coeff in x.terms.items():
        scale = as_fraction(coeff)
        if index is CENTRAL:
            accumulate(acc, v.terms.items(), scale * central_value)
        elif index.level <= 0:
            alpha = index.grade
            images = ((alpha + m, _basis_action(kind, q, alpha, m) * c) for m, c in v.terms.items())
            accumulate(acc, images, scale)
    return ModuleVector._wrap(acc)


def module_axiom_check(
    kind: IntermediateKind,
    params: BlockParams,
    window: Window,
    weight_range: tuple[int, int],
    central_value: Fraction = Fraction(0),
) -> Verdict:
    """Verify [x,y].v = x.(y.v) - y.(x.v) exactly on all window basis pairs.

    [L[alpha,i], L[beta,j]] lies at level i + j, so a pair with a positive
    level has residual zero and only x = L[alpha,0], y = L[beta,0] are
    checked.  With A(l, m) the coefficient of l.v_m (`central_value` for c),
    the residual on v_m is r v_{alpha+beta+m}:

        r = sum_{c l in [x,y]} c A(l, m) - A(alpha, beta+m) A(beta, m)
                                         + A(beta, alpha+m) A(alpha, m)

    It is antisymmetric in x, y, so tuples (alpha, beta, 0, 0, m) run over
    beta < alpha in grade order, then over the weight.  Each pair is
    bracketed once, and each A(l, m) at a tuple's own weight m is computed
    once (`own`).  A(alpha, beta+m) and A(beta, alpha+m) are not cached: on a
    wide window with few weights they almost never recur, and a cache of
    them would hold one entry per pair.
    """
    A = partial(_basis_action, kind, as_fraction(params.q))
    own = cache(A)
    lo, hi = weight_range

    @lru_cache(maxsize=1)  # a pair's weights are consecutive tuples
    def bracket(alpha: int, beta: int) -> list[tuple]:
        terms = basis_bracket(params, Graded(alpha, 0), Graded(beta, 0)).terms.items()
        return [(label, as_fraction(c)) for label, c in terms]

    def residual(t: tuple) -> ModuleVector:
        alpha, beta, _, _, m = t
        r = sum(
            c * (central_value if label is CENTRAL else own(label.grade, m))
            for label, c in bracket(alpha, beta)
        )
        r += A(beta, alpha + m) * own(alpha, m) - A(alpha, beta + m) * own(beta, m)
        return ModuleVector({alpha + beta + m: r})

    tuples = (
        (alpha, beta, 0, 0, m)
        for alpha in range(window.grade_min, window.grade_max + 1)
        for beta in range(window.grade_min, alpha)
        for m in range(lo, hi + 1)
    )
    return first_failure(tuples, residual)
