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

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

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


def weight_shift_family(a, b) -> IntermediateKind:
    return IntermediateKind("Aab", Fraction(a), Fraction(b))


def zero_exception_family(a) -> IntermediateKind:
    return IntermediateKind("Aa", Fraction(a))


def diagonal_exception_family(a) -> IntermediateKind:
    return IntermediateKind("Ba", Fraction(a))


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


def _basis_action(
    kind: IntermediateKind, q: Fraction, alpha: int, m: int
) -> tuple[int, Fraction]:
    """L[alpha,0] v_m as (target weight, coefficient)."""
    if kind.variant == "Aab":
        return alpha + m, q * (kind.a + m + kind.b * alpha)
    if kind.variant == "Aa":
        if m != 0:
            return alpha + m, q * (m + alpha)
        return alpha, q * alpha * (kind.a + alpha)
    if m != -alpha:
        return alpha + m, q * m
    return 0, -q * alpha * (kind.a + alpha)


def act(
    kind: IntermediateKind,
    params: BlockParams,
    x: Element,
    v: ModuleVector,
    central_value: Fraction = Fraction(0),
) -> ModuleVector:
    """Linear extension of the family's action formulas.

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
            for m, vc in v.terms.items():
                accumulate(acc, (_basis_action(kind, q, index.grade, m),), scale * vc)
    return ModuleVector._wrap(acc)


def module_axiom_check(
    kind: IntermediateKind,
    params: BlockParams,
    window: Window,
    weight_range: tuple[int, int],
    central_value: Fraction = Fraction(0),
) -> Verdict:
    """Verify [x,y].v = x.(y.v) - y.(x.v) exactly on all window basis pairs.

    Tuples (alpha, beta, i, j, m) run over grades, then levels, then the
    weight.  Orbit filter: beta <= alpha, and at beta = alpha only i < j (the
    residual is antisymmetric in x, y).  The bracket of each basis pair and
    the action of each label on each weight vector are computed once.
    """
    lo, hi = weight_range
    levels = range(window.level_max + 1)
    action = functools.cache(
        lambda label, m: act(
            kind, params, Element.basis(label), ModuleVector.basis(m), central_value
        ).terms
    )

    @functools.cache
    def bracket(alpha, beta, i, j) -> tuple:
        x, y = Graded(alpha, i), Graded(beta, j)
        terms = basis_bracket(params, x, y).terms
        return x, y, [(label, as_fraction(coeff)) for label, coeff in terms.items()]

    def residual(t: tuple) -> ModuleVector:
        # [x,y].v_m - x.(y.v_m) + y.(x.v_m)
        alpha, beta, i, j, m = t
        x, y, terms = bracket(alpha, beta, i, j)
        acc: dict[int, Fraction] = {}
        for label, coeff in terms:
            accumulate(acc, action(label, m).items(), coeff)
        for outer, inner, sign in ((x, y, -1), (y, x, 1)):
            for k, ck in action(inner, m).items():
                accumulate(acc, action(outer, k).items(), sign * ck)
        return ModuleVector._wrap(acc)

    tuples = (
        (alpha, beta, i, j, m)
        for alpha in range(window.grade_min, window.grade_max + 1)
        for beta in range(window.grade_min, alpha + 1)
        for i, j in itertools.product(levels, repeat=2)
        if beta < alpha or i < j
        for m in range(lo, hi + 1)
    )
    return first_failure(tuples, residual)
