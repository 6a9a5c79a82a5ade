"""Witt-type Novikov algebras and their affinization into graded Lie algebras.

The product family on Witt labels x_a (stored as Graded(a, 0)) is

    x_a * x_b = (b + p) x_{a+b} + mu x_{a+b+theta}

with rational or symbolic p, mu and an integer shift theta.  Affinization
turns any bilinear product rule into a bracket on two-index labels,

    [a[m], b[n]] = (m + q)(a*b)[m+n] - (n + q)(b*a)[m+n],

which is a Lie bracket exactly when the product is Novikov (left-symmetric
plus right-commutative).  `theorem22_probe` observes that biconditional
instead of assuming it, so a counterexample would surface as data.

A closed-form rule also carries its product as `terms`, pairs (dgrade,
coefficient Poly over the grades a, b and the parameters), so the axioms and
the affinized Jacobi identity are proved as polynomial identities, one per
output offset, before any grid point is evaluated, and only a proof holds
universally.  The grid scans run only to find a witness when a proof fails,
and for table rules, which hold on the tested grid only (`engine.decide`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .engine import (
    BracketRule,
    Element,
    Graded,
    Verdict,
    Window,
    _require_grid,
    decide,
    degree_in,
    extend_bilinearly,
    first_failure,
    grid_identity_check,
    index_ring,
    normalize_index_values,
)
from .scalars import Poly, Scalar, accumulate


@dataclass(frozen=True)
class WittNovikovParams:
    p: Scalar
    mu: Scalar = 0
    theta: int = 0

    def __post_init__(self):
        if not isinstance(self.theta, int):
            raise ValueError("theta must be an integer shift")


@dataclass(frozen=True)
class ProductRule:
    """Bilinear product of two Witt labels (grades only).

    `terms`, when given, is the same product in exact form: pairs (dgrade,
    coefficient), where the coefficient is a Poly over the parameters and
    the grades a, b of x_a, x_b (see `engine.index_ring`) and the output is
    x_{a+b+dgrade}.  `pair` must agree with it.  `grade_degree_bound` is read
    from it (the largest degree in a or b of any offset's summed coefficient,
    0 without terms), and only a rule with terms can hold universally.
    """

    pair: Callable[[int, int], Element]
    terms: tuple[tuple[int, Poly], ...] | None = None
    grade_degree_bound: int = field(default=0, init=False)

    def __post_init__(self):
        if self.terms is not None:
            bound = degree_in(accumulate({}, self.terms), "ab")
            object.__setattr__(self, "grade_degree_bound", bound)


@dataclass(frozen=True)
class AffinizationParams:
    q: Scalar  # q = 0 is permitted here; downstream algebras may restrict it


def witt_novikov_product(params: WittNovikovParams, a, b) -> Element:
    """(b + p) x_{a+b} + mu x_{a+b+theta}, exactly."""
    terms = (
        (Graded(a + b, 0), b + params.p),
        (Graded(a + b + params.theta, 0), params.mu),
    )
    return Element(accumulate({}, terms))


def witt_product_rule(params: WittNovikovParams) -> ProductRule:
    ring, (p, mu) = index_ring(params.p, params.mu)
    return ProductRule(
        lambda a, b: witt_novikov_product(params, a, b),
        terms=((0, ring.var("b") + p), (params.theta, mu)),
    )


def perturbed_witt_rule(
    params: WittNovikovParams,
    target: str,
    exponents: tuple[int, int],
    delta: Scalar,
) -> ProductRule:
    """Witt-type rule with `delta * a^ea * b^eb` added to one coefficient.

    `target` picks the term: "main" perturbs the (b+p) coefficient of
    x_{a+b}, "shift" perturbs the mu coefficient of x_{a+b+theta}.
    """
    if target not in ("main", "shift"):
        raise ValueError(f"unknown perturbation target {target!r}")
    ea, eb = exponents
    if ea < 0 or eb < 0:
        raise ValueError("perturbation exponents must be nonnegative")

    shift = 0 if target == "main" else params.theta

    def pair(a, b) -> Element:
        bump = delta * a**ea * b**eb
        out = witt_novikov_product(params, a, b)
        return out + Element.basis(Graded(a + b + shift, 0), bump)

    ring, (p, mu, scale) = index_ring(params.p, params.mu, delta)
    a, b = ring.var("a"), ring.var("b")
    terms = ((0, b + p), (params.theta, mu), (shift, scale * a**ea * b**eb))
    return ProductRule(pair, terms)


def table_product_rule(entries: dict[tuple[int, int], Element]) -> ProductRule:
    """Product given extensionally on a small index window.

    Index pairs absent from the table multiply to zero (finite-support
    convention).  A table has no terms, so axiom verdicts on it hold only
    for the tested grid, never universally.
    """
    table = dict(entries)

    def pair(a, b) -> Element:
        return table.get((a, b), Element.zero())

    return ProductRule(pair)


def product_apply(rule: ProductRule, x: Element, y: Element) -> Element:
    """Bilinear extension of a product rule to Witt Elements."""
    return extend_bilinearly(lambda ix, iy: rule.pair(ix.grade, iy.grade), x, y)


@dataclass(frozen=True)
class NovikovVerdicts:
    left_symmetry: Verdict
    right_commutativity: Verdict

    @property
    def holds(self) -> bool:
        return self.left_symmetry.holds and self.right_commutativity.holds


def _axiom_residuals(terms) -> tuple[dict, dict]:
    """The left-symmetry and right-commutativity residuals of a product's
    terms at x_a, x_b, x_c, each as {total output offset: Poly over the
    grades}; a residual is empty exactly when its axiom holds for all grades.
    """
    if not terms:
        return {}, {}
    ring = terms[0][1].ring
    a, b, c = ring.var("a"), ring.var("b"), ring.var("c")

    def at(first, second) -> list[tuple]:  # x_first x_second; output grade first+second+offset
        images = {"a": first, "b": second}
        return [(offset, coeff.compose(ring, images)) for offset, coeff in terms]

    def assoc(sign: int, first, second, third) -> list[tuple]:
        # sign * ((x_first x_second) x_third)
        return [
            (o1 + o2, sign * c1 * c2)
            for o1, c1 in at(first, second)
            for o2, c2 in at(first + second + o1, third)
        ]

    def left(sign: int, first, second, third) -> list[tuple]:
        # sign * (x_first (x_second x_third))
        return [
            (o1 + o2, sign * c1 * c2)
            for o1, c1 in at(second, third)
            for o2, c2 in at(first, second + third + o1)
        ]

    abc = assoc(1, a, b, c)
    left_symmetry = abc + left(-1, a, b, c) + assoc(-1, b, a, c) + left(1, b, a, c)
    return accumulate({}, left_symmetry), accumulate({}, abc + assoc(-1, a, c, b))


def novikov_axiom_check(
    rule: ProductRule, grade_values: Sequence
) -> NovikovVerdicts:
    """Decide left symmetry (ab)c - a(bc) = (ba)c - b(ac) and right
    commutativity (ab)c = (ac)b: by proof where the rule has terms, by grid
    scan for the witness and for rules without.

    A rule with terms proves each axiom from them (`_axiom_residuals`).
    Otherwise the grid is scanned and the first failing triple is the
    witness.  A residual has per-variable degree at most twice the rule's
    bound, so 2*bound + 1 grid values hold a witness of any failed proof;
    the size is required either way (see `engine.decide` for the scope).

    Orbit filters: left symmetry is evaluated only where a comes before b in
    the grid and right commutativity only where b comes before c; each
    residual changes sign when those two slots swap and is zero when they
    are equal."""
    _require_grid("grade", grade_values, 2 * rule.grade_degree_bound + 1)
    grade_values = normalize_index_values(grade_values)
    left_proof, right_proof = (None, None) if rule.terms is None else _axiom_residuals(rule.terms)

    # grade pairs recur across grid points; cache their product terms
    prod_terms = functools.cache(lambda a, b: rule.pair(a, b).terms)

    def add_assoc(acc: dict, sign: int, first, second, third) -> None:
        # sign * ((x_first x_second) x_third)
        for mid, cm in prod_terms(first, second).items():
            accumulate(acc, prod_terms(mid.grade, third).items(), sign * cm)

    def add_left(acc: dict, sign: int, first, second, third) -> None:
        # sign * (x_first (x_second x_third))
        for mid, cm in prod_terms(second, third).items():
            accumulate(acc, prod_terms(first, mid.grade).items(), sign * cm)

    def left_symmetry(t: tuple) -> Element:
        ga, gb, gc = t
        acc: dict = {}
        add_assoc(acc, 1, ga, gb, gc)
        add_left(acc, -1, ga, gb, gc)
        add_assoc(acc, -1, gb, ga, gc)
        add_left(acc, 1, gb, ga, gc)
        return Element(acc)

    def right_commutativity(t: tuple) -> Element:
        ga, gb, gc = t
        acc: dict = {}
        add_assoc(acc, 1, ga, gb, gc)
        add_assoc(acc, -1, ga, gc, gb)
        return Element(acc)

    pairs = list(itertools.combinations(grade_values, 2))
    a_before_b = ((ga, gb, gc) for ga, gb in pairs for gc in grade_values)
    b_before_c = ((ga, gb, gc) for ga in grade_values for gb, gc in pairs)
    return NovikovVerdicts(
        decide(left_proof, a_before_b, left_symmetry),
        decide(right_proof, b_before_c, right_commutativity),
    )


def affinize(rule: ProductRule, params: AffinizationParams) -> BracketRule:
    """Bracket [a[m], b[n]] = (m+q)(ab)[m+n] - (n+q)(ba)[m+n] on Graded(grade, m).

    A product with terms gives a bracket with terms: per product term
    (dgrade, c(a, b)), the coefficient (i+q)c(a,b) - (j+q)c(b,a) at offset
    (dgrade, 0).  Otherwise the bracket is a bare callable."""
    q = params.q

    def relevel(product: Element, level):
        return ((Graded(i.grade, level), c) for i, c in product.terms.items())

    def pair(x: Graded, y: Graded) -> Element:
        m, n = x.level, y.level
        acc: dict = {}
        accumulate(acc, relevel(rule.pair(x.grade, y.grade), m + n), m + q)
        accumulate(acc, relevel(rule.pair(y.grade, x.grade), m + n), -(n + q))
        return Element._wrap(acc)

    if rule.terms is None:
        return BracketRule(pair)
    # `pair` reads q, so the lifted copy takes another name
    ring, (q_poly, *coeffs) = index_ring(q, *(coeff for _, coeff in rule.terms))
    a, i, b, j = (ring.var(name) for name in "aibj")
    swap = {"a": b, "b": a}
    terms = tuple(
        ((offset, 0), (i + q_poly) * coeff - (j + q_poly) * coeff.compose(ring, swap))
        for (offset, _), coeff in zip(rule.terms, coeffs)
    )
    return BracketRule(pair, terms)


@dataclass(frozen=True)
class ProbeReport:
    """Observed data for the Novikov <-> Lie biconditional on one rule."""

    novikov: NovikovVerdicts
    jacobi_of_affinization: Verdict
    equivalence_observed: bool


def theorem22_probe(
    rule: ProductRule,
    params: AffinizationParams,
    grade_values: Sequence,
    level_values: Sequence,
) -> ProbeReport:
    """Decide the Novikov axioms and the affinized Jacobi identity and report
    whether the two verdicts agree (they should, for every rule).

    Both checks prove their identities from the rule's terms where it has
    them and scan the grids only for a witness or for a table rule; the
    grids are required in either case."""
    axioms = novikov_axiom_check(rule, grade_values)
    jacobi = grid_identity_check(
        affinize(rule, params), "jacobi", grade_values, level_values
    )
    return ProbeReport(axioms, jacobi, axioms.holds == jacobi.holds)


def block_sZ_reindex_check(s: Fraction, window: Window) -> Verdict:
    """Verify that the (p, q, mu, theta) = (1, s-1, -s, 1) bracket, relabeled
    through R[a,i] = L[a-1,i], reproduces

        [R[a,i], R[b,j]] = s(j-i) R[a+b,i+j] + ((i+s-1)b - (j+s-1)a) R[a+b-1,i+j]

    exactly for all window indices (a, i, b, j)."""
    s = Fraction(s)
    rule = affinize(
        witt_product_rule(WittNovikovParams(p=Fraction(1), mu=-s, theta=1)),
        AffinizationParams(q=s - 1),
    )

    def residual(t: tuple) -> Element:
        a, i, b, j = t
        expected = Element.basis(Graded(a + b - 1, i + j), s * (j - i)) + Element.basis(
            Graded(a + b - 2, i + j), (i + s - 1) * b - (j + s - 1) * a
        )
        return rule.pair(Graded(a - 1, i), Graded(b - 1, j)) - expected

    return first_failure(window.pairs(), residual)
