"""Witt-type Novikov algebras and their affinization into graded Lie algebras.

The product family on Witt labels x_a (stored as Graded(a, 0)) is

    x_a * x_b = (b + p) x_{a+b} + mu x_{a+b+theta}

with rational or symbolic p, mu and an integer shift theta.  Affinization
turns any bilinear product rule into a bracket on two-index labels,

    [a[m], b[n]] = (m + q)(a*b)[m+n] - (n + q)(b*a)[m+n],

which is a Lie bracket exactly when the product is Novikov (left-symmetric
plus right-commutative).  `theorem22_probe` observes that biconditional
instead of assuming it, so a counterexample would surface as data.

A product is an `engine.BracketRule` on the Witt labels: a closed-form
product is its `terms` at offsets (dgrade, 0), coefficient Polys over the
grades a, b and the parameters, free of the levels, and a table product is
a pair of its own.  The Novikov axioms, like the affinized Jacobi identity,
are read from the one identity table (`engine.IDENTITIES`): proved as
polynomial identities, one per output offset, before any grid point is
evaluated, and only a proof holds universally.  The grid scans run only to
find a witness when a proof fails, and for table rules, which hold on the
tested grid only (`engine.check_identities`).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .engine import (
    BracketRule,
    Element,
    Graded,
    Verdict,
    check_identities,
    grid_identity_check,
    index_ring,
    normalize_index_values,
)
from .scalars import Scalar, accumulate


class WittNovikovParams(
    NamedTuple("WittNovikovParams", [("p", Scalar), ("mu", Scalar), ("theta", int)])
):
    __slots__ = ()

    def __new__(cls, p: Scalar, mu: Scalar = 0, theta: int = 0):
        if not isinstance(theta, int):
            raise ValueError("theta must be an integer shift")
        return super().__new__(cls, p, mu, theta)


class AffinizationParams(NamedTuple):
    q: Scalar  # q = 0 is permitted here; downstream algebras may restrict it


def witt_novikov_product(params: WittNovikovParams, a, b) -> Element:
    """(b + p) x_{a+b} + mu x_{a+b+theta}, exactly."""
    terms = (
        (Graded(a + b, 0), b + params.p),
        (Graded(a + b + params.theta, 0), params.mu),
    )
    return Element(accumulate({}, terms))


def witt_product_rule(params: WittNovikovParams) -> BracketRule:
    ring, (p, mu) = index_ring(params.p, params.mu)
    return BracketRule(terms=(((0, 0), ring.var("b") + p), ((params.theta, 0), mu)))


def perturbed_witt_rule(
    params: WittNovikovParams,
    target: str,
    exponents: tuple[int, int],
    delta: Scalar,
) -> BracketRule:
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
    ring, (p, mu, scale) = index_ring(params.p, params.mu, delta)
    a, b = ring.var("a"), ring.var("b")
    terms = (((0, 0), b + p), ((params.theta, 0), mu), ((shift, 0), scale * a**ea * b**eb))
    return BracketRule(terms=terms)


def table_product_rule(entries: dict[tuple[int, int], Element]) -> BracketRule:
    """Product given extensionally on a small index window, keyed by grades.

    Index pairs absent from the table multiply to zero (finite-support
    convention).  A table has no terms, so axiom verdicts on it hold only
    for the tested grid, never universally.
    """
    table = dict(entries)

    def pair(x: Graded, y: Graded) -> Element:
        return table.get((x.grade, y.grade), Element.zero())

    return BracketRule(pair)


class NovikovVerdicts(NamedTuple):
    left_symmetry: Verdict
    right_commutativity: Verdict

    @property
    def holds(self) -> bool:
        return self.left_symmetry.holds and self.right_commutativity.holds


def novikov_axiom_check(rule: BracketRule, grade_values: Sequence) -> NovikovVerdicts:
    """Decide left symmetry (xy)z - x(yz) = (yx)z - y(xz) and right
    commutativity (xy)z = (xz)y on the product: by proof where the rule has
    terms, by grid scan for the witness and for rules without
    (`engine.check_identities`).  A witness is a triple of grades.

    Orbit filters: left symmetry is evaluated only where a comes before b in
    the grid and right commutativity only where b comes before c; each
    residual changes sign when those two slots swap and is zero when they
    are equal."""
    values = normalize_index_values(grade_values)
    pairs = list(itertools.combinations(values, 2))
    scans = {
        "left_symmetry": ((ga, gb, gc) for ga, gb in pairs for gc in values),
        "right_commutativity": ((ga, gb, gc) for ga in values for gb, gc in pairs),
    }
    verdicts = check_identities(
        rule, scans, lambda t: [Graded(g, 0) for g in t], {"grade": grade_values}
    )
    return NovikovVerdicts(*verdicts)


def affinize(rule: BracketRule, params: AffinizationParams) -> BracketRule:
    """Bracket [a[m], b[n]] = (m+q)(ab)[m+n] - (n+q)(ba)[m+n] on Graded(grade, m).

    The product must have terms.  Each product term ((dgrade, 0), c(a, b))
    gives two bracket terms at the same offset, (i+q)c(a,b) and
    -(j+q)c(b,a).  They stay apart, so a symbolic q is read at every offset,
    even one where it cancels (see `engine._compile`)."""
    if rule.terms is None:
        raise ValueError("affinize requires a product rule with terms")
    ring, (q, *coeffs) = index_ring(params.q, *(coeff for _, coeff in rule.terms))
    a, i, b, j = (ring.var(name) for name in "aibj")
    swap = {"a": b, "b": a}
    terms = tuple(
        term
        for (offset, _), coeff in zip(rule.terms, coeffs)
        for term in ((offset, (i + q) * coeff), (offset, -(j + q) * coeff.compose(ring, swap)))
    )
    return BracketRule(terms=terms)


class ProbeReport(NamedTuple):
    """Observed data for the Novikov <-> Lie biconditional on one rule."""

    novikov: NovikovVerdicts
    jacobi_of_affinization: Verdict
    equivalence_observed: bool


def theorem22_probe(
    rule: BracketRule,
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

