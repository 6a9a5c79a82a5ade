"""Differential tests of the two routes through the exact grid checks.

A closed-form rule carries its structure coefficients as `terms`, and
`grid_identity_check` and `novikov_axiom_check` prove their identities from
them before any grid point is evaluated.  The same rule with its terms
removed (`dataclasses.replace(rule, terms=None)`) is decided by the grid scan
alone.  Verdict, witness and residual must print identically on both routes,
above all on failing rules, where the proof fails and the scan finds the
witness.  A proof is only as good as the agreement of `terms` with the
hand-written `pair`, so that is tested too, at integer and rational points.
"""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklie.block import BlockParams, delta_free_rule
from blocklie.engine import BracketRule, Graded, grid_identity_check, index_ring
from blocklie.novikov import (
    AffinizationParams,
    ProductRule,
    WittNovikovParams,
    affinize,
    novikov_axiom_check,
    perturbed_witt_rule,
    witt_product_rule,
)
from blocklie.scalars import Poly, PolyRing, accumulate

RING = PolyRing("p", "mu", "q")
SYMBOLS = {name: RING.var(name) for name in RING.symbols}
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonzero_rationals = rationals.filter(bool)


def scalars(name: str, values=rationals):
    """A rational, or the parameter `name` left symbolic."""
    return st.one_of(values, st.just(SYMBOLS[name]))


def grids(size: int):
    """`size` distinct rationals in a random order."""
    return st.lists(rationals, min_size=size, max_size=size, unique=True)


@st.composite
def product_rules(draw):
    """The Witt-type product, or it with one coefficient perturbed by
    delta*a^ea*b^eb, which breaks both Novikov axioms for most exponents."""
    params = WittNovikovParams(draw(scalars("p")), draw(scalars("mu")), draw(st.integers(-2, 2)))
    if draw(st.integers(0, 3)) == 0:
        return witt_product_rule(params)
    target = draw(st.sampled_from(["main", "shift"]))
    exponents = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    return perturbed_witt_rule(params, target, exponents, draw(nonzero_rationals))


@st.composite
def bracket_rules(draw):
    """An affinized product rule, or the delta-free Block bracket."""
    if draw(st.integers(0, 3)):
        return affinize(draw(product_rules()), AffinizationParams(draw(scalars("q"))))
    return delta_free_rule(BlockParams(draw(scalars("p")), draw(scalars("q", nonzero_rationals))))


def scan_only(rule):
    return dataclasses.replace(rule, terms=None)


@SETTINGS
@given(product_rules(), st.data())
def test_novikov_proof_matches_scan(rule, data):
    grades = data.draw(grids(2 * rule.grade_degree_bound + 1))
    proved = novikov_axiom_check(rule, grades)
    scanned = novikov_axiom_check(scan_only(rule), grades)
    assert str(proved.left_symmetry) == str(scanned.left_symmetry)
    assert str(proved.right_commutativity) == str(scanned.right_commutativity)


@SETTINGS
@given(bracket_rules(), st.sampled_from(["antisymmetry", "jacobi"]), st.data())
def test_identity_proof_matches_scan(rule, identity, data):
    multiplier = 1 if identity == "antisymmetry" else 2
    grades = data.draw(grids(multiplier * rule.grade_degree_bound + 1))
    levels = data.draw(grids(multiplier * rule.level_degree_bound + 1))
    proved = grid_identity_check(rule, identity, grades, levels)
    assert str(proved) == str(grid_identity_check(scan_only(rule), identity, grades, levels))


def lifted(ring, element) -> dict:
    """An Element's coefficients lifted into the terms' ring."""
    return {
        label: coeff.compose(ring) if isinstance(coeff, Poly) else ring.const(coeff)
        for label, coeff in element.terms.items()
    }


def evaluated(terms, x: Graded, y: Graded) -> dict:
    """The terms at L[x], L[y] (grades only for a product): {label: Poly}."""
    acc: dict = {}
    for offset, coeff in terms:
        point = {"a": x.grade, "b": y.grade}
        if isinstance(offset, tuple):
            point.update(i=x.level, j=y.level)
            label = Graded(x.grade + y.grade + offset[0], x.level + y.level + offset[1])
        else:
            label = Graded(x.grade + y.grade + offset, 0)
        accumulate(acc, ((label, coeff.substitute(point)),))
    return acc


@SETTINGS
@given(
    st.one_of(product_rules(), bracket_rules()),
    st.lists(st.one_of(st.integers(-9, 9), rationals), min_size=4, max_size=4),
)
def test_pair_equals_its_terms(rule, point):
    a, i, b, j = point
    ring = rule.terms[0][1].ring
    if isinstance(rule, ProductRule):
        got = rule.pair(a, b)
        x, y = Graded(a, 0), Graded(b, 0)
    else:
        x, y = Graded(a, i), Graded(b, j)
        got = rule.pair(x, y)
    assert lifted(ring, got) == evaluated(rule.terms, x, y)


def test_index_ring_lifts_parameters_and_rejects_clashes():
    ring, (p, half) = index_ring(SYMBOLS["p"], Fraction(1, 2))
    assert ring.symbols == ("p", "mu", "q", "a", "i", "b", "j", "c", "k")
    assert p == ring.var("p") and half == Fraction(1, 2)
    # a value already in an index ring contributes only its parameters
    again, (same,) = index_ring(p * ring.var("a"))
    assert again == ring and same.terms == (p * ring.var("a")).terms
    with pytest.raises(ValueError, match="clashes"):
        index_ring(PolyRing("a").var("a"))


def test_terms_understating_the_degree_bound_are_rejected():
    ring, _ = index_ring()
    a, i = ring.var("a"), ring.var("i")
    with pytest.raises(ValueError, match="declared degree bound 1 violated along index slot 0"):
        ProductRule(lambda a, b: None, 1, terms=((0, a**2),))
    with pytest.raises(ValueError, match="declared degree bound 0 violated along index slot 1"):
        BracketRule(lambda x, y: None, 1, 0, terms=(((0, 0), i),))
    # terms of equal offset are summed before their degree is read
    assert ProductRule(lambda a, b: None, 1, terms=((0, a**2), (0, -(a**2)))).terms
