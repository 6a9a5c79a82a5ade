"""Differential test of the one bilinear path against a naive reference.

`bracket_apply` (on brackets and on products), `intermediate.act` and the
Block bracket's extension `block_bracket` (an oracle of `test_block`, built on
`engine.extend_bilinearly`) all extend a basis formula linearly through
`scalars.accumulate`.  The reference here expands the same basis formula term
by term into a plain dict and drops zeros only at the end, so it shares no
summation code with the program.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from test_block import block_bracket
from test_engine import assert_same_terms, combination

from blocklie.block import BlockParams, basis_bracket, block_bracket_rule
from blocklie.engine import CENTRAL, Element, Graded, bracket_apply
from blocklie.intermediate import IntermediateKind, ModuleVector, act
from blocklie.novikov import (
    AffinizationParams,
    WittNovikovParams,
    affinize,
    witt_product_rule,
)
from blocklie.scalars import PolyRing

RING = PolyRing("q")
Q = RING.var("q")
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
nonzero_rationals = rationals.filter(bool)
graded = st.builds(Graded, st.integers(-3, 3), st.integers(0, 2))
labels = st.one_of(graded, st.just(CENTRAL))


def symbolic(constant: Fraction, slope: Fraction):
    return constant + slope * Q


poly_coeffs = st.builds(symbolic, rationals, nonzero_rationals)


def naive_sum(products) -> dict:
    """Sum of factor * element over (factor, element) pairs, term by term."""
    total: dict = {}
    for factor, element in products:
        for key, coeff in element.terms.items():
            total[key] = total.get(key, 0) + factor * coeff
    return {key: coeff for key, coeff in total.items() if coeff}


@st.composite
def element_pairs(draw, coeffs, label_strategy=labels):
    """(x, y) with y = s*x + z half of the time, so bracket terms cancel."""
    x = Element(draw(st.dictionaries(label_strategy, coeffs.filter(bool), max_size=4)))
    z = Element(draw(st.dictionaries(label_strategy, coeffs.filter(bool), max_size=3)))
    if draw(st.booleans()):
        return x, combination((draw(nonzero_rationals), x), (1, z))
    return x, z


def graded_pairs(x: Element, y: Element):
    return [
        (ix, cx, iy, cy)
        for ix, cx in x.terms.items()
        for iy, cy in y.terms.items()
        if ix is not CENTRAL and iy is not CENTRAL
    ]


block_params = st.builds(
    BlockParams, rationals, st.one_of(nonzero_rationals, st.just(Q))
)


@SETTINGS
@given(block_params, st.data())
def test_block_bracket_and_bracket_apply_match_naive(params, data):
    coeffs = st.one_of(rationals, poly_coeffs)
    x, y = data.draw(element_pairs(coeffs))
    reference = naive_sum(
        (cx * cy, basis_bracket(params, ix, iy)) for ix, cx, iy, cy in graded_pairs(x, y)
    )
    assert_same_terms(block_bracket(params, x, y), reference)
    assert_same_terms(bracket_apply(block_bracket_rule(params), x, y), reference)


@SETTINGS
@given(
    st.builds(WittNovikovParams, rationals, rationals, st.integers(-1, 1)),
    st.one_of(rationals, st.just(Q)),
    st.data(),
)
def test_affinized_bracket_apply_matches_naive(witt, q, data):
    rule = affinize(witt_product_rule(witt), AffinizationParams(q))
    x, y = data.draw(element_pairs(st.one_of(rationals, poly_coeffs)))
    reference = naive_sum(
        (cx * cy, rule.pair(ix, iy)) for ix, cx, iy, cy in graded_pairs(x, y)
    )
    assert_same_terms(bracket_apply(rule, x, y), reference)


@SETTINGS
@given(
    st.builds(
        WittNovikovParams, st.one_of(rationals, st.just(Q)), rationals, st.integers(-1, 1)
    ),
    st.data(),
)
def test_product_bracket_apply_matches_naive(witt, data):
    rule = witt_product_rule(witt)
    witt_labels = st.builds(Graded, st.integers(-3, 3), st.just(0))
    x, y = data.draw(element_pairs(st.one_of(rationals, poly_coeffs), witt_labels))
    reference = naive_sum(
        (cx * cy, rule.pair(ix, iy)) for ix, cx, iy, cy in graded_pairs(x, y)
    )
    assert_same_terms(bracket_apply(rule, x, y), reference)


kinds = st.one_of(
    st.builds(IntermediateKind, st.just("Aab"), rationals, rationals),
    st.builds(IntermediateKind, st.sampled_from(["Aa", "Ba"]), rationals),
)


@SETTINGS
@given(
    kinds,
    st.builds(BlockParams, rationals, nonzero_rationals),
    st.dictionaries(labels, nonzero_rationals, max_size=4),
    st.dictionaries(st.integers(-4, 4), nonzero_rationals, max_size=4),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2)]),
)
def test_act_matches_naive(kind, params, x_terms, v_terms, central_value):
    x, v = Element(x_terms), ModuleVector(v_terms)
    reference = naive_sum(
        (cx * cv, act(kind, params, Element({ix: 1}), ModuleVector({m: 1}), central_value))
        for ix, cx in x.terms.items()
        for m, cv in v.terms.items()
    )
    result = act(kind, params, x, v, central_value)
    assert isinstance(result, ModuleVector)
    assert_same_terms(result, reference)
    # the sum of a vector and its negative cancels to the empty vector
    assert combination((1, result), (-1, result)).terms == {}
