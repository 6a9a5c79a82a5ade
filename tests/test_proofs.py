"""Differential tests of the two routes through the exact grid checks.

A closed-form rule carries its structure coefficients as `terms`, and
`grid_identity_check` and `novikov_axiom_check` prove their identities from
them before any grid point is evaluated.  The same rule with its terms
removed (`dataclasses.replace(rule, terms=None)`) is decided by the grid scan
alone.  Witness and residual must print identically on both routes, above
all on failing rules, where the proof fails and the scan finds the witness;
a holding verdict is universal on the proof route and holds on the tested
grid on the scan route.  A proof is only as good as the agreement of `terms`
with the hand-written `pair`, so that is tested too, at integer and rational
points, and a disagreement that the grid exposes raises.  The terms also
decide the degree bounds that size the grids.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklie.block import BlockParams, delta_free_rule
from blocklie.engine import (
    BracketRule,
    Graded,
    _prove,
    grid_identity_check,
    index_ring,
)
from blocklie.novikov import (
    AffinizationParams,
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


def assert_routes_agree(proved, scanned, proof):
    """The proof route holds universally exactly when its proof succeeds,
    where the scan alone holds on the tested grid; a failing verdict prints
    the same witness and residual on both routes."""
    assert proved.holds == (not proof)
    if proved.holds:
        assert (str(proved), str(scanned)) == ("holds_universally", "holds_on_tested_grid")
    else:
        assert str(proved) == str(scanned)


@SETTINGS
@given(product_rules(), st.data())
def test_novikov_proof_matches_scan(rule, data):
    grades = data.draw(grids(2 * rule.grade_degree_bound + 1))
    proved = novikov_axiom_check(rule, grades)
    scanned = novikov_axiom_check(scan_only(rule), grades)
    left, right = _prove(rule.terms, ("left_symmetry", "right_commutativity"))
    assert_routes_agree(proved.left_symmetry, scanned.left_symmetry, left)
    assert_routes_agree(proved.right_commutativity, scanned.right_commutativity, right)


@SETTINGS
@given(bracket_rules(), st.sampled_from(["antisymmetry", "jacobi"]), st.data())
def test_identity_proof_matches_scan(rule, identity, data):
    multiplier = 1 if identity == "antisymmetry" else 2
    grades = data.draw(grids(multiplier * rule.grade_degree_bound + 1))
    levels = data.draw(grids(multiplier * rule.level_degree_bound + 1))
    proved = grid_identity_check(rule, identity, grades, levels)
    scanned = grid_identity_check(scan_only(rule), identity, grades, levels)
    (proof,) = _prove(rule.terms, (identity,))
    assert_routes_agree(proved, scanned, proof)


def lifted(ring, element) -> dict:
    """An Element's coefficients lifted into the terms' ring."""
    return {
        label: coeff.compose(ring) if isinstance(coeff, Poly) else ring.const(coeff)
        for label, coeff in element.terms.items()
    }


def evaluated(terms, x: Graded, y: Graded) -> dict:
    """The terms at L[x], L[y]: {label: Poly}."""
    acc: dict = {}
    point = {"a": x.grade, "i": x.level, "b": y.grade, "j": y.level}
    for (dg, dl), coeff in terms:
        label = Graded(x.grade + y.grade + dg, x.level + y.level + dl)
        accumulate(acc, ((label, coeff.substitute(point)),))
    return acc


@SETTINGS
@given(
    st.one_of(
        st.tuples(product_rules(), st.just(False)), st.tuples(bracket_rules(), st.just(True))
    ),
    st.lists(st.one_of(st.integers(-9, 9), rationals), min_size=4, max_size=4),
)
def test_pair_equals_its_terms(drawn, point):
    rule, leveled = drawn
    a, i, b, j = point
    ring = rule.terms[0][1].ring
    # a product reads grades only, so it is checked on the Witt labels L[a,0]
    x, y = (Graded(a, i), Graded(b, j)) if leveled else (Graded(a, 0), Graded(b, 0))
    assert lifted(ring, rule.pair(x, y)) == evaluated(rule.terms, x, y)


def test_index_ring_lifts_parameters_and_rejects_clashes():
    ring, (p, half) = index_ring(SYMBOLS["p"], Fraction(1, 2))
    assert ring.symbols == ("p", "mu", "q", "a", "i", "b", "j", "c", "k")
    assert p == ring.var("p") and half == Fraction(1, 2)
    # a value already in an index ring contributes only its parameters
    again, (same,) = index_ring(p * ring.var("a"))
    assert again == ring and same.terms == (p * ring.var("a")).terms
    with pytest.raises(ValueError, match="clashes"):
        index_ring(PolyRing("a").var("a"))


def counting(pair, calls: list):
    def counted(*args):
        calls.append(args)
        return pair(*args)

    return counted


def test_rules_without_terms_hold_on_the_tested_grid():
    block = delta_free_rule(BlockParams(Fraction(2, 3), Fraction(-7, 5)))
    bare = BracketRule(block.pair)
    assert (bare.grade_degree_bound, bare.level_degree_bound) == (0, 0)
    for identity in ("antisymmetry", "jacobi"):
        verdict = grid_identity_check(bare, identity, [-1, 0, 1], [0, 1, 2])
        assert verdict.holds and str(verdict) == "holds_on_tested_grid"
    witt = BracketRule(witt_product_rule(WittNovikovParams(Fraction(1, 2), 3, 1)).pair)
    assert witt.grade_degree_bound == 0
    verdicts = novikov_axiom_check(witt, [-2, -1, 0, 1, 2])
    for verdict in (verdicts.left_symmetry, verdicts.right_commutativity):
        assert verdict.holds and str(verdict) == "holds_on_tested_grid"


def test_universal_verdicts_come_from_the_proof_alone():
    # a proved identity evaluates no grid point, and a proof that fails never
    # holds: its scan reports the witness
    calls: list = []
    block = delta_free_rule(BlockParams(Fraction(2, 3), Fraction(-7, 5)))
    rule = BracketRule(counting(block.pair, calls), block.terms)
    verdict = grid_identity_check(rule, "jacobi", [-1, 0, 1], [0, 1, 2])
    assert str(verdict) == "holds_universally" and not calls
    witt = witt_product_rule(WittNovikovParams(Fraction(1, 2), 3, 1))
    verdicts = novikov_axiom_check(BracketRule(counting(witt.pair, calls), witt.terms), [-1, 0, 1])
    assert str(verdicts.left_symmetry) == str(verdicts.right_commutativity) == "holds_universally"
    assert not calls
    broken = perturbed_witt_rule(WittNovikovParams(1), "main", (1, 0), Fraction(1))
    verdicts = novikov_axiom_check(broken, [-1, 0, 1])
    assert not verdicts.right_commutativity.holds
    assert str(verdicts.right_commutativity).startswith("fails(witness=")


def test_pair_disagreeing_with_its_terms_raises_instead_of_holding():
    witt = witt_product_rule(WittNovikovParams(1))
    b = witt.terms[0][1].ring.var("b")
    # the Witt pair is Novikov; terms b^2 x_{a+b} are not, and size a grid of 5
    squared = dataclasses.replace(witt, terms=(((0, 0), b**2),))
    assert squared.grade_degree_bound == 2
    with pytest.raises(ValueError, match="pair disagrees with its terms"):
        novikov_axiom_check(squared, [-2, -1, 0, 1, 2])
    params = BlockParams(Fraction(2), Fraction(1))
    block = delta_free_rule(params)
    ring = block.terms[0][1].ring
    a, i, b, j = (ring.var(name) for name in "aibj")
    skewed = BracketRule(block.pair, (((0, 0), (i + 1) * (b + 2) - (j + 1) * (a + 4)),))
    with pytest.raises(ValueError, match="pair disagrees with its terms"):
        grid_identity_check(skewed, "antisymmetry", [-1, 0], [0, 1])


def test_degree_bounds_are_read_from_the_terms():
    # every rule the CLI builds keeps the bound it used to declare: Witt 1,
    # perturbed max(1, ea, eb) for delta > 0, affinized (product bound, 1),
    # delta-free Block (1, 1); so no grid minimum and no mutation grid moves
    p, mu, q = SYMBOLS["p"], SYMBOLS["mu"], SYMBOLS["q"]
    for params in itertools.starmap(
        WittNovikovParams, itertools.product((0, Fraction(3, 2), p), (0, -2, mu), (-1, 0, 2))
    ):
        witt = witt_product_rule(params)
        assert witt.grade_degree_bound == 1
        affinized = affinize(witt, AffinizationParams(q))
        assert (affinized.grade_degree_bound, affinized.level_degree_bound) == (1, 1)
        for target, ea, eb in itertools.product(("main", "shift"), range(4), range(4)):
            bound = max(1, ea, eb)
            for delta in (Fraction(1, 5), Fraction(9)):
                rule = perturbed_witt_rule(params, target, (ea, eb), delta)
                assert rule.grade_degree_bound == bound, (params, target, ea, eb, delta)
            affinized = affinize(rule, AffinizationParams(Fraction(-1, 2)))
            assert (affinized.grade_degree_bound, affinized.level_degree_bound) == (bound, 1)
    for block_p, block_q in ((0, 1), (Fraction(2, 3), Fraction(-7, 5)), (p, q)):
        rule = delta_free_rule(BlockParams(block_p, block_q))
        assert (rule.grade_degree_bound, rule.level_degree_bound) == (1, 1)
    # terms of equal offset are summed before their degree is read
    a = index_ring()[0].var("a")
    assert BracketRule(None, (((0, 0), a**2), ((0, 0), -(a**2)))).grade_degree_bound == 0
    assert BracketRule(None, (((0, 0), a**2), ((1, 0), -(a**2)))).grade_degree_bound == 2
