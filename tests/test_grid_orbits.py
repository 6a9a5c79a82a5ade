"""Differential tests of the grid checks that scan one tuple per symmetry orbit.

`grid_identity_check` evaluates Jacobi once per cyclic rotation class,
`novikov_axiom_check` evaluates each
axiom once per swap of the two slots it is antisymmetric in, and
`module_axiom_check` evaluates each pair of level-zero labels of distinct
grades once and skips the pairs with a positive level, which act as zero.
The oracles are the full-product loops those checks replaced, copied here:
every tuple of the grid in `itertools.product` order, with nothing cached.
Verdict, witness and residual must print identically, above all on failing
inputs, where the witness is the first failing tuple.  A holding verdict is
universal only for a rule with terms, whose proof the oracles take for
granted; a rule without terms holds on the tested grid, and the module
check, which has no proof, holds on its window.
"""

import itertools
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from test_block import block_bracket
from test_engine import combination, printed

from blocklie.block import BlockParams
from blocklie.engine import (
    CENTRAL,
    BracketRule,
    Element,
    Graded,
    Verdict,
    Window,
    grid_identity_check,
)
from blocklie import intermediate
from blocklie.intermediate import IntermediateKind, ModuleVector, module_axiom_check
from blocklie.novikov import (
    AffinizationParams,
    WittNovikovParams,
    affinize,
    novikov_axiom_check,
    perturbed_witt_rule,
    table_product_rule,
)
from blocklie.scalars import PolyRing, accumulate

RING = PolyRing("p", "q")
P, Q = RING.var("p"), RING.var("q")
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
nonzero_rationals = rationals.filter(bool)


# -- oracles: the full-product loops ------------------------------------------


def held(rule):
    return Verdict(True, scope="universally" if rule.terms is not None else "on_tested_grid")


def full_grid_identity_check(rule, grade_values, level_values):
    singles = [Graded(g, l) for g, l in itertools.product(grade_values, level_values)]
    for x, y, z in itertools.product(singles, repeat=3):
        acc = {}
        for outer, inner in ((x, (y, z)), (z, (x, y)), (y, (z, x))):
            for mid, mid_coeff in rule.pair(*inner).terms.items():
                if mid is not CENTRAL:
                    accumulate(acc, rule.pair(outer, mid).terms.items(), mid_coeff)
        if acc:
            witness = tuple((s.grade, s.level) for s in (x, y, z))
            return Verdict(False, witness, Element(acc))
    return held(rule)


def full_novikov_axiom_check(rule, grade_values):
    def prod_terms(a, b):
        return rule.pair(Graded(a, 0), Graded(b, 0)).terms

    def add_assoc(acc, sign, first, second, third):
        for mid, cm in prod_terms(first, second).items():
            accumulate(acc, prod_terms(mid.grade, third).items(), sign * cm)

    def add_left(acc, sign, first, second, third):
        for mid, cm in prod_terms(second, third).items():
            accumulate(acc, prod_terms(first, mid.grade).items(), sign * cm)

    left = right = None
    for ga, gb, gc in itertools.product(grade_values, repeat=3):
        if left is None:
            acc = {}
            add_assoc(acc, 1, ga, gb, gc)
            add_left(acc, -1, ga, gb, gc)
            add_assoc(acc, -1, gb, ga, gc)
            add_left(acc, 1, gb, ga, gc)
            if acc:
                left = Verdict(False, (ga, gb, gc), Element(acc))
        if right is None:
            acc = {}
            add_assoc(acc, 1, ga, gb, gc)
            add_assoc(acc, -1, ga, gc, gb)
            if acc:
                right = Verdict(False, (ga, gb, gc), Element(acc))
        if left is not None and right is not None:
            break
    return left or held(rule), right or held(rule)


def full_module_axiom_check(kind, params, window, weight_range, central_value):
    act = intermediate.act  # reads a patched `_basis_action` per call
    lo, hi = weight_range
    grades = range(window.grade_min, window.grade_max + 1)
    levels = range(window.level_max + 1)
    for alpha in grades:
        for beta in range(window.grade_min, alpha + 1):
            for i, j in itertools.product(levels, repeat=2):
                x = Element({Graded(alpha, i): 1})
                y = Element({Graded(beta, j): 1})
                bracket = block_bracket(params, x, y)
                for m in range(lo, hi + 1):
                    v = ModuleVector({m: 1})
                    residual = combination(
                        (1, act(kind, params, bracket, v, central_value)),
                        (-1, act(kind, params, x, act(kind, params, y, v, central_value), central_value)),
                        (1, act(kind, params, y, act(kind, params, x, v, central_value), central_value)),
                    )
                    if residual:
                        return Verdict(False, (alpha, beta, i, j, m), residual)
    return Verdict(True, scope="on_window")


# -- inputs ---------------------------------------------------------------------


def grids(size: int, values=range(-3, 4)):
    """`size` distinct values in a random order, so the witness order varies."""
    return st.permutations(list(values)).map(lambda perm: perm[:size])


@st.composite
def perturbed_rules(draw, symbolic):
    """A Witt-type product with one coefficient perturbed by delta*a^ea*b^eb."""
    p = P if symbolic else draw(rationals)
    params = WittNovikovParams(p, draw(rationals), draw(st.integers(-2, 2)))
    target = draw(st.sampled_from(["main", "shift"]))
    exponents = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    return perturbed_witt_rule(params, target, exponents, draw(nonzero_rationals))


@st.composite
def table_rules(draw):
    def out():
        terms = draw(st.dictionaries(st.integers(-2, 3), rationals, max_size=2))
        return Element({Graded(g, 0): c for g, c in terms.items() if c})

    keys = draw(st.sets(st.tuples(st.integers(-1, 2), st.integers(-1, 2)), max_size=10))
    return table_product_rule({key: out() for key in keys})


@st.composite
def skewed_rules(draw, symbolic):
    """The delta-free Block bracket plus e1*a*b + e2*i*j + e3*a*j: with any
    e nonzero it is neither antisymmetric nor, in general, a Lie bracket, and
    the extra terms vanish on part of the grid."""
    p, q = (P, Q) if symbolic else (draw(rationals), draw(rationals))
    e1, e2, e3 = (draw(rationals) for _ in range(3))

    def pair(x, y):
        a, i, b, j = x.grade, x.level, y.grade, y.level
        coeff = (i + q) * (b + p) - (j + q) * (a + p) + e1 * a * b + e2 * i * j + e3 * a * j
        return Element({Graded(a + b, i + j): coeff} if coeff else {})

    return BracketRule(pair)


# -- the tests ------------------------------------------------------------------


def assert_same_novikov(rule, grades):
    got = novikov_axiom_check(rule, grades)
    want = full_novikov_axiom_check(rule, grades)
    assert printed(got.left_symmetry) == printed(want[0])
    assert printed(got.right_commutativity) == printed(want[1])


def assert_same_identity(rule, grades, levels):
    got = grid_identity_check(rule, "jacobi", grades, levels)
    assert printed(got) == printed(full_grid_identity_check(rule, grades, levels))


@SETTINGS
@given(st.booleans(), st.data())
def test_novikov_axioms_match_full_scan_on_perturbed_rules(symbolic, data):
    rule = data.draw(perturbed_rules(symbolic))
    size = 2 * rule.grade_degree_bound + 1
    assert_same_novikov(rule, data.draw(grids(data.draw(st.integers(size, size + 1)))))


@SETTINGS
@given(table_rules(), st.data())
def test_novikov_axioms_match_full_scan_on_table_rules(rule, data):
    size = data.draw(st.integers(1, 4))
    assert_same_novikov(rule, data.draw(grids(size, range(-1, 3))))


@SETTINGS
@given(st.booleans(), st.data())
def test_identities_match_full_scan_on_affinized_perturbed_rules(symbolic, data):
    base = data.draw(perturbed_rules(symbolic))
    rule = affinize(base, AffinizationParams(Q if symbolic else data.draw(rationals)))
    grades = data.draw(grids(2 * rule.grade_degree_bound + 1))
    levels = data.draw(grids(3, range(0, 4)))
    assert_same_identity(rule, grades, levels)


@SETTINGS
@given(st.booleans(), st.data())
def test_identities_match_full_scan_on_skewed_rules(symbolic, data):
    rule = data.draw(skewed_rules(symbolic))
    grades = data.draw(grids(data.draw(st.integers(3, 4))))
    levels = data.draw(grids(3, range(0, 4)))
    assert_same_identity(rule, grades, levels)


def perturbed_action(delta):
    """The family coefficient plus delta*alpha^2 for L[alpha,0] v_m, alpha > 0.

    The action stays at level zero, but the identity breaks.  It holds at
    every pair of grades <= 0, so the first witness has alpha >= 1, where
    several beta compete, and the witness also checks the order of beta."""
    family_action = intermediate._basis_action

    def action(kind, q, alpha, m):
        return family_action(kind, q, alpha, m) + delta * max(alpha, 0) ** 2

    return action


@SETTINGS
@given(
    st.sampled_from(["Aab", "Aa", "Ba"]),
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.one_of(st.none(), nonzero_rationals),
    st.data(),
)
def test_module_axioms_match_full_scan(variant, central_value, delta, data):
    a = data.draw(rationals)
    kind = IntermediateKind(variant, a, data.draw(rationals) if variant == "Aab" else None)
    params = BlockParams(data.draw(rationals), data.draw(nonzero_rationals))
    # a nonzero central value shows at alpha = -beta with |alpha| >= 2
    window = Window(
        data.draw(st.integers(-3, -1)), data.draw(st.integers(1, 3)), data.draw(st.integers(0, 1))
    )
    lo = data.draw(st.integers(-3, 0))
    weight_range = (lo, lo + data.draw(st.integers(0, 4)))
    # delta perturbs the coefficient that the check and `act` both read
    action = intermediate._basis_action if delta is None else perturbed_action(delta)
    with mock.patch.object(intermediate, "_basis_action", action):
        got = module_axiom_check(kind, params, window, weight_range, central_value)
        want = full_module_axiom_check(kind, params, window, weight_range, central_value)
    assert printed(got) == printed(want)


@SETTINGS
@given(
    st.sampled_from(["Aab", "Aa", "Ba"]),
    rationals,
    rationals,
    nonzero_rationals,
    rationals,
    st.integers(-4, 4),
    st.integers(1, 4),
    st.integers(-6, 6),
)
def test_positive_levels_act_as_zero(variant, a, b, q, central_value, grade, level, m):
    # the module check skips every pair with a positive level on this rule
    kind = IntermediateKind(variant, a, b if variant == "Aab" else None)
    x = Element({Graded(grade, level): 1})
    v = ModuleVector({m: 1})
    assert not intermediate.act(kind, BlockParams(Fraction(1), q), x, v, central_value)
