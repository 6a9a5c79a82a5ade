import itertools
import random
from fractions import Fraction

import pytest

from blocklie.engine import (
    BracketRule,
    Element,
    Graded,
    InsufficientGridError,
    Verdict,
    Window,
    bracket_apply,
    first_failure,
    grid_identity_check,
    index_ring,
)
from blocklie.novikov import (
    AffinizationParams,
    WittNovikovParams,
    affinize,
    novikov_axiom_check,
    perturbed_witt_rule,
    table_product_rule,
    theorem22_probe,
    witt_novikov_product,
    witt_product_rule,
)
from blocklie.scalars import PolyRing

GRID = [-2, -1, 0, 1, 2]


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

    return first_failure(window.pairs(), residual, "on_window")


def test_witt_product_examples():
    assert witt_novikov_product(WittNovikovParams(p=2), 1, 2) == Element.basis(
        Graded(3, 0), 4
    )
    assert witt_novikov_product(
        WittNovikovParams(p=2, mu=3, theta=1), 1, 2
    ) == Element.basis(Graded(3, 0), 4) + Element.basis(Graded(4, 0), 3)
    assert witt_novikov_product(WittNovikovParams(p=0), 0, 0).is_zero()


def test_novikov_axioms_hold_for_witt_family():
    for p, mu, theta in [
        (Fraction(1), Fraction(0), 0),
        (Fraction(-3, 2), Fraction(2, 5), 1),
        (Fraction(4), Fraction(-1), -2),
    ]:
        rule = witt_product_rule(WittNovikovParams(p=p, mu=mu, theta=theta))
        verdicts = novikov_axiom_check(rule, [-1, 0, 1])
        assert verdicts.left_symmetry.holds and verdicts.right_commutativity.holds


def test_novikov_axioms_hold_with_symbolic_parameters():
    ring = PolyRing("p", "mu")
    params = WittNovikovParams(p=ring.var("p"), mu=ring.var("mu"), theta=2)
    verdicts = novikov_axiom_check(witt_product_rule(params), [-1, 0, 1])
    assert verdicts.holds


def test_mutated_rule_breaks_right_commutativity():
    # x_a x_b = (b+p) x_{a+b} + mu*a x_{a+b+theta}
    params = WittNovikovParams(p=Fraction(2), mu=Fraction(0), theta=1)

    def pair(a, b):
        return Element.basis(Graded(a + b, 0), b + 2) + Element.basis(
            Graded(a + b + 1, 0), 3 * a
        )

    rule = BracketRule(lambda x, y: pair(x.grade, y.grade))
    verdicts = novikov_axiom_check(rule, GRID[1:4])
    assert not verdicts.right_commutativity.holds
    assert verdicts.right_commutativity.witness is not None
    assert novikov_axiom_check(witt_product_rule(params), GRID[1:4]).holds


def test_zero_product_satisfies_both_axioms():
    rule = BracketRule(lambda x, y: Element.zero())
    verdicts = novikov_axiom_check(rule, [0])
    assert verdicts.holds


def test_bracket_apply_extends_products_bilinearly():
    rng = random.Random(1212)
    rule = witt_product_rule(WittNovikovParams(p=Fraction(2), mu=Fraction(1), theta=1))

    def rand_elem():
        return Element(
            {
                Graded(rng.randint(-3, 3), 0): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                for _ in range(2)
            }
        )

    for _ in range(15):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lhs = bracket_apply(rule, x + y.scaled(s), z)
        rhs = bracket_apply(rule, x, z) + bracket_apply(rule, y, z).scaled(s)
        assert lhs == rhs
        lhs = bracket_apply(rule, z, x + y.scaled(s))
        rhs = bracket_apply(rule, z, x) + bracket_apply(rule, z, y).scaled(s)
        assert lhs == rhs
    assert bracket_apply(
        rule, Element.basis(Graded(1, 0)), Element.basis(Graded(2, 0))
    ) == witt_novikov_product(WittNovikovParams(p=Fraction(2), mu=Fraction(1), theta=1), 1, 2)


def test_insufficient_axiom_grid_errors():
    rule = witt_product_rule(WittNovikovParams(p=1))
    with pytest.raises(InsufficientGridError):
        novikov_axiom_check(rule, [0, 1])


def test_affinize_matches_displayed_structure_constants_symbolically():
    ring = PolyRing("p", "q", "mu")
    p, q, mu = ring.var("p"), ring.var("q"), ring.var("mu")
    rule = affinize(
        witt_product_rule(WittNovikovParams(p=p, mu=mu, theta=1)),
        AffinizationParams(q=q),
    )
    for a, i, b, j in itertools.product([-2, 0, 1, 3], [-1, 0, 2], [-1, 2], [0, 1]):
        got = rule.pair(Graded(a, i), Graded(b, j))
        expected = Element.basis(
            Graded(a + b, i + j), (i + q) * (b + p) - (j + q) * (a + p)
        ) + Element.basis(Graded(a + b + 1, i + j), (i - j) * mu)
        assert got == expected


def test_affinize_merges_colliding_terms_when_theta_zero():
    ring = PolyRing("p", "q", "mu")
    p, q, mu = ring.var("p"), ring.var("q"), ring.var("mu")
    rule = affinize(
        witt_product_rule(WittNovikovParams(p=p, mu=mu, theta=0)),
        AffinizationParams(q=q),
    )
    got = rule.pair(Graded(2, 1), Graded(-1, 3))
    coeff = (1 + q) * (-1 + p) - (3 + q) * (2 + p) + (1 - 3) * mu
    assert got == Element.basis(Graded(1, 4), coeff)


def test_affinize_definition_holds_symbol_for_symbol():
    ring = PolyRing("q")
    q = ring.var("q")
    base = witt_product_rule(WittNovikovParams(p=Fraction(3, 2), mu=Fraction(-2), theta=2))
    rule = affinize(base, AffinizationParams(q=q))

    def relevel(product, level):
        return Element({Graded(t.grade, level): c for t, c in product.terms.items()})

    for a, m, b, n in itertools.product([-2, 1], [-1, 0, 2], [0, 3], [-2, 1]):
        ab = relevel(base.pair(Graded(a, 0), Graded(b, 0)), m + n)
        ba = relevel(base.pair(Graded(b, 0), Graded(a, 0)), m + n)
        assert rule.pair(Graded(a, m), Graded(b, n)) == ab.scaled(m + q) + ba.scaled(
            -(n + q)
        )


def test_zero_product_affinizes_to_zero_bracket():
    rule = affinize(BracketRule(terms=()), AffinizationParams(q=Fraction(5)))
    assert rule.pair(Graded(1, 2), Graded(-1, 0)).is_zero()


def test_theorem22_probe_on_witt_rule():
    report = theorem22_probe(
        witt_product_rule(WittNovikovParams(p=Fraction(2), mu=Fraction(1), theta=1)),
        AffinizationParams(q=Fraction(1)),
        GRID[1:4],
        [0, 1, 2],
    )
    assert report.novikov.holds
    assert report.jacobi_of_affinization.holds
    assert report.equivalence_observed


def test_theorem22_probe_on_broken_rule():
    # x_a x_b = (b+1) x_{a+b} + 2a x_{a+b+1}
    ring = index_ring()[0]
    a, b = ring.var("a"), ring.var("b")
    report = theorem22_probe(
        BracketRule(terms=(((0, 0), b + 1), ((1, 0), 2 * a))),
        AffinizationParams(q=Fraction(1)),
        GRID[1:4],
        [0, 1, 2],
    )
    assert not report.novikov.holds
    assert not report.jacobi_of_affinization.holds
    assert report.equivalence_observed


def test_theorem22_probe_on_commutative_associative_rule():
    # group-algebra style product x_a x_b = x_{a+b}; on the single index 0 it
    # is the one-dimensional unital algebra
    rule = BracketRule(terms=(((0, 0), index_ring()[0].one),))
    report = theorem22_probe(rule, AffinizationParams(q=Fraction(1)), [0], [0, 1, 2])
    assert report.novikov.holds
    assert report.jacobi_of_affinization.holds
    assert report.equivalence_observed


def test_equivalence_observed_for_random_single_coefficient_mutations():
    rng = random.Random(777)
    base = WittNovikovParams(p=Fraction(2), mu=Fraction(1, 2), theta=1)
    for _ in range(12):
        target = rng.choice(["main", "shift"])
        exponents = (rng.randint(0, 2), rng.randint(0, 2))
        delta = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        mutated = perturbed_witt_rule(base, target, exponents, delta)
        bound = mutated.grade_degree_bound
        grades = list(range(-bound, bound + 1))
        report = theorem22_probe(
            mutated, AffinizationParams(q=Fraction(1)), grades, [0, 1, 2]
        )
        assert report.equivalence_observed, (target, exponents, delta)


def test_affinized_rule_passes_jacobi_iff_q_symbolic_too():
    ring = PolyRing("q")
    rule = affinize(
        witt_product_rule(WittNovikovParams(p=Fraction(1), mu=Fraction(2), theta=1)),
        AffinizationParams(q=ring.var("q")),
    )
    assert grid_identity_check(rule, "jacobi", [-1, 0, 1], [0, 1, 2]).holds


def test_block_sZ_reindex_check():
    window = Window(-3, 3, 3)
    for s in (Fraction(1), Fraction(2), Fraction(5, 2)):
        verdict = block_sZ_reindex_check(s, window)
        assert verdict.holds, s


def test_block_sZ_reindex_check_detects_wrong_parameters():
    # the displayed relation pins (p, q, mu, theta); a wrong s must fail
    rule = affinize(
        witt_product_rule(WittNovikovParams(p=Fraction(1), mu=Fraction(-2), theta=1)),
        AffinizationParams(q=Fraction(1)),
    )
    s = Fraction(3)  # relation written for s=3 against the s=2 algebra
    got = rule.pair(Graded(0, 0), Graded(1, 1))
    expected = Element.basis(Graded(0, 1), s * 1) + Element.basis(
        Graded(-1, 1), (0 + s - 1) * 2 - (1 + s - 1) * 1
    )
    assert got != expected


def test_table_product_rule_axiom_check():
    # the unital one-dimensional algebra as a table: x_0 x_0 = x_0
    unital = table_product_rule({(0, 0): Element.basis(Graded(0, 0))})
    assert unital.terms is None
    verdicts = novikov_axiom_check(unital, [0])
    assert verdicts.holds
    assert str(verdicts.left_symmetry) == str(verdicts.right_commutativity) == "holds_on_tested_grid"
    # a table that is not right-commutative: (x0 x0) x1 = x1 but (x0 x1) x0 = 0
    broken = table_product_rule(
        {
            (0, 0): Element.basis(Graded(0, 0)),
            (0, 1): Element.basis(Graded(1, 0)),
            (1, 0): Element.zero(),
        }
    )
    verdicts = novikov_axiom_check(broken, [0, 1])
    assert not verdicts.right_commutativity.holds


def test_table_rule_missing_pairs_multiply_to_zero():
    rule = table_product_rule({(1, 1): Element.basis(Graded(2, 0), 5)})
    assert rule.pair(Graded(1, 0), Graded(1, 0)) == Element.basis(Graded(2, 0), 5)
    assert rule.pair(Graded(0, 0), Graded(1, 0)).is_zero()


def test_affinization_is_natural_under_grade_shift():
    delta = 3
    base = witt_product_rule(WittNovikovParams(p=Fraction(5, 3), mu=Fraction(1), theta=1))

    def shifted_pair(a, b):
        # product rule of the relabeled basis z_a = x_{a+delta}
        original = base.pair(Graded(a + delta, 0), Graded(b + delta, 0))
        return Element({Graded(t.grade - delta, 0): c for t, c in original.terms.items()})

    # z_a z_b = x_{a+delta} x_{b+delta}: each term moves by delta at offset + delta
    ring = base.terms[0][1].ring
    moved = {"a": ring.var("a") + delta, "b": ring.var("b") + delta}
    shifted = BracketRule(
        terms=tuple(
            ((dg + delta, dl), coeff.compose(ring, moved)) for (dg, dl), coeff in base.terms
        )
    )
    for a, b in itertools.product(range(-2, 3), repeat=2):
        assert shifted.pair(Graded(a, 0), Graded(b, 0)) == shifted_pair(a, b)
    q = AffinizationParams(q=Fraction(2))
    left = affinize(shifted, q)
    right = affinize(base, q)
    for a, m, b, n in itertools.product([-1, 0, 2], [0, 1], [-2, 1], [0, 2]):
        via_shifted = left.pair(Graded(a, m), Graded(b, n))
        via_original = right.pair(Graded(a + delta, m), Graded(b + delta, n))
        relabeled = Element(
            {Graded(t.grade - delta, t.level): c for t, c in via_original.terms.items()}
        )
        assert via_shifted == relabeled
