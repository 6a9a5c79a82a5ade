import json
import random
from fractions import Fraction

import pytest

from blocklie.cli import ConfigError, load_config
from blocklie.engine import (
    CENTRAL,
    ClosureError,
    Element,
    Graded,
    Window,
    BracketRule,
    bracket_apply,
    first_failure,
    grid_identity_check,
    grid_needs,
    index_ring,
    membership,
    subalgebra_closure,
)
from blocklie.scalars import Poly, PolyRing, accumulate


def assert_same_terms(result, expected: dict) -> None:
    """`result`, an Element or a ModuleVector, has exactly the terms
    `expected`; a Poly coefficient compares by its ring and terms, as in
    `test_scalars.assert_same_poly`."""

    def plain(terms: dict) -> dict:
        return {k: (c.ring.symbols, c.terms) if isinstance(c, Poly) else c for k, c in terms.items()}

    assert plain(result.terms) == plain(expected)


def printed(verdict) -> tuple:
    """A verdict's fields as a report prints them: holds, witness, residual
    and scope."""
    return verdict.holds, verdict.witness, str(verdict.residual), verdict.scope


def combination(*pairs) -> Element:
    """The sum of coefficient * element over (coefficient, element) pairs,
    of the first element's class."""
    acc: dict = {}
    for coeff, element in pairs:
        accumulate(acc, element.terms.items(), coeff)
    return type(pairs[0][1])(acc)


def graded_bracket_rule(p, q, mu=0, theta=0, perturb_alpha_p=False):
    """Structure constants ((i+q)(beta+p)-(j+q)(alpha+p)) L[a+b,i+j] + (i-j)mu L[a+b+theta,i+j].

    Written out longhand as terms, so engine tests do not depend on the
    affinization module; `perturb_alpha_p` doubles p in the second product,
    which breaks Jacobi.
    """
    p_second = 2 * p if perturb_alpha_p else p
    ring, (P, Q, MU, P2) = index_ring(p, q, mu, p_second)
    a, i, b, j = (ring.var(name) for name in "aibj")
    terms = (((0, 0), (i + Q) * (b + P) - (j + Q) * (a + P2)), ((theta, 0), (i - j) * MU))
    return BracketRule(terms=terms)


def adjoint_chain(
    rule: BracketRule, z1: Element, z2: Element, l1: int, l2: int
) -> Element:
    """ad_{z2}^(l2-1) ad_{z1}^(l1) applied to z2, by iterated brackets."""
    if l1 < 0 or l2 < 1:
        raise ValueError("require l1 >= 0 and l2 >= 1")
    out = z2
    for _ in range(l1):
        out = bracket_apply(rule, z1, out)
    for _ in range(l2 - 1):
        out = bracket_apply(rule, z2, out)
    return out


def test_first_failure_returns_first_failing_tuple_and_its_residual():
    seen = []

    def residual(t):
        seen.append(t)
        a, b = t
        return Element({Graded(a, b): a * b - 2} if a * b != 2 else {})

    tuples = [(1, 2), (2, 1), (3, 1), (2, 2)]
    verdict = first_failure(iter(tuples), residual, "on_tested_grid")
    assert not verdict.holds
    assert verdict.witness == (3, 1)
    assert_same_terms(verdict.residual, {Graded(3, 1): 1})
    assert seen == tuples[:3]  # the scan stops at the witness
    held = first_failure(tuples[:2], residual, "on_tested_grid")
    assert (held.holds, held.scope) == (True, "on_tested_grid")
    assert first_failure([], residual, "on_window").scope == "on_window"


def test_graded_label_is_its_grade_level_pair():
    label = Graded(2, 1)
    assert (label.grade, label.level) == (2, 1)
    assert label == (2, 1) and hash(label) == hash((2, 1))
    assert str(label) == "L[2,1]"
    assert label != CENTRAL and Graded(Fraction(2), 1) == label


def test_bracket_apply_block_11_examples():
    rule = graded_bracket_rule(1, 1)
    x = Element({Graded(1, 0): 1})
    y = Element({Graded(-1, 0): 1})
    assert_same_terms(bracket_apply(rule, x, y), {Graded(0, 0): -2})
    assert bracket_apply(rule, x, x).is_zero()


def test_bracket_apply_is_bilinear():
    rng = random.Random(4242)
    rule = graded_bracket_rule(Fraction(2, 3), Fraction(-1, 2), mu=Fraction(5), theta=2)

    def rand_elem():
        terms = {
            Graded(rng.randint(-4, 4), rng.randint(0, 3)): Fraction(
                rng.randint(-6, 6), rng.randint(1, 4)
            )
            for _ in range(rng.randint(1, 3))
        }
        return Element({label: coeff for label, coeff in terms.items() if coeff})

    for _ in range(25):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        lhs = bracket_apply(rule, combination((a, x), (b, y)), z)
        rhs = combination((a, bracket_apply(rule, x, z)), (b, bracket_apply(rule, y, z)))
        assert_same_terms(lhs, rhs.terms)


def test_central_label_brackets_to_zero():
    rule = graded_bracket_rule(1, 1)
    x = Element({CENTRAL: 1, Graded(2, 1): Fraction(1, 2)})
    y = Element({Graded(0, 0): 1})
    out = bracket_apply(rule, x, y)
    assert CENTRAL not in out.terms
    assert_same_terms(out, bracket_apply(rule, Element({Graded(2, 1): Fraction(1, 2)}), y).terms)


def test_grid_jacobi_holds_for_witt_affinized_family():
    rule = graded_bracket_rule(1, 1, mu=2, theta=1)
    verdict = grid_identity_check(rule, "jacobi", [-1, 0, 1], [0, 1, 2])
    assert verdict.holds


def test_grid_jacobi_catches_mutation():
    rule = graded_bracket_rule(1, 1, perturb_alpha_p=True)
    verdict = grid_identity_check(rule, "jacobi", [-1, 0, 1], [0, 1, 2])
    assert not verdict.holds
    assert verdict.witness is not None
    assert not verdict.residual.is_zero()


def test_grid_verdict_extends_beyond_the_grid():
    # universality oracle: after the 3-point grid certifies Jacobi, the
    # residual must also vanish at arbitrary out-of-grid integer indices
    rule = graded_bracket_rule(Fraction(5, 7), Fraction(-3), mu=Fraction(1, 2), theta=2)
    assert grid_identity_check(rule, "jacobi", [-1, 0, 1], [0, 1, 2]).holds
    rng = random.Random(97)
    for _ in range(30):
        labels = [
            Element({Graded(rng.randint(-25, 25), rng.randint(-9, 9)): 1}) for _ in range(3)
        ]
        x, y, z = labels
        residual = combination(
            (1, bracket_apply(rule, x, bracket_apply(rule, y, z))),
            (1, bracket_apply(rule, z, bracket_apply(rule, x, y))),
            (1, bracket_apply(rule, y, bracket_apply(rule, z, x))),
        )
        assert residual.is_zero()


def test_grid_accepts_rational_values():
    rule = graded_bracket_rule(Fraction(1, 3), Fraction(2))
    verdict = grid_identity_check(
        rule, "jacobi", [Fraction(-1, 2), 0, 1], [0, Fraction(1, 2), 2]
    )
    assert verdict.holds


def test_insufficient_grid_is_an_error(tmp_path):
    # a Jacobi residual of this rule has degree 2 in each index, so 3 values
    # hold a witness; a job's grid is held to that at load, with its field
    assert grid_needs(graded_bracket_rule(1, 1), ["jacobi"]) == {"grade": 3, "level": 3}
    payload = {
        "job": "blockcheck",
        "p": "1",
        "q": "1",
        "window": {"grade_min": -1, "grade_max": 1, "level_max": 0},
    }
    path = tmp_path / "job.json"
    for grades, message in ((["0", "1"], "at least 3"), (["0", "1", "1"], "distinct")):
        path.write_text(json.dumps({**payload, "jacobi_grades": grades}))
        with pytest.raises(ConfigError, match=f"'jacobi_grades'.*{message}"):
            load_config(str(path))


def test_closure_of_two_positive_generators():
    rule = graded_bracket_rule(1, 1)
    window = Window(0, 6, 0)
    closure = subalgebra_closure(
        rule, [Element({Graded(1, 0): 1}), Element({Graded(2, 0): 1})], window
    )
    grades = closure.by_grade()
    for grade in range(3, 7):
        assert [row.terms for row in grades[grade]] == [{Graded(grade, 0): 1}]
    assert membership(Element({Graded(4, 0): 1}), closure)
    assert not membership(Element({CENTRAL: 1}), closure)
    assert membership(Element.zero(), closure)


def test_closure_of_central_and_single_generators():
    rule = graded_bracket_rule(1, 1)
    window = Window(-2, 2, 1)
    central = subalgebra_closure(rule, [Element({CENTRAL: 1})], window)
    assert [row.terms for row in central.rows] == [{CENTRAL: 1}]
    single = subalgebra_closure(rule, [Element({Graded(0, 0): 1})], window)
    assert [row.terms for row in single.rows] == [{Graded(0, 0): 1}]


def test_closure_rejects_symbolic_coefficients():
    ring = PolyRing("q")
    rule = graded_bracket_rule(1, ring.var("q"))
    gens = [Element({Graded(1, 0): 1}), Element({Graded(2, 0): 1})]
    with pytest.raises(ClosureError, match="symbolic"):
        subalgebra_closure(rule, gens, Window(0, 3, 0))
    with pytest.raises(ClosureError, match="symbolic"):
        subalgebra_closure(
            graded_bracket_rule(1, 1),
            [Element({Graded(1, 0): ring.var("q")})],
            Window(0, 3, 0),
        )


def test_membership_requires_window():
    rule = graded_bracket_rule(1, 1)
    closure = subalgebra_closure(rule, [Element({Graded(1, 0): 1})], Window(0, 2, 0))
    with pytest.raises(ClosureError, match="outside"):
        membership(Element({Graded(5, 0): 1}), closure)


def test_closure_monotone_and_idempotent():
    rule = graded_bracket_rule(1, 1)
    gens = [Element({Graded(1, 0): 1}), Element({Graded(2, 0): 1})]
    small = subalgebra_closure(rule, gens, Window(0, 4, 0))
    large = subalgebra_closure(rule, gens, Window(0, 8, 0))
    for row in small.rows:
        assert membership(row, large)
    again = subalgebra_closure(rule, list(large.rows), Window(0, 8, 0))
    assert [row.terms for row in again.rows] == [row.terms for row in large.rows]


def test_closure_reduces_dependent_generators():
    rule = graded_bracket_rule(1, 1)
    gens = [Element({Graded(1, 0): 1}), Element({Graded(1, 0): 2, Graded(2, 0): 1})]
    closure = subalgebra_closure(rule, gens, Window(0, 3, 0))
    # echelon rows are canonical: L[1,0], L[2,0], L[3,0]
    assert [row.terms for row in closure.rows] == [{Graded(g, 0): 1} for g in (1, 2, 3)]


def test_adjoint_chain_examples_with_symbolic_q():
    ring = PolyRing("p", "q")
    p, q = ring.var("p"), ring.var("q")
    rule = graded_bracket_rule(p, q)
    z1 = Element({Graded(2, 0): 1})
    z2 = Element({Graded(1, 0): 1})
    assert_same_terms(adjoint_chain(rule, z1, z2, 1, 1), {Graded(3, 0): -q})
    assert_same_terms(adjoint_chain(rule, z1, z2, 2, 1), {Graded(5, 0): -(q**2)})
    assert_same_terms(adjoint_chain(rule, z1, z2, 1, 2), {Graded(4, 0): -2 * q**2})
    with pytest.raises(ValueError):
        adjoint_chain(rule, z1, z2, -1, 1)
    with pytest.raises(ValueError):
        adjoint_chain(rule, z1, z2, 1, 0)


def adjoint_chain_closed_form(mu0: int, l1: int, l2: int, q) -> dict:
    """Independent closed form, as terms: q^(l1+l2-1) * prod(-(i-1)mu0+i-2,
    i=1..l1) * prod(-(l1+j-1)mu0+l1, j=1..l2-1) at grade l1(1-mu0)-l2*mu0,
    level 0."""
    coeff = q ** (l1 + l2 - 1)
    for i in range(1, l1 + 1):
        coeff = coeff * (-(i - 1) * mu0 + i - 2)
    for j in range(1, l2):
        coeff = coeff * (-(l1 + j - 1) * mu0 + l1)
    return {Graded(l1 * (1 - mu0) - l2 * mu0, 0): coeff} if coeff else {}


def test_adjoint_chain_matches_closed_form_grid():
    ring = PolyRing("q")
    q = ring.var("q")
    for mu0 in (-1, -2, -3):
        rule = graded_bracket_rule(Fraction(7, 2), q)
        z1 = Element({Graded(1 - mu0, 0): 1})
        z2 = Element({Graded(-mu0, 0): 1})
        for l1 in range(1, 6):
            for l2 in range(1, 6):
                got = adjoint_chain(rule, z1, z2, l1, l2)
                assert_same_terms(got, adjoint_chain_closed_form(mu0, l1, l2, q))
