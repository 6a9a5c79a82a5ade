import random
from fractions import Fraction
from functools import cache, lru_cache, partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklie.block import BlockParams, basis_bracket
from blocklie.engine import CENTRAL, Element, Graded, Window, first_failure
from blocklie.intermediate import (
    VARIANTS,
    IntermediateKind,
    ModuleVector,
    act,
    module_axiom_check,
)
from blocklie.scalars import as_fraction


def weight_shift_family(a, b) -> IntermediateKind:
    return IntermediateKind("Aab", Fraction(a), Fraction(b))


def zero_exception_family(a) -> IntermediateKind:
    return IntermediateKind("Aa", Fraction(a))


def diagonal_exception_family(a) -> IntermediateKind:
    return IntermediateKind("Ba", Fraction(a))


P31 = BlockParams(p=Fraction(3), q=Fraction(1))


def test_weight_shift_action_example():
    kind = weight_shift_family(Fraction(1, 2), 0)
    out = act(kind, P31, Element.basis(Graded(2, 0)), ModuleVector.basis(1))
    assert out == ModuleVector.basis(3, Fraction(3, 2))


def test_positive_levels_act_as_zero():
    v = ModuleVector.basis(4)
    for kind in (
        weight_shift_family(Fraction(1, 2), 0),
        zero_exception_family(2),
        diagonal_exception_family(2),
    ):
        assert act(kind, P31, Element.basis(Graded(3, 1)), v).is_zero()
        assert act(kind, P31, Element.basis(Graded(-1, 5)), v).is_zero()


def test_diagonal_exception_action_example():
    kind = diagonal_exception_family(2)
    out = act(kind, P31, Element.basis(Graded(1, 0)), ModuleVector.basis(-1))
    assert out == ModuleVector.basis(0, -3)
    # generic weight index: q*m
    out = act(kind, P31, Element.basis(Graded(1, 0)), ModuleVector.basis(2))
    assert out == ModuleVector.basis(3, 2)


def test_zero_exception_action():
    kind = zero_exception_family(Fraction(5, 2))
    params = BlockParams(p=Fraction(1), q=Fraction(2))
    assert act(kind, params, Element.basis(Graded(3, 0)), ModuleVector.basis(0)) == (
        ModuleVector.basis(3, 2 * 3 * Fraction(11, 2))
    )
    assert act(kind, params, Element.basis(Graded(3, 0)), ModuleVector.basis(2)) == (
        ModuleVector.basis(5, 10)
    )


def test_central_element_acts_as_zero_by_default():
    kind = weight_shift_family(1, 1)
    out = act(kind, P31, Element.basis(CENTRAL, 7), ModuleVector.basis(0))
    assert out.is_zero()


def test_act_is_linear_in_both_arguments():
    rng = random.Random(555)
    kind = weight_shift_family(Fraction(1, 3), Fraction(-2))
    params = BlockParams(p=Fraction(2), q=Fraction(-5, 3))

    def rand_elem():
        return Element(
            {
                Graded(rng.randint(-3, 3), rng.randint(0, 2)): Fraction(
                    rng.randint(-5, 5), rng.randint(1, 3)
                )
                for _ in range(2)
            }
        )

    def rand_vec():
        return ModuleVector(
            {rng.randint(-4, 4): Fraction(rng.randint(-5, 5)) for _ in range(2)}
        )

    for _ in range(20):
        x, y = rand_elem(), rand_elem()
        v, w = rand_vec(), rand_vec()
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert act(kind, params, x + y.scaled(s), v) == act(kind, params, x, v) + act(
            kind, params, y, v
        ).scaled(s)
        assert act(kind, params, x, v + w.scaled(s)) == act(kind, params, x, v) + act(
            kind, params, x, w
        ).scaled(s)


def test_module_axiom_check_holds_for_all_three_families():
    window = Window(-3, 3, 2)
    kinds = [
        weight_shift_family(Fraction(1, 2), 0),
        zero_exception_family(Fraction(1, 2)),
        diagonal_exception_family(Fraction(1, 2)),
    ]
    for kind in kinds:
        verdict = module_axiom_check(kind, P31, window, (-5, 5))
        assert verdict.holds, kind


def test_module_axiom_check_random_parameters():
    rng = random.Random(909)
    window = Window(-2, 2, 1)
    for _ in range(5):
        params = BlockParams(
            p=Fraction(rng.randint(-6, 6)),
            q=Fraction(rng.randint(1, 9), rng.randint(1, 4)),
        )
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for kind in (
            weight_shift_family(a, b),
            zero_exception_family(a),
            diagonal_exception_family(a),
        ):
            assert module_axiom_check(kind, params, window, (-4, 4)).holds


def test_nonzero_central_action_fails_at_documented_witness():
    kind = weight_shift_family(Fraction(1, 2), 0)
    verdict = module_axiom_check(
        kind, P31, Window(-2, 2, 1), (-2, 2), central_value=Fraction(1)
    )
    assert not verdict.holds
    assert verdict.witness[:4] == (2, -2, 0, 0)


def test_specializations_match_away_from_exceptional_indices():
    params = BlockParams(p=Fraction(2), q=Fraction(3, 2))
    shift_01 = weight_shift_family(0, 1)
    shift_00 = weight_shift_family(0, 0)
    zero_exc = zero_exception_family(Fraction(7, 3))
    diag_exc = diagonal_exception_family(Fraction(7, 3))
    for alpha in range(-3, 4):
        x = Element.basis(Graded(alpha, 0))
        for m in range(-4, 5):
            v = ModuleVector.basis(m)
            if m != 0:
                assert act(shift_01, params, x, v) == act(zero_exc, params, x, v)
            if m != -alpha:
                assert act(shift_00, params, x, v) == act(diag_exc, params, x, v)


def test_kind_validation():
    with pytest.raises(ValueError, match="variant"):
        IntermediateKind("Xy", Fraction(1))
    with pytest.raises(ValueError, match="b is required"):
        IntermediateKind("Aab", Fraction(1))
    with pytest.raises(ValueError, match="b is required"):
        IntermediateKind("Aa", Fraction(1), Fraction(2))


# -- the Fraction module check, as an oracle ---------------------------------------


def fraction_basis_action(kind: IntermediateKind, q: Fraction, alpha: int, m: int) -> Fraction:
    """The coefficient with which L[alpha,0] sends v_m to v_{alpha+m}."""
    if kind.variant == "Aab":
        return q * (kind.a + m + kind.b * alpha)
    if kind.variant == "Aa":
        return q * (m + alpha) if m != 0 else q * alpha * (kind.a + alpha)
    return q * m if m != -alpha else -q * alpha * (kind.a + alpha)


def fraction_module_axiom_check(kind, params, window, weight_range, central_value=Fraction(0)):
    """`module_axiom_check` in Fraction arithmetic, bracketing each level-0
    pair with `basis_bracket`."""
    A = partial(fraction_basis_action, kind, as_fraction(params.q))
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
    return first_failure(tuples, residual, "on_window")


wide_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
CENTRAL_VALUES = (Fraction(0), Fraction(1), Fraction(1, 7), Fraction(-2, 3))


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(
    st.sampled_from(VARIANTS),
    st.lists(wide_rationals, min_size=3, max_size=3),
    wide_rationals.filter(bool),
    st.sampled_from(CENTRAL_VALUES),
    st.tuples(st.integers(-4, 2), st.integers(0, 5)),
    st.tuples(st.integers(-4, 2), st.integers(0, 4)),
)
def test_integer_module_check_matches_the_fraction_check(
    variant, abp, q, central_value, grades, weights
):
    # windows start at -4..2, so some lack grade 0 and some hold alpha = -beta
    a, b, p = abp
    kind = IntermediateKind(variant, a, b if variant == "Aab" else None)
    params = BlockParams(p, q)
    window = Window(grades[0], grades[0] + grades[1], 1)
    weight_range = (weights[0], weights[0] + weights[1])
    got = module_axiom_check(kind, params, window, weight_range, central_value)
    want = fraction_module_axiom_check(kind, params, window, weight_range, central_value)
    assert str(got) == str(want)


def test_integer_module_check_matches_the_fraction_check_on_failing_inputs():
    # a nonzero central value fails at alpha = -beta, |alpha| >= 2; grades 1..4 never meet it
    params = BlockParams(Fraction(-5, 9), Fraction(7, 6))
    kinds = [
        weight_shift_family(Fraction(4, 9), Fraction(-8, 3)),
        zero_exception_family(Fraction(-7, 8)),
        diagonal_exception_family(Fraction(5, 4)),
    ]
    for kind in kinds:
        for central_value in CENTRAL_VALUES:
            for window in (Window(-3, 3, 1), Window(1, 4, 0)):
                got = module_axiom_check(kind, params, window, (-3, 3), central_value)
                want = fraction_module_axiom_check(kind, params, window, (-3, 3), central_value)
                assert str(got) == str(want)
                assert got.holds == (not central_value or window.grade_min > 0)
