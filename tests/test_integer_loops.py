"""The verify proofs and the module check build no Fraction per step.

`engine._prove` lifts its inputs to integers once, the three Block proofs
read one lift per parameters (`BlockParams.lifted`) and compute on `Poly`s
with int coefficients, and `intermediate.module_axiom_check` clears one
denominator per call, so none of them builds a Fraction per product.
Counting `Fraction.__new__` shows Fraction arithmetic creeping back into
any of them: the prover's count is
bounded by its rule's term coefficients, the Block lift's by the
coefficients of its inputs (the parameters, the delta-free term and the
cocycle), a Block proof after the lift builds none, and a holding module
check builds as many Fractions on a wide window as on a narrow one.
"""

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

from blocklie.block import (
    CUBIC_COCYCLE,
    BlockParams,
    cocycle_jacobi_check,
    delta_free_rule,
    laurent_realization_check,
    virasoro_embedding_check,
)
from blocklie.engine import IDENTITIES, Window, _prove
from blocklie.intermediate import VARIANTS, IntermediateKind, module_axiom_check
from blocklie.novikov import (
    AffinizationParams,
    WittNovikovParams,
    affinize,
    perturbed_witt_rule,
    witt_product_rule,
)


@contextmanager
def counted_fractions():
    """Count the Fractions constructed inside the block, results of
    Fraction arithmetic included."""
    count = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    with mock.patch.object(Fraction, "__new__", counting):
        yield count


def test_counted_fractions_sees_fraction_arithmetic():
    half = Fraction(1, 2)
    with counted_fractions() as count:
        half * 3 + half
    assert count[0] == 2
    assert Fraction(2, 4) == half


def test_prover_builds_no_fraction_per_product():
    witt = WittNovikovParams(Fraction(1, 2), Fraction(-3, 4), 1)
    rules = [
        witt_product_rule(witt),
        perturbed_witt_rule(witt, "main", (1, 1), Fraction(5, 7)),
        affinize(
            perturbed_witt_rule(witt, "shift", (2, 0), Fraction(-1, 3)),
            AffinizationParams(Fraction(2, 9)),
        ),
        delta_free_rule(BlockParams(Fraction(2, 3), Fraction(-7, 5))),
    ]
    for rule in rules:
        coefficients = sum(len(coeff.terms) for _, coeff in rule.terms)
        with counted_fractions() as count:
            _prove(rule.terms, list(IDENTITIES))
        assert count[0] <= coefficients


def test_block_proofs_build_no_fraction_per_product():
    cocycle = len(CUBIC_COCYCLE.terms)
    for params in (
        BlockParams(Fraction(2, 3), Fraction(-7, 5)),
        BlockParams(0, Fraction(1, 2)),
        BlockParams(Fraction(1), Fraction(1)),
    ):
        ((_, coeff),) = delta_free_rule(params).terms
        with counted_fractions() as count:
            params.lifted
        # p and q, the delta-free term and the cocycle, once per params
        assert count[0] <= 2 + len(coeff.terms) + cocycle, params
        for check in (virasoro_embedding_check, laurent_realization_check, cocycle_jacobi_check):
            with counted_fractions() as count:
                assert check(params).holds
            assert count[0] == 0, (check, params)


def test_holding_module_check_builds_as_many_fractions_on_any_window():
    params = BlockParams(Fraction(1, 2), Fraction(3, 4))
    for variant in VARIANTS:
        b = Fraction(-5, 7) if variant == "Aab" else None
        kind = IntermediateKind(variant, Fraction(2, 3), b)
        counts = []
        for grades in (2, 6):
            with counted_fractions() as count:
                verdict = module_axiom_check(kind, params, Window(-grades, grades, 1), (-4, 4))
            assert verdict.holds
            counts.append(count[0])
        assert counts[0] == counts[1], variant
