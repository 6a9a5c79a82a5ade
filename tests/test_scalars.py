import operator
import random
from fractions import Fraction

import pytest

from blocklie.scalars import (
    Poly,
    PolyRing,
    SymbolTableError,
    accumulate,
    as_fraction,
    format_rational,
    parse_rational,
)


def test_rational_parse_and_format_round_trip():
    assert parse_rational("2/3") + parse_rational("1/6") == Fraction(5, 6)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert format_rational(Fraction(-3, 1)) == "-3"
    for bad in ["1.5", "2/0", "a", "1/-2", ""]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_ring_rejects_bad_symbol_tables():
    with pytest.raises(ValueError):
        PolyRing("p", "p")
    with pytest.raises(ValueError):
        PolyRing("")
    with pytest.raises(ValueError):
        PolyRing("2q")


def test_difference_of_squares():
    ring = PolyRing("p")
    p = ring.var("p")
    assert (p + 1) * (p - 1) == p**2 - 1


def test_bracket_coefficient_evaluation():
    # ((i+q)(beta+p) - (j+q)(alpha+p)) at i=0,j=0,alpha=1,beta=-1,p=1,q=1 -> -2
    ring = PolyRing("p", "q", "alpha", "beta", "i", "j")
    p, q = ring.var("p"), ring.var("q")
    alpha, beta = ring.var("alpha"), ring.var("beta")
    i, j = ring.var("i"), ring.var("j")
    coeff = (i + q) * (beta + p) - (j + q) * (alpha + p)
    value = coeff.compose(ring, {"i": 0, "j": 0, "alpha": 1, "beta": -1, "p": 1, "q": 1})
    assert value == -2
    assert as_fraction(value) == Fraction(-2)


def substitute(poly: Poly, bindings: dict) -> Poly:
    """Some symbols evaluated at rationals, the others kept, in the same
    ring, term by term: the oracle of `Poly.compose` at rational images."""
    values = {poly.ring.index(name): Fraction(v) for name, v in bindings.items()}
    acc: dict = {}
    for exps, coeff in poly.terms.items():
        kept = list(exps)
        for pos, value in values.items():
            coeff *= value ** exps[pos]
            kept[pos] = 0
        accumulate(acc, ((tuple(kept), coeff),))
    return Poly(poly.ring, acc)


def test_substitute_examples():
    ring = PolyRing("p", "q", "k")
    p, q, k = ring.var("p"), ring.var("q"), ring.var("k")
    # compose with rational images evaluates some symbols; the others remain
    assert (p**2 - 1).compose(ring, {"p": 3}) == 8
    partial = (2 * q + (1 - p**2) * k).compose(ring, {"p": 2, "q": 1})
    assert partial == 2 - 3 * k
    assert ring.zero.compose(ring, {"p": 5, "q": -1, "k": 7}).is_zero()


def test_degree_bounds():
    ring = PolyRing("p", "q", "alpha", "beta", "i", "j")
    p, q = ring.var("p"), ring.var("q")
    alpha, beta = ring.var("alpha"), ring.var("beta")
    i, j = ring.var("i"), ring.var("j")
    coeff = (i + q) * (beta + p) - (j + q) * (alpha + p)
    assert coeff.degree_bound("alpha") == 1
    assert (p**2 - 1).degree_bound("q") == 0
    assert ((i + 1) * (i - 2)).degree_bound("i") == 2
    with pytest.raises(SymbolTableError):
        coeff.degree_bound("zeta")


def test_symbol_table_mismatch_names_offender():
    a = PolyRing("p").var("p")
    b = PolyRing("q").var("q")
    with pytest.raises(SymbolTableError, match="q"):
        a + b


def test_a_ring_mismatch_raises_constants_included():
    # two polynomials combine only over one ring, a constant one too; a
    # rational combines with any polynomial
    a = PolyRing("p").var("p")
    c = PolyRing("q").const(Fraction(1, 2))
    for x, y in ((a, c), (c, a)):
        for combine in (operator.add, operator.sub, operator.mul):
            with pytest.raises(SymbolTableError, match="mismatch"):
                combine(x, y)
        assert x != y
    with pytest.raises(SymbolTableError, match="does not live"):
        a.compose(a.ring, {"p": c})
    assert c != PolyRing("p").const(Fraction(1, 2))
    assert a + Fraction(1, 2) == a + a.ring.const(Fraction(1, 2))


def _random_poly(rng, ring, max_terms=4, max_exp=3):
    terms = {}
    width = len(ring.symbols)
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(width))
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Poly(ring, {exps: c for exps, c in terms.items() if c})


def test_ring_axioms_on_random_term_sets():
    rng = random.Random(20240301)
    ring = PolyRing("x", "y", "z")
    for _ in range(60):
        f, g, h = (_random_poly(rng, ring) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f + ring.zero == f
        assert f * ring.one == f
        assert f - f == ring.zero


def test_substitute_is_a_homomorphism():
    rng = random.Random(7)
    ring = PolyRing("x", "y")
    for _ in range(40):
        f, g = _random_poly(rng, ring), _random_poly(rng, ring)
        bindings = {"x": Fraction(rng.randint(-5, 5), rng.randint(1, 4))}
        if rng.random() < 0.5:
            bindings["y"] = Fraction(rng.randint(-5, 5))
        fb, gb = f.compose(ring, bindings), g.compose(ring, bindings)
        assert (f * g).compose(ring, bindings) == fb * gb
        assert (f + g).compose(ring, bindings) == fb + gb
        assert (fb.ring, fb.terms) == (ring, substitute(f, bindings).terms)


def test_degree_bound_is_additive_for_products():
    rng = random.Random(99)
    ring = PolyRing("x", "y")
    for _ in range(40):
        f, g = _random_poly(rng, ring), _random_poly(rng, ring)
        if f.is_zero() or g.is_zero():
            continue
        for s in ring.symbols:
            assert (f * g).degree_bound(s) == f.degree_bound(s) + g.degree_bound(s)


def test_canonical_text_form():
    ring = PolyRing("p", "q")
    p, q = ring.var("p"), ring.var("q")
    assert str(2 * p**2 * q - Fraction(1, 3)) == "2*p^2*q - 1/3"
    assert str(ring.zero) == "0"
    assert str(-p) == "-p"
    assert str(p - q) == "p - q"


def test_no_zero_terms_stored():
    ring = PolyRing("x")
    x = ring.var("x")
    f = (x + 1) * (x - 1) - x * x
    assert f == -1
    assert len(f.terms) == 1
    assert (f + 1).terms == {}


def test_division_limits():
    ring = PolyRing("x")
    x = ring.var("x")
    assert (2 * x) / 2 == x
    assert x / Fraction(1, 3) == 3 * x
    with pytest.raises(ValueError):
        _ = x / x
    with pytest.raises(ZeroDivisionError):
        _ = x / 0


def assert_same_poly(result, expected):
    assert result.ring == expected.ring
    assert result.terms == expected.terms
    assert all(type(c) is Fraction for c in result.terms.values())


@pytest.mark.parametrize("value", [0, 1, -3, Fraction(2, 3), Fraction(-1, 2)])
def test_rational_constants_combine_as_their_coerced_polys(value):
    # an int or Fraction operand acts directly, without a `ring.const` Poly;
    # the result must equal combining with the coerced constant
    ring = PolyRing("p", "q")
    p, q = ring.var("p"), ring.var("q")
    poly = 3 * p**2 * q - Fraction(1, 2) * q + 1
    const = ring.const(value)
    assert_same_poly(poly + value, poly + const)
    assert_same_poly(value + poly, poly + const)
    assert_same_poly(poly - value, poly - const)
    assert_same_poly(value - poly, const - poly)
    assert_same_poly(poly * value, poly * const)
    assert_same_poly(value * poly, poly * const)
    assert_same_poly(p + value, p + const)  # no constant term to merge with
    assert_same_poly(poly + (-1 - value), poly + ring.const(-1 - value))  # cancels


def test_poly_times_zero_is_the_zero_poly():
    ring = PolyRing("p")
    assert_same_poly(ring.var("p") * 0, ring.zero)
    assert_same_poly(Fraction(0) * (ring.var("p") + 1), ring.zero)


def test_as_fraction_keeps_fractions_and_rejects_symbols():
    half = Fraction(1, 2)
    assert as_fraction(half) is half
    assert type(as_fraction(3)) is Fraction and as_fraction(3) == 3
    ring = PolyRing("p")
    assert as_fraction(ring.const(half)) == half
    with pytest.raises(ValueError, match="not a constant polynomial"):
        as_fraction(ring.var("p"))


def test_compose_lifts_by_name_into_a_wider_ring():
    small = PolyRing("p", "q")
    wide = PolyRing("q", "x", "p")
    p, q = small.var("p"), small.var("q")
    lifted = (2 * p**2 * q - Fraction(1, 3)).compose(wide)
    assert_same_poly(lifted, 2 * wide.var("p") ** 2 * wide.var("q") - Fraction(1, 3))
    assert_same_poly(small.zero.compose(wide), wide.zero)
    with pytest.raises(SymbolTableError, match="'q'"):
        q.compose(PolyRing("p"))


def test_compose_substitutes_polys_and_rationals():
    ring = PolyRing("x", "y", "z")
    x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
    f = x**2 * y - 3 * y * z + 1
    got = f.compose(ring, {"x": y + z, "y": Fraction(1, 2)})
    assert_same_poly(got, (y + z) ** 2 / 2 - Fraction(3, 2) * z + 1)
    # a swap is simultaneous, not one substitution after the other
    assert_same_poly((x - 2 * y).compose(ring, {"x": y, "y": x}), y - 2 * x)
    # an image from another ring raises
    with pytest.raises(SymbolTableError):
        x.compose(ring, {"x": PolyRing("w").var("w")})


def test_compose_is_a_homomorphism_and_agrees_with_substitute():
    rng = random.Random(11)
    source, target = PolyRing("x", "y"), PolyRing("s", "t")
    s, t = target.var("s"), target.var("t")
    for _ in range(40):
        f, g = _random_poly(rng, source), _random_poly(rng, source)
        images = {"x": _random_poly(rng, target, max_terms=3, max_exp=2), "y": s - 2 * t}
        assert (f * g).compose(target, images) == f.compose(target, images) * g.compose(target, images)
        assert (f + g).compose(target, images) == f.compose(target, images) + g.compose(target, images)
        point = {"x": Fraction(rng.randint(-5, 5), rng.randint(1, 4)), "y": Fraction(rng.randint(-5, 5))}
        assert f.compose(target, point) == substitute(f, point).constant_value()
