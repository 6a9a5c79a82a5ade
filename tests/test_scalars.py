import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blocklie.scalars import (
    Poly,
    PolyRing,
    SymbolTableError,
    _product,
    accumulate,
    as_fraction,
    parse_rational,
)
from test_integer_loops import counted_fractions


def test_rational_parse_and_format_round_trip():
    assert parse_rational("2/3") + parse_rational("1/6") == Fraction(5, 6)
    assert parse_rational("-7") == Fraction(-7)
    assert str(Fraction(4, 6)) == "2/3"
    assert str(Fraction(-3, 1)) == "-3"
    for bad in ["1.5", "2/0", "a", "1/-2", ""]:
        with pytest.raises(ValueError):
            parse_rational(bad)


# "a" or "a/b": the regex that once read every literal
RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")


def regex_rational(text: str) -> Fraction:
    """`parse_rational` on a string through one regex alone, which also reads
    "a": the oracle of its integer short path."""
    match = RATIONAL_RE.match(text.strip())
    if not match:
        raise ValueError(f"not a rational literal: {text!r}")
    numerator, denominator = match.groups()
    return Fraction(int(numerator), int(denominator or 1))


def outcome(parse, text: str):
    """The Fraction `parse` gives `text`, or the type of the error it raises."""
    try:
        return parse(text)
    except Exception as exc:  # the error's type is compared, whatever it is
        return type(exc)


# ASCII digits, a non-ASCII decimal digit (ARABIC-INDIC THREE, category Nd),
# a superscript digit that is no decimal (category No), digit separators that
# `int` accepts, signs, the fraction bar and whitespace
@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(st.text(st.sampled_from("0123456789\u0663\u00b2_+-/ \t\n\u00a0"), max_size=8))
@example("\u0663")
@example("-\u0663\u0663")
@example(" +07 ")
@example("1_000")
@example("\u00b2")
@example("--1")
@example("+")
def test_parse_rational_matches_the_regex_route(text):
    got, expected = outcome(parse_rational, text), outcome(regex_rational, text)
    assert got == expected and type(got) is type(expected), text


def test_ring_rejects_bad_symbol_tables():
    with pytest.raises(ValueError):
        PolyRing("p", "p")
    with pytest.raises(ValueError):
        PolyRing("")
    with pytest.raises(ValueError):
        PolyRing("2q")


def assert_same_poly(result, expected):
    assert result.ring == expected.ring
    assert result.terms == expected.terms
    assert all(type(c) is Fraction for c in result.terms.values())


def degree_bound(poly: Poly, symbol: str) -> int:
    """Exact maximum exponent of `symbol` across the support (0 if absent);
    an undeclared symbol raises `SymbolTableError`.  The tests' reading: the
    program reads a rule's two bounds in one pass (`engine._degree_bounds`)."""
    pos = poly.ring.index(symbol)
    return max((exps[pos] for exps in poly.terms), default=0)


def compose(poly: Poly, ring: PolyRing, images: dict | None = None) -> Poly:
    """`poly` with `images[name]`, a Poly of `ring`, substituted for each
    symbol (an image from another ring raises `SymbolTableError`); a symbol
    without an image becomes the same-named symbol of `ring`, so the call with
    no images lifts a polynomial as `Poly.into` does.  The tests' substitution:
    the program substitutes only on packed ints (`engine._prove`) and, in the
    Block proofs, the cocycle's one symbol (`block._cocycle_at`)."""
    images = images or {}

    def image(pos: int) -> dict:
        name = poly.ring.symbols[pos]
        value = images.get(name)
        if value is None:
            value = ring.var(name)
        elif value.ring != ring:
            raise SymbolTableError(f"image of {name!r} does not live in {ring!r}")
        return value.terms

    used = {pos for exps in poly.terms for pos, e in enumerate(exps) if e}
    # powers[pos][e] holds the terms of image(pos)^e, built as exponents demand
    powers = {pos: [None, image(pos)] for pos in used}
    unit = (0,) * len(ring.symbols)
    acc: dict = {}
    for exps, coeff in poly.terms.items():
        term = {unit: coeff}
        for pos, e in enumerate(exps):
            if e:
                chain = powers[pos]
                while len(chain) <= e:
                    chain.append(_product(chain[-1], chain[1]))
                term = _product(term, chain[e])
        accumulate(acc, term.items())
    return Poly(ring, acc)


def constants(ring: PolyRing, bindings: dict) -> dict:
    """Each rational of `bindings` as a constant of `ring`: the images at
    which `compose` evaluates."""
    return {name: ring.const(value) for name, value in bindings.items()}


def test_difference_of_squares():
    ring = PolyRing("p")
    p = ring.var("p")
    one = ring.one
    assert_same_poly((p + 1) * (p - one), p**2 - one)


def test_bracket_coefficient_evaluation():
    # ((i+q)(beta+p) - (j+q)(alpha+p)) at i=0,j=0,alpha=1,beta=-1,p=1,q=1 -> -2
    ring = PolyRing("p", "q", "alpha", "beta", "i", "j")
    p, q = ring.var("p"), ring.var("q")
    alpha, beta = ring.var("alpha"), ring.var("beta")
    i, j = ring.var("i"), ring.var("j")
    coeff = (i + q) * (beta + p) - (j + q) * (alpha + p)
    point = {"i": 0, "j": 0, "alpha": 1, "beta": -1, "p": 1, "q": 1}
    assert_same_poly(compose(coeff, ring, constants(ring, point)), ring.const(-2))


def substitute(poly: Poly, bindings: dict) -> Poly:
    """Some symbols evaluated at rationals, the others kept, in the same
    ring, term by term: the oracle of `Poly.compose` at constant images."""
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
    # compose with constant images evaluates some symbols; the others remain
    assert_same_poly(compose(p**2 - ring.one, ring, constants(ring, {"p": 3})), ring.const(8))
    partial = compose(2 * q + (-(p**2) + 1) * k, ring, constants(ring, {"p": 2, "q": 1}))
    assert_same_poly(partial, -3 * k + 2)
    zero = compose(ring.const(0), ring, constants(ring, {"p": 5, "q": -1, "k": 7}))
    assert zero.is_zero()


def test_degree_bounds():
    ring = PolyRing("p", "q", "alpha", "beta", "i", "j")
    p, q = ring.var("p"), ring.var("q")
    alpha, beta = ring.var("alpha"), ring.var("beta")
    i, j = ring.var("i"), ring.var("j")
    coeff = (i + q) * (beta + p) - (j + q) * (alpha + p)
    assert degree_bound(coeff, "alpha") == 1
    assert degree_bound(p**2 - ring.one, "q") == 0
    assert degree_bound((i + 1) * (i - ring.const(2)), "i") == 2
    with pytest.raises(SymbolTableError):
        degree_bound(coeff, "zeta")


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
    with pytest.raises(SymbolTableError, match="does not live"):
        compose(a, a.ring, {"p": c})
    assert_same_poly(a + Fraction(1, 2), a + a.ring.const(Fraction(1, 2)))


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
        assert_same_poly((f + g) + h, f + (g + h))
        assert_same_poly(f + g, g + f)
        assert_same_poly((f * g) * h, f * (g * h))
        assert_same_poly(f * g, g * f)
        assert_same_poly(f * (g + h), f * g + f * h)
        assert_same_poly(f + ring.const(0), f)
        assert_same_poly(f * ring.one, f)
        assert_same_poly(f - f, ring.const(0))


def test_substitute_is_a_homomorphism():
    rng = random.Random(7)
    ring = PolyRing("x", "y")
    for _ in range(40):
        f, g = _random_poly(rng, ring), _random_poly(rng, ring)
        bindings = {"x": Fraction(rng.randint(-5, 5), rng.randint(1, 4))}
        if rng.random() < 0.5:
            bindings["y"] = Fraction(rng.randint(-5, 5))
        images = constants(ring, bindings)
        fb, gb = compose(f, ring, images), compose(g, ring, images)
        assert_same_poly(compose(f * g, ring, images), fb * gb)
        assert_same_poly(compose(f + g, ring, images), fb + gb)
        assert_same_poly(fb, substitute(f, bindings))


def test_degree_bound_is_additive_for_products():
    rng = random.Random(99)
    ring = PolyRing("x", "y")
    for _ in range(40):
        f, g = _random_poly(rng, ring), _random_poly(rng, ring)
        if f.is_zero() or g.is_zero():
            continue
        for s in ring.symbols:
            assert degree_bound(f * g, s) == degree_bound(f, s) + degree_bound(g, s)


def test_canonical_text_form():
    ring = PolyRing("p", "q")
    p, q = ring.var("p"), ring.var("q")
    assert str(2 * p**2 * q - ring.const(Fraction(1, 3))) == "2*p^2*q - 1/3"
    assert str(ring.const(0)) == "0"
    assert str(-p) == "-p"
    assert str(p - q) == "p - q"


def test_no_zero_terms_stored():
    ring = PolyRing("x")
    x = ring.var("x")
    f = (x + 1) * (x - ring.one) - x * x
    assert_same_poly(f, ring.const(-1))
    assert (f + 1).terms == {}


def test_division_limits():
    ring = PolyRing("x")
    x = ring.var("x")
    assert_same_poly((2 * x) / 2, x)
    assert_same_poly(x / Fraction(1, 3), 3 * x)
    with pytest.raises(TypeError):  # a divisor is rational, never a Poly
        _ = x / x
    with pytest.raises(ZeroDivisionError):
        _ = x / 0


@pytest.mark.parametrize("value", [0, 1, -3, Fraction(2, 3), Fraction(-1, 2)])
def test_rational_constants_combine_as_their_coerced_polys(value):
    # an int or Fraction operand of + and * acts directly, without a
    # `ring.const` Poly; the result must equal combining with the coerced
    # constant.  `-` takes a Poly only
    ring = PolyRing("p", "q")
    p, q = ring.var("p"), ring.var("q")
    poly = 3 * p**2 * q - Fraction(1, 2) * q + 1
    const = ring.const(value)
    assert_same_poly(poly + value, poly + const)
    assert_same_poly(value + poly, poly + const)
    assert_same_poly(poly * value, poly * const)
    assert_same_poly(value * poly, poly * const)
    assert_same_poly(p + value, p + const)  # no constant term to merge with
    assert_same_poly(poly + (-1 - value), poly + ring.const(-1 - value))  # cancels


def test_int_coefficients_stay_int_and_build_no_fraction():
    # the Block proofs' lifted polynomials hold int coefficients; the ring
    # operators between them, and scaling by an int, must keep them ints
    ring = PolyRing("p", "x", "y")
    rng = random.Random(5)
    scale = 362880  # 9!, a multiple of every denominator _random_poly draws

    def operations(f, g):
        # each result with the power of the scale it carries
        return [(f + g, 1), (f - g, 1), (-f, 1), (f * g, 2), (f * -3, 1), (2 * g, 1), (f - f, 1)]

    for _ in range(50):
        f, g = (_random_poly(rng, ring) for _ in range(2))
        fi, gi = (Poly(ring, {e: int(c * scale) for e, c in h.terms.items()}) for h in (f, g))
        with counted_fractions() as count:
            results = operations(fi, gi)
        assert count[0] == 0
        for (result, _), (expected, power) in zip(results, operations(f, g)):
            assert all(type(c) is int and c for c in result.terms.values())
            assert result.terms == {e: c * scale**power for e, c in expected.terms.items()}


def test_subtracting_a_poly_adds_its_negation():
    # `f - g` accumulates g's terms times -1 into a copy of f's: the terms of
    # `f + (-g)` in their order and coefficient types, Fraction or int, and
    # neither operand changes
    rng = random.Random(17)
    ring = PolyRing("p", "x")
    for _ in range(60):
        f, g = (_random_poly(rng, ring) for _ in range(2))
        fi, gi = (Poly(ring, {e: int(c * 2520) for e, c in h.terms.items()}) for h in (f, g))
        for x, y in ((f, g), (fi, gi), (f, gi), (fi, fi)):
            before = dict(x.terms), dict(y.terms)
            got, want = x - y, x + (-y)
            assert [(e, c, type(c)) for e, c in got.terms.items()] == [
                (e, c, type(c)) for e, c in want.terms.items()
            ]
            assert (x.terms, y.terms) == before


def test_poly_times_zero_is_the_zero_poly():
    ring = PolyRing("p")
    assert_same_poly(ring.var("p") * 0, ring.const(0))
    assert_same_poly(Fraction(0) * (ring.var("p") + 1), ring.const(0))


def test_as_fraction_keeps_fractions_and_rejects_symbols():
    half = Fraction(1, 2)
    assert as_fraction(half) is half
    assert type(as_fraction(3)) is Fraction and as_fraction(3) == 3
    ring = PolyRing("p")
    for poly in (ring.var("p"), ring.const(half)):
        with pytest.raises(ValueError, match="not a rational constant"):
            as_fraction(poly)


def test_compose_lifts_by_name_into_a_wider_ring():
    small = PolyRing("p", "q")
    wide = PolyRing("q", "x", "p")
    p, q = small.var("p"), small.var("q")
    lifted = (2 * p**2 * q - small.const(Fraction(1, 3))).into(wide)
    assert_same_poly(lifted, 2 * wide.var("p") ** 2 * wide.var("q") - wide.const(Fraction(1, 3)))
    assert_same_poly(small.const(0).into(wide), wide.const(0))
    with pytest.raises(SymbolTableError, match="'q'"):
        q.into(PolyRing("p"))


def test_compose_substitutes_polys_and_constants():
    ring = PolyRing("x", "y", "z")
    x, y, z = ring.var("x"), ring.var("y"), ring.var("z")
    f = x**2 * y - 3 * y * z + 1
    got = compose(f, ring, {"x": y + z, "y": ring.const(Fraction(1, 2))})
    assert_same_poly(got, (y + z) ** 2 / 2 - Fraction(3, 2) * z + 1)
    # a swap is simultaneous, not one substitution after the other
    assert_same_poly(compose(x - 2 * y, ring, {"x": y, "y": x}), y - 2 * x)
    # an image from another ring raises
    with pytest.raises(SymbolTableError):
        compose(x, ring, {"x": PolyRing("w").var("w")})


def test_compose_is_a_homomorphism_and_agrees_with_substitute():
    rng = random.Random(11)
    source, target = PolyRing("x", "y"), PolyRing("s", "t")
    s, t = target.var("s"), target.var("t")
    for _ in range(40):
        f, g = _random_poly(rng, source), _random_poly(rng, source)
        images = {"x": _random_poly(rng, target, max_terms=3, max_exp=2), "y": s - 2 * t}
        fc, gc = compose(f, target, images), compose(g, target, images)
        assert_same_poly(compose(f * g, target, images), fc * gc)
        assert_same_poly(compose(f + g, target, images), fc + gc)
        point = {"x": Fraction(rng.randint(-5, 5), rng.randint(1, 4)), "y": Fraction(rng.randint(-5, 5))}
        value = compose(f, target, constants(target, point))
        assert_same_poly(value, target.const(substitute(f, point).terms.get((0, 0), 0)))
