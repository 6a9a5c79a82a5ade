import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine import assert_same_terms, combination
from test_scalars import assert_same_poly, compose, constants, degree_bound

from blocklie import block, cli, engine
from blocklie.block import (
    CUBIC_COCYCLE,
    BlockParams,
    basis_bracket,
    block_bracket_rule,
    cocycle_jacobi_check,
    delta_free_rule,
    laurent_realization_check,
    structure_numerator,
    virasoro_embedding_check,
)
from blocklie.engine import (
    CENTRAL,
    Element,
    Graded,
    Verdict,
    Window,
    bracket_apply,
    extend_bilinearly,
    first_failure,
    grid_identity_check,
    index_ring,
)
from blocklie.novikov import AffinizationParams, WittNovikovParams, affinize, witt_product_rule
from blocklie.scalars import Poly, PolyRing, accumulate

P11 = BlockParams(p=Fraction(1), q=Fraction(1))
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)
RING = PolyRing("p", "q")
rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
block_params = st.builds(
    BlockParams,
    st.one_of(rationals, st.just(RING.var("p"))),
    st.one_of(rationals.filter(bool), st.just(RING.var("q"))),
)


def cocycle_value(grade) -> Fraction:
    """(a^3 - a)/12, the central 2-cocycle evaluated at a grade: the value
    of `block.CUBIC_COCYCLE`, written out."""
    return Fraction(grade**3 - grade, 12)


def window_pairs(window: Window):
    """(a, i, b, j) for every pair of graded window labels L[a,i], L[b,j],
    in `itertools.product(grades, grades, levels, levels)` order."""
    grades, levels = range(window.grade_min, window.grade_max + 1), range(window.level_max + 1)
    return ((a, i, b, j) for a, b, i, j in itertools.product(grades, grades, levels, levels))


windows = st.one_of(
    st.just(Window(0, 0, 0)),
    st.builds(
        lambda low, width, level_max: Window(low, low + width, level_max),
        st.integers(-3, 2),
        st.integers(0, 4),
        st.integers(0, 2),
    ),
)


def structure_coefficient(params: BlockParams, x: Graded, y: Graded):
    """(i+q)(b+p) - (j+q)(a+p) for x = L[a,i], y = L[b,j], written out: for
    rational p and q, one normalization of `block.structure_numerator`."""
    p, q = params.p, params.q
    if isinstance(p, Poly) or isinstance(q, Poly):
        return (x.level + q) * (y.grade + p) - (y.level + q) * (x.grade + p)
    return Fraction(structure_numerator(params, x, y), p.denominator * q.denominator)


def hand_basis_bracket(params: BlockParams, x: Graded, y: Graded) -> Element:
    """The bracket of two basis vectors, cocycle included, written out: the
    oracle of the pair that `block_bracket_rule` derives from its terms."""
    label = Graded(x.grade + y.grade, x.level + y.level)
    terms = {label: structure_coefficient(params, x, y)}
    if x.grade + y.grade == 0 and x.level == 0 and y.level == 0:
        terms[CENTRAL] = cocycle_value(x.grade)
    return Element({label: coeff for label, coeff in terms.items() if coeff})


def triangular_part(index) -> str:
    """Triangular slot of a basis label: "negative", "zero" or "positive" by
    grade sign; the central element belongs to the zero part."""
    if index is CENTRAL:
        return "zero"
    if index.grade < 0:
        return "negative"
    return "zero" if index.grade == 0 else "positive"


def _check_levels(element: Element) -> None:
    for index in element.terms:
        if index is not CENTRAL and index.level < 0:
            raise ValueError(f"negative level in {index}: levels must be >= 0")


def block_bracket(params: BlockParams, x: Element, y: Element) -> Element:
    """Bilinear extension of the bracket; c is central, levels must be >= 0."""
    _check_levels(x)
    _check_levels(y)
    return Element(extend_bilinearly(partial(basis_bracket, params), x.terms, y.terms))


def parabolic_degree_zero(
    params: BlockParams, a: Element, level_max: int
) -> list[Element]:
    """Degree-zero slice of the minimal parabolic subalgebra through `a`.

    For a = sum_i c_i L[-1,i] (nonzero, homogeneous of grade -1) the slice is
    spanned by the images w_j = [a, L[1,j]], which come out cocycle-free as

        w_j = sum_i c_i (2q + i + j + p(i-j)) L[0,i+j],   j = 0..level_max,

    the coefficient being `structure_coefficient` of L[-1,i] and L[1,j]; the
    kernel rows of `hweight.singular_vector_solve` read its numerator.
    """
    if a.is_zero():
        raise ValueError("the grade -1 element must be nonzero")
    for index in a.terms:
        if index is CENTRAL or index.grade != -1 or index.level < 0:
            raise ValueError(f"not homogeneous of grade -1: contains {index}")
    images = []
    for j in range(level_max + 1):
        y = Graded(1, j)
        w: dict = {}
        for x, coeff in a.terms.items():
            accumulate(w, ((Graded(0, x.level + j), coeff * structure_coefficient(params, x, y)),))
        images.append(Element(w))
    return images


def test_bracket_examples_at_p1_q1():
    assert_same_terms(basis_bracket(P11, Graded(1, 0), Graded(-1, 0)), {Graded(0, 0): -2})
    assert_same_terms(
        basis_bracket(P11, Graded(2, 0), Graded(-2, 0)),
        {Graded(0, 0): -4, CENTRAL: Fraction(1, 2)},
    )
    assert_same_terms(basis_bracket(P11, Graded(0, 1), Graded(0, 2)), {Graded(0, 3): -1})


def test_central_element_brackets_to_zero():
    x = Element({CENTRAL: 5})
    y = Element({Graded(3, 2): Fraction(1, 3), CENTRAL: 1})
    assert block_bracket(P11, x, y).is_zero()


def test_negative_level_is_an_error():
    with pytest.raises(ValueError, match="negative level"):
        block_bracket(P11, Element({Graded(1, -1): 1}), Element({Graded(0, 0): 1}))


def test_zero_q_is_rejected():
    with pytest.raises(ValueError, match="q must be nonzero"):
        BlockParams(p=Fraction(1), q=Fraction(0))
    # p = 0 is permitted: it is the cross-check oracle regime
    BlockParams(p=Fraction(0), q=Fraction(1))


def test_bracket_is_antisymmetric_including_cocycle():
    params = BlockParams(p=Fraction(-2), q=Fraction(1, 2))
    for a, b in itertools.product(range(-3, 4), repeat=2):
        for i, j in itertools.product(range(3), repeat=2):
            forward = basis_bracket(params, Graded(a, i), Graded(b, j))
            backward = basis_bracket(params, Graded(b, j), Graded(a, i))
            assert combination((1, forward), (1, backward)).is_zero()


def test_full_bracket_satisfies_jacobi_on_window():
    params = BlockParams(p=Fraction(3), q=Fraction(2))
    rule = block_bracket_rule(params)
    labels = [Graded(g, l) for g in range(-2, 3) for l in range(2)]
    for x, y, z in itertools.combinations(labels, 3):
        ex, ey, ez = (Element({t: 1}) for t in (x, y, z))
        residual = combination(
            (1, bracket_apply(rule, ex, bracket_apply(rule, ey, ez))),
            (1, bracket_apply(rule, ez, bracket_apply(rule, ex, ey))),
            (1, bracket_apply(rule, ey, bracket_apply(rule, ez, ex))),
        )
        assert residual.is_zero(), (x, y, z)


def test_delta_free_rule_matches_affinized_witt_product():
    ring = PolyRing("p", "q")
    params = BlockParams(p=ring.var("p"), q=ring.var("q"))
    direct = delta_free_rule(params)
    via_affinization = affinize(
        witt_product_rule(WittNovikovParams(p=ring.var("p"))),
        AffinizationParams(q=ring.var("q")),
    )
    for a, i, b, j in itertools.product([-2, 0, 3], [0, 1, 4], [-1, 2], [0, 2]):
        expected = via_affinization.pair(Graded(a, i), Graded(b, j)).terms
        assert_same_terms(direct.pair(Graded(a, i), Graded(b, j)), expected)


def test_delta_free_rule_passes_grid_jacobi():
    params = BlockParams(p=Fraction(5, 3), q=Fraction(-2))
    rule = delta_free_rule(params)
    assert grid_identity_check(rule, "jacobi", [-1, 0, 1], [0, 1, 2]).holds


def test_cocycle_jacobi_check_with_symbolic_q():
    ring = PolyRing("q")
    params = BlockParams(p=Fraction(2), q=ring.var("q"))
    verdict = cocycle_jacobi_check(params)
    assert verdict.holds


X = PolyRing("x").var("x")


@contextmanager
def patched_cocycle(cocycle: Poly):
    """`block.CUBIC_COCYCLE` replaced by `cocycle`, with fresh B(1, 1)
    parameters: a params object keeps the lift it first built, so only one
    built inside the patch reads the replacement."""
    with mock.patch.object(block, "CUBIC_COCYCLE", cocycle):
        yield BlockParams(p=Fraction(1), q=Fraction(1))


def scanned_cocycle(params, grades):
    """`cocycle_jacobi_check` as the grid scan it kept beside its proof: the
    first triple (a, b, g), g = -a-b, over `grades` x `grades` where the
    central Jacobi sum q(g-b)K(a) + q(a-g)K(b) + q(b-a)K(g) is nonzero, for
    the cocycle K = `block.CUBIC_COCYCLE`; the residual is that sum times c."""
    q = params.q

    def value(x):
        return sum(c * x**e for (e,), c in block.CUBIC_COCYCLE.terms.items())

    def residual(t):
        a, b, g = t
        central = q * (g - b) * value(a) + q * (a - g) * value(b) + q * (b - a) * value(g)
        return Element({CENTRAL: central} if central else {})

    triples = ((a, b, -a - b) for a, b in itertools.product(grades, repeat=2))
    return first_failure(triples, residual, "on_tested_grid")


def test_cocycle_jacobi_check_rejects_broken_cocycles():
    # the check proves, so it raises, naming its proof; a degree-d cocycle
    # leaves a residual of degree d + 1, so the scan's grid of d + 2 grades
    # holds a witness
    for bad, grid in ((X**2 / 12, [-2, -1, 0, 1]), (X**5 / 12, [-3, -2, -1, 0, 1, 2, 3])):
        with patched_cocycle(bad) as params:
            with pytest.raises(ValueError, match="cocycle Jacobi proof fails"):
                cocycle_jacobi_check(params)
            scanned = scanned_cocycle(params, grid)
            assert not scanned.holds
            assert CENTRAL in scanned.residual.terms
    # the scan's witness is the first failing grid triple: q(g-b)K(a) +
    # q(a-g)K(b) + q(b-a)K(g) at (-2, -1, 3) with K = x^2/12
    with patched_cocycle(X**2 / 12) as params:
        scanned = scanned_cocycle(params, [-2, -1, 0, 1])
    assert_same_terms(scanned.residual, {CENTRAL: Fraction(4 * 4 - 5 * 1 + 1 * 9, 12)})
    assert (scanned.witness, str(scanned.residual)) == ((-2, -1, 3), "5/3*c")


def test_cocycle_space_is_spanned_by_cubic_and_linear_terms():
    # a*x^3 + b*x always satisfies the cocycle identity (the linear part is a
    # coboundary), so shifting the cubic by a linear term is not a mutation
    # the Jacobi check can or should reject
    with patched_cocycle((X**3 + X) / 12) as params:
        verdict = cocycle_jacobi_check(params)
        assert scanned_cocycle(params, [-3, -2, -1, 0, 1, 2, 3]).holds
    assert verdict == Verdict(True)


def test_cocycle_jacobi_grid_requirements(tmp_path):
    # the check reads no grid; a blockcheck's `cocycle_grades` keeps the rule
    # its scan needed, checked at load: distinct values, deg K + 2 = 5 of them
    assert cli.MIN_COCYCLE_GRADES == degree_bound(CUBIC_COCYCLE, "x") + 2 == 5
    path = tmp_path / "blockcheck.json"
    config = {"job": "blockcheck", "p": "1", "q": "1"}
    config["window"] = {"grade_min": 0, "grade_max": 0, "level_max": 0}
    for grades, message in (
        (["-1", "0", "1", "2"], "grade grid needs at least 5 distinct values, got 4"),
        (["0", "0", "1", "2", "3"], "values must be distinct"),
    ):
        path.write_text(json.dumps({**config, "cocycle_grades": grades}))
        with pytest.raises(cli.ConfigError, match=message):
            cli.load_config(str(path))
    path.write_text(json.dumps({**config, "cocycle_grades": ["0", "1", "2", "3", "4"]}))
    assert cli.load_config(str(path)).kind == "blockcheck"


def test_virasoro_embedding_check():
    for p, q in [(3, 2), (1, 1), (-2, Fraction(1, 2))]:
        params = BlockParams(p=Fraction(p), q=Fraction(q))
        assert virasoro_embedding_check(params).holds
    ring = PolyRing("p", "q")
    symbolic = BlockParams(p=ring.var("p"), q=ring.var("q"))
    assert virasoro_embedding_check(symbolic).holds


def test_cocycle_vanishes_at_grade_one():
    assert cocycle_value(1) == 0
    assert cocycle_value(-1) == 0
    assert cocycle_value(2) == Fraction(1, 2)


def test_laurent_realization_check():
    for p, q in [(3, 2), (1, 1), (-2, Fraction(1, 2))]:
        params = BlockParams(p=Fraction(p), q=Fraction(q))
        assert laurent_realization_check(params).holds


def test_laurent_realization_with_symbolic_parameters():
    ring = PolyRing("p", "q")
    params = BlockParams(p=ring.var("p"), q=ring.var("q"))
    assert laurent_realization_check(params).holds


def test_parabolic_degree_zero_examples():
    (image,) = parabolic_degree_zero(P11, Element({Graded(-1, 0): 1}), 0)
    assert_same_terms(image, {Graded(0, 0): 2})
    (image,) = parabolic_degree_zero(P11, Element({Graded(-1, 1): 1}), 0)
    assert_same_terms(image, {Graded(0, 1): 4})
    with pytest.raises(ValueError, match="nonzero"):
        parabolic_degree_zero(P11, Element.zero(), 2)
    with pytest.raises(ValueError, match="grade -1"):
        parabolic_degree_zero(P11, Element({Graded(0, 0): 1}), 2)
    with pytest.raises(ValueError, match="grade -1"):
        parabolic_degree_zero(P11, Element({Graded(-1, 0): 1, CENTRAL: 1}), 2)


def test_parabolic_degree_zero_matches_bracket_images():
    params = BlockParams(p=Fraction(-3, 2), q=Fraction(2, 5))
    a = Element({Graded(-1, 0): Fraction(2), Graded(-1, 3): Fraction(-1, 4)})
    images = parabolic_degree_zero(params, a, 4)
    for j, w in enumerate(images):
        assert_same_terms(w, block_bracket(params, a, Element({Graded(1, j): 1})).terms)


def test_parabolic_top_level_coefficient_growth():
    # leading coefficient in j is 1-p, so for fixed rational p != 1 the
    # top-level weight (2q + i* + j + p(i* - j)) is nonzero for all large j
    params = BlockParams(p=Fraction(3), q=Fraction(1))
    a = Element({Graded(-1, 2): Fraction(5)})
    images = parabolic_degree_zero(params, a, 12)
    top = [w.terms.get(Graded(0, 2 + j), 0) for j, w in enumerate(images)]
    expected = [5 * (2 + 2 + j + 3 * (2 - j)) for j in range(13)]
    assert top == expected
    assert top[5] == 0  # the single root of the degree-1 weight 10 - 2j
    assert all(value != 0 for value in top[6:])


def test_triangular_decomposition():
    assert triangular_part(Graded(-3, 2)) == "negative"
    assert triangular_part(Graded(0, 5)) == "zero"
    assert triangular_part(Graded(4, 0)) == "positive"
    assert triangular_part(CENTRAL) == "zero"
    # each part is bracket-graded: the bracket of parts lands in the part of
    # the grade sum
    params = BlockParams(p=Fraction(-1), q=Fraction(2))
    for a, b in itertools.product(range(-2, 3), repeat=2):
        out = basis_bracket(params, Graded(a, 1), Graded(b, 0))
        for index in out.terms:
            assert triangular_part(index) == triangular_part(Graded(a + b, 0))


def test_gradation_of_the_bracket():
    params = BlockParams(p=Fraction(2), q=Fraction(3))
    for a, b in itertools.product(range(-2, 3), repeat=2):
        out = block_bracket(params, Element({Graded(a, 1): 1}), Element({Graded(b, 0): 1}))
        for index in out.terms:
            if index is CENTRAL:
                assert a + b == 0
            else:
                assert index.grade == a + b


# -- the Laurent and Virasoro proofs against the window scans they replaced ---


@dataclass(frozen=True)
class _TPower:
    q_mult: int
    offset: int

    def __mul__(self, other):
        return _TPower(self.q_mult + other.q_mult, self.offset + other.offset)

    def d_dt(self, q):
        return self.q_mult * q + self.offset, self * _TPower(0, -1)


def scanned_virasoro(params, window):
    """`virasoro_embedding_check` as the window scan it was before its proof:
    the first level-zero pair of the window where the bracket and the
    Virasoro relation differ."""

    def residual(t):
        a, b = t
        terms = [(Graded(a + b, 0), (b - a) * params.q)]
        if a + b == 0:
            terms.append((CENTRAL, cocycle_value(a)))
        return combination(
            (1, basis_bracket(params, Graded(a, 0), Graded(b, 0))),
            (-1, Element(accumulate({}, terms))),
        )

    level_zero = window_pairs(Window(window.grade_min, window.grade_max, 0))
    return first_failure(((a, b) for a, _, b, _ in level_zero), residual, "on_window")


def scanned_laurent(params, window):
    """`laurent_realization_check` as the window scan it was before its proof:
    the first pair of the window where the bracket and its Laurent
    realization differ."""
    p, q = params.p, params.q
    shift, dual = _TPower(-1, 1), _TPower(-2, -1)

    def residual(t):
        a, i, b, j = t
        f, g = _TPower(1, i), _TPower(1, j)
        (ef, df), (eg, dg) = f.d_dt(q), g.d_dt(q)
        terms = {}
        for coeff, power in (((b + p) * ef, df * g * shift), (-(a + p) * eg, f * dg * shift)):
            accumulate(terms, ((Graded(a + b, power.offset), coeff),))
        if a + b == 0 and dual * f * g == _TPower(0, -1):
            accumulate(terms, ((CENTRAL, cocycle_value(a)),))
        return combination((1, basis_bracket(params, Graded(a, i), Graded(b, j))), (-1, Element(terms)))

    return first_failure(window_pairs(window), residual, "on_window")


# each check, the test's scan of it, and the proof its failure names
CHECKS = (
    (virasoro_embedding_check, scanned_virasoro, "Virasoro embedding proof fails"),
    (laurent_realization_check, scanned_laurent, "Laurent realization proof fails"),
)


def index_ring_delta_free_terms(params):
    """`block._delta_free_terms` as `structure_coefficient` of the
    index-ring labels L[a,i], L[b,j], at output offset (0, 0)."""
    ring, (p, q) = index_ring(params.p, params.q)
    a, i, b, j = (ring.var(name) for name in "aibj")
    return (((0, 0), structure_coefficient(BlockParams(p, q), Graded(a, i), Graded(b, j))),)


def test_delta_free_terms_are_the_index_ring_structure_coefficient():
    p, q = RING.var("p"), RING.var("q")
    for params in itertools.starmap(
        BlockParams, itertools.product((0, Fraction(2, 3), -5, p), (1, Fraction(-7, 5), q))
    ):
        ((offset, got),) = block._delta_free_terms(params)
        ((want_offset, want),) = index_ring_delta_free_terms(params)
        assert (offset, got.ring, got.terms) == (want_offset, want.ring, want.terms), params


@contextmanager
def perturbed_coefficient(extra):
    """The delta-free term plus extra(x, y) at the index-ring labels L[a,i],
    L[b,j]: the proofs read the perturbed term, and so do the test's window
    scans, whose brackets are the pair that the term defines (`basis_bracket`)."""

    def perturbed(params):
        ((offset, coeff),) = index_ring_delta_free_terms(params)
        a, i, b, j = (coeff.ring.var(name) for name in "aibj")
        return ((offset, coeff + extra(Graded(a, i), Graded(b, j))),)

    with mock.patch.object(block, "_delta_free_terms", perturbed):
        yield


@contextmanager
def counted_compiles():
    """The calls of `engine._compile`, which builds a rule's pair for brackets."""
    calls = []
    compile_terms = engine._compile

    def counted(*args):
        calls.append(args)
        return compile_terms(*args)

    with mock.patch.object(engine, "_compile", counted):
        yield calls


@SETTINGS
@given(block_params)
def test_laurent_and_virasoro_hold_by_proof_without_bracketing(params):
    with counted_compiles() as calls:
        for check, _, _ in CHECKS:
            assert check(params) == Verdict(True)
    assert not calls


@SETTINGS
@given(block_params, rationals.filter(bool))
def test_a_failing_check_raises_and_compiles_nothing(params, delta):
    # a constant perturbation fails both proofs; a failed proof is a defect
    # of the bracket itself, so the check raises, naming its proof, and
    # brackets nothing
    with perturbed_coefficient(lambda x, y: delta):
        for check, _, fails in CHECKS:
            with counted_compiles() as calls:
                with pytest.raises(ValueError, match=fails):
                    check(BlockParams(params.p, params.q))
            assert not calls


@SETTINGS
@given(
    block_params,
    windows,
    rationals,
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 1),
)
def test_perturbed_checks_raise_exactly_when_perturbed(params, window, delta, ea, eb, el):
    # a nonzero delta breaks both proofs, so the check raises exactly then,
    # and in particular whenever the scan finds a witness on this window
    extra = lambda x, y: delta * x.grade**ea * y.grade**eb * (x.level + y.level + 1) ** el
    with perturbed_coefficient(extra):
        for check, scan, fails in CHECKS:
            expected = scan(params, window)
            if delta:
                with pytest.raises(ValueError, match=fails):
                    check(params)
            else:
                assert expected.holds
                assert check(params) == Verdict(True)


@SETTINGS
@given(block_params, windows, rationals.filter(bool))
def test_perturbation_vanishing_on_every_window_grade_raises(params, window, delta):
    # the window holds no witness, and the check, which reads no window,
    # still raises
    grades = range(window.grade_min, window.grade_max + 1)

    def extra(x, y):
        product = delta
        for g in map(x.grade.ring.const, grades):
            product *= (x.grade - g) * (y.grade - g)
        return product

    with perturbed_coefficient(extra):
        for check, scan, fails in CHECKS:
            assert scan(params, window).holds
            with pytest.raises(ValueError, match=fails):
                check(params)


def test_virasoro_proof_compares_the_cocycles():
    # the bracket carries CUBIC_COCYCLE on b = -a; another cocycle there
    # fails the proof, and the scan, whose bracket reads the same cocycle,
    # finds the witness: (a^3 + a)/12 - (a^3 - a)/12 = a/6 at a = -2
    with patched_cocycle((X**3 + X) / 12) as params:
        with pytest.raises(ValueError, match="Virasoro embedding proof fails"):
            virasoro_embedding_check(params)
        scanned = scanned_virasoro(params, Window(-2, 2, 0))
    assert (scanned.witness, str(scanned.residual)) == ((-2, 2), "-1/3*c")
    assert virasoro_embedding_check(BlockParams(p=Fraction(1), q=Fraction(1))).holds


@SETTINGS
@given(block_params, st.sampled_from((-1, 1)))
def test_a_residue_one_power_off_fails_the_laurent_proof(params, step):
    # the realization's cocycle lives where Res_t picks t^-1 from its residue
    # power; one t-exponent off, it lives nowhere, and the bracket's cocycle
    # K(a) on the stratum b = -a, i = j = 0 is left over as a residual
    realization = block._realization

    def off_by_one(p, q, a, i, b, j, one):
        graded, residue = realization(p, q, a, i, b, j, one)
        return graded, residue * block._TPower(0, step * one)

    with mock.patch.object(block, "_realization", off_by_one):
        with pytest.raises(ValueError, match="Laurent realization proof fails"):
            laurent_realization_check(params)
    assert laurent_realization_check(params).holds


def lifted(value, ring):
    return value.into(ring) if isinstance(value, Poly) else ring.const(value)


@SETTINGS
@given(block_params, st.lists(st.integers(-6, 6), min_size=2, max_size=2), st.data())
def test_basis_bracket_is_delta_free_term_plus_cocycle_on_its_stratum(params, grades, data):
    # the bracket side of both proofs, against the bracket the scans read
    a, b = grades
    if data.draw(st.booleans()):
        b = -a
    i, j = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
    ((offset, coeff),) = delta_free_rule(params).terms
    ring = coeff.ring
    expected = {
        Graded(a + b + offset[0], i + j + offset[1]): compose(
            coeff, ring, constants(ring, {"a": a, "i": i, "b": b, "j": j})
        )
    }
    if a + b == 0 and i == j == 0:
        expected[CENTRAL] = ring.const(cocycle_value(a))
    got = basis_bracket(params, Graded(a, i), Graded(b, j))
    assert got.terms.keys() == {k for k, v in expected.items() if v}
    for label, value in got.terms.items():
        assert_same_poly(lifted(value, ring), expected[label])


@SETTINGS
@given(block_params, st.lists(st.integers(-6, 6), min_size=2, max_size=2), st.data())
def test_block_rule_pair_is_its_terms_plus_its_cocycle_on_the_stratum(params, grades, data):
    # the closure's kernel reads the terms and the cocycle, the scans read pair
    rule = block_bracket_rule(params)
    a, b = grades
    if data.draw(st.booleans()):
        b = -a
    i, j = data.draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
    ring = rule.terms[0][1].ring
    point = constants(ring, {"a": a, "i": i, "b": b, "j": j})
    expected = accumulate(
        {}, ((Graded(a + b + dg, i + j + dl), compose(c, ring, point)) for (dg, dl), c in rule.terms)
    )
    if a + b == 0 and i == j == 0:
        (symbol,) = rule.cocycle.ring.symbols
        accumulate(expected, ((CENTRAL, compose(rule.cocycle, ring, {symbol: ring.const(a)})),))
    got = rule.pair(Graded(a, i), Graded(b, j))
    assert got.terms.keys() == expected.keys()
    for label, value in got.terms.items():
        assert_same_poly(lifted(value, ring), expected[label])


def test_identity_checks_refuse_a_rule_with_a_cocycle():
    # the terms omit the cocycle, so they prove nothing about the full rule;
    # the cocycle's Jacobi contribution has its own proof (`cocycle_jacobi_check`)
    grades, levels = [-2, -1, 0, 1, 2], [0, 1, 2]
    params = BlockParams(p=Fraction(2, 3), q=Fraction(-7, 5))
    for rule in (block_bracket_rule(params), block_bracket_rule(P11)):
        with pytest.raises(ValueError, match="without a cocycle"):
            grid_identity_check(rule, "jacobi", grades, levels)
    # the terms alone prove Jacobi
    verdict = grid_identity_check(delta_free_rule(params), "jacobi", grades, levels)
    assert verdict == Verdict(True)
