"""Differential tests of the semi-naive subalgebra closure.

The oracles are the closure loop and the elimination that the semi-naive
closure replaced: every round brackets every pair of the current echelon
rows, and rows are dense lists reduced column by column.  Both are copied
here so that they share no loop or elimination code with the program; they
use only `bracket_apply` and `truncate`.  Results must agree exactly: the
reduced echelon form is canonical.

The closure takes only rules with terms.  It skips a basis pair whose
output labels all miss the window, by its reach table, whose keys come from
the offsets of the terms, while the oracles bracket every pair; so the
derived offsets are tested to cover every output label, the skipping is
tested on the pairs the kernel evaluates, and the shifts theta are drawn
wide enough for an offset to leave the window on either edge.  The closure
brackets by its integer kernel, never by the rule's pair, so the kernel is
tested against the pair on basis pairs of its own.

The Block closure is also tested against the algebra's symmetries, with no
oracle: sigma maps the closure at p onto the closure at -p on the mirrored
window, and the torus tau_{t,s} keeps its pivots.  Whole closure configs,
Block and affinized, archived and drawn, are mirrored by sigma and run
through `load_config` and `run_job`: both reports agree.  All of these miss
a defect that yields an isomorphic algebra, such as a flipped cocycle sign.
"""

import itertools
import json
import tempfile
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine import graded_bracket_rule

from blocklie import block, engine
from blocklie.block import BlockParams, block_bracket_rule, delta_free_rule
from blocklie.cli import load_config, parse_element, run_job
from blocklie.engine import (
    CENTRAL,
    BracketRule,
    ClosureError,
    Element,
    Graded,
    Window,
    _Echelon,
    _integer_kernel,
    _integer_row,
    _kernel_row,
    bracket_apply,
    membership,
    subalgebra_closure,
    truncate,
)
from blocklie.novikov import (
    AffinizationParams,
    WittNovikovParams,
    affinize,
    perturbed_witt_rule,
    witt_product_rule,
)
from blocklie.scalars import PolyRing, accumulate, format_rational, parse_rational

SETTINGS = settings(derandomize=True, max_examples=80, deadline=None, database=None)


class DenseEchelon:
    """Reduced row echelon form over dense rows, kept sorted by pivot."""

    def __init__(self, width):
        self.width = width
        self.rows = []
        self.pivots = []

    def insert(self, vec):
        for row, pivot in zip(self.rows, self.pivots):
            factor = vec[pivot]
            if factor:
                for k in range(pivot, self.width):
                    vec[k] -= factor * row[k]
        pivot = next((k for k, v in enumerate(vec) if v), None)
        if pivot is None:
            return False
        inv = vec[pivot]
        vec = [v / inv for v in vec]
        for row in self.rows:
            factor = row[pivot]
            if factor:
                for k in range(pivot, self.width):
                    row[k] -= factor * vec[k]
        at = next((i for i, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, vec)
        self.pivots.insert(at, pivot)
        return True


def naive_closure(rule, generators, window):
    """Rows of the closure, found by bracketing every pair in every round."""
    coords = window.indices()

    def dense(element):
        return [Fraction(element.terms.get(index, 0)) for index in coords]

    def row_element(vec):
        return Element({coords[k]: v for k, v in enumerate(vec) if v})

    ech = DenseEchelon(len(coords))
    for gen in generators:
        ech.insert(dense(truncate(gen, window)))
    while True:
        snapshot = [row_element(r) for r in ech.rows]
        added = False
        for a in range(len(snapshot)):
            for b in range(a + 1, len(snapshot)):
                product = truncate(bracket_apply(rule, snapshot[a], snapshot[b]), window)
                if not product.is_zero() and ech.insert(dense(product)):
                    added = True
        if not added:
            return tuple(row_element(r) for r in ech.rows)


def naive_membership(element, rows, window):
    ech = DenseEchelon(len(window.indices()))
    for row in rows:
        ech.insert([Fraction(row.terms.get(index, 0)) for index in window.indices()])
    return not ech.insert([Fraction(element.terms.get(index, 0)) for index in window.indices()])


# 0 and +-1 are the special values: p = 0, q = 0 and theta = 0 change which
# structure constants vanish
special = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)])
rationals = st.one_of(special, st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))
nonzero = rationals.filter(bool)


# (grade_min, grade_max, level_max), dimensions 1 to 31; some windows miss
# grade 0 and with it the central label
windows = st.sampled_from(
    [
        Window(*box)
        for box in [
            (0, 0, 0), (1, 1, 2), (1, 3, 1), (-3, -1, 4), (0, 5, 3), (-1, 1, 0), (-1, 1, 3),
            (-2, 2, 1), (-2, 2, 3), (-3, 3, 2), (-3, 2, 4), (-1, 4, 3),
        ]
    ]
)


@st.composite
def generator_lists(draw, window):
    """1-3 generators of 1-3 terms, some cancelling, or sometimes, in a window
    that holds c, L[0,0] beside a cocycle pair L[a,0], L[-a,0] with |a| >= 2.

    Labels are mostly window labels; a few lie just outside (the central
    label too, when grade 0 does).  A generator may repeat a label, so that
    its coefficients are summed and may cancel, or add a combination of the
    earlier generators.  On the Block rules, c enters the cocycle pair's
    closure only through the cocycle K(a) of [L[a,0], L[-a,0]]."""
    inside = window.indices()
    cocycle = list(range(2, min(window.grade_max, -window.grade_min) + 1))
    if cocycle and draw(st.booleans()):
        a = draw(st.sampled_from(cocycle))
        cells = [Graded(0, 0), Graded(a, 0), Graded(-a, 0)]
        return [Element.basis(cell, draw(nonzero)) for cell in cells]
    outside = [
        Graded(window.grade_min - 1, 0),
        Graded(window.grade_max + 1, 1),
        Graded(window.grade_min, window.level_max + 1),
    ]
    if CENTRAL not in inside:
        outside.append(CENTRAL)
    # products of low grades and levels tend to stay inside the window
    low = [i for i in inside if i is CENTRAL or (abs(i.grade) <= 1 and i.level <= 1)]
    label = st.sampled_from(low * 4 + inside + outside)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.lists(st.tuples(label, nonzero), min_size=1, max_size=3))
        if draw(st.booleans()):
            terms.append((terms[0][0], -terms[0][1]))  # cancels the first term
        acc = accumulate({}, terms)
        if gens and draw(st.booleans()):
            for gen in gens:
                accumulate(acc, gen.terms.items(), draw(rationals))
        gens.append(Element(acc))
    return gens


def block_rule(draw):
    return block_bracket_rule(BlockParams(p=draw(rationals), q=draw(nonzero)))


def affinized_rule(draw):
    params = WittNovikovParams(p=draw(rationals), mu=draw(rationals), theta=draw(st.integers(-2, 2)))
    return affinize(witt_product_rule(params), AffinizationParams(q=draw(rationals)))


def engine_rule(draw):
    return graded_bracket_rule(
        draw(rationals), draw(rationals), mu=draw(rationals), theta=draw(st.integers(-2, 2))
    )


@st.composite
def closure_cases(draw, make_rule):
    window = draw(windows)
    return make_rule(draw), draw(generator_lists(window)), window


def assert_matches_naive(rule, generators, window):
    closure = subalgebra_closure(rule, generators, window)
    expected = naive_closure(rule, generators, window)
    assert closure.rows == expected
    for row in closure.rows:
        assert all(isinstance(c, Fraction) and c for c in row.terms.values())
    inside = [Element.basis(index) for index in window.indices()]
    queries = generators + inside + [truncate(g, window) for g in generators]
    if len(expected) >= 2:
        queries.append(bracket_apply(rule, expected[0], expected[-1]))
        queries.append(expected[0] + expected[-1].scaled(Fraction(-2, 3)))
    for query in queries:
        if all(window.contains(index) for index in query.terms):
            assert membership(query, closure) == naive_membership(query, expected, window)


@SETTINGS
@given(closure_cases(block_rule))
def test_closure_matches_naive_on_block_rule(case):
    assert_matches_naive(*case)


@SETTINGS
@given(closure_cases(affinized_rule))
def test_closure_matches_naive_on_affinized_rule(case):
    assert_matches_naive(*case)


@SETTINGS
@given(closure_cases(engine_rule))
def test_closure_matches_naive_on_graded_rule(case):
    assert_matches_naive(*case)


PINNED_RULES = {
    "block p=0": block_bracket_rule(BlockParams(p=0, q=1)),
    "block generic": block_bracket_rule(BlockParams(p=Fraction(2, 3), q=Fraction(-7, 5))),
    "graded p=q=0": graded_bracket_rule(0, 0),
    "graded p=q=0 shifted": graded_bracket_rule(0, 0, mu=1, theta=1),
    "affinized p=q=0": affinize(
        witt_product_rule(WittNovikovParams(p=0, mu=1, theta=1)), AffinizationParams(0)
    ),
}
PINNED_GENERATORS = {
    # a closure of dimension 14-19 in a window of dimension 21
    "dense pair": (
        Window(-2, 2, 3),
        [
            Element({Graded(1, 0): 1, Graded(-1, 1): Fraction(1, 2)}),
            Element({Graded(-1, 0): 1, Graded(0, 2): -3, CENTRAL: 2}),
        ],
    ),
    # a closure of dimension 16-17 in a window of dimension 29
    "monomial triple": (
        Window(-3, 3, 3),
        [Element.basis(Graded(1, 0)), Element.basis(Graded(-1, 1)), Element.basis(Graded(2, 2))],
    ),
    # on the Block rules, c enters only through the cocycle of [L[2,0], L[-2,0]]
    "cocycle pair": (Window(-2, 2, 1), [Element.basis(Graded(2, 0)), Element.basis(Graded(-2, 0))]),
}


@pytest.mark.parametrize("gens", PINNED_GENERATORS)
@pytest.mark.parametrize("rule", PINNED_RULES)
def test_closure_matches_naive_on_pinned_cases(rule, gens):
    window, generators = PINNED_GENERATORS[gens]
    assert_matches_naive(PINNED_RULES[rule], generators, window)


def sigma(element):
    """sigma: L[a,i] -> -L[-a,i], c -> -c."""
    return Element(
        {(x if x is CENTRAL else Graded(-x.grade, x.level)): -c for x, c in element.terms.items()}
    )


def tau(element, t, s):
    """tau_{t,s}: L[a,i] -> t^a s^i L[a,i], c -> c."""
    return Element(
        {x: c if x is CENTRAL else c * t**x.grade * s**x.level for x, c in element.terms.items()}
    )


def pivots(closure):
    return [next(iter(row.terms)) for row in closure.rows]


SYMMETRY_SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)
# t and s of tau: +-1 would leave most coordinates as they are
scales = nonzero.filter(lambda v: abs(v) != 1)


@st.composite
def window_generators(draw, window):
    """1-2 generators, each a combination of 2-3 window labels of grade at
    most 2 in size and level at most 1: their closures are rarely a line or
    the whole window, and their rows mix labels, which a map that scales
    each label separately can tell apart."""
    inside = window.indices()
    low = [i for i in inside if i is CENTRAL or (abs(i.grade) <= 2 and i.level <= 1)]
    terms = st.lists(st.tuples(st.sampled_from(low), nonzero), min_size=2, max_size=3)
    return [Element(accumulate({}, draw(terms))) for _ in range(draw(st.integers(1, 2)))]


@SYMMETRY_SETTINGS
@given(rationals, nonzero, st.data())
def test_sigma_maps_the_closure_at_p_onto_the_closure_at_minus_p(p, q, data):
    # sigma is an isomorphism B(p,q) -> B(-p,q): at -p, [L[-a,i], L[-b,j]] is
    # -((i+q)(b+p) - (j+q)(a+p)) L[-a-b,i+j], and the cocycle (a^3-a)/12 is
    # odd in a.  It maps the window onto its mirror, so it commutes with
    # truncation, and the closure of sigma(generators) there is sigma of the
    # closure: the same dimension, holding sigma of every row.
    window = data.draw(windows)
    generators = data.draw(window_generators(window))
    closure = subalgebra_closure(block_bracket_rule(BlockParams(p, q)), generators, window)
    mirror = Window(-window.grade_max, -window.grade_min, window.level_max)
    rule = block_bracket_rule(BlockParams(-p, q))
    image = subalgebra_closure(rule, [sigma(g) for g in generators], mirror)
    assert image.dimension() == closure.dimension()
    assert all(membership(sigma(row), image) for row in closure.rows)


def run_closure_config(payload: dict):
    """The report of a closure config, through `load_config` and `run_job`."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "job.json"
        path.write_text(json.dumps(payload))
        return run_job(load_config(str(path)))


def sigma_text(text: str) -> str:
    return str(sigma(parse_element(text)))


def mirrored_closure_config(payload: dict) -> dict:
    """The closure config that sigma maps `payload` onto.  sigma takes B(p,q)
    to B(-p,q), and the affinized Witt algebra at (p, mu, theta, q) to the one
    at (-p, -mu, -theta, q): x_a x_b = (b+p) x_{a+b} + mu x_{a+b+theta}, and
    at (-a, -b) under the flipped parameters each term changes sign and lands
    on the mirror of its label.  The window [gmin, gmax] becomes [-gmax,
    -gmin], and the generators and queries map by sigma."""

    def minus(name: str) -> str:
        return format_rational(-parse_rational(payload.get(name, "0")))

    window = payload["window"]
    image = {
        **payload,
        "p": minus("p"),
        "window": {**window, "grade_min": -window["grade_max"], "grade_max": -window["grade_min"]},
        "generators": list(map(sigma_text, payload["generators"])),
        "membership": list(map(sigma_text, payload.get("membership", []))),
    }
    if payload.get("algebra") == "affinized":
        image.update(mu=minus("mu"), theta=-payload.get("theta", 0))
    return image


def assert_sigma_maps_the_report(payload: dict):
    """The mirrored config's report has the same dimension, membership
    answers and `positive`, and holds sigma of every row of the closure,
    asked as extra membership queries."""
    report = run_closure_config(payload)
    rows = [row for rows in report.results["basis_by_grade"].values() for row in rows]
    image = mirrored_closure_config(payload)
    queries = len(image["membership"])
    image["membership"] += map(sigma_text, rows)
    mirror = run_closure_config(image)
    assert mirror.results["dimension"] == report.results["dimension"]
    assert mirror.positive == report.positive
    answers = [query["member"] for query in mirror.results["membership"]]
    assert answers[:queries] == [query["member"] for query in report.results["membership"]]
    assert all(answers[queries:])


ARCHIVED_CLOSURES = sorted(
    path
    for path in (Path(__file__).resolve().parent / "data").glob("closure_*.json")
    if not path.name.endswith(".report.json")
)


@pytest.mark.parametrize("path", ARCHIVED_CLOSURES, ids=lambda path: path.stem)
def test_sigma_maps_each_archived_closure_config_onto_its_mirror(path):
    assert_sigma_maps_the_report(json.loads(path.read_text()))


@st.composite
def closure_configs(draw):
    """A Block or affinized closure config over a drawn window, with drawn
    generators and membership queries."""
    window = draw(windows)

    def elements() -> list[str]:
        return [str(element) for element in draw(window_generators(window))]

    payload = {
        "job": "closure",
        "p": format_rational(draw(rationals)),
        "q": format_rational(draw(nonzero)),
        "window": dict(zip(("grade_min", "grade_max", "level_max"), window)),
        "generators": elements(),
        "membership": elements(),
    }
    if draw(st.booleans()):
        payload.update(
            algebra="affinized", mu=format_rational(draw(rationals)), theta=draw(st.integers(-2, 2))
        )
    return payload


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(closure_configs())
def test_sigma_maps_a_drawn_closure_config_onto_its_mirror(payload):
    assert_sigma_maps_the_report(payload)


@SYMMETRY_SETTINGS
@given(rationals, nonzero, scales, scales, st.data())
def test_tau_keeps_the_pivots_of_the_closure_and_maps_its_rows_into_it(p, q, t, s, data):
    # tau is an automorphism of B(p,q): grades and levels add, and the cocycle
    # sits at grade 0 and level 0.  It scales each window coordinate, so the
    # closure of tau(generators) has the same pivot labels and holds tau of
    # every row.
    window = data.draw(windows)
    generators = data.draw(window_generators(window))
    rule = block_bracket_rule(BlockParams(p, q))
    closure = subalgebra_closure(rule, generators, window)
    image = subalgebra_closure(rule, [tau(g, t, s) for g in generators], window)
    assert pivots(image) == pivots(closure)
    assert all(membership(tau(row, t, s), image) for row in closure.rows)


@SYMMETRY_SETTINGS
@given(rationals, nonzero, scales, scales, st.data())
def test_tau_commutes_with_single_products_of_the_block_rule(p, q, t, s, data):
    # tau is an automorphism of B(p,q), so [tau x, tau y] = tau [x, y] on
    # every basis pair: the bracket of L[a,i] and L[b,j] lands on L[a+b,i+j],
    # and on c only where a+b = 0 and i = j = 0, the one place where
    # t^(a+b) s^(i+j) is 1 for every t and s.  Pairs of opposite grades are
    # always drawn, with levels that are rarely both 0
    rule = block_bracket_rule(BlockParams(p, q))
    grade, level = st.integers(-4, 4), st.integers(0, 3)
    label = st.builds(Graded, grade, level)
    pairs = data.draw(st.lists(st.tuples(label, label), min_size=1, max_size=8))
    a, i, j = data.draw(grade), data.draw(level), data.draw(level)
    pairs += [(Graded(a, i), Graded(-a, j)), (Graded(a, 0), Graded(-a, 0))]
    for x, y in pairs:
        image = bracket_apply(rule, tau(Element.basis(x), t, s), tau(Element.basis(y), t, s))
        assert image == tau(rule.pair(x, y), t, s)


def assert_each_pair_of_rows_is_formed_or_skipped_once(closure):
    # every final row is fresh exactly once, and is paired then with each row
    # before it and each later fresh row.  Either the loop ran out and so
    # formed a product for every pair, or it stopped early, skipping the rest,
    # once the rows spanned the support closure S of the generators.  The
    # guided products, formed before the loop, are no pairs of the loop, and
    # the guided pass forms at most one per column of S
    d, work = closure.dimension(), closure._work
    looped = work.products - work.guided
    ran_out = looped == d * (d - 1) // 2
    stopped = d == work.support and looped < d * (d - 1) // 2
    assert ran_out or stopped
    assert 0 <= work.guided <= work.support


@pytest.mark.parametrize("gens", PINNED_GENERATORS)
@pytest.mark.parametrize("rule", PINNED_RULES)
def test_closure_forms_or_skips_each_pair_of_rows_once_on_pinned_cases(rule, gens):
    window, generators = PINNED_GENERATORS[gens]
    closure = subalgebra_closure(PINNED_RULES[rule], generators, window)
    assert_each_pair_of_rows_is_formed_or_skipped_once(closure)


@SETTINGS
@given(st.one_of(*map(closure_cases, [block_rule, affinized_rule, engine_rule])))
def test_closure_forms_or_skips_each_pair_of_rows_once(case):
    assert_each_pair_of_rows_is_formed_or_skipped_once(subalgebra_closure(*case))


def cells(*labels):
    return [Element.basis(Graded(*label)) for label in labels]


# (window, generators, exact work) on the generic Block rule
STOP_CASES = {
    # the perfbench sparse_pair shape: the rank reaches |S| = 18 after 20
    # products, one of them guided, where the full loop forms 119
    "sparse pair": (
        Window(-2, 2, 3),
        [
            Element({Graded(1, 0): 1, Graded(-1, 2): Fraction(1, 2)}),
            Element({Graded(-1, 0): 1, Graded(0, 1): -3}),
        ],
        engine.ClosureWork(65, 20, 1, 4, 16, 18),
    ),
    # c enters S only through the cocycle K(2) = 1/2 of [L[2,0], L[-2,0]], next
    # to L[0,0]: S has 4 labels, the closure 3.  The guided pass forms that
    # product once, for L[0,0], although the pair also found c, and the loop
    # runs out
    "cocycle at a=2": (
        Window(-2, 2, 1),
        cells((2, 0), (-2, 0)),
        engine.ClosureWork(4, 4, 1, 3, 1, 4),
    ),
    # with L[0,0] among the generators, the generators' columns miss only c,
    # which the guided product fills
    "cocycle beside L[0,0]": (
        Window(-2, 2, 1),
        cells((0, 0), (2, 0), (-2, 0)),
        engine.ClosureWork(2, 1, 1, 0, 1, 4),
    ),
    # K(1) = 0 keeps c out of S = {L[-1,0], L[0,0], L[1,0]}, which the guided
    # product fills: the loop stops at its first pair of rows
    "K(1) = 0": (Window(-2, 2, 1), cells((1, 0), (-1, 0)), engine.ClosureWork(5, 1, 1, 0, 1, 3)),
}


@pytest.mark.parametrize("case", STOP_CASES)
def test_closure_work_with_the_support_closure_on_pinned_cases(case):
    window, generators, work = STOP_CASES[case]
    rule = PINNED_RULES["block generic"]
    closure = subalgebra_closure(rule, generators, window)
    assert closure.rows == naive_closure(rule, generators, window)
    assert closure._work == work
    assert_each_pair_of_rows_is_formed_or_skipped_once(closure)


# the perfbench monomial shapes, which hold closure_sweep's p90, with their
# exact work at generic p and q: window, generators, work
MONOMIAL_SHAPES = {
    "monomial_pair": (
        Window(-2, 2, 3),
        cells((1, 0), (-1, 1)),
        engine.ClosureWork(16, 12, 12, 0, 12, 14),
    ),
    "monomial_triple": (
        Window(-3, 3, 7),
        cells((1, 0), (-1, 1), (2, 2)),
        engine.ClosureWork(48, 42, 42, 0, 42, 45),
    ),
}


GENERIC_PARAMS = [(Fraction(2, 3), Fraction(-7, 5)), (Fraction(-11, 3), Fraction(8, 5))]


@pytest.mark.parametrize("params", GENERIC_PARAMS)
@pytest.mark.parametrize("shape", MONOMIAL_SHAPES)
def test_guided_products_alone_reach_the_support_closure_of_monomials(shape, params):
    # the rows of monomial generators are unit rows, and at generic p and q
    # the bracket of two labels is one label: the guided product for each
    # column of S past the generators' is that column's unit row, so each adds
    # a pivot, none reduces to zero, and the loop forms no product
    window, generators, work = MONOMIAL_SHAPES[shape]
    rule = block_bracket_rule(BlockParams(*params))
    closure = subalgebra_closure(rule, generators, window)
    assert closure._work == work
    assert work.products == work.guided == work.pivots == work.support - len(generators)
    assert work.reduced_to_zero == 0
    assert closure.rows == naive_closure(rule, generators, window)


BELOW_SUPPORT = [
    ("block generic", "cocycle pair"),
    ("graded p=q=0", "dense pair"),
    ("block p=0", "dense pair"),
]


@pytest.mark.parametrize("rule, gens", BELOW_SUPPORT)
def test_guided_pass_below_the_support_closure(rule, gens):
    # dim V < |S|: the guided products cannot reach |S|, and the loop runs
    # out from the enlarged echelon to the same rows
    window, generators = PINNED_GENERATORS[gens]
    closure = subalgebra_closure(PINNED_RULES[rule], generators, window)
    work = closure._work
    assert closure.dimension() < work.support
    assert 0 < work.guided <= work.support
    assert closure.rows == naive_closure(PINNED_RULES[rule], generators, window)
    assert_each_pair_of_rows_is_formed_or_skipped_once(closure)


def test_guided_pass_forms_no_product_for_a_column_already_a_pivot():
    # the dense generator's row brackets onto several columns of S at once,
    # so a guided product can make a later column of S a pivot before its
    # turn comes; the pass forms no product for that column
    rule = PINNED_RULES["graded p=q=0 shifted"]
    window = Window(-2, 2, 2)
    generators = cells((-2, 1), (-2, 0)) + [Element({Graded(2, 0): 1, Graded(2, 1): 2})]
    closure = subalgebra_closure(rule, generators, window)
    assert closure._work == engine.ClosureWork(21, 13, 2, 2, 9, 12)
    assert closure.rows == naive_closure(rule, generators, window)


def raising_compile(*args):
    raise AssertionError("the rule's terms were compiled")


def test_a_closure_that_forms_no_product_brackets_nothing(monkeypatch):
    # the perfbench single_dense shape: one generator is its own closure, no
    # pair of rows is due, so the kernel is never compiled, no basis pair is
    # bracketed, and the support closure S is never computed
    rule = affinize(
        witt_product_rule(WittNovikovParams(p=Fraction(2, 3), mu=Fraction(-3, 2), theta=1)),
        AffinizationParams(Fraction(-7, 5)),
    )
    monkeypatch.setattr(engine, "_compile", raising_compile)
    generator = Element(
        {
            Graded(1, 0): 1,
            Graded(0, 2): Fraction(1, 2),
            Graded(-2, 1): -3,
            Graded(3, 5): Fraction(4, 3),
            Graded(-1, 7): 2,
        }
    )
    closure = subalgebra_closure(rule, [generator], Window(-3, 3, 7))
    assert closure.rows == (generator.scaled(Fraction(-1, 3)),)
    assert closure._work == engine.ClosureWork(0, 0, 0, 0, 0, 0)


def test_a_one_generator_closure_of_a_symbolic_rule_is_its_generator(monkeypatch):
    # the kernel, which refuses a symbolic coefficient, is built at the first
    # pair of rows; one generator forms none, so it is its own closure.  No
    # config reaches this: closure jobs take only rational p and q
    rule = graded_bracket_rule(1, PolyRing("q").var("q"))
    with pytest.raises(ClosureError, match="symbolic"):
        engine._integer_kernel(rule, Window(0, 3, 0))
    monkeypatch.setattr(engine, "_compile", raising_compile)
    generator = Element({Graded(1, 0): 2, Graded(2, 0): Fraction(1, 3)})
    closure = subalgebra_closure(rule, [generator], Window(0, 3, 0))
    assert closure.rows == (generator.scaled(Fraction(1, 2)),)
    assert closure._work == engine.ClosureWork(0, 0, 0, 0, 0, 0)


def raising_pair(x, y):
    raise AssertionError("a rule with terms was bracketed through its pair")


@pytest.mark.parametrize("gens", PINNED_GENERATORS)
@pytest.mark.parametrize("rule", PINNED_RULES)
def test_closure_of_a_rule_with_terms_never_calls_its_pair(monkeypatch, rule, gens):
    window, generators = PINNED_GENERATORS[gens]
    expected = naive_closure(PINNED_RULES[rule], generators, window)
    monkeypatch.setattr(block, "basis_bracket", raising_pair)
    kernel_only = PINNED_RULES[rule]._replace(pair=raising_pair)
    assert subalgebra_closure(kernel_only, generators, window).rows == expected


@st.composite
def kernel_cases(draw):
    """A rule with terms, a window and basis pairs: inside the window, outside
    it, and always one on the cocycle stratum a+b = 0, i = j = 0."""
    kind = draw(st.sampled_from(["block", "affinized", "perturbed", "graded"]))
    if kind == "block":
        p = draw(st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction), rationals))
        rule = block_bracket_rule(BlockParams(p=p, q=draw(nonzero)))
    elif kind == "graded":
        rule = engine_rule(draw)
    else:
        mu = draw(st.one_of(st.just(Fraction(0)), nonzero))
        params = WittNovikovParams(p=draw(rationals), mu=mu, theta=draw(st.integers(-2, 2)))
        if kind == "affinized":
            product = witt_product_rule(params)
        else:
            target = draw(st.sampled_from(["main", "shift"]))
            exponents = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            product = perturbed_witt_rule(params, target, exponents, draw(nonzero))
        rule = affinize(product, AffinizationParams(q=draw(rationals)))
    window = draw(windows)
    grade = st.integers(window.grade_min - 3, window.grade_max + 3)
    level = st.integers(0, window.level_max + 2)
    label = st.builds(Graded, grade, level)
    pairs = draw(st.lists(st.tuples(label, label), min_size=1, max_size=12))
    a = draw(grade)
    pairs.append((Graded(a, 0), Graded(-a, 0)))
    return rule, window, pairs


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(kernel_cases())
def test_integer_kernel_row_over_its_denominator_is_the_truncated_pair(case):
    rule, window, pairs = case
    coord_index = {index: pos for pos, index in enumerate(window.indices())}
    den, reach = _integer_kernel(rule, window)
    span = 2 * window.level_max + 1
    for x, y in pairs:
        # a pair of labels outside the window may sum to a level of span or
        # more, which has no code: no offset lowers a level, so it reaches
        # no window label and no entry
        levels = x.level + y.level
        landing = reach.get((x.grade + y.grade) * span + levels, []) if levels < span else []
        row = _kernel_row(landing, x, y)
        assert all(v for _, v in row)
        inside = [(i, c) for i, c in rule.pair(x, y).terms.items() if i in coord_index]
        d, expected = _integer_row(inside, coord_index)
        assert {k: Fraction(v, den) for k, v in row} == {
            k: Fraction(v, d) for k, v in expected.items()
        }


@st.composite
def offset_rules(draw):
    """The rules that derive their offsets from terms: the delta-free Block
    bracket and affinized Witt or perturbed products."""
    if not draw(st.integers(0, 2)):
        return delta_free_rule(BlockParams(p=draw(rationals), q=draw(nonzero)))
    params = WittNovikovParams(p=draw(rationals), mu=draw(rationals), theta=draw(st.integers(-2, 2)))
    if draw(st.booleans()):
        product = witt_product_rule(params)
    else:
        target = draw(st.sampled_from(["main", "shift"]))
        exponents = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        product = perturbed_witt_rule(params, target, exponents, draw(nonzero))
    return affinize(product, AffinizationParams(q=draw(rationals)))


def derived_offsets(rule):
    """The offsets of a rule's nonzero summed terms, and (0, 0) when it has a
    cocycle: every label of pair(L[a,i], L[b,j]) is L[a+b+dgrade, i+j+dlevel]
    for one of them, or c at a+b = 0, i = j = 0, which lies in a window
    exactly when that L[0,0] does."""
    central = () if rule.cocycle is None else ((0, 0),)
    return {*accumulate({}, rule.terms), *central}


def assert_offsets_cover_every_output_label(rule):
    offsets = derived_offsets(rule)
    box = itertools.product(range(-4, 5), range(-4, 5), range(4), range(4))
    for a, b, i, j in box:
        for label in rule.pair(Graded(a, i), Graded(b, j)).terms:
            if label is CENTRAL:
                assert a + b == 0 and i == j == 0 and (0, 0) in offsets
            else:
                assert (label.grade - a - b, label.level - i - j) in offsets


@pytest.mark.parametrize("p", [0, 1, -1, Fraction(2, 3)])
def test_block_rule_offsets_cover_every_output_label(p):
    # the Block rule derives its offsets from its terms and cocycle, which add
    # (0, 0) for c; the box holds cocycle pairs
    assert_offsets_cover_every_output_label(block_bracket_rule(BlockParams(p, Fraction(-7, 5))))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(offset_rules())
def test_derived_offsets_cover_every_output_label(rule):
    assert_offsets_cover_every_output_label(rule)


def test_closure_brackets_only_pairs_that_reach_the_window(monkeypatch):
    rule = PINNED_RULES["block generic"]
    window, generators = PINNED_GENERATORS["dense pair"]
    recorded = []
    kernel_row = engine._kernel_row

    def recording_row(landing, x, y):
        recorded.append((x, y))
        return kernel_row(landing, x, y)

    monkeypatch.setattr(engine, "_kernel_row", recording_row)
    closure = subalgebra_closure(rule, generators, window)

    def reaches(x, y):
        return any(
            window.contains(Graded(x.grade + y.grade + dg, x.level + y.level + dl))
            for dg, dl in derived_offsets(rule)
        )

    assert closure.rows == naive_closure(rule, generators, window)
    assert all(reaches(x, y) for x, y in recorded)
    support = {index for row in closure.rows for index in row.terms if index is not CENTRAL}
    skipped = [
        (x, y) for x, y in itertools.product(support, repeat=2) if not reaches(x, y)
    ]
    assert skipped and not set(skipped) & set(recorded)
    assert closure._work.pairs == len(recorded)


def test_closure_refuses_a_rule_without_terms():
    # no config reaches this: a closure job builds only the Block and
    # affinized Witt rules, both with terms; the refusal comes before any
    # basis pair is bracketed
    rule = BracketRule(raising_pair)
    assert rule.terms is None
    generators = [Element.basis(Graded(1, 0)), Element.basis(Graded(1, 1))]
    with pytest.raises(ClosureError, match="terms"):
        subalgebra_closure(rule, generators, Window(0, 2, 1))


@st.composite
def matrices(draw):
    """Rows spanned by `rank` random vectors, mostly fewer than the width,
    mixed with rows of a single entry, often 1.

    A row of one entry is stored as a unit row, and clearing by it deletes
    the column from the cleared row."""
    width = draw(st.integers(1, 8))
    rank = draw(st.integers(0, width))
    vector = st.lists(rationals, min_size=width, max_size=width)
    spanning = draw(st.lists(vector, min_size=rank, max_size=rank))
    mix = st.lists(rationals, min_size=rank, max_size=rank)

    def combination(weights):
        terms = list(zip(weights, spanning))
        return [sum((m * v[i] for m, v in terms), Fraction(0)) for i in range(width)]

    def single(entry):
        column, value = entry
        return [value if i == column else Fraction(0) for i in range(width)]

    entry = st.tuples(st.integers(0, width - 1), st.one_of(st.just(Fraction(1)), nonzero))
    rows = draw(st.lists(st.one_of(mix.map(combination), entry.map(single)), max_size=10))
    return rows, width


def integer_row(row):
    """A rational row times the lcm of its denominators, as {column: nonzero int}."""
    den = lcm(*(v.denominator for v in row))
    return {k: int(v * den) for k, v in enumerate(row) if v}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(matrices())
def test_sparse_echelon_matches_dense_oracle(case):
    rows, width = case
    sparse, dense = _Echelon(width), DenseEchelon(width)
    for row in rows:
        added = sparse.insert(integer_row(row))
        assert added == dense.insert(list(row))
    assert sorted(sparse.rows) == dense.pivots
    for pivot, row in zip(dense.pivots, dense.rows):
        # a stored row divided by its pivot is the reduced echelon row
        stored = sparse.rows[pivot]
        assert {k: Fraction(v, stored[pivot]) for k, v in stored.items()} == {
            k: v for k, v in enumerate(row) if v
        }
        assert 0 not in stored.values()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(matrices())
def test_sparse_echelon_rows_stay_primitive_and_reduced(case):
    rows, width = case
    sparse = _Echelon(width)
    for row in rows:
        sparse.insert(integer_row(row))
        for pivot, stored in sparse.rows.items():
            assert min(stored) == pivot and stored[pivot] > 0
            assert all(isinstance(v, int) and v for v in stored.values())
            assert gcd(*stored.values()) == 1
            assert not any(other in stored for other in sparse.rows if other != pivot)
