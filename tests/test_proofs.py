"""Differential tests of the two routes through the exact grid checks.

A closed-form rule is its structure coefficients, its `terms`, and
`grid_identity_check` and `novikov_axiom_check` prove their identities from
them before any grid point is evaluated.  The rule's pair is derived from
the terms, and the same pair on a rule without terms (`BracketRule(rule.pair)`)
is decided by the grid scan alone.  Witness and residual must print
identically on both routes, above all on failing rules, where the proof
fails and the scan finds the witness; a holding verdict is universal on the
proof route and holds on the tested grid on the scan route.  The derived
pair is checked against the terms evaluated as Polys, and against the
hand-written pairs the rules carried before, kept here as oracles: the same
printed Element, with the same coefficient types and rings, at integer and
rational points.  A holding proof never compiles the terms.  The terms also
decide the degree bounds that size the grids.  The prover itself runs on
integers with packed monomials, and the Fraction prover it replaced is kept
here as its oracle; one fixed case reaches the largest exponent that a
config's packed fields must hold.  It brackets one tree per orbit under
renaming the leaves x, y, z and renames the rest; the brackets it forms are
counted, and every renaming it uses is checked on monomials whose fields
are full.
"""

import functools
import itertools
from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_block import hand_basis_bracket, structure_coefficient
from test_engine import assert_same_terms, printed
from test_scalars import assert_same_poly, compose, constants, degree_bound

from blocklie import engine
from blocklie.block import CUBIC_COCYCLE, BlockParams, block_bracket_rule, delta_free_rule
from blocklie.cli import MAX_GRID_VALUES, load_config, run_job
from blocklie.engine import (
    IDENTITIES,
    INDEX_SYMBOLS,
    BracketRule,
    Element,
    Graded,
    Verdict,
    _depth,
    _evaluate,
    _orbit,
    _proof_packing,
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
    witt_novikov_product,
    witt_product_rule,
)
from blocklie.scalars import Poly, PolyRing, accumulate

ROOT = Path(__file__).resolve().parent.parent

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
def product_rules(draw, values=rationals):
    """The Witt-type product, or it with one coefficient perturbed by
    delta*a^ea*b^eb, which breaks both Novikov axioms for most exponents."""
    params = WittNovikovParams(
        draw(scalars("p", values)), draw(scalars("mu", values)), draw(st.integers(-2, 2))
    )
    if draw(st.integers(0, 3)) == 0:
        return witt_product_rule(params)
    target = draw(st.sampled_from(["main", "shift"]))
    exponents = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    return perturbed_witt_rule(params, target, exponents, draw(values.filter(bool)))


@st.composite
def bracket_rules(draw, values=rationals):
    """An affinized product rule, or the delta-free Block bracket."""
    if draw(st.integers(0, 3)):
        return affinize(draw(product_rules(values)), AffinizationParams(draw(scalars("q", values))))
    p = draw(scalars("p", values))
    return delta_free_rule(BlockParams(p, draw(scalars("q", values.filter(bool)))))


def scan_only(rule):
    return BracketRule(rule.pair)


def assert_routes_agree(proved, scanned, proof):
    """The proof route holds universally exactly when its proof succeeds,
    where the scan alone holds on the tested grid; a failing verdict prints
    the same witness and residual on both routes."""
    assert proved.holds == (not proof)
    if proved.holds:
        assert (proved, scanned) == (Verdict(True), Verdict(True, scope="on_tested_grid"))
    else:
        assert printed(proved) == printed(scanned)


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
@given(bracket_rules(), st.data())
def test_identity_proof_matches_scan(rule, data):
    grades = data.draw(grids(2 * rule.grade_degree_bound + 1))
    levels = data.draw(grids(2 * rule.level_degree_bound + 1))
    proved = grid_identity_check(rule, "jacobi", grades, levels)
    scanned = grid_identity_check(scan_only(rule), "jacobi", grades, levels)
    (proof,) = _prove(rule.terms, ("jacobi",))
    assert_routes_agree(proved, scanned, proof)


def lifted(ring, element) -> Element:
    """An Element with its coefficients lifted into the terms' ring."""
    return Element(
        {
            label: coeff.into(ring) if isinstance(coeff, Poly) else ring.const(coeff)
            for label, coeff in element.terms.items()
        }
    )


def evaluated(terms, x: Graded, y: Graded) -> dict:
    """The terms at L[x], L[y]: {label: Poly}."""
    acc: dict = {}
    for (dg, dl), coeff in terms:
        point = constants(coeff.ring, {"a": x.grade, "i": x.level, "b": y.grade, "j": y.level})
        label = Graded(x.grade + y.grade + dg, x.level + y.level + dl)
        accumulate(acc, ((label, compose(coeff, coeff.ring, point)),))
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
    assert_same_terms(lifted(ring, rule.pair(x, y)), evaluated(rule.terms, x, y))


# -- the hand-written pairs the rules carried before, as oracles -----------------


def witt_pair(params):
    return lambda x, y: witt_novikov_product(params, x.grade, y.grade)


def perturbed_pair(params, target, exponents, delta):
    ea, eb = exponents
    shift = 0 if target == "main" else params.theta

    def pair(x: Graded, y: Graded) -> Element:
        a, b = x.grade, y.grade
        bump = delta * a**ea * b**eb
        out = witt_novikov_product(params, a, b).terms
        return Element(accumulate(dict(out), ((Graded(a + b + shift, 0), bump),)))

    return pair


def affinized_pair(product, q):
    def relevel(element: Element, level):
        return ((Graded(i.grade, level), c) for i, c in element.terms.items())

    def pair(x: Graded, y: Graded) -> Element:
        # the product reads the grades only
        m, n = x.level, y.level
        acc: dict = {}
        accumulate(acc, relevel(product(x, y), m + n), m + q)
        accumulate(acc, relevel(product(y, x), m + n), -(n + q))
        return Element(acc)

    return pair


def delta_free_pair(params):
    def pair(x: Graded, y: Graded) -> Element:
        coeff = structure_coefficient(params, x, y)
        return Element({Graded(x.grade + y.grade, x.level + y.level): coeff} if coeff else {})

    return pair


@st.composite
def rules_with_oracles(draw):
    """(rule, its hand-written pair, whether it reads levels): a Witt or
    perturbed product (`product_rules`), its affinization, the delta-free
    Block bracket or the full one with its cocycle.  Each parameter is a
    rational or its symbol, so concrete, symbolic and mixed parameters all
    occur; p symbolic with mu rational sums a Poly and a Fraction."""
    kind = draw(st.sampled_from(["witt", "perturbed", "affinized", "delta_free", "block"]))
    if kind in ("delta_free", "block"):
        params = BlockParams(draw(scalars("p")), draw(scalars("q", nonzero_rationals)))
        if kind == "delta_free":
            return delta_free_rule(params), delta_free_pair(params), True
        return block_bracket_rule(params), functools.partial(hand_basis_bracket, params), True
    params = WittNovikovParams(draw(scalars("p")), draw(scalars("mu")), draw(st.integers(-2, 2)))
    if kind == "witt" or draw(st.booleans()):
        rule, pair = witt_product_rule(params), witt_pair(params)
    else:
        target = draw(st.sampled_from(["main", "shift"]))
        exponents = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
        delta = draw(nonzero_rationals)
        rule = perturbed_witt_rule(params, target, exponents, delta)
        pair = perturbed_pair(params, target, exponents, delta)
    if kind != "affinized":
        return rule, pair, False
    q = draw(scalars("q"))
    return affinize(rule, AffinizationParams(q)), affinized_pair(pair, q), True


def assert_same_element(got: Element, want: Element):
    assert str(got) == str(want)
    assert got.terms.keys() == want.terms.keys()
    for label, coeff in got.terms.items():
        other = want.terms[label]
        assert type(coeff) is type(other), label
        if isinstance(coeff, Poly):
            assert coeff.ring == other.ring and coeff.terms == other.terms, label
        else:
            assert coeff == other, label


@settings(SETTINGS, max_examples=300)
@given(rules_with_oracles(), st.data())
def test_derived_pair_matches_the_hand_written_pair(drawn, data):
    rule, oracle, leveled = drawn
    indices = st.one_of(st.integers(-3, 3), rationals)
    a, b = data.draw(indices), data.draw(indices)
    i, j = (data.draw(indices), data.draw(indices)) if leveled else (0, 0)
    if data.draw(st.booleans()):  # the cocycle stratum
        b, i, j = -a, 0, 0
    for x, y in ((Graded(a, i), Graded(b, j)), (Graded(b, j), Graded(a, i))):
        assert_same_element(rule.pair(x, y), oracle(x, y))


def test_index_ring_lifts_parameters_and_rejects_clashes():
    ring, (p, half) = index_ring(SYMBOLS["p"], Fraction(1, 2))
    assert ring.symbols == ("p", "mu", "q", "a", "i", "b", "j", "c", "k")
    assert_same_poly(p, ring.var("p"))
    assert_same_poly(half, ring.const(Fraction(1, 2)))
    # a value already in an index ring contributes only its parameters
    again, (same,) = index_ring(p * ring.var("a"))
    assert again == ring and same.terms == (p * ring.var("a")).terms
    with pytest.raises(ValueError, match="clashes"):
        index_ring(PolyRing("a").var("a"))


@contextmanager
def counted_compiles():
    """The terms each `engine._compile` call compiles, in call order."""
    calls: list = []
    original = engine._compile

    def counting(terms, cocycle):
        calls.append(terms)
        return original(terms, cocycle)

    with mock.patch.object(engine, "_compile", counting):
        yield calls


def test_rules_without_terms_hold_on_the_tested_grid():
    block = delta_free_rule(BlockParams(Fraction(2, 3), Fraction(-7, 5)))
    bare = BracketRule(block.pair)
    assert (bare.grade_degree_bound, bare.level_degree_bound) == (0, 0)
    verdict = grid_identity_check(bare, "jacobi", [-1, 0, 1], [0, 1, 2])
    assert verdict == Verdict(True, scope="on_tested_grid")
    witt = BracketRule(witt_product_rule(WittNovikovParams(Fraction(1, 2), 3, 1)).pair)
    assert witt.grade_degree_bound == 0
    verdicts = novikov_axiom_check(witt, [-2, -1, 0, 1, 2])
    for verdict in (verdicts.left_symmetry, verdicts.right_commutativity):
        assert verdict == Verdict(True, scope="on_tested_grid")


def test_universal_verdicts_come_from_the_proof_alone():
    # a proved identity evaluates no grid point, so it never compiles the
    # terms into the pair; a proof that fails never holds: its scan reports
    # the witness
    with counted_compiles() as calls:
        block = delta_free_rule(BlockParams(Fraction(2, 3), Fraction(-7, 5)))
        verdict = grid_identity_check(block, "jacobi", [-1, 0, 1], [0, 1, 2])
        assert verdict == Verdict(True)
        witt = witt_product_rule(WittNovikovParams(Fraction(1, 2), 3, 1))
        verdicts = novikov_axiom_check(witt, [-1, 0, 1])
        assert verdicts.left_symmetry == verdicts.right_commutativity == Verdict(True)
        assert not calls
        broken = perturbed_witt_rule(WittNovikovParams(1), "main", (1, 0), Fraction(1))
        verdicts = novikov_axiom_check(broken, [-1, 0, 1])
        assert not verdicts.right_commutativity.holds
        assert verdicts.right_commutativity.witness is not None
        assert [terms is broken.terms for terms in calls] == [True]


def compiles_of(path: Path) -> int:
    with counted_compiles() as calls:
        run_job(load_config(str(path)))
    return len(calls)


def test_a_job_whose_proofs_hold_never_compiles_the_terms(tmp_path):
    holding = tmp_path / "affinize.json"
    holding.write_text(
        '{"job": "affinize", "p": "1/2", "mu": "3", "theta": -1, "q": "symbolic",'
        ' "grades": ["-2", "-1", "0", "1", "2"], "levels": ["0", "1/3", "2"]}'
    )
    for path in (
        ROOT / "golden" / "axioms_witt.json",
        holding,
        ROOT / "tests" / "data" / "blockcheck_concrete.json",
        ROOT / "tests" / "data" / "blockcheck_symbolic.json",
    ):
        assert compiles_of(path) == 0, path.name
    assert compiles_of(ROOT / "tests" / "data" / "axioms_perturbed_both_fail.json") >= 1


def test_a_rule_takes_terms_or_a_pair_never_both():
    witt = witt_product_rule(WittNovikovParams(1))
    for args in ((witt.pair, witt.terms), (witt.pair, witt.terms, CUBIC_COCYCLE), ()):
        with pytest.raises(ValueError, match="or a pair, never both"):
            BracketRule(*args)
    with pytest.raises(ValueError, match="or a pair, never both"):
        BracketRule(witt.pair, None, CUBIC_COCYCLE)  # a cocycle needs terms
    with pytest.raises(ValueError, match="requires a product rule with terms"):
        affinize(BracketRule(witt.pair), AffinizationParams(Fraction(1)))


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


def degree_in(summed: dict, symbols: str) -> int:
    """The largest degree in any of `symbols` of the Polys `summed.values()`,
    read symbol by symbol: the oracle of `BracketRule`'s one-pass bounds."""
    return max((degree_bound(c, s) for c in summed.values() for s in symbols), default=0)


@st.composite
def term_rules(draw):
    """A rule with random terms over p and the indices a, i, b, j: random
    exponents up to 4, repeated offsets, and a term that may cancel another."""
    ring = index_ring(SYMBOLS["p"])[0]
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coeff = {}
        for _ in range(draw(st.integers(1, 4))):
            exps = tuple(draw(st.integers(0, 4)) if name in "paibj" else 0 for name in ring.symbols)
            coeff[exps] = draw(nonzero_rationals)
        terms.append(((draw(st.integers(-1, 1)), draw(st.integers(0, 1))), Poly(ring, coeff)))
    if draw(st.booleans()):
        offset, coeff = terms[0]
        terms.append((offset, -coeff))
    return BracketRule(terms=tuple(terms))


@SETTINGS
@given(st.one_of(term_rules(), product_rules(), bracket_rules()))
def test_degree_bounds_match_the_symbol_by_symbol_oracle(rule):
    summed = accumulate({}, rule.terms)
    expected = degree_in(summed, "ab"), degree_in(summed, "ij")
    assert (rule.grade_degree_bound, rule.level_degree_bound) == expected


# -- the Fraction prover, as an oracle --------------------------------------------


def fraction_bracket_at(terms, x: tuple, y: tuple) -> list[tuple]:
    """The terms of [L[x], L[y]] for labels x, y of Polys (grade, level);
    each output label is L[x+y+offset]."""
    images = {"a": x[0], "i": x[1], "b": y[0], "j": y[1]}
    return [(offset, compose(coeff, coeff.ring, images)) for offset, coeff in terms]


def fraction_prove(terms, names) -> list[dict]:
    """`_prove` in Fraction Poly arithmetic: each residual maps (leaves,
    (dgrade, dlevel)) to the Poly coefficient of that label."""
    if not terms:
        return [{} for _ in names]
    ring = terms[0][1].ring
    symbols = {name: (ring.var(g), ring.var(l)) for name, (g, l) in zip("xyz", ("ai", "bj", "ck"))}

    @functools.cache
    def label(leaves: str, offset: tuple) -> tuple:
        if offset != (0, 0):
            return tuple(value + d for value, d in zip(label(leaves, (0, 0)), offset))
        return tuple(sum(parts[1:], parts[0]) for parts in zip(*map(symbols.get, leaves)))

    def bracket(u: dict, v: dict) -> dict:
        out: dict = {}
        for (lu, (gu, hu)), cu in u.items():
            for (lv, (gv, hv)), cv in v.items():
                leaves = "".join(sorted(lu + lv))
                at = fraction_bracket_at(terms, label(lu, (gu, hu)), label(lv, (gv, hv)))
                accumulate(
                    out,
                    (((leaves, (gu + gv + dg, hu + hv + dl)), coeff) for (dg, dl), coeff in at),
                    cu * cv,
                )
        return out

    return _evaluate(names, lambda name: {(name, (0, 0)): 1}, bracket)


def unpacked(packing, monomial: int) -> tuple[int, ...]:
    """The exponent tuple of a packed monomial, one bit field per symbol."""
    mask = (1 << packing.bits) - 1
    return tuple(monomial >> k * packing.bits & mask for k in range(len(packing.ring.symbols)))


def rational_residual(terms, name: str, residual: dict) -> dict:
    """An integer residual of `_prove`, from a proof of every identity,
    divided by D^depth, D the common denominator of the terms' coefficients:
    {(leaves, offset): Poly terms}, its packed monomials unpacked."""
    terms = tuple(accumulate({}, terms).items())  # the prover sums equal offsets first
    den = lcm(*(c.denominator for _, coeff in terms for c in coeff.terms.values()))
    (depth,) = {_depth(tree) for _, tree in IDENTITIES[name]}
    packing = _proof_packing(terms, list(IDENTITIES))
    out: dict = {}
    for (leaves, offset, monomial), c in residual.items():
        exps = unpacked(packing, monomial)
        out.setdefault((leaves, offset), {})[exps] = Fraction(c, den**depth)
    return out


wide_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@SETTINGS
@given(st.one_of(product_rules(wide_rationals), bracket_rules(wide_rationals)))
def test_integer_prover_matches_the_fraction_prover(rule):
    # every identity on every rule: a product's Jacobi sum is a polynomial identity too
    names = list(IDENTITIES)
    proofs = zip(names, _prove(rule.terms, names), fraction_prove(rule.terms, names))
    for name, got, want in proofs:
        assert (not got) == (not want), name
        assert rational_residual(rule.terms, name, got) == {
            key: coeff.terms for key, coeff in want.items()
        }


def relabeled(rule, s: int, t: int):
    """The rule on the labels R[a,i] = L[a+s,i+t]: [R[a,i], R[b,j]] lands at
    L[a+b+2s+dg, i+j+2t+dl] = R[a+b+s+dg, i+j+t+dl], so each term moves to
    offset (dg+s, dl+t), its coefficient read at the shifted indices.  It is
    isomorphic to the rule, and its labels carry constants in both fields."""
    ring = rule.terms[0][1].ring
    moved = {name: ring.var(name) + k for name, k in zip("aibj", (s, t, s, t))}
    return BracketRule(
        terms=tuple(((dg + s, dl + t), compose(c, ring, moved)) for (dg, dl), c in rule.terms)
    )


@SETTINGS
@given(st.one_of(product_rules(), bracket_rules()), st.integers(-2, 2), st.integers(-2, 2))
def test_integer_prover_matches_the_fraction_prover_at_shifted_labels(rule, s, t):
    # no job's rule has a level offset; a relabeled one proves what its rule does
    names = list(IDENTITIES)
    shifted = relabeled(rule, s, t)
    proofs = zip(names, _prove(shifted.terms, names), fraction_prove(shifted.terms, names))
    for name, got, want in proofs:
        assert rational_residual(shifted.terms, name, got) == {
            key: coeff.terms for key, coeff in want.items()
        }
    holds = [not proof for proof in _prove(rule.terms, names)]
    assert [not proof for proof in _prove(shifted.terms, names)] == holds


def widest_rule():
    """A product of grade bound e needs a grid of 2e + 1 grades, so a config
    reaches e = 24: the perturbation by a^24, whose residuals reach a^48."""
    exponent = (MAX_GRID_VALUES - 1) // 2
    params = WittNovikovParams(SYMBOLS["p"], SYMBOLS["mu"], 1)
    return exponent, perturbed_witt_rule(params, "main", (exponent, 0), Fraction(-3, 7))


def test_packed_fields_hold_the_largest_exponent_a_grid_admits():
    # a^24 gives left symmetry an a^48, depth 2 times the terms' total
    # degree 24: the bound the packed fields are sized by
    exponent, rule = widest_rule()
    names = list(IDENTITIES)
    proofs = list(zip(names, _prove(rule.terms, names), fraction_prove(rule.terms, names)))
    reached = max(max(e) for _, _, want in proofs for c in want.values() for e in c.terms)
    assert reached == 2 * exponent
    for name, got, want in proofs:
        assert (not got) == (not want), name
        assert rational_residual(rule.terms, name, got) == {
            key: coeff.terms for key, coeff in want.items()
        }


def test_every_identity_has_trees_of_one_depth():
    # `_prove` scales a tree of depth k by D^k, so the trees of one identity
    # must share k for the lifted residual to vanish with the rational one
    for name, trees in IDENTITIES.items():
        assert len({_depth(tree) for _, tree in trees}) == 1, name


def test_every_identity_has_trees_of_one_leaf_set():
    # `_prove` sums an identity's trees per offset on monomials alone, keys
    # the residual by the leaves of its first tree and reads a subtree's label
    # off its distinct leaves, so every tree must read the same leaves, each
    # exactly once
    def leaves(tree) -> str:
        return tree if isinstance(tree, str) else leaves(tree[0]) + leaves(tree[1])

    for name, trees in IDENTITIES.items():
        read = {leaves(tree) for _, tree in trees}
        assert len({"".join(sorted(r)) for r in read}) == 1, name
        assert all(len(set(r)) == len(r) for r in read), name


@contextmanager
def counted_brackets():
    """The leaves (lu, lv) of each bracket of two values that the walker's
    callback forms inside the block."""
    calls: list = []
    original = engine._evaluate

    def counting(names, leaf, bracket, rename=None):
        def counted(u, v, lu, lv):
            calls.append((lu, lv))
            return bracket(u, v, lu, lv)

        return original(names, leaf, counted, rename)

    with mock.patch.object(engine, "_evaluate", counting):
        yield calls


def test_the_prover_brackets_one_tree_per_orbit():
    # (xy), x(yz) and (xy)z: every other tree, and the subtree (yz), is a
    # renamed one, so Jacobi brackets 2 trees instead of 6 and the Novikov
    # pair 3 instead of 9
    witt = WittNovikovParams(Fraction(1, 2), Fraction(-3, 4), 1)
    rule = affinize(
        perturbed_witt_rule(witt, "shift", (2, 1), Fraction(5, 7)), AffinizationParams(SYMBOLS["q"])
    )
    expected = {
        ("jacobi",): [("x", "y"), ("x", "yz")],
        ("left_symmetry", "right_commutativity"): [("x", "y"), ("xy", "z"), ("x", "yz")],
        tuple(IDENTITIES): [("x", "y"), ("x", "yz"), ("xy", "z")],
    }
    for names, brackets in expected.items():
        with counted_brackets() as calls:
            proofs = _prove(rule.terms, names)
        assert calls == brackets, names
        for name, got, want in zip(names, proofs, fraction_prove(rule.terms, names)):
            assert rational_residual(rule.terms, name, got) == {
                key: coeff.terms for key, coeff in want.items()
            }
    assert _orbit(("z", ("x", "y"))) == (("x", ("y", "z")), "zxy")


def test_renamings_move_whole_index_blocks_without_a_carry():
    # every renaming a proof of all three identities uses, on the widest
    # packing a config reaches: index fields at the largest exponent the
    # packing admits, a^48, or just below it, each to tell the fields apart
    exponent, rule = widest_rule()
    terms = tuple(accumulate({}, rule.terms).items())
    packing = _proof_packing(terms, list(IDENTITIES))
    top = 2 * exponent
    assert top.bit_length() == packing.bits
    used = []
    original = engine._rename

    def recording(packing, value, leaves):
        used.append(leaves)
        return original(packing, value, leaves)

    with mock.patch.object(engine, "_rename", recording):
        _prove(rule.terms, list(IDENTITIES))
    # yz for the subtree (yz); zxy and yzx for the rotations of x(yz); yxz
    # for (yx)z and y(xz), and xzy for (xz)y
    assert sorted(used) == ["xzy", "yxz", "yxz", "yz", "yzx", "zxy"]
    params = len(packing.ring.symbols) - len(INDEX_SYMBOLS)

    def renamed(exps: tuple, leaves: str) -> tuple:
        monomial = sum(e << k * packing.bits for k, e in enumerate(exps))
        value = {((1, -1), monomial): 7}
        (((at, moved), c),) = engine._rename(packing, value, leaves).items()
        assert (at, c) == ((1, -1), 7)
        return unpacked(packing, moved)

    fields = (top,) * params
    for leaves in used:
        assert renamed((top,) * (params + 6), leaves) == (top,) * (params + 6), leaves
        blocks = [(top, top - 1), (top - 2, top - 3), (top - 4, top - 5)]
        want = [None] * 3
        for block, name in zip(blocks, dict.fromkeys(leaves + "xyz")):
            want["xyz".index(name)] = block
        got = renamed(fields + sum(blocks, ()), leaves)
        assert got == fields + sum(want, ()), leaves
    cycle = fields + (top, 1, 0, top, top - 1, 2)
    once = renamed(cycle, "zxy")
    assert once != cycle and renamed(renamed(once, "zxy"), "zxy") == cycle


# -- the torus net: a rule conjugated by tau keeps its verdicts ------------------


def conjugated(rule, t, s):
    """The rule conjugated by the torus tau_{t,s}: L[a,i] -> t^a s^i L[a,i].
    tau^-1 [tau x, tau y] scales the coefficient of each offset (dg, dl) by
    t^-dg s^-dl, so the conjugate is isomorphic to the rule: it satisfies the
    same identities, and fails them at the same grid points."""
    return BracketRule(terms=tuple(((dg, dl), c * t**-dg * s**-dl) for (dg, dl), c in rule.terms))


@st.composite
def split_perturbed(draw, rules, leveled):
    """A drawn rule plus delta*a^ea*b^eb at offset (0, 0) and minus it at a
    second offset: a defect whose residuals at the two offsets are opposite,
    so they cancel wherever offsets are summed together, and tau scales them
    apart."""
    rule = draw(rules)
    ring = rule.terms[0][1].ring
    monomial = draw(nonzero_rationals) * ring.var("a") ** draw(st.integers(0, 2))
    monomial *= ring.var("b") ** draw(st.integers(0, 2))
    dg = draw(st.integers(-2, 2))
    dl = draw(st.integers(0, 1)) if leveled else 0
    other = (dg, dl) if (dg, dl) != (0, 0) else (1, 0)
    return BracketRule(terms=(*rule.terms, ((0, 0), monomial), (other, -monomial)))


# t and s of tau: 0 is not invertible, and +-1 leave every offset in place
scales = nonzero_rationals.filter(lambda v: abs(v) != 1)
TAU_SETTINGS = settings(derandomize=True, max_examples=80, deadline=None, database=None)


@TAU_SETTINGS
@given(st.one_of(product_rules(), split_perturbed(product_rules(), False)), scales, st.data())
def test_tau_keeps_the_novikov_verdicts(rule, t, data):
    grades = data.draw(grids(2 * rule.grade_degree_bound + 1))
    before = novikov_axiom_check(rule, grades)
    after = novikov_axiom_check(conjugated(rule, t, 1), grades)
    for got, want in zip(after, before):
        assert (got.holds, got.witness) == (want.holds, want.witness)
        assert got.scope == want.scope


@TAU_SETTINGS
@given(
    st.one_of(bracket_rules(), split_perturbed(bracket_rules(), True)),
    scales,
    scales,
    st.data(),
)
def test_tau_keeps_the_identity_verdicts(rule, t, s, data):
    grades = data.draw(grids(2 * rule.grade_degree_bound + 1))
    levels = data.draw(grids(2 * rule.level_degree_bound + 1))
    before = grid_identity_check(rule, "jacobi", grades, levels)
    after = grid_identity_check(conjugated(rule, t, s), "jacobi", grades, levels)
    assert (after.holds, after.witness, after.scope) == (before.holds, before.witness, before.scope)
