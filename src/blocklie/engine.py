"""Generic machinery for graded Lie algebras given by closed-form brackets.

Basis labels are either `Graded(grade, level)` or the central element
`CENTRAL`; an `Element` is a finitely supported linear combination of labels
with exact scalar coefficients (Fraction, or Poly when parameters stay
symbolic).  A closed-form `BracketRule` is its `terms`, Poly coefficients
over the indices and parameters at constant output offsets, and a cocycle:
its degree bounds, verdict scope and pair are all read from them.  Only a
table gives a pair of its own.  A product on the Witt labels x_a =
L[a,0] is a `BracketRule` too, with terms at offsets (dgrade, 0).

`IDENTITIES` states antisymmetry, Jacobi and the two Novikov axioms once
each, as signed sums of nested brackets of the labels x, y, z; all trees of
one identity have one bracket depth and read the same leaves.  Two
evaluators walk it (`_evaluate`).  The symbolic one (`_prove`) builds each
identity from a rule's terms, on integers (the terms times their common
denominator D, so a residual of depth k is D^k times the rational one): one
tree per orbit under renaming x, y, z, values per offset.  Its monomials are
packed ints (`scalars.Packing`), with fields as wide as the identity's depth
times the terms' largest total degree, so a product of monomials is one int
addition.  Only a proof holds universally.  The concrete one evaluates the
same trees on basis labels through the rule's cached pair
(`extend_bilinearly`); it scans a grid, sized by the identity's bracket
depth times the terms' degree bounds, for the witness of a failed proof, and
it alone decides a rule without terms, which holds on the tested grid
(`check_identities`).  A rule with a cocycle, which its terms omit, is
refused.  `grid_identity_check` and `novikov.novikov_axiom_check` call it.
Every scan in the package ends in `first_failure`, whose docstring states
the witness contract and the rule for skipping tuples by symmetry.  The
theorems of B(p,q) scan nothing: they end in `block._proved`.

`subalgebra_closure` takes a rule with terms, in concrete-parameter mode (all
coefficients rational), inside a finite window, and discards bracket products
that land outside.  One reach table (`_integer_kernel`), built at the first
pair of rows, maps each (grade, level) sum of a basis pair whose bracket can
reach the window, coded as one int, to the window columns it lands on, each
with integer monomials over one denominator D (`_compile`): an offset's, or
the cocycle's at sum 0, which the pair sums with the same loop (`_sum_at`).
The table alone decides which basis pairs are bracketed, where their rows
land, and the candidate columns of the support pass.
The closure keeps one sparse echelon basis (`_Echelon`) of integer rows over
the window coordinates ordered grade asc, level asc, central last, and forms
each product, times D, from cached pair rows.  It first brackets, for each
label that basis brackets reach from the generators', the rows of the basis
pair that reached it, once per pair (the guided pass), then runs semi-naive
rounds: a round brackets only the rows whose pivot is new since the last
round against all rows.  Either ends once the rows span those labels; the
loop also ends when a round adds no pivot.  The truncated bracket is bilinear and the reduced
echelon form is canonical, so the result equals that of bracketing every
pair every round, independent of processing order and of the positive scale
of each product.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd, inf, lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .scalars import (
    Packed,
    Packing,
    Poly,
    PolyRing,
    Scalar,
    accumulate,
    as_fraction,
    lift,
    scalar_is_zero,
    signed_sum,
    total_degree,
)

IndexValue = Union[int, Fraction]


class Graded(NamedTuple):
    """Label of a graded basis vector: integer (or grid-rational) grade and level.

    A tuple, so it compares and hashes as the plain pair (grade, level)."""

    grade: IndexValue
    level: IndexValue

    def __repr__(self) -> str:
        return f"Graded({self.grade}, {self.level})"

    def __str__(self) -> str:
        return f"L[{self.grade},{self.level}]"


class _Central:
    """The central basis label; a singleton, written `c`."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "c"

    __str__ = __repr__


CENTRAL = _Central()
BasisIndex = Union[Graded, _Central]


def basis_sort_key(index: BasisIndex):
    # grade asc, level asc; the central label sorts after every graded one
    if index is CENTRAL:
        return (1, 0, 0)
    return (0, index.grade, index.level)


class Element:
    """Finitely supported linear combination of basis labels.

    Coefficients are exact scalars; zero coefficients are never stored.
    Treat instances as immutable.  Arithmetic returns the operand's own class,
    so subclasses over other label sets (`intermediate.ModuleVector`) share it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[BasisIndex, Scalar] | None = None):
        clean: dict[BasisIndex, Scalar] = {}
        if terms:
            for index, coeff in terms.items():
                if not scalar_is_zero(coeff):
                    is_exact = isinstance(coeff, (Fraction, Poly))
                    clean[index] = coeff if is_exact else Fraction(coeff)
        self.terms = clean

    @classmethod
    def _wrap(cls, terms: dict):
        """Adopt a dict of nonzero Fraction or Poly coefficients without copying."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis(cls, index: BasisIndex, coeff: Scalar = 1):
        return cls({index: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self._wrap(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self._wrap(accumulate(dict(self.terms), other.terms.items(), -1))

    def scaled(self, factor: Scalar) -> "Element":
        return self._wrap(accumulate({}, self.terms.items(), factor))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        if self.terms.keys() != other.terms.keys():
            return False
        return all(
            scalar_is_zero(self.terms[k] - other.terms[k]) for k in self.terms
        )

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        def term(index: BasisIndex) -> tuple:
            coeff = self.terms[index]
            if isinstance(coeff, Poly):  # parenthesized, always with a plus sign
                return 1, f"({coeff})*{index}"
            return coeff, str(index)

        return signed_sum(map(term, sorted(self.terms, key=basis_sort_key)))

    def __repr__(self) -> str:
        return f"Element({self})"


class Window(NamedTuple("Window", [("grade_min", int), ("grade_max", int), ("level_max", int)])):
    """Finite truncation box: grades in [grade_min, grade_max], levels in [0, level_max]."""

    __slots__ = ()

    def __new__(cls, grade_min: int, grade_max: int, level_max: int):
        if grade_min > grade_max:
            raise ValueError("grade_min must not exceed grade_max")
        if level_max < 0:
            raise ValueError("level_max must be nonnegative")
        return super().__new__(cls, grade_min, grade_max, level_max)

    def contains(self, index: BasisIndex) -> bool:
        if index is CENTRAL:
            return self.grade_min <= 0 <= self.grade_max
        return (
            self.grade_min <= index.grade <= self.grade_max
            and 0 <= index.level <= self.level_max
        )

    def indices(self) -> list[BasisIndex]:
        """All window labels, grade asc, level asc, central last."""
        out: list[BasisIndex] = [
            Graded(g, l)
            for g in range(self.grade_min, self.grade_max + 1)
            for l in range(self.level_max + 1)
        ]
        if self.grade_min <= 0 <= self.grade_max:
            out.append(CENTRAL)
        return out


def truncate(element: Element, window: Window) -> Element:
    """Drop every term whose label falls outside the window."""
    return Element(
        {i: c for i, c in element.terms.items() if window.contains(i)}
    )


class Verdict(NamedTuple):
    """Outcome of an identity check: it holds within `scope` ("universally",
    "on_tested_grid" or "on_window"), or fails at a concrete counterexample."""

    holds: bool
    witness: tuple | None = None
    residual: object | None = None
    scope: str = "universally"

    def __str__(self) -> str:
        if self.holds:
            return f"holds_{self.scope}"
        return f"fails(witness={self.witness}, residual={self.residual})"


def first_failure(
    tuples: Iterable[tuple], residual: Callable[[tuple], object], scope: str
) -> Verdict:
    """Scan index tuples in order; the first with a nonzero residual is the witness.

    `residual(t)` is the exact residual at `t`, falsy exactly when zero; the
    verdict fails with `t` and that residual, or holds within `scope` when
    every residual is zero: a scan speaks only for the tuples it reads, so
    its caller names them ("on_tested_grid", "on_window").  A check may skip
    tuples by symmetry: it keeps the least member of each orbit in its full
    `itertools.product` order and skips only members whose residual is zero
    or that of the least member, up to sign.  A failing member then has a
    failing least member no later than itself, so the witness is the one the
    full scan would find.
    """
    for t in tuples:
        r = residual(t)
        if r:
            return Verdict(False, t, r)
    return Verdict(True, scope=scope)


class InsufficientGridError(ValueError):
    """A grid is too small to certify the identity universally; `grid` says
    which one ("grade" or "level")."""

    def __init__(self, grid: str, message: str):
        super().__init__(message)
        self.grid = grid


INDEX_SYMBOLS = ("a", "i", "b", "j", "c", "k")


def index_ring(*values: Scalar) -> tuple[PolyRing, list[Poly]]:
    """The ring of structure coefficients for `values`, and each value lifted
    into it.

    Its symbols are the parameter symbols of the Poly values, in first-seen
    order, followed by `INDEX_SYMBOLS` (a, i, b, j, c, k: the grade and level
    of up to three labels).  A value that already lives in such a ring
    contributes only its parameter symbols; a parameter named like an index
    is rejected.
    """
    names: list[str] = []
    for value in values:
        if isinstance(value, Poly):
            symbols = value.ring.symbols
            if symbols[-len(INDEX_SYMBOLS) :] == INDEX_SYMBOLS:
                symbols = symbols[: -len(INDEX_SYMBOLS)]
            for name in symbols:
                if name in INDEX_SYMBOLS:
                    raise ValueError(f"parameter symbol {name!r} clashes with an index symbol")
                if name not in names:
                    names.append(name)
    ring = PolyRing(*names, *INDEX_SYMBOLS)
    return ring, [
        (value if value.ring == ring else value.compose(ring))
        if isinstance(value, Poly)
        else ring.const(value)
        for value in values
    ]


def degree_in(summed: Mapping, symbols: str) -> int:
    """The largest degree in any of `symbols` of the Polys `summed.values()`."""
    return max((c.degree_bound(s) for c in summed.values() for s in symbols), default=0)


_RuleFields = NamedTuple(
    "BracketRule",
    [
        ("pair", Callable[[Graded, Graded], Element]),
        ("terms", tuple | None),
        ("cocycle", Poly | None),
        ("grade_degree_bound", int),
        ("level_degree_bound", int),
    ],
)


class BracketRule(_RuleFields):
    """Closed-form bracket, or product, of two graded basis labels, given by
    its `terms` and optional `cocycle`, or by a table's `pair`; never both.

    `terms` is the bracket in exact form: pairs ((dgrade, dlevel),
    coefficient), where the coefficient is a Poly over the parameters and
    the indices a, i, b, j of x = L[a,i], y = L[b,j] (see `index_ring`),
    and the output label is L[a+b+dgrade, i+j+dlevel].  The bounds are
    read from it: the largest degree in a or b (`grade_degree_bound`) and
    in i or j (`level_degree_bound`) of any offset's summed coefficient, 0
    without terms; and only a rule with terms can hold universally (see
    `check_identities`).

    `pair` maps (x, y) to the bracket Element.  A rule with terms gets the
    one they define (`_terms_pair`), so a scan reads what the proof reads:
    every label of pair(L[a,i], L[b,j]) is L[a+b+dgrade, i+j+dlevel] for
    an offset of the terms, or c.  A table's pair reads the grades only and
    lands at level 0.

    `cocycle` is a Poly K in one variable, the form
    `block.cocycle_jacobi_check` takes: pair(L[a,i], L[b,j]) is the terms
    plus K(a)*c exactly when a+b = 0 and i = j = 0.  The Kronecker delta is
    not polynomial, so the terms alone prove nothing about such a rule, and
    an identity check refuses it (`check_identities`); the pair and the
    closure read terms and cocycle compiled together (`_compile`).
    """

    __slots__ = ()

    def __new__(cls, pair: Callable | None = None, terms=None, cocycle=None):
        if (pair is None) == (terms is None) or (terms is None and cocycle is not None):
            raise ValueError("a rule takes terms, and optionally a cocycle, or a pair, never both")
        if terms is None:
            return super().__new__(cls, pair, None, None, 0, 0)
        summed = accumulate({}, terms)
        bounds = degree_in(summed, "ab"), degree_in(summed, "ij")
        return super().__new__(cls, _terms_pair(terms, cocycle), terms, cocycle, *bounds)


def _compile(terms, cocycle: Poly | None) -> tuple[int, list[tuple], list[tuple]]:
    """The terms summed by offset, and the cocycle, as integer monomials over
    one denominator D (`scalars.lift`): (D, [(offset, coefficient, ring,
    groups)], cocycle).  A monomial (n, factors) at (a, i, b, j) is the int n
    times the index at each position in `factors` (`_sum_at`).  An offset's
    monomials are grouped by parameter exponents, [(params, monomials)], one
    group of zeros where none is read; the cocycle's factors all read a.
    `ring`, where a term at the offset reads a parameter symbol, is the
    parameters' own (the terms' without `INDEX_SYMBOLS`), which its value
    lives in even when constant."""
    summed = accumulate({}, terms)
    k_polys = () if cocycle is None else (cocycle,)
    den, lifted = lift(*summed.values(), *k_polys)
    k_monomials = [(n, (0,) * e) for k in lifted[len(summed) :] for (e,), n in k.items()]
    compiled = []
    for (at, coeff), ints in zip(summed.items(), lifted):
        width = len(coeff.ring.symbols) - len(INDEX_SYMBOLS)  # a, i, b, j follow at width
        groups: dict = {}
        for exps, n in ints.items():
            factors = tuple(pos for pos, k in enumerate(exps[width : width + 4]) for _ in range(k))
            groups.setdefault(exps[:width], []).append((n, factors))
        reads = any(any(e[:width]) for offset, c in terms if offset == at for e in c.terms)
        ring = PolyRing(*coeff.ring.symbols[:width]) if reads else None
        compiled.append((at, coeff, ring, list(groups.items())))
    return den, compiled, k_monomials


def _sum_at(monomials: Iterable[tuple], point: tuple) -> int:
    """The sum of compiled monomials (n, factors) at point = (a, i, b, j)."""
    total = 0
    for n, factors in monomials:
        for pos in factors:
            n *= point[pos]
        total += n
    return total


def _terms_pair(terms, cocycle: Poly | None) -> Callable[[Graded, Graded], Element]:
    """The pair that a rule's terms and cocycle define, read from their
    compiled monomials (`_compile`) at (a, i, b, j) over D: each offset's
    groups, summed into a Fraction, or into a Poly in its ring where the
    offset reads a parameter; and K(a)*c on a+b = 0, i = j = 0.  The terms
    are compiled on the first call, since a rule whose proofs hold is never
    evaluated."""
    compiled = None

    def pair(x: Graded, y: Graded) -> Element:
        nonlocal compiled
        if compiled is None:
            compiled = _compile(terms, cocycle)
        den, offsets, k_monomials = compiled
        (a, i), (b, j) = x, y
        point, out = (a, i, b, j), {}
        for (dg, dl), _, ring, groups in offsets:
            if ring is None:
                value = Fraction(sum(_sum_at(m, point) for _, m in groups), den)
            else:
                sums = ((e, _sum_at(m, point)) for e, m in groups)
                value = Poly(ring, {e: Fraction(n, den) for e, n in sums if n})
            if value:
                out[Graded(a + b + dg, i + j + dl)] = value
        if k_monomials and a + b == 0 and i == j == 0:
            value = Fraction(_sum_at(k_monomials, point), den)
            if value:
                out[CENTRAL] = value
        return Element._wrap(out)

    return pair


def extend_bilinearly(
    pair: Callable[[Graded, Graded], Element],
    x: Mapping[BasisIndex, Scalar],
    y: Mapping[BasisIndex, Scalar],
) -> dict:
    """The terms of the sum of cx*cy*pair(ix, iy) over the graded labels of
    the terms x and y; the central label pairs to zero."""
    acc: dict[BasisIndex, Scalar] = {}
    for ix, cx in x.items():
        if ix is CENTRAL:
            continue
        for iy, cy in y.items():
            if iy is not CENTRAL:
                terms = pair(ix, iy).terms
                if terms:
                    accumulate(acc, terms.items(), cx * cy)
    return acc


def bracket_apply(rule: BracketRule, x: Element, y: Element) -> Element:
    """Bilinear extension of the rule, bracket or product; the central label
    brackets to zero."""
    return Element._wrap(extend_bilinearly(rule.pair, x.terms, y.terms))


def _require_grid(name: str, values: Sequence[IndexValue], needed: int) -> None:
    """The grid-size rule: distinct values, at least `needed` of them."""
    if len(set(values)) != len(values):
        raise InsufficientGridError(name, f"{name} grid values must be distinct")
    if len(values) < needed:
        raise InsufficientGridError(
            name, f"{name} grid needs at least {needed} distinct values, got {len(values)}"
        )


def normalize_index_values(values: Sequence[IndexValue]) -> list[IndexValue]:
    """Collapse integral Fractions to ints (same equality class, cheap hash)."""
    return [
        int(v) if isinstance(v, Fraction) and v.denominator == 1 else v
        for v in values
    ]


# Each identity is a signed sum of nested brackets of the labels x, y, z: a
# tree is a label's name or a pair (u, v) standing for [u, v].  A product rule
# on the Witt labels (`novikov`) reads [u, v] as the product uv.
IDENTITIES = {
    "antisymmetry": ((1, ("x", "y")), (1, ("y", "x"))),
    "jacobi": ((1, ("x", ("y", "z"))), (1, ("z", ("x", "y"))), (1, ("y", ("z", "x")))),
    # (xy)z - x(yz) - (yx)z + y(xz)
    "left_symmetry": (
        (1, (("x", "y"), "z")),
        (-1, ("x", ("y", "z"))),
        (-1, (("y", "x"), "z")),
        (1, ("y", ("x", "z"))),
    ),
    # (xy)z - (xz)y
    "right_commutativity": ((1, (("x", "y"), "z")), (-1, (("x", "z"), "y"))),
}


@functools.cache
def _depth(tree) -> int:
    return 0 if isinstance(tree, str) else 1 + max(_depth(tree[0]), _depth(tree[1]))


@functools.cache
def _orbit(tree) -> tuple:
    """(canonical, leaves): the tree with its leaves renamed x, y, z by first
    appearance, and those leaves in that order."""
    if isinstance(tree, str):
        return "x", tree
    leaves = "".join(dict.fromkeys(_orbit(tree[0])[1] + _orbit(tree[1])[1]))
    names = dict(zip(leaves, "xyz"))

    def canonical(t):
        return names[t] if isinstance(t, str) else (canonical(t[0]), canonical(t[1]))

    return canonical(tree), leaves


def _evaluate(names: Sequence[str], leaf: Callable, bracket: Callable, rename=None) -> list[dict]:
    """The residual of each named identity: the signed sum of its trees'
    values, where `leaf(name)` is the value of a label, `bracket(u, v)` that
    of the bracket of two values, and a value is a dict of nonzero
    coefficients.  A subtree shared by several identities, such as (xy)z by
    both Novikov axioms, is evaluated once.  Given `rename`, so is each orbit
    of trees under renaming the leaves (`_orbit`), and `bracket(u, v, lu,
    lv)` also receives the leaves that the trees of u and v read."""
    values: dict = {}

    def value(tree) -> dict:
        if tree not in values:
            canonical, leaves = _orbit(tree)
            if isinstance(tree, str):
                values[tree] = leaf(tree)
            elif rename is not None and canonical != tree:
                values[tree] = rename(value(canonical), leaves)
            else:
                read = () if rename is None else tuple(_orbit(t)[1] for t in tree)
                values[tree] = bracket(*map(value, tree), *read)
        return values[tree]

    residuals = []
    for name in names:
        acc: dict = {}
        for sign, tree in IDENTITIES[name]:
            accumulate(acc, value(tree).items(), sign)
        residuals.append(acc)
    return residuals


def _proof_packing(terms, names: Sequence[str]) -> Packing:
    """The packing of `_prove`'s monomials, one tree per orbit, values per
    offset: a bracket composes a term coefficient at linear labels, keeping
    its total degree, and a renaming moves exponents, so a residual of depth
    k has every exponent at most k times a term's largest total degree."""
    depth = max(_depth(tree) for name in names for _, tree in IDENTITIES[name])
    degree = max(total_degree(coeff) for _, coeff in terms)
    return Packing(terms[0][1].ring, depth * degree)


def _rename(packing: Packing, value: dict, leaves: str) -> dict:
    """A value of `_prove` with x, y, z renamed, in order, to `leaves` and the
    rest: `INDEX_SYMBOLS` come last, so a monomial's fields of (a, i), (b, j)
    and (c, k) are adjacent blocks, each moving to its new name's block."""
    base, width = packing.ring.index("a") * packing.bits, 2 * packing.bits
    mask, kept = (1 << width) - 1, (1 << base) - 1
    tx, ty, tz = (base + "xyz".index(name) * width for name in dict.fromkeys(leaves + "xyz"))

    def moved(m: int) -> int:
        i = m >> base
        return m & kept | (i & mask) << tx | (i >> width & mask) << ty | (i >> 2 * width) << tz

    return {o: Packed(packing, {moved(m): c for m, c in p.terms.items()}) for o, p in value.items()}


def _prove(terms, names: Sequence[str]) -> list[dict]:
    """The residual of each named identity over a rule's terms, with x =
    L[a,i], y = L[b,j], z = L[c,k]: empty exactly when the identity holds for
    all indices.

    The terms are lifted once to integers: every coefficient times D, the lcm
    of their denominators (`scalars.lift`).  A bracket of lifted terms is D
    times the rational one, and all trees of an identity have one bracket
    depth k, so its residual is D^k times the rational residual, and zero
    exactly when that is.  A tree's value maps each (dgrade, dlevel) to the
    Packed coefficient (`_proof_packing`) of L[sum of its leaves' labels +
    offset]; its leaves stay implicit.  Each label is formed once, as its leaf
    sum plus a constant, and so is each composed bracket of two labels.  One
    tree per orbit is bracketed: the value of π·T, for π a renaming of x, y,
    z, is π applied to the value of T (`_rename`).  This is sound because a
    label is its leaves' symbol sum plus a constant, and a bracket composes
    the terms at labels: renaming the symbols is a ring automorphism, and it
    commutes with that composition.  Labels of distinct offsets are distinct,
    so each offset's coefficient must vanish alone: a residual is summed per
    offset, terms of one offset first, and keyed by (leaves, offset, monomial)
    only on return."""
    terms = tuple(accumulate({}, terms).items())
    if not terms:
        return [{} for _ in names]
    packing = _proof_packing(terms, names)
    _, lifted = lift(*(coeff for _, coeff in terms))
    lifted = list(zip((offset for offset, _ in terms), lifted))
    blocks = {x: tuple(map(packing.monomial, gl)) for x, gl in zip("xyz", ("ai", "bj", "ck"))}
    positions = [packing.ring.index(name) for name in "aibj"]

    @functools.cache
    def label(leaves: str, offset: tuple) -> tuple:
        # the grade and level of L[sum of the leaves' labels + offset]
        grade, level = (Packed(packing, dict.fromkeys(f, 1)) for f in zip(*map(blocks.get, leaves)))
        return grade + offset[0], level + offset[1]

    @functools.cache
    def bracket_at(lu: str, ou: tuple, lv: str, ov: tuple) -> list[tuple]:
        # the lifted terms of [L[lu+ou], L[lv+ov]], one (offset, terms) per term
        images = dict(zip(positions, (*label(lu, ou), *label(lv, ov))))
        return [(offset, packing.compose(coeff, images).terms.items()) for offset, coeff in lifted]

    def bracket(u: dict, v: dict, lu: str, lv: str) -> dict:
        out: dict = {}
        for ou, cu in u.items():
            for ov, cv in v.items():
                factor = (cu * cv).terms.items()
                for (dg, dl), composed in bracket_at(lu, ou, lv, ov):
                    acc = out.setdefault((ou[0] + ov[0] + dg, ou[1] + ov[1] + dl), {})
                    accumulate(acc, ((m + e, cm * c) for e, c in composed for m, cm in factor))
        return {at: Packed(packing, acc) for at, acc in out.items() if acc}

    one = {(0, 0): Packed(packing, {0: 1})}  # every leaf: the value 1 at its own label
    residuals = _evaluate(names, lambda name: one, bracket, functools.partial(_rename, packing))
    leaves = ("".join(sorted(_orbit(IDENTITIES[name][0][1])[1])) for name in names)
    return [
        {(ls, at, m): c for at, p in residual.items() for m, c in p.terms.items()}
        for ls, residual in zip(leaves, residuals)
    ]


def check_identities(
    rule: BracketRule,
    scans: Mapping[str, Iterable[tuple]],
    labels: Callable[[tuple], Sequence[Graded]],
    grids: Mapping[str, Sequence[IndexValue]],
) -> list[Verdict]:
    """Decide each identity named in `scans` on the rule, in their order.

    All of them are proved together from the rule's terms (`_prove`), and
    an identity whose proof holds holds universally, with nothing scanned.
    An identity whose proof fails, or any identity of a rule without terms,
    is scanned once over its tuples through the rule's pair, where
    `labels(t)` gives the labels x, y(, z) of tuple t, and the first tuple
    with a nonzero residual is the witness; a rule without terms that has
    none holds on the tested grid.  A rule with a cocycle is refused: its
    terms omit the cocycle, so they prove nothing about it.  A residual has
    per-variable degree at most the bracket depth of its identity times the
    rule's bound, so a grid of one more value holds a witness of any failed
    proof: each of `grids` ("grade", and "level" where levels vary) must
    have that many distinct values, with or without terms.  A failed proof
    whose scan finds no witness raises, because then the prover and the
    evaluator disagree."""
    if rule.cocycle is not None:
        raise ValueError("an identity check requires a rule without a cocycle")
    names = list(scans)
    depth = max(_depth(tree) for name in names for _, tree in IDENTITIES[name])
    bounds = {"grade": rule.grade_degree_bound, "level": rule.level_degree_bound}
    for grid, values in grids.items():
        _require_grid(grid, values, depth * bounds[grid] + 1)
    proofs = [None] * len(names) if rule.terms is None else _prove(rule.terms, names)
    # basis pairs recur across tuples and identities; cache their brackets
    pair = functools.cache(rule.pair)
    bracket = functools.partial(extend_bilinearly, pair)

    def residual(name: str, t: tuple) -> Element:
        leaves = dict(zip("xyz", labels(t)))
        (acc,) = _evaluate((name,), lambda leaf: {leaves[leaf]: 1}, bracket)
        return Element(acc)

    verdicts = []
    for name, proof in zip(names, proofs):
        if proof is not None and not proof:
            verdicts.append(Verdict(True))
            continue
        verdict = first_failure(scans[name], functools.partial(residual, name), "on_tested_grid")
        if proof is not None and verdict.holds:
            raise ValueError("the proof from the rule's terms fails but the scan holds no witness")
        verdicts.append(verdict)
    return verdicts


def grid_identity_check(
    rule: BracketRule,
    identity: str,
    grade_values: Sequence[IndexValue],
    level_values: Sequence[IndexValue],
) -> Verdict:
    """Decide antisymmetry or Jacobi: by proof for all integer indices where
    the rule has terms, by grid scan for the witness and for rules without
    (`check_identities`).  A witness is a tuple of (grade, level) pairs.

    Orbit filters: antisymmetry keeps pairs x <= y and Jacobi keeps triples
    that are least among their cyclic rotations (positions in the grid
    order): [x,y] + [y,x] is symmetric, and a rotation's Jacobi sum adds the
    same three terms.
    """
    if identity not in ("antisymmetry", "jacobi"):
        raise ValueError(f"unknown identity {identity!r}")
    singles = list(
        itertools.product(
            normalize_index_values(grade_values), normalize_index_values(level_values)
        )
    )
    if identity == "antisymmetry":
        tuples = itertools.combinations_with_replacement(singles, 2)
    else:
        tuples = (
            (singles[k], singles[l], singles[m])
            for k, l, m in itertools.product(range(len(singles)), repeat=3)
            if (k, l, m) <= (l, m, k) and (k, l, m) <= (m, k, l)
        )
    grids = {"grade": grade_values, "level": level_values}
    (verdict,) = check_identities(
        rule, {identity: tuples}, lambda t: [Graded(*cell) for cell in t], grids
    )
    return verdict


class ClosureError(ValueError):
    """Raised when closure/membership preconditions are violated."""


class ClosureWork(NamedTuple):
    """Work counters of one closure: distinct basis pairs bracketed, those whose
    sum keys the reach table; products of two rows formed, and those of them
    formed by the guided pass; nonzero products that reduced to zero against
    the echelon; pivots that products added; and |S|, the support closure's
    size at which the closure stops.  All are 0 when no pair of rows was due:
    no table was built."""

    pairs: int
    products: int
    guided: int
    reduced_to_zero: int
    pivots: int
    support: int


class Closure:
    """Reduced echelon basis of a window-truncated bracket closure.

    Each row lists its labels in window coordinate order, so its first label
    is its pivot.  The integer echelon that the rows were read from, and the
    window's coordinates, are kept for `membership`; the work counters (an
    early stop shows in them) are no part of the result: a closure prints by
    its window and rows alone.  Treat instances as immutable."""

    __slots__ = ("window", "rows", "_coord_index", "_echelon", "_work")

    def __init__(self, window: Window, rows: tuple[Element, ...], _coord_index, _echelon, _work):
        self.window, self.rows = window, rows
        self._coord_index, self._echelon, self._work = _coord_index, _echelon, _work

    def __repr__(self) -> str:
        return f"Closure(window={self.window!r}, rows={self.rows!r})"

    def by_grade(self) -> dict[int, tuple[Element, ...]]:
        """Rows grouped by the grade of their pivot label (central counts as 0)."""
        groups: dict[int, list[Element]] = {}
        for row in self.rows:
            pivot = next(iter(row.terms))
            grade = 0 if pivot is CENTRAL else int(pivot.grade)
            groups.setdefault(grade, []).append(row)
        return {g: tuple(rows) for g, rows in sorted(groups.items())}

    def dimension(self) -> int:
        return len(self.rows)


def _integer_row(terms: Iterable[tuple], coord_index: Mapping[BasisIndex, int]) -> tuple:
    """(d, {column: nonzero int}): the (label, coefficient) terms, times d, the
    lcm of their denominators."""
    vec = {}
    for index, coeff in terms:
        pos = coord_index.get(index)
        if pos is None:
            raise ClosureError(f"label {index} lies outside the closure window")
        try:
            vec[pos] = as_fraction(coeff)
        except ValueError:
            raise ClosureError(
                "closure requires concrete rational coefficients, got "
                f"symbolic {coeff} at {index}"
            ) from None
    den = lcm(*(v.denominator for v in vec.values()))
    return den, {k: v.numerator * (den // v.denominator) for k, v in vec.items()}


def _clear(vec: dict[int, int], row: dict[int, int], col: int) -> dict[int, int]:
    """`vec` with column `col` cleared, fraction-free, by the row of pivot P > 0
    there: (P/g) vec - (e/g) row, e = vec[col], g = gcd(P, e)."""
    pivot, e = row[col], vec[col]
    g = gcd(pivot, e)
    scale, factor = pivot // g, e // g
    out = {k: v * scale for k, v in vec.items()}
    for k, v in row.items():
        v = out.get(k, 0) - factor * v
        if v:
            out[k] = v
        else:
            del out[k]
    return out


class _Echelon:
    """Reduced row echelon accumulator over a fixed coordinate order.

    Rows are sparse {column: nonzero int} dicts keyed by their pivot column,
    never changed once stored.  Each is primitive (gcd 1), has a positive
    pivot and 0 in every other row's pivot column: divided by its pivot, it is
    the rational reduced row.  Elimination is fraction-free (`_clear`), and
    Fractions appear only at the outputs, `kernel` and the closure's rows."""

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, dict[int, int]] = {}

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """`vec` with every pivot column cleared, times a positive integer."""
        rows = self.rows
        # the rows are fully reduced, so clearing one pivot column never
        # refills another; the content is divided out once, by `insert`
        for col in [c for c in vec if c in rows]:
            vec = _clear(vec, rows[col], col)
        return vec

    def insert(self, vec: dict[int, int]) -> bool:
        """Add the line spanned by a row of nonzero integers (left unchanged);
        False when it reduces to zero."""
        vec = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        content = gcd(*vec.values()) * (1 if vec[pivot] > 0 else -1)
        vec = {k: v // content for k, v in vec.items()}
        for other, row in self.rows.items():
            if pivot in row:
                row = _clear(row, vec, pivot)
                content = gcd(*row.values())
                self.rows[other] = {k: v // content for k, v in row.items()}
        self.rows[pivot] = vec
        return True

    def kernel(self) -> list[tuple[Fraction, ...]]:
        """Null space of the inserted rows: one vector per free column, with 1
        there and 0 at every later free column."""
        basis = []
        for free in range(self.width):
            if free in self.rows:
                continue
            vec = [Fraction(0)] * self.width
            vec[free] = Fraction(1)
            for pivot, row in self.rows.items():
                if free in row:
                    vec[pivot] = Fraction(-row[free], row[pivot])
            basis.append(tuple(vec))
        return basis


def _integer_kernel(rule: BracketRule, window: Window) -> tuple[int, dict[int, list]]:
    """The rule's compiled monomials (`_compile`) placed on the window: (D,
    reach).  A window label L[g,l] has the code g*span + l, span =
    2*level_max + 1; a basis pair's sum of codes is unique while its level
    sum lies in [0, span).  `reach` maps each sum whose bracket can reach the
    window to its landing columns, [(column, monomials)]: L[g+dg, l+dl] with
    the one group of each offset (dg, dl), and c with the cocycle's at sum
    0, which is a+b = 0, i = j = 0 only because levels are at least 0.  A
    group with a nonzero parameter exponent raises ClosureError."""
    den, compiled, cocycle = _compile(rule.terms, rule.cocycle)
    coords = window.indices()
    span = 2 * window.level_max + 1
    reach: dict[int, list] = {}
    for (dg, dl), coeff, _, groups in compiled:
        (params, monomials), *symbolic = groups
        if symbolic or any(params):
            raise ClosureError(
                f"closure requires concrete rational coefficients, got symbolic {coeff}"
            )
        for col, x in enumerate(coords):
            if x is not CENTRAL and 0 <= x.level - dl < span:
                reach.setdefault((x.grade - dg) * span + x.level - dl, []).append((col, monomials))
    if cocycle and coords[-1] is CENTRAL:
        reach.setdefault(0, []).append((len(coords) - 1, cocycle))
    return den, reach


def _kernel_row(landing: Iterable[tuple], x: Graded, y: Graded) -> tuple:
    """((column, int), ...): each landing column's monomials summed at x, y
    (`_sum_at`), where nonzero; the window part of pair(x, y) times D."""
    point = (*x, *y)
    out = []
    for col, monomials in landing:
        value = _sum_at(monomials, point)
        if value:
            out.append((col, value))
    return tuple(out)


def subalgebra_closure(
    rule: BracketRule, generators: Iterable[Element], window: Window
) -> Closure:
    """Smallest window-truncated subspace containing the generators and closed
    under the truncated bracket.

    The rule must have terms, and every coefficient must be a rational
    constant.  At the first pair of rows the rule becomes its reach table
    (`_integer_kernel`), so a closure that forms no pair compiles nothing and
    refuses no symbolic coefficient.  A basis pair whose coded sum is no key
    of the table is not bracketed at all, and one that is lands on its key's
    columns.

    Semi-naive: each round brackets only the rows whose pivot is new since
    the last round (`fresh`), against the rows of earlier rounds and the later
    fresh rows, and the loop stops when a round adds no pivot, or once the
    rank reaches |S|.  Rows with distinct pivots are independent, so the
    earlier rounds' rows, kept as they were then, and the fresh rows span the
    current space; the truncated bracket is bilinear, so every pair of a
    spanning set is bracketed once.

    S, the support closure, is the generators' columns and, to a fixpoint,
    every output column of a basis bracket of two S labels.  It is found
    before the first product, through the cached pairs: each unordered pair
    of S labels is screened once and bracketed, both orders, only while the
    table gives its sum a landing column outside S.  Every basis bracket of
    two S labels then has its support in S, so by bilinearity span(S) is
    closed under the truncated bracket and holds the closure V.
    The echelon rows lie in V; at rank |S|, V = span(S), and the reduced rows
    are the unit rows of S, which the full loop ends with too.

    The guided pass runs once S is known, before the loop's first product.
    For each column s that the support pass added, in that order, through a
    basis pair (kx, ky), it inserts, if s is not yet a pivot and kx and ky
    are, the product of the rows with pivots kx and ky: a bracket of two rows
    of V, so the closure of the enlarged echelon is still V.  A pair that
    found several columns, such as [L[2,0], L[-2,0]] finding L[0,0] and c,
    is formed for the first only.  On monomial generators the pass alone
    mostly reaches rank |S|, where every column of S is a pivot, and the loop
    stops at once; where dim V < |S| it runs out.
    """
    if rule.terms is None:
        raise ClosureError("closure requires a bracket rule with terms")
    coords = window.indices()
    width = len(coords)
    coord_index = {index: pos for pos, index in enumerate(coords)}
    ech = _Echelon(width)
    for gen in generators:
        ech.insert(_integer_row(truncate(gen, window).terms.items(), coord_index)[1])
    # a graded column's code: a basis pair's sum of codes keys its landing
    # columns in the kernel's table `reach` (`_integer_kernel`)
    span = 2 * window.level_max + 1
    code = {k: x.grade * span + x.level for k, x in enumerate(coords) if x is not CENTRAL}
    pairs = 0

    def pair(kx: int, ky: int) -> tuple:
        # the truncated bracket of two basis labels, times D, as ((column, int), ...)
        nonlocal pairs
        landing = reach.get(code.get(kx, inf) + code.get(ky, inf))  # c's sums are no key
        if landing is None:
            return ()
        pairs += 1
        return _kernel_row(landing, coords[kx], coords[ky])

    # basis pairs recur: pair(kx, ky) at kx * width + ky
    table: dict[int, tuple] = {}

    def product(x: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        # the truncated bracket of two rows, times D
        acc: dict[int, int] = {}
        for kx, cx in x.items():
            base = kx * width
            for ky, cy in y.items():
                terms = table.get(base + ky)
                if terms is None:
                    terms = table[base + ky] = pair(kx, ky)
                if terms:
                    factor = cx * cy
                    for col, v in terms:
                        acc[col] = acc.get(col, 0) + factor * v
        return {k: v for k, v in acc.items() if v}

    def support_closure() -> dict[int, tuple | None]:
        # S in discovery order: each column found by a basis pair maps to that
        # pair (kx, ky), a generator column to None; a pair is bracketed only
        # while its sum lands on a column outside S
        support = dict.fromkeys(sorted({k for row in ech.rows.values() for k in row}))
        taken = [k for k in support if k in code]
        unsettled = set(reach)
        for n, kx in enumerate(taken):
            cx = code[kx]
            for ky in [ky for ky in taken[: n + 1] if cx + code[ky] in unsettled]:
                s = cx + code[ky]  # distinct for distinct ky
                for key in kx * width + ky, ky * width + kx:
                    if all(col in support for col, _ in reach[s]):
                        unsettled.remove(s)
                        break
                    if key not in table:
                        table[key] = pair(*divmod(key, width))
                    for col, _ in table[key]:
                        if col not in support:
                            support[col] = divmod(key, width)
                            if col in code:
                                taken.append(col)
        return support

    def row_pairs() -> Iterable[tuple]:
        done: list[dict] = []
        fresh_pivots = sorted(ech.rows)
        while fresh_pivots:
            fresh = [ech.rows[pivot] for pivot in fresh_pivots]
            known = set(ech.rows)
            for k, row in enumerate(fresh):
                yield from zip(itertools.repeat(row), itertools.chain(done, fresh[k + 1 :]))
            done.extend(fresh)
            fresh_pivots = sorted(ech.rows.keys() - known)

    def add(x: dict[int, int], y: dict[int, int]) -> None:
        nonlocal products, reduced
        vec = product(x, y)
        products += 1
        if vec and not ech.insert(vec):
            reduced += 1

    generated = len(ech.rows)
    products = guided = reduced = 0
    support: dict[int, tuple | None] = {}  # S, computed at the first pair of rows
    for x, y in row_pairs():
        if not support:
            # one D scales every pair row, so a product is its truncated bracket times D
            reach = _integer_kernel(rule, window)[1]
            support = support_closure()
            # the guided pass; at rank |S| every column of S is a pivot, so it
            # forms no more products, and a pair that found two columns of S
            # is formed once
            by_pivot, formed = ech.rows, set()
            for s, found in support.items():
                if found and s not in by_pivot and found[0] in by_pivot and found[1] in by_pivot:
                    if found not in formed:
                        formed.add(found)
                        add(by_pivot[found[0]], by_pivot[found[1]])
            guided = products
        if len(ech.rows) == len(support):
            break
        add(x, y)
    work = ClosureWork(pairs, products, guided, reduced, len(ech.rows) - generated, len(support))
    # each row divided by its pivot: the reduced echelon rows
    rows = sorted(ech.rows.items())
    reduced_rows = ({coords[k]: Fraction(r[k], r[p]) for k in sorted(r)} for p, r in rows)
    return Closure(window, tuple(map(Element._wrap, reduced_rows)), coord_index, ech, work)


def membership(element: Element, closure: Closure) -> bool:
    """True iff the element reduces to zero against the closure's echelon basis."""
    vec = _integer_row(element.terms.items(), closure._coord_index)[1]
    return not closure._echelon.reduce(vec)
