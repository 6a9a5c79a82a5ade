"""Generic machinery for graded Lie algebras given by closed-form brackets.

Basis labels are either `Graded(grade, level)` or the central element
`CENTRAL`; an `Element` is a finitely supported linear combination of labels
with exact scalar coefficients (Fraction, or Poly when parameters stay
symbolic).  A `BracketRule` packages the closed-form bracket of two graded
basis labels and, for a closed-form rule, its `terms`: one Poly coefficient
over the indices and parameters per constant output offset.  Its offsets,
degree bounds and verdict scope are all read from the terms.

A product on the Witt labels x_a = L[a,0] is a `BracketRule` too: its pair
reads grades only, and its terms sit at offsets (dgrade, 0).

`IDENTITIES` states antisymmetry, Jacobi and the two Novikov axioms once
each, as signed sums of nested brackets of the labels x, y, z.  Two
evaluators read it.  The symbolic one (`_prove`) builds each identity from a
rule's terms, one polynomial identity per output offset by `Poly.compose`,
and only a proof holds universally.  The concrete one evaluates the same
trees on basis labels through the rule's cached pair (`extend_bilinearly`);
it scans a grid, sized by the identity's bracket depth times the terms'
degree bounds, for the witness of a failed proof, and it alone decides a
rule without terms, which holds on the tested grid (`check_identities`,
`decide`).  `grid_identity_check` and `novikov.novikov_axiom_check` call it.
Every exact check in the package ends in `first_failure`, whose docstring
states the witness contract and the rule for skipping tuples by symmetry.

`subalgebra_closure` works in concrete-parameter mode (all coefficients
rational) inside a finite window, discarding bracket products that land
outside.  A rule that states its output `offsets` lets it skip, without
computing any coefficient, every basis pair whose bracket cannot reach the
window.  It keeps one sparse reduced echelon basis (`_Echelon`) over the
window coordinates ordered grade asc, level asc, central last, and runs
semi-naive rounds: a round brackets only the rows whose pivot is new since
the last round against all rows, and the loop ends when a round adds no
pivot.  The truncated bracket is bilinear and the reduced echelon form is
canonical, so the result equals that of bracketing every pair every round,
independent of processing order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from .scalars import Poly, PolyRing, Scalar, accumulate, as_fraction, scalar_is_zero, signed_sum

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

    def coefficient(self, index: BasisIndex) -> Scalar:
        return self.terms.get(index, Fraction(0))

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self._wrap(accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "Element":
        return self.scaled(-1)

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self._wrap(accumulate(dict(self.terms), other.terms.items(), -1))

    def scaled(self, factor: Scalar) -> "Element":
        return self._wrap(accumulate({}, self.terms.items(), factor))

    def __rmul__(self, factor: Scalar) -> "Element":
        return self.scaled(factor)

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


@dataclass(frozen=True)
class Window:
    """Finite truncation box: grades in [grade_min, grade_max], levels in [0, level_max]."""

    grade_min: int
    grade_max: int
    level_max: int

    def __post_init__(self):
        if self.grade_min > self.grade_max:
            raise ValueError("grade_min must not exceed grade_max")
        if self.level_max < 0:
            raise ValueError("level_max must be nonnegative")

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

    def pairs(self) -> Iterable[tuple[int, int, int, int]]:
        """(a, i, b, j) for every pair of graded window labels L[a,i], L[b,j],
        in `itertools.product(grades, grades, levels, levels)` order."""
        grades, levels = range(self.grade_min, self.grade_max + 1), range(self.level_max + 1)
        return ((a, i, b, j) for a, b, i, j in itertools.product(grades, grades, levels, levels))


def truncate(element: Element, window: Window) -> Element:
    """Drop every term whose label falls outside the window."""
    return Element(
        {i: c for i, c in element.terms.items() if window.contains(i)}
    )


@dataclass(frozen=True)
class Verdict:
    """Outcome of an identity check: it holds within `scope` ("universally"
    or "on_tested_grid"), or fails at a concrete counterexample."""

    holds: bool
    witness: tuple | None = None
    residual: object | None = None
    scope: str = "universally"

    @staticmethod
    def holds_universally() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def fails(witness: tuple, residual: object) -> "Verdict":
        return Verdict(False, witness, residual)

    def __str__(self) -> str:
        if self.holds:
            return f"holds_{self.scope}"
        return f"fails(witness={self.witness}, residual={self.residual})"


def first_failure(
    tuples: Iterable[tuple], residual: Callable[[tuple], object], scope: str = "universally"
) -> Verdict:
    """Scan index tuples in order; the first with a nonzero residual is the witness.

    `residual(t)` is the exact residual at `t`, falsy exactly when zero; the
    verdict fails with `t` and that residual, or holds within `scope` when
    every residual is zero.  A check may skip tuples by symmetry: it keeps
    the least member of each orbit in its full `itertools.product` order and
    skips only members whose residual is zero or that of the least member,
    up to sign.  A failing member then has a failing least member no later
    than itself, so the witness is the one the full scan would find.
    """
    for t in tuples:
        r = residual(t)
        if r:
            return Verdict.fails(t, r)
    return Verdict(True, scope=scope)


def decide(proof: object, tuples: Iterable[tuple], residual: Callable[[tuple], object]) -> Verdict:
    """The verdict of an identity from its proof and its grid scan.

    `proof` is the identity's residual over a rule's terms, falsy exactly
    when zero, or None for a rule without terms.  A proof holds universally
    and scans nothing.  A failed proof scans for its witness on a grid sized
    by the terms' degrees, so finding none means the rule's pair disagrees
    with its terms, which raises.  A rule without terms is only scanned, and
    holds on the tested grid."""
    if proof is None:
        return first_failure(tuples, residual, "on_tested_grid")
    if not proof:
        return Verdict.holds_universally()
    verdict = first_failure(tuples, residual)
    if verdict.holds:
        raise ValueError(
            "the proof from the rule's terms fails but the grid holds no witness: "
            "the rule's pair disagrees with its terms"
        )
    return verdict


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
        value.compose(ring) if isinstance(value, Poly) else ring.const(value) for value in values
    ]


def degree_in(summed: Mapping, symbols: str) -> int:
    """The largest degree in any of `symbols` of the Polys `summed.values()`."""
    return max((c.degree_bound(s) for c in summed.values() for s in symbols), default=0)


@dataclass(frozen=True)
class BracketRule:
    """Closed-form bracket, or product, of two graded basis labels.

    `pair` maps (x, y) to the bracket Element.  Output grades/levels must be
    affine in the inputs.  A product on the Witt labels L[a,0] reads the
    grades only and lands at level 0.

    `terms`, when given, is the same bracket in exact form: pairs
    ((dgrade, dlevel), coefficient), where the coefficient is a Poly over
    the parameters and the indices a, i, b, j of x = L[a,i], y = L[b,j]
    (see `index_ring`), and the output label is L[a+b+dgrade, i+j+dlevel].
    `pair` must agree with it.  The bounds are read from it: the largest
    degree in a or b (`grade_degree_bound`) and in i or j
    (`level_degree_bound`) of any offset's summed coefficient, 0 without
    terms; and only a rule with terms can hold universally (see `decide`).

    `offsets`, when not None, says where `pair` can land: every graded label
    of pair(L[a,i], L[b,j]) is L[a+b+dgrade, i+j+dlevel] for a listed
    (dgrade, dlevel), and the central label c appears only at a+b = 0,
    i = j = 0, with (0, 0) listed.  So c lies in a window exactly when that
    L[0,0] does, and a pair none of whose offset labels lies in the window
    brackets to zero there.  A rule with terms derives its offsets from them
    (the offsets whose summed coefficient is nonzero); only a rule without
    terms states them by hand.
    """

    pair: Callable[[Graded, Graded], Element]
    terms: tuple[tuple[tuple[int, int], Poly], ...] | None = None
    offsets: tuple[tuple[int, int], ...] | None = None
    grade_degree_bound: int = field(default=0, init=False)
    level_degree_bound: int = field(default=0, init=False)

    def __post_init__(self):
        if self.terms is not None:
            summed = accumulate({}, self.terms)
            object.__setattr__(self, "offsets", tuple(summed))
            object.__setattr__(self, "grade_degree_bound", degree_in(summed, "ab"))
            object.__setattr__(self, "level_degree_bound", degree_in(summed, "ij"))


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


def _bracket_at(terms, x: tuple, y: tuple) -> list[tuple]:
    """The terms of [L[x], L[y]] for labels x, y of Polys (grade, level);
    each output label is L[x+y+offset]."""
    images = {"a": x[0], "i": x[1], "b": y[0], "j": y[1]}
    return [(offset, coeff.compose(coeff.ring, images)) for offset, coeff in terms]


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


def _depth(tree) -> int:
    return 0 if isinstance(tree, str) else 1 + max(_depth(tree[0]), _depth(tree[1]))


def _evaluate(names: Sequence[str], leaf: Callable, bracket: Callable) -> list[dict]:
    """The residual of each named identity: the signed sum of its trees'
    values, where `leaf(name)` is the value of a label, `bracket(u, v)` that
    of the bracket of two values, and a value is a dict of nonzero
    coefficients.  A subtree shared by several identities, such as (xy)z by
    both Novikov axioms, is evaluated once."""
    values: dict = {}

    def value(tree) -> dict:
        if tree not in values:
            values[tree] = (
                leaf(tree) if isinstance(tree, str) else bracket(value(tree[0]), value(tree[1]))
            )
        return values[tree]

    residuals = []
    for name in names:
        acc: dict = {}
        for sign, tree in IDENTITIES[name]:
            accumulate(acc, value(tree).items(), sign)
        residuals.append(acc)
    return residuals


def _prove(terms, names: Sequence[str]) -> list[dict]:
    """The residual of each named identity over a rule's terms, with x =
    L[a,i], y = L[b,j], z = L[c,k]: empty exactly when the identity holds for
    all indices.

    A value maps (leaves, (dgrade, dlevel)) to a Poly over the indices, the
    coefficient of the label L[sum of the leaves' labels + offset]; each
    label is formed once, as its leaf sum plus a constant.  Labels of
    distinct offsets are distinct, so each offset's coefficient must vanish
    alone."""
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
                at = _bracket_at(terms, label(lu, (gu, hu)), label(lv, (gv, hv)))
                accumulate(
                    out,
                    (((leaves, (gu + gv + dg, hu + hv + dl)), coeff) for (dg, dl), coeff in at),
                    cu * cv,
                )
        return out

    return _evaluate(names, lambda name: {(name, (0, 0)): 1}, bracket)


def check_identities(
    rule: BracketRule,
    scans: Mapping[str, Iterable[tuple]],
    labels: Callable[[tuple], Sequence[Graded]],
    grids: Mapping[str, Sequence[IndexValue]],
) -> list[Verdict]:
    """Decide each identity named in `scans` on the rule, in their order.

    All of them are proved together from the rule's terms (`_prove`).  An
    identity whose proof fails, or any identity of a rule without terms, is
    scanned over its tuples, where `labels(t)` gives the labels x, y(, z) of
    tuple t, and the first tuple with a nonzero residual is the witness (see
    `decide` for the verdict's scope).  A residual has per-variable degree at
    most the bracket depth of its identity times the rule's bound, so a grid
    of one more value holds a witness of any failed proof: each of `grids`
    ("grade", and "level" where levels vary) must have that many distinct
    values, with or without terms."""
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

    return [
        decide(proof, scans[name], functools.partial(residual, name))
        for name, proof in zip(names, proofs)
    ]


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


@dataclass(frozen=True)
class Closure:
    """Reduced echelon basis of a window-truncated bracket closure.

    Each row lists its labels in window coordinate order, so its first label
    is its pivot."""

    window: Window
    rows: tuple[Element, ...]

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


def _element_vector(
    element: Element, coord_index: Mapping[BasisIndex, int]
) -> dict[int, Fraction]:
    """The element as {column: nonzero Fraction} over the window coordinates."""
    vec = {}
    for index, coeff in element.terms.items():
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
    return vec


class _Echelon:
    """Reduced row echelon accumulator over a fixed coordinate order.

    Rows are sparse {column: nonzero Fraction} dicts keyed by their pivot
    column; each has 1 at its pivot and 0 in every other row's pivot column."""

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, dict[int, Fraction]] = {}

    def reduce(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Clear every pivot column of `vec` in place; returns it."""
        rows = self.rows
        # the rows are fully reduced, so clearing one pivot column never
        # refills another: only the pivots the row has need clearing
        for col in [c for c in vec if c in rows]:
            accumulate(vec, rows[col].items(), -vec[col])
        return vec

    def insert(self, vec: dict[int, Fraction]) -> bool:
        """Add a row of nonzero values (the dict is consumed); False when it
        reduces to zero."""
        if not self.reduce(vec):
            return False
        pivot = min(vec)
        if vec[pivot] != 1:
            vec = accumulate({}, vec.items(), 1 / vec[pivot])
        for row in self.rows.values():
            factor = row.get(pivot)
            if factor:
                accumulate(row, vec.items(), -factor)
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
                    vec[pivot] = -row[free]
            basis.append(tuple(vec))
        return basis


def subalgebra_closure(
    rule: BracketRule, generators: Iterable[Element], window: Window
) -> Closure:
    """Smallest window-truncated subspace containing the generators and closed
    under the truncated bracket.

    Concrete-parameter mode only: every coefficient must be a rational
    constant.  Bracket products landing outside the window are discarded;
    when the rule states its `offsets`, a basis pair none of whose output
    labels lies in the window is not bracketed at all.  A rule without
    offsets has every pair bracketed and then truncated.

    Semi-naive: each round brackets only the rows whose pivot is new since
    the last round (`fresh`), against the rows of earlier rounds and the later
    fresh rows, and the loop stops when a round adds no pivot.  Rows with
    distinct pivots are independent, so the earlier rounds' rows, kept as
    they were then, and the fresh rows span the current space; the truncated
    bracket is bilinear, so every pair of a spanning set is bracketed once.
    """
    coords = window.indices()
    coord_index = {index: pos for pos, index in enumerate(coords)}
    ech = _Echelon(len(coords))
    for gen in generators:
        ech.insert(_element_vector(truncate(gen, window), coord_index))
    # basis pairs recur across rounds and rows; cache their truncated bracket
    @functools.cache
    def pair(x: Graded, y: Graded) -> Element:
        grade, level = x.grade + y.grade, x.level + y.level
        if rule.offsets is not None and not any(
            window.contains(Graded(grade + dg, level + dl)) for dg, dl in rule.offsets
        ):
            return Element()
        return truncate(rule.pair(x, y), window)

    truncated = BracketRule(pair)

    def row_element(row: dict[int, Fraction]) -> Element:
        return Element._wrap({coords[k]: row[k] for k in sorted(row)})

    done: list[Element] = []
    fresh_pivots = sorted(ech.rows)
    while fresh_pivots:
        fresh = [row_element(ech.rows[pivot]) for pivot in fresh_pivots]
        known = set(ech.rows)
        for k, x in enumerate(fresh):
            for y in itertools.chain(done, fresh[k + 1 :]):
                product = bracket_apply(truncated, x, y)
                if product:
                    ech.insert(_element_vector(product, coord_index))
        done.extend(fresh)
        fresh_pivots = sorted(ech.rows.keys() - known)
    return Closure(window, tuple(row_element(row) for _, row in sorted(ech.rows.items())))


def membership(element: Element, closure: Closure) -> bool:
    """True iff the element reduces to zero against the closure's echelon basis."""
    coord_index = {index: pos for pos, index in enumerate(closure.window.indices())}
    ech = _Echelon(len(coord_index))
    for row in closure.rows:
        ech.rows[coord_index[next(iter(row.terms))]] = _element_vector(row, coord_index)
    return not ech.reduce(_element_vector(element, coord_index))


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
