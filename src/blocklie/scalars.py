"""Exact scalar arithmetic: arbitrary-precision rationals and sparse
multivariate polynomials over them.

Rationals are `fractions.Fraction` (always normalized: positive denominator,
gcd 1, zero is 0/1).  A polynomial lives in a `PolyRing`, which fixes an
ordered table of symbol names; its terms map exponent tuples (one nonnegative
integer per declared symbol) to nonzero Fraction coefficients:

    ring = PolyRing("p", "q")
    2*p^2*q - 1/3   ->   {(2, 1): Fraction(2), (0, 0): Fraction(-1, 3)}

The zero polynomial has empty support.  A Poly adopts the terms dict it is
built from, unchecked; its ring's `const` and `var` and its own operations
build only clean ones.  Polynomial operations are pure and return new
objects; no Poly is ever mutated, so values are safe to share across workers.

Two polynomials combine only when they share a symbol table; a mismatch
raises `SymbolTableError`, constants included.  Division is restricted to
nonzero rational constants.

Every sparse vector in the package (`Poly.terms` here, `engine.Element` and
`intermediate.ModuleVector`) is a dict of nonzero coefficients; `accumulate`
is their one addition and `signed_sum` their one printer.

The proofs (`engine._prove` and the three Block proofs) compute on integers
instead: `lift` scales Polys by the common denominator D of their
coefficients, and a `Packing` holds the exponents of a monomial in
fixed-width bit fields of one int, so multiplying two monomials adds two
ints.  `Packed` is such a polynomial with ring operators.  Scaling by D
keeps a residual's zeros, and only whether it is zero is read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]
Scalar = Union[int, Fraction, "Poly"]

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class SymbolTableError(ValueError):
    """Raised when polynomials over incompatible symbol tables are combined."""


def parse_rational(text: str | int) -> Fraction:
    """Parse "a/b" or "a" (decimal digit strings) into an exact Fraction."""
    if isinstance(text, bool) or not isinstance(text, (int, str)):
        raise TypeError(f"not a rational literal: {text!r} (expected 'a' or 'a/b')")
    if isinstance(text, int):
        return Fraction(text)
    match = _RATIONAL_RE.match(text.strip())
    if not match:
        raise ValueError(f"not a rational literal: {text!r} (expected 'a' or 'a/b')")
    numerator, denominator = match.groups()
    return Fraction(int(numerator), int(denominator or 1))


def format_rational(value: RationalLike) -> str:
    """Render a rational as "a/b", or "a" when the denominator is 1."""
    return str(int(value) if type(value) is bool else value)


def accumulate(acc: dict, pairs: Iterable[tuple], factor: Scalar = 1) -> dict:
    """acc += factor * pairs, in place; returns acc.

    `pairs` yields (key, coefficient); a coefficient that is zero, or a sum
    that cancels to zero, leaves no entry behind."""
    if not factor:
        return acc
    if not (isinstance(factor, int) and factor == 1):
        pairs = ((key, coeff * factor) for key, coeff in pairs)
    get = acc.get
    for key, coeff in pairs:
        old = get(key)
        if old is not None:
            coeff = old + coeff
        if coeff:
            acc[key] = coeff
        elif old is not None:
            del acc[key]
    return acc


def signed_sum(terms: Iterable[tuple[RationalLike, str]]) -> str:
    """Render (coefficient, monomial) terms as "2*x - y + 1/3", or "0" when empty.

    A unit coefficient is left implicit; an empty monomial is a constant."""
    text = ""
    for coeff, monomial in terms:
        # on the int parts: Fraction's abs and comparisons build Fractions
        num, den = coeff.numerator, coeff.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if not monomial:
            body = mag
        else:
            body = monomial if mag == "1" else f"{mag}*{monomial}"
        if text:
            text += f" - {body}" if num < 0 else f" + {body}"
        else:
            text = f"-{body}" if num < 0 else body
    return text or "0"


class PolyRing:
    """Ordered symbol table shared by a family of polynomials."""

    __slots__ = ("symbols", "_index")

    def __init__(self, *symbols: str):
        seen = set()
        for name in symbols:
            if not _NAME_RE.match(name or ""):
                raise ValueError(f"invalid symbol name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate symbol name: {name!r}")
            seen.add(name)
        self.symbols: tuple[str, ...] = tuple(symbols)
        self._index = {name: i for i, name in enumerate(symbols)}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyRing) and self.symbols == other.symbols

    def __repr__(self) -> str:
        return f"PolyRing({', '.join(map(repr, self.symbols))})"

    def index(self, name: str) -> int:
        if name not in self._index:
            raise SymbolTableError(f"symbol {name!r} not declared in {self!r}")
        return self._index[name]

    def const(self, value: RationalLike) -> "Poly":
        coeff = Fraction(value)
        return Poly(self, {(0,) * len(self.symbols): coeff} if coeff else {})

    def var(self, name: str) -> "Poly":
        exps = [0] * len(self.symbols)
        exps[self.index(name)] = 1
        return Poly(self, {tuple(exps): Fraction(1)})

    @property
    def zero(self) -> "Poly":
        return Poly(self, {})

    @property
    def one(self) -> "Poly":
        return self.const(1)


class Poly:
    """Sparse multivariate polynomial over the rationals.

    The constructor adopts `terms` without copying or checking it: the
    caller passes a clean dict, one nonnegative exponent per ring symbol and
    nonzero Fraction coefficients.  Treat instances as immutable; `terms` is
    never mutated after construction.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        return next(iter(self.terms.values()))

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- ring compatibility --------------------------------------------------

    def _same_ring(self, other: "Poly") -> "Poly":
        """`other`, which must share this polynomial's ring."""
        if other.ring != self.ring:
            raise SymbolTableError(f"symbol table mismatch: {self.ring!r} and {other.ring!r}")
        return other

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):  # a constant adds at the zero exponent
            constant = ((0,) * len(self.ring.symbols), as_fraction(other))
            return Poly(self.ring, accumulate(dict(self.terms), (constant,)))
        if not isinstance(other, Poly):
            return NotImplemented
        rhs = self._same_ring(other)
        return Poly(self.ring, accumulate(dict(self.terms), rhs.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.ring, accumulate({}, self.terms.items(), -1))

    def __sub__(self, other: Scalar) -> "Poly":
        return self + (-other if isinstance(other, Poly) else -Fraction(other))

    def __rsub__(self, other: Scalar) -> "Poly":
        return (-self) + other

    def __mul__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):  # Fraction * int stays a Fraction
            return Poly(self.ring, accumulate({}, self.terms.items(), other))
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(self.ring, _product(self.terms, self._same_ring(other).terms))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Poly":
        if isinstance(other, Poly):
            if not other.is_constant():
                raise ValueError("division is only defined by nonzero rational constants")
            other = other.constant_value()
        divisor = Fraction(other)
        if divisor == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Poly(self.ring, accumulate({}, self.terms.items(), 1 / divisor))

    def __pow__(self, power: int) -> "Poly":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = self.ring.one
        base = self
        n = power
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    # -- evaluation ----------------------------------------------------------

    def compose(self, ring: PolyRing, images: Mapping[str, Scalar] | None = None) -> "Poly":
        """Substitute `images[name]`, a Poly of `ring` or a rational, for each
        symbol (an image from another ring raises `SymbolTableError`); a
        symbol without an image becomes the same-named symbol of `ring`.  The
        result lives in `ring`, so the call with no images lifts a polynomial
        into a ring that declares more symbols.
        """
        images = images or {}

        def image(pos: int) -> dict:
            name = self.ring.symbols[pos]
            value = images.get(name)
            if value is None:
                value = ring.var(name)
            elif not isinstance(value, Poly):
                value = ring.const(value)
            elif value.ring != ring:
                raise SymbolTableError(f"image of {name!r} does not live in {ring!r}")
            return value.terms

        used = {pos for exps in self.terms for pos, e in enumerate(exps) if e}
        # powers[pos][e] holds the terms of image(pos)^e, built as exponents demand
        powers = {pos: [None, image(pos)] for pos in used}
        unit = (0,) * len(ring.symbols)
        acc: dict = {}
        for exps, coeff in self.terms.items():
            term = {unit: coeff}
            for pos, e in enumerate(exps):
                if e:
                    chain = powers[pos]
                    while len(chain) <= e:
                        chain.append(_product(chain[-1], chain[1]))
                    term = _product(term, chain[e])
            accumulate(acc, term.items())
        return Poly(ring, acc)

    def degree_bound(self, symbol: str) -> int:
        """Exact maximum exponent of `symbol` across the support (0 if absent)."""
        pos = self.ring.index(symbol)
        return max((exps[pos] for exps in self.terms), default=0)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        def monomial(exps: tuple[int, ...]) -> str:
            return "*".join(
                name if e == 1 else f"{name}^{e}"
                for name, e in zip(self.ring.symbols, exps)
                if e > 0
            )

        ordered = sorted(self.terms, reverse=True)
        return signed_sum((self.terms[exps], monomial(exps)) for exps in ordered)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _product(terms1: dict, terms2: dict) -> dict:
    """The terms of the product of two polynomials over one ring."""
    return accumulate(
        {},
        (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in terms1.items()
            for e2, c2 in terms2.items()
        ),
    )


def total_degree(poly: Poly) -> int:
    """The largest total degree of a monomial of `poly` (0 for zero)."""
    return max((sum(exps) for exps in poly.terms), default=0)


def lift(*polys: Poly) -> tuple[int, list[dict]]:
    """(D, terms): D is the lcm of the denominators of every coefficient of
    `polys`, and each poly's terms times D, with int coefficients."""
    den = lcm(*(c.denominator for poly in polys for c in poly.terms.values()))
    return den, [
        {exps: c.numerator * (den // c.denominator) for exps, c in poly.terms.items()}
        for poly in polys
    ]


def _packed_product(terms1: dict, terms2: dict) -> dict:
    """The terms of the product of two polynomials over one `Packing`."""
    out: dict = {}
    get = out.get
    for m1, c1 in terms1.items():
        for m2, c2 in terms2.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


class Packing:
    """Monomials over the symbols of a ring, each packed into one int.

    The exponent of the ring's k-th symbol sits in bits [k*bits, (k+1)*bits)
    of the monomial, and the fields are wide enough for `degree`, which the
    caller derives as a bound on every exponent it forms.  So the product of
    two monomials is the sum of their ints, and it never carries from one
    field into the next.  Packed terms map monomials to int coefficients.
    """

    __slots__ = ("ring", "bits")

    def __init__(self, ring: PolyRing, degree: int):
        self.ring = ring
        self.bits = max(degree, 1).bit_length()

    def monomial(self, name: str) -> int:
        """The packed monomial of the symbol `name`."""
        return 1 << self.ring.index(name) * self.bits

    def var(self, name: str) -> "Packed":
        return Packed(self, {self.monomial(name): 1})

    def compose(self, terms: Mapping[tuple, int], images: Mapping | None = None) -> "Packed":
        """`terms`, keyed by exponent tuples as in `Poly.terms`, with the
        Packed `images[pos]` substituted for the symbol at position pos.  A
        symbol without an image keeps its position, so `terms` may come
        from a ring that this one extends."""
        bits = self.bits
        # powers[pos][e] holds the terms of images[pos]^e, built as exponents demand
        powers = {pos: [None, image.terms] for pos, image in (images or {}).items()}
        acc: dict = {}
        get = acc.get
        for exps, coeff in terms.items():
            kept, factors = 0, []
            for pos, e in enumerate(exps):
                if e:
                    chain = powers.get(pos)
                    if chain is None:
                        kept += e << pos * bits
                        continue
                    while len(chain) <= e:
                        chain.append(_packed_product(chain[-1], chain[1]))
                    factors.append(chain[e])
            term = {kept: coeff}
            for factor in factors:
                term = _packed_product(term, factor)
            for m, c in term.items():
                acc[m] = get(m, 0) + c
        return Packed(self, {m: c for m, c in acc.items() if c})


class Packed:
    """A polynomial with int coefficients over a `Packing`: `terms` maps
    packed monomials to nonzero ints.  Ints combine with it as constants.
    Treat instances as immutable."""

    __slots__ = ("packing", "terms")

    def __init__(self, packing: Packing, terms: dict):
        self.packing = packing
        self.terms = terms

    def _items(self, other: "Packed | int") -> Iterable[tuple]:
        return other.terms.items() if isinstance(other, Packed) else ((0, other),)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Packed | int") -> "Packed":
        return Packed(self.packing, accumulate(dict(self.terms), self._items(other)))

    __radd__ = __add__

    def __neg__(self) -> "Packed":
        return self * -1

    def __sub__(self, other: "Packed | int") -> "Packed":
        return Packed(self.packing, accumulate(dict(self.terms), self._items(other), -1))

    def __mul__(self, other: "Packed | int") -> "Packed":
        if isinstance(other, Packed):
            return Packed(self.packing, _packed_product(self.terms, other.terms))
        return Packed(self.packing, accumulate({}, self.terms.items(), other))

    __rmul__ = __mul__

    def constant(self) -> int:
        """The value of a constant polynomial."""
        if self.terms.keys() - {0}:
            raise ValueError("not a constant polynomial")
        return self.terms.get(0, 0)


def as_fraction(value: Scalar) -> Fraction:
    """Collapse a scalar to a Fraction; error if it still depends on symbols."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Poly):
        return value.constant_value()
    return Fraction(value)


def scalar_is_zero(value: Scalar) -> bool:
    if isinstance(value, Poly):
        return value.is_zero()
    return value == 0
