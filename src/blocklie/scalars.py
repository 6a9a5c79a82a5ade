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
ints; `engine._prove` keeps such terms in plain dicts (`_packed_product`).
The Block proofs keep the lifted terms in `Poly`s, whose operators keep int
coefficients int.  Scaling by D keeps a residual's zeros, and only whether
it is zero is read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, Union

RationalLike = Union[int, Fraction]
Scalar = Union[int, Fraction, "Poly"]

_RATIONAL_RE = re.compile(r"^([+-]?\d+)/([1-9]\d*)$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class SymbolTableError(ValueError):
    """Raised when polynomials over incompatible symbol tables are combined."""


def parse_rational(text: str | int) -> Fraction:
    """Parse "a/b" or "a" (decimal digit strings) into an exact Fraction.

    An optionally signed digit string takes a short path: `str.isdecimal`
    accepts exactly the regex's `\\d` (Unicode category Nd), which `int`
    reads too, so only "a/b" and malformed literals reach the regex."""
    if isinstance(text, bool) or not isinstance(text, (int, str)):
        raise TypeError(f"not a rational literal: {text!r} (expected 'a' or 'a/b')")
    if isinstance(text, int):
        return Fraction(text)
    literal = text.strip()
    if (literal[1:] if literal[:1] in ("+", "-") else literal).isdecimal():
        return Fraction(int(literal))
    match = _RATIONAL_RE.match(literal)
    if not match:
        raise ValueError(f"not a rational literal: {text!r} (expected 'a' or 'a/b')")
    numerator, denominator = match.groups()
    return Fraction(int(numerator), int(denominator))


def accumulate(acc: dict, pairs: Iterable[tuple], factor: Scalar = 1) -> dict:
    """acc += factor * pairs, in place; returns acc.

    `pairs` yields (key, coefficient); a coefficient that is zero, or a sum
    that cancels to zero, leaves no entry behind."""
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
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid symbol name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate symbol name: {name!r}")
            seen.add(name)
        self.symbols: tuple[str, ...] = tuple(symbols)
        self._index = {name: i for i, name in enumerate(symbols)}

    def __eq__(self, other: "PolyRing") -> bool:
        return self.symbols == other.symbols

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
    def one(self) -> "Poly":
        return self.const(1)


class Poly:
    """Sparse multivariate polynomial over the rationals.

    The constructor adopts `terms` without copying or checking it: the
    caller passes a clean dict, one nonnegative exponent per ring symbol and
    nonzero coefficients.  The coefficients are Fractions, or ints in the
    Block proofs' lifted polynomials (`block.BlockParams.lifted`): `+`, `-`
    and `*` between such Polys, and `*` by an int, keep them int and build
    no Fraction, while `ring.const`, `ring.var`, `**` and adding an int
    build Fractions.  `-` takes a Poly only; a constant is `ring.const(c)`.
    Treat instances as immutable; `terms` is never mutated after
    construction.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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

    def __sub__(self, other: "Poly") -> "Poly":
        rhs = self._same_ring(other)
        return Poly(self.ring, accumulate(dict(self.terms), rhs.terms.items(), -1))

    def __mul__(self, other: Scalar) -> "Poly":
        if isinstance(other, (int, Fraction)):  # Fraction * int stays a Fraction
            return Poly(self.ring, accumulate({}, self.terms.items(), other))
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(self.ring, _product(self.terms, self._same_ring(other).terms))

    __rmul__ = __mul__

    def __truediv__(self, other: RationalLike) -> "Poly":
        return Poly(self.ring, accumulate({}, self.terms.items(), 1 / Fraction(other)))

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

    # -- evaluation ----------------------------------------------------------

    def into(self, ring: PolyRing) -> "Poly":
        """This polynomial in `ring`, which declares each symbol of its own
        ring, in any order; an undeclared one raises `SymbolTableError`."""
        places = {ring.index(name): k for k, name in enumerate(self.ring.symbols)}
        picks = [places.get(k) for k in range(len(ring.symbols))]
        moved = (tuple(0 if k is None else exps[k] for k in picks) for exps in self.terms)
        return Poly(ring, dict(zip(moved, self.terms.values())))

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
    """The terms of the product of two polynomials over one `Packing`, zeros
    kept: its caller multiplies powers of a sum of distinct symbols and a
    constant, whose coefficients are multinomials times powers of the
    constant, so none cancels."""
    out: dict = {}
    get = out.get
    for m1, c1 in terms1.items():
        for m2, c2 in terms2.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return out


class Packing:
    """Monomials over the symbols of a ring, each packed into one int.

    The exponent of the ring's k-th symbol sits in bits [k*bits, (k+1)*bits)
    of the monomial, and the fields are wide enough for `degree`, which the
    caller derives as a bound on every exponent it forms.  So the product of
    two monomials is the sum of their ints, and it never carries from one
    field into the next.  Terms over a packing map monomials to int coefficients.
    """

    __slots__ = ("ring", "bits")

    def __init__(self, ring: PolyRing, degree: int):
        self.ring = ring
        self.bits = max(degree, 1).bit_length()

    def monomial(self, name: str) -> int:
        """The packed monomial of the symbol `name`."""
        return 1 << self.ring.index(name) * self.bits


def as_fraction(value: Scalar) -> Fraction:
    """A rational scalar as a Fraction; a Poly raises ValueError, even a
    constant one."""
    if isinstance(value, Poly):
        raise ValueError(f"not a rational constant: {value}")
    return value if isinstance(value, Fraction) else Fraction(value)
