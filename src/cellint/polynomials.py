"""Multivariate polynomials over Q in the variables x1, x2, ...

Canonical sparse form: a map from monomial keys to nonzero rational
coefficients.  The variable order x1 < x2 < ... is fixed globally.  A
monomial's one key is ((index, exponent), ...) over the variables it uses, in
increasing index, every exponent at least 1, so the constant term's key is ()
and a polynomial stores only the variables it uses: x100000000 costs what x1
costs.  Its arity is its highest index + 1, 0 iff it is constant.  Terms sort
by _order, as the dense exponent vectors padded to a common length do.

The arithmetic is one set of helpers on coefficient dicts with the same keys:
add_coeffs, mul_coeffs and pow_coeffs.  from_coeffs is the one constructor:
Polynomial's +, * and ** combine the dicts (coeffs) and canonicalize once, and
the DSL parser folds a whole text through the same helpers and builds one
Polynomial at the end.  A term list [(key, coefficient)], a polynomial's own
terms or its cleared integer ones, is what eval_int_terms, the one evaluator,
reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Coeffs = dict  # monomial key ((index, exponent), ...) -> rational coefficient


def _order(term: tuple) -> tuple:
    """The sort key of a term (key, coefficient): its monomial key sorts, in
    reverse, as its exponent vector padded to any common length does."""
    return tuple([(-i, k) for i, k in term[0]])


def add_coeffs(a: Coeffs, b: Coeffs) -> Coeffs:
    """a + b; a zero sum stays as a key until from_coeffs drops it."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return out


def _mul_exps(e1: tuple, e2: tuple) -> tuple:
    """The key of a product: the two keys merged, the exponents of a shared
    index summed and a pair whose sum is 0 dropped."""
    if not e1 or not e2:
        return e1 or e2
    powers = dict(e1)
    for i, k in e2:
        powers[i] = powers.get(i, 0) + k
    return tuple(sorted((i, k) for i, k in powers.items() if k))


def mul_coeffs(a: Coeffs, b: Coeffs) -> Coeffs:
    """a * b."""
    out: Coeffs = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = _mul_exps(e1, e2)
            out[e] = out.get(e, 0) + c1 * c2
    return out


def pow_coeffs(a: Coeffs, k: int) -> Coeffs:
    """a^k by binary powering; the base is squared only while bits remain."""
    if k < 0:
        raise ValueError("negative polynomial power")
    out: Coeffs = {(): 1}
    while k:
        if k & 1:
            out = mul_coeffs(out, a)
        k >>= 1
        if k:
            a = mul_coeffs(a, a)
    return out


@dataclass(frozen=True)
class Polynomial:
    arity: int
    terms: tuple[tuple[tuple, Fraction], ...] = field(default=())

    @staticmethod
    def from_coeffs(coeffs: Coeffs) -> "Polynomial":
        """The canonical Polynomial of a coefficient dict: zero coefficients
        dropped, the terms sorted by _order, the arity the highest index + 1."""
        terms = tuple(sorted(((e, Fraction(c)) for e, c in coeffs.items() if c),
                             key=_order, reverse=True))
        return Polynomial(max((e[-1][0] + 1 for e, _ in terms if e), default=0), terms)

    def __hash__(self) -> int:  # computed once and kept; equality stays field by field
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", hash((self.arity, self.terms)))
        return self._hash

    def coeffs(self) -> Coeffs:
        """The coefficient dict of the arithmetic helpers."""
        return dict(self.terms)

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls.from_coeffs({(): c})

    @classmethod
    def variable(cls, index: int) -> "Polynomial":
        """The variable x{index+1}."""
        return cls.from_coeffs({((index, 1),): 1})

    @classmethod
    def variable_minus(cls, index: int, poly: "Polynomial") -> "Polynomial":
        """x{index+1} - poly for a poly in x1..x{index}: variable(index) - poly,
        built in canonical form without the general arithmetic."""
        if poly.arity > index:
            raise ValueError(f"poly uses x{poly.arity}, not only x1..x{index}")
        terms = [(((index, 1),), Fraction(1))] + [(e, -c) for e, c in poly.terms]
        return cls(index + 1, tuple(sorted(terms, key=_order, reverse=True)))

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.from_coeffs(add_coeffs(self.coeffs(), other.coeffs()))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.arity, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial.from_coeffs(mul_coeffs(self.coeffs(), other.coeffs()))

    def __pow__(self, k: int) -> "Polynomial":
        return Polynomial.from_coeffs(pow_coeffs(self.coeffs(), k))

    def scale(self, q) -> "Polynomial":
        q = Fraction(q)
        if q == 0:
            return Polynomial(0)
        return Polynomial(self.arity, tuple((e, c * q) for e, c in self.terms))

    def derivative(self, index: int) -> "Polynomial":
        acc: Coeffs = {}
        for e, c in self.terms:
            k = dict(e).get(index)
            if k:  # distinct keys keep distinct derivative keys
                acc[tuple((i, j - (i == index)) for i, j in e if i != index or j > 1)] = c * k
        return Polynomial.from_coeffs(acc)

    # -- queries -----------------------------------------------------------

    def is_constant(self) -> bool:
        return self.arity == 0

    def constant_value(self) -> Fraction:
        if self.arity:
            raise ValueError("polynomial is not constant")
        return self.terms[0][1] if self.terms else Fraction(0)

    def eval(self, point: Sequence) -> Fraction:
        if len(point) < self.arity:
            raise ValueError(f"point has {len(point)} coordinates, need {self.arity}")
        # Fraction coefficients sum to a Fraction; only the zero polynomial gives the int 0
        return eval_int_terms(self.terms, [Fraction(x) for x in point]) or Fraction(0)

    def cleared(self) -> tuple[tuple[tuple[tuple, int], ...], int]:
        """Integer-coefficient view: (terms, denom) with self = terms/denom."""
        denom = lcm(1, *(c.denominator for _, c in self.terms))
        items = tuple((e, int(c * denom)) for e, c in self.terms)
        return items, denom

    def __str__(self) -> str:
        return format_poly(self)


def eval_int_terms(terms: Iterable[tuple], point: Sequence[int]) -> int:
    """Evaluate a term list [(key, coefficient)] at a point: an int for integer
    coefficients and coordinates, a Fraction when either is rational.
    IndexError if the point is shorter than a variable read."""
    total = 0
    for key, c in terms:
        for i, k in key:
            c *= point[i] ** k
        total += c
    return total


def format_poly(poly: Polynomial) -> str:
    """Deterministic rendering that round-trips through the DSL parser."""
    if not poly.terms:
        return "0"
    parts: list[str] = []
    for e, c in poly.terms:
        factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
