"""Expression language for simple q-exponential integrands.

Grammar (whitespace-insensitive, rationals as "a/b" or integers):

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := rational | atom ('^' nonneg)?
    atom    := 'norm' '(' poly ')' ('^{' int '/' posint '}')?
             | 'val' '(' poly ')'
             | '(' expr ')'
    poly    := multivariate polynomial over Q in x1..xN, with + - * ^

A text is split into tokens once (runs of digits, runs of word characters,
single other characters; whitespace only separates them), and errors carry
the offset of the token they meet.  Expressions and polynomials share one
sum-of-products parser, which folds terms with make_sum and make_product, or
with the coefficient-dict helpers of polynomials: a polynomial text, or each
norm/val carrier of an expression, is folded into one dict keyed by sparse
monomial keys ((index, exponent), ...) (the key of Polynomial.terms), and
Polynomial.from_coeffs makes it one canonical Polynomial at the end.  ASTs
are immutable; construction canonicalizes (flattens nested sums and
products, merges rational scalars) so that format/parse round-trips are
structural identities.

compile_expr is the one evaluator: it compiles an expression once into a
merged sum of terms over its distinct carriers (expr_carriers), with the
same coefficient-dict helpers, and returns evaluate(tally, level=None,
shift=0), the sum over a tally {valuation vector: count}.  It counts no
ambiguity; oracle.riemann_integrate decides that.  A point is the tally
{vector: 1}, from cells.valuation_key in the oracle and from
carrier_valuations at a rational point (evaluate_fractional, evaluate).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from math import gcd, lcm
from typing import Callable, Sequence, Union

from .errors import (
    ExprSyntaxError,
    UnknownVariableError,
    ValOfZeroError,
    ZeroDenominatorError,
)
from .padic_core import INF, PrimeContext, valuation
from .polynomials import (
    Coeffs,
    Polynomial,
    add_coeffs,
    format_poly,
    mul_coeffs,
    pow_coeffs,
)
from .rootval import ExactValue, RootScaledValue

# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class RationalConst:
    value: Fraction


@dataclass(frozen=True)
class Norm:
    carrier: Polynomial


@dataclass(frozen=True)
class Val:
    carrier: Polynomial


@dataclass(frozen=True)
class FracNormPower:
    """|carrier|^(a/n)."""

    carrier: Polynomial
    a: int
    n: int


@dataclass(frozen=True)
class Sum:
    items: tuple


@dataclass(frozen=True)
class Product:
    items: tuple


@dataclass(frozen=True)
class ScalarMultiple:
    scalar: Fraction
    item: object


@dataclass(frozen=True)
class IntegerPower:
    base: object
    exponent: int


QExpExpr = Union[RationalConst, Norm, Val, FracNormPower, Sum, Product,
                 ScalarMultiple, IntegerPower]


def make_sum(items: Sequence) -> QExpExpr:
    flat: list = []
    const = Fraction(0)
    work = list(items)
    while work:
        it = work.pop(0)
        if isinstance(it, Sum):
            work = list(it.items) + work
        elif isinstance(it, RationalConst):
            const += it.value
        else:
            flat.append(it)
    if const != 0:
        flat.append(RationalConst(const))
    if not flat:
        return RationalConst(Fraction(0))
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def make_product(items: Sequence) -> QExpExpr:
    flat: list = []
    scalar = Fraction(1)
    work = list(items)
    while work:
        it = work.pop(0)
        if isinstance(it, Product):
            work = list(it.items) + work
        elif isinstance(it, RationalConst):
            scalar *= it.value
        elif isinstance(it, ScalarMultiple):
            scalar *= it.scalar
            work.insert(0, it.item)
        else:
            flat.append(it)
    if scalar == 0:
        return RationalConst(Fraction(0))
    if not flat:
        return RationalConst(scalar)
    body = flat[0] if len(flat) == 1 else Product(tuple(flat))
    return body if scalar == 1 else ScalarMultiple(scalar, body)


def make_scalar_multiple(scalar, item) -> QExpExpr:
    scalar = Fraction(scalar)
    if scalar == 0:
        return RationalConst(Fraction(0))
    if isinstance(item, RationalConst):
        return RationalConst(scalar * item.value)
    if isinstance(item, ScalarMultiple):
        return make_scalar_multiple(scalar * item.scalar, item.item)
    if scalar == 1:
        return item
    return ScalarMultiple(scalar, item)


def make_power(base, k: int) -> QExpExpr:
    if k < 0:
        raise ValueError("IntegerPower exponent must be nonnegative")
    if k == 0:
        return RationalConst(Fraction(1))
    if k == 1:
        return base
    if isinstance(base, RationalConst):
        return RationalConst(base.value**k)
    if isinstance(base, ScalarMultiple):
        return make_scalar_multiple(base.scalar**k, make_power(base.item, k))
    if isinstance(base, IntegerPower):
        return make_power(base.base, base.exponent * k)
    if isinstance(base, FracNormPower):
        return FracNormPower(base.carrier, base.a * k, base.n)
    return IntegerPower(base, k)


def negate(e: QExpExpr) -> QExpExpr:
    return make_scalar_multiple(Fraction(-1), e)


# -- parsing -------------------------------------------------------------------


_TOKEN = re.compile(r"(\d+)|(\w+)|\S")  # groups: 1 digits, 2 word; else one character
_DIGITS, _WORD = 1, 2


class _Scanner:
    """The text's tokens, read front to back: runs of decimal digits, runs of word
    characters, and single other characters; whitespace only separates them.  A
    syntax error is reported at the offset of the token it meets."""

    def __init__(self, text: str):
        self.tokens = [(m.group(), m.lastindex, m.start(), m.end())
                       for m in _TOKEN.finditer(text)]
        self.tokens.append(("", None, len(text), len(text)))
        self.i = 0

    @property
    def pos(self) -> int:
        """The offset of the next token, the text's length at the end."""
        return self.tokens[self.i][2]

    @property
    def end(self) -> int:
        """The offset just past the last token read."""
        return self.tokens[self.i - 1][3]

    def peek(self) -> str:
        """The first character of the next token, "" at the end."""
        return self.tokens[self.i][0][:1]

    def accept(self, ch: str) -> bool:
        if self.tokens[self.i][0] == ch:
            self.i += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            raise ExprSyntaxError(f"expected '{ch}'", self.pos)

    def at_end(self) -> bool:
        return self.i == len(self.tokens) - 1

    def integer(self, signed: bool = False) -> int:
        """A run of digits, after a '-' when signed."""
        negative = signed and self.accept("-")
        text, kind, start, _ = self.tokens[self.i]
        if kind != _DIGITS:
            raise ExprSyntaxError("expected integer", start)
        self.i += 1
        return -int(text) if negative else int(text)

    def rational(self) -> Fraction:
        num = self.integer()
        if self.accept("/"):
            offset = self.end
            den = self.integer()
            if den == 0:
                raise ZeroDenominatorError("denominator is zero", offset)
            return Fraction(num, den)
        return Fraction(num)

    def ident(self) -> tuple[str, int]:
        """The next run of word characters, or "" when the next token is none."""
        text, kind, start, _ = self.tokens[self.i]
        if kind != _WORD:
            return "", start
        self.i += 1
        return text, start


def _variable_index(name: str, offset: int) -> int:
    if len(name) >= 2 and name[0] == "x" and name[1:].isdecimal() and name[1] != "0":
        return int(name[1:]) - 1
    raise UnknownVariableError(f"unknown variable '{name}' (use x1, x2, ...)", offset)


def _sum_of_products(sc: _Scanner, factor, negate, add, mul):
    """sum := ['-'] product (('+'|'-') product)*, product := factor ('*' factor)*,
    the grammar shared by polynomials and expressions: factor(sc) reads one
    factor, and add and mul fold a list of operands."""
    def product():
        items = [factor(sc)]
        while sc.accept("*"):
            items.append(factor(sc))
        return mul(items)

    items = [negate(product()) if sc.accept("-") else product()]
    while True:
        if sc.accept("+"):
            items.append(product())
        elif sc.accept("-"):
            items.append(negate(product()))
        else:
            return add(items)


def _poly_factor(sc: _Scanner) -> Coeffs:
    ch = sc.peek()
    if ch == "(":
        sc.expect("(")
        coeffs = _poly_coeffs(sc)
        sc.expect(")")
    elif ch.isdecimal():
        coeffs = {(): sc.rational()}
    elif ch.isalpha():
        name, off = sc.ident()
        coeffs = {((_variable_index(name, off), 1),): 1}
    else:
        raise ExprSyntaxError("expected polynomial term", sc.pos)
    if sc.accept("^"):
        coeffs = pow_coeffs(coeffs, sc.integer())
    return coeffs


def _poly_coeffs(sc: _Scanner) -> Coeffs:
    """A polynomial folded into one coefficient dict, canonicalized by the caller."""
    return _sum_of_products(sc, _poly_factor, lambda a: {e: -c for e, c in a.items()},
                            partial(reduce, add_coeffs), partial(reduce, mul_coeffs))


def _parse_poly(sc: _Scanner) -> Polynomial:
    return Polynomial.from_coeffs(_poly_coeffs(sc))


def _parse_atom(sc: _Scanner) -> QExpExpr:
    ch = sc.peek()
    if ch == "(":
        sc.expect("(")
        e = _parse_expr(sc)
        sc.expect(")")
        return e
    name, off = sc.ident()
    if name == "norm":
        sc.expect("(")
        carrier = _parse_poly(sc)
        sc.expect(")")
        save = sc.i
        if sc.accept("^") and sc.accept("{"):
            a = sc.integer(signed=True)
            sc.expect("/")
            off_n = sc.end
            n = sc.integer()
            if n < 1:
                raise ExprSyntaxError("fractional power needs positive root order", off_n)
            sc.expect("}")
            return FracNormPower(carrier, a, n)
        sc.i = save
        return Norm(carrier)
    if name == "val":
        sc.expect("(")
        carrier = _parse_poly(sc)
        sc.expect(")")
        return Val(carrier)
    if not name:
        raise ExprSyntaxError("expected expression", sc.pos)
    raise ExprSyntaxError(f"unknown function '{name}'", off)


def _parse_factor(sc: _Scanner) -> QExpExpr:
    if sc.peek().isdecimal():
        return RationalConst(sc.rational())
    e = _parse_atom(sc)
    if sc.accept("^"):
        if sc.peek() == "{":
            raise ExprSyntaxError("fractional powers apply to norm(...) only", sc.pos)
        e = make_power(e, sc.integer())
    return e


def _parse_expr(sc: _Scanner) -> QExpExpr:
    return _sum_of_products(sc, _parse_factor, negate, make_sum, make_product)


def parse_expr(text: str) -> QExpExpr:
    """Parse a q-exponential expression; raises ExprSyntaxError with offset."""
    sc = _Scanner(text)
    e = _parse_expr(sc)
    if not sc.at_end():
        raise ExprSyntaxError("trailing input", sc.pos)
    return e


POLY_CACHE_SIZE = 4096  # distinct polynomial texts kept parsed


@lru_cache(maxsize=POLY_CACHE_SIZE)
def parse_poly(text: str) -> Polynomial:
    """Parse a bare polynomial in x1..xN; raises ExprSyntaxError with offset.

    Each distinct text is read once per process (up to POLY_CACHE_SIZE
    texts): callers share the returned Polynomial, which is immutable.
    Errors are not cached, so a bad text raises afresh on every call.
    """
    sc = _Scanner(text)
    p = _parse_poly(sc)
    if not sc.at_end():
        raise ExprSyntaxError("trailing input", sc.pos)
    return p


# -- printing ------------------------------------------------------------------


def _needs_parens_in_product(e: QExpExpr) -> bool:
    return isinstance(e, (Sum, ScalarMultiple))


def format_expr(e: QExpExpr) -> str:
    """Deterministic rendering with parse_expr(format_expr(e)) == e."""
    if isinstance(e, RationalConst):
        return str(e.value)
    if isinstance(e, Norm):
        return f"norm({format_poly(e.carrier)})"
    if isinstance(e, Val):
        return f"val({format_poly(e.carrier)})"
    if isinstance(e, FracNormPower):
        return f"norm({format_poly(e.carrier)})^{{{e.a}/{e.n}}}"
    if isinstance(e, IntegerPower):
        base = format_expr(e.base)
        if _needs_parens_in_product(e.base) or isinstance(e.base, Product):
            base = f"({base})"
        return f"{base}^{e.exponent}"
    if isinstance(e, Product):
        parts = []
        for it in e.items:
            s = format_expr(it)
            if _needs_parens_in_product(it):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    if isinstance(e, ScalarMultiple):
        body = format_expr(e.item)
        if isinstance(e.item, Sum):
            body = f"({body})"
        scalar = e.scalar
        return f"{scalar}*{body}"
    if isinstance(e, Sum):
        out = format_expr(e.items[0])
        for it in e.items[1:]:
            if isinstance(it, ScalarMultiple) and it.scalar < 0:
                neg = make_scalar_multiple(-it.scalar, it.item)
                body = format_expr(neg)
                if isinstance(neg, Sum):  # "a - (b + c)" must keep grouping
                    body = f"({body})"
                out += f" - {body}"
            elif isinstance(it, RationalConst) and it.value < 0:
                out += f" - {-it.value}"
            else:
                out += f" + {format_expr(it)}"
        return out
    raise TypeError(f"not a DSL node: {e!r}")


# -- evaluation ----------------------------------------------------------------


def _leaves(e: QExpExpr) -> list:
    """The norm, norm-power and val leaves of an expression, in pre-order."""
    leaves, stack = [], [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (Norm, Val, FracNormPower)):
            leaves.append(node)
        elif isinstance(node, (Sum, Product)):
            stack.extend(reversed(node.items))
        elif isinstance(node, ScalarMultiple):
            stack.append(node.item)
        elif isinstance(node, IntegerPower):
            stack.append(node.base)
    return leaves


def _norm_power(leaf) -> tuple[int, int]:
    """(a, n) of a norm leaf |carrier|^(a/n); Norm is (1, 1)."""
    return (1, 1) if isinstance(leaf, Norm) else (leaf.a, leaf.n)


def expr_carriers(e: QExpExpr) -> list[Polynomial]:
    """The distinct norm/val carrier polynomials of an expression, first seen first."""
    return list(dict.fromkeys(leaf.carrier for leaf in _leaves(e)))


def carrier_valuations(e: QExpExpr, ctx: PrimeContext) -> Callable[[Sequence], tuple]:
    """point -> the valuation vector of expr_carriers(e) there, a key of
    compile_expr's tally, read through Polynomial.eval; ValueError for the
    first carrier the point is too short for."""
    carriers = expr_carriers(e)
    return lambda point: tuple([valuation(f.eval(point), ctx) for f in carriers])


def _terms(e: QExpExpr, index: dict, roots: int) -> Coeffs:
    """e as a merged sum of terms {monomial: s}, through the coefficient-dict
    helpers of polynomials, with roots a multiple of every root order n.  A
    monomial is a sparse key ((slot, exponent), ...) as a polynomial's is, its
    nonzero entries only: for the carrier in slot i, the power l of v_i at 3i,
    roots times the exponent (a sum of a/n) of |f_i| at 3i + 1, and at 3i + 2
    the number of its norm leaves with a != 0, which zero the term where
    f_i = 0."""
    if isinstance(e, RationalConst):
        return {(): e.value}
    if isinstance(e, Val):
        return {((3 * index[e.carrier], 1),): 1}
    if isinstance(e, (Norm, FracNormPower)):
        a, n = _norm_power(e)
        i = 3 * index[e.carrier]
        return {((i + 1, a * roots // n), (i + 2, 1)) if a else (): 1}
    if isinstance(e, Sum):
        merged = reduce(add_coeffs, (_terms(it, index, roots) for it in e.items), {})
        return {m: c for m, c in merged.items() if c}
    if isinstance(e, Product):
        return reduce(mul_coeffs, (_terms(it, index, roots) for it in e.items), {(): 1})
    if isinstance(e, ScalarMultiple):
        return {m: c * e.scalar for m, c in _terms(e.item, index, roots).items()} \
            if e.scalar else {}
    if isinstance(e, IntegerPower):
        return pow_coeffs(_terms(e.base, index, roots), e.exponent)
    raise TypeError(f"not a DSL node: {e!r}")


_ZERO = Fraction(0)


def compile_expr(e: QExpExpr, ctx: PrimeContext) -> Callable[..., ExactValue]:
    """Compile an expression into an evaluator of tallies: (tally, level=None,
    shift=0) -> the sum of count * value over the tally, times p^(-shift).

    A tally maps valuation vectors of expr_carriers(e), INF for a zero
    carrier, to counts; a point is the tally {vector: 1}.  Every leaf depends
    on its carrier's valuation alone, so the vector is all the evaluator
    reads.  The expression is compiled once into a merged sum of terms
    s * prod_i v_i^(l_i) * |f_i|^(e_i) (_terms), and the evaluator works in
    integers: per key and term it adds s * D * count * prod v_i^(l_i) to a
    numerator keyed by N * sum e_i * v_i, with D the common denominator of
    the s and N the lcm of the root orders.  Each class r/N of the exponent
    then makes one Fraction, p^(-shift) folded in.

    At a level, a zero carrier gives val the truncated valuation level, and
    a norm leaf with a != 0 zeroes its term (a = 0 gives 1).  At level None
    the first leaf in pre-order that is a val of a zero carrier, or a norm
    power a < 0 of one, raises ValOfZeroError(carrier, negative_power).  The
    evaluator counts no ambiguity: oracle.riemann_integrate decides which
    lifts are.  The value is a RootScaledValue iff some leaf's a * v / n is
    not an integer at some vector, else a Fraction.
    """
    leaves = _leaves(e)
    index = {c: i for i, c in enumerate(dict.fromkeys(leaf.carrier for leaf in leaves))}
    norms = [(index[leaf.carrier], *_norm_power(leaf)) for leaf in leaves
             if not isinstance(leaf, Val)]
    roots = lcm(1, *(n for _, _, n in norms))
    terms = [(m, c) for m, c in _terms(e, index, roots).items() if c]
    p, scale = ctx.p, lcm(1, *(c.denominator for _, c in terms))
    shapes = [(c.numerator * (scale // c.denominator),
               tuple((j // 3, k) for j, k in m if j % 3 == 0),
               tuple((j // 3, k) for j, k in m if j % 3 == 1),
               tuple(j // 3 for j, _ in m if j % 3 == 2))
              for m, c in terms]
    raising = [(index[leaf.carrier], leaf.carrier, not isinstance(leaf, Val)) for leaf in leaves
               if isinstance(leaf, Val) or _norm_power(leaf)[0] < 0]
    radicals = {(i, d) for i, a, n in norms if (d := n // gcd(a, n)) > 1}

    def evaluate(tally: dict, level: int | None = None, shift: int = 0) -> ExactValue:
        numerators: dict[int, int] = {}  # N * exponent -> numerator over D
        radical = False
        for vals, count in tally.items():
            zero = INF in vals
            if zero and level is None:
                for i, carrier, negative in raising:
                    if vals[i] is INF:
                        raise ValOfZeroError(carrier, negative)
            if radicals and not radical:
                radical = any(vals[i] is not INF and vals[i] % d for i, d in radicals)
            for s, powers, slopes, zeros in shapes:
                if zero and any(vals[i] is INF for i in zeros):
                    continue  # a vanishing norm power
                weight = s * count
                for i, l in powers:
                    v = vals[i]
                    weight *= (level if v is INF else v) ** l
                x = sum([k * vals[i] for i, k in slopes])
                numerators[x] = numerators.get(x, 0) + weight
        top, classes = max(numerators, default=0) // roots, {}  # r -> numerator
        for x, weight in numerators.items():
            floor, r = divmod(x, roots)
            classes[r] = classes.get(r, 0) + weight * p ** (top - floor)
        exponent = top + shift  # the class r/N is p^(-exponent - r/N) * numerator / D
        values = {r: Fraction(num, scale * p**exponent) if exponent >= 0 else
                  Fraction(num * p**-exponent, scale) for r, num in classes.items()}
        if not radical:
            return values.get(0, _ZERO)
        return RootScaledValue(p, tuple(sorted((Fraction(r, roots), c)
                                               for r, c in values.items() if c)))
    return evaluate


def evaluate_fractional(e: QExpExpr, point: Sequence, ctx: PrimeContext) -> RootScaledValue:
    """Exact value in Q[p^(1/N), p^(-1/N)] at a rational point.

    Raises ValOfZeroError where a val carrier, or a norm carrier under a
    negative power, vanishes.
    """
    try:
        value = compile_expr(e, ctx)({carrier_valuations(e, ctx)(point): 1})
    except ValOfZeroError as err:  # name the point
        carrier, negative = err.args
        kind, tail = ("norm", " with negative power") if negative else ("val", "")
        raise ValOfZeroError(f"{kind} carrier {carrier} vanishes at {tuple(point)}{tail}") from None
    return RootScaledValue.zero(ctx.p) + value


def evaluate(e: QExpExpr, point: Sequence, ctx: PrimeContext) -> Fraction:
    """Exact rational value; raises ValueError if fractional powers make it irrational."""
    return evaluate_fractional(e, point, ctx).as_exact_rational()
