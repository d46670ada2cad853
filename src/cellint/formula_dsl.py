"""Expression language for simple q-exponential integrands.

Grammar (whitespace-insensitive, rationals as "a/b" or integers):

    expr    := term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := rational | atom ('^' nonneg)?
    atom    := 'norm' '(' poly ')' ('^{' int '/' posint '}')?
             | 'val' '(' poly ')'
             | '(' expr ')'
    poly    := multivariate polynomial over Q in x1..xN, with + - * ^

ASTs are immutable; construction canonicalizes (flattens nested sums
and products, merges rational scalars) so that format/parse round-trips
are structural identities.

compile_expr is the one evaluator.  It reads the valuation vector of the
distinct carriers (expr_carriers), exactly or at a level with an ambiguity
flag: riemann_integrate hands it the enumeration kernel's key, and
carrier_valuations computes it at a point (evaluate_fractional, evaluate,
monte_carlo_integrate).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Callable, Sequence, Union

from .errors import (
    ExprSyntaxError,
    UnknownVariableError,
    ValOfZeroError,
    ZeroDenominatorError,
)
from .padic_core import INF, PrimeContext, int_valuation, power_norm
from .polynomials import Polynomial, eval_int_terms, format_poly
from .rootval import RootScaledValue

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


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def accept(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.accept(ch):
            raise ExprSyntaxError(f"expected '{ch}'", self.pos)

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def integer(self, signed: bool = False) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ExprSyntaxError("expected integer", self.pos)
        return int(self.text[start:self.pos])

    def rational(self, signed: bool = False) -> Fraction:
        num = self.integer(signed=signed)
        save = self.pos
        if self.accept("/"):
            offset = self.pos
            den = self.integer()
            if den == 0:
                raise ZeroDenominatorError("denominator is zero", offset)
            return Fraction(num, den)
        self.pos = save
        return Fraction(num)

    def ident(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos], start


def _variable_index(name: str, offset: int) -> int:
    if len(name) >= 2 and name[0] == "x" and name[1:].isdigit() and name[1] != "0":
        return int(name[1:]) - 1
    raise UnknownVariableError(f"unknown variable '{name}' (use x1, x2, ...)", offset)


def _parse_poly(sc: _Scanner) -> Polynomial:
    def atom() -> Polynomial:
        ch = sc.peek()
        if ch == "(":
            sc.expect("(")
            p = expr()
            sc.expect(")")
        elif ch.isdigit():
            p = Polynomial.constant(sc.rational())
        elif ch.isalpha():
            name, off = sc.ident()
            p = Polynomial.variable(_variable_index(name, off))
        else:
            raise ExprSyntaxError("expected polynomial term", sc.pos)
        if sc.accept("^"):
            k = sc.integer()
            if k < 0:
                raise ExprSyntaxError("negative power in polynomial", sc.pos)
            p = p**k
        return p

    def term() -> Polynomial:
        p = atom()
        while sc.accept("*"):
            p = p * atom()
        return p

    def expr() -> Polynomial:
        negated = sc.accept("-")
        p = term()
        if negated:
            p = -p
        while True:
            if sc.accept("+"):
                p = p + term()
            elif sc.accept("-"):
                p = p - term()
            else:
                return p

    return expr()


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
        save = sc.pos
        if sc.accept("^") and sc.accept("{"):
            a = sc.integer(signed=True)
            sc.expect("/")
            off_n = sc.pos
            n = sc.integer()
            if n < 1:
                raise ExprSyntaxError("fractional power needs positive root order", off_n)
            sc.expect("}")
            return FracNormPower(carrier, a, n)
        sc.pos = save
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
    if sc.peek().isdigit():
        return RationalConst(sc.rational())
    e = _parse_atom(sc)
    if sc.accept("^"):
        if sc.peek() == "{":
            raise ExprSyntaxError("fractional powers apply to norm(...) only", sc.pos)
        off = sc.pos
        k = sc.integer()
        if k < 0:
            raise ExprSyntaxError("expression power must be nonnegative", off)
        e = make_power(e, k)
    return e


def _parse_term(sc: _Scanner) -> QExpExpr:
    items = [_parse_factor(sc)]
    while sc.accept("*"):
        items.append(_parse_factor(sc))
    return make_product(items)


def _parse_expr(sc: _Scanner) -> QExpExpr:
    negated = sc.accept("-")
    first = _parse_term(sc)
    items = [negate(first) if negated else first]
    while True:
        if sc.accept("+"):
            items.append(_parse_term(sc))
        elif sc.accept("-"):
            items.append(negate(_parse_term(sc)))
        else:
            return make_sum(items)


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


def expr_carriers(e: QExpExpr) -> list[Polynomial]:
    """The distinct norm/val carrier polynomials of an expression, first seen first."""
    if isinstance(e, (Norm, Val, FracNormPower)):
        return [e.carrier]
    if isinstance(e, (Sum, Product)):
        subs = e.items
    elif isinstance(e, ScalarMultiple):
        subs = (e.item,)
    elif isinstance(e, IntegerPower):
        subs = (e.base,)
    else:
        return []
    return list(dict.fromkeys(c for it in subs for c in expr_carriers(it)))

ExactValue = Union[Fraction, RootScaledValue]


class _Carrier:
    """Integer-cleared polynomial carrier poly = terms/denom, with vden = v(denom)."""

    def __init__(self, poly: Polynomial, ctx: PrimeContext):
        self.terms, self.denom = poly.cleared()
        self.vden = int(int_valuation(self.denom, ctx.p))
        self.p = ctx.p
        self.arity = poly.arity

    def valuation_at(self, point: Sequence):
        """v(poly(point)) at an integer or rational point; INF where it vanishes."""
        if len(point) < self.arity:
            raise ValueError(f"point has {len(point)} coordinates, need {self.arity}")
        num = eval_int_terms(self.terms, point)
        if num == 0:
            return INF
        return int_valuation(num.numerator, self.p) - int_valuation(num.denominator, self.p) \
            - self.vden


def carrier_valuations(e: QExpExpr, ctx: PrimeContext) -> Callable[[Sequence], tuple]:
    """point -> the valuation vector of expr_carriers(e) there, compile_expr's
    input; ValueError naming the first carrier the point is too short for."""
    views = [_Carrier(f, ctx).valuation_at for f in expr_carriers(e)]
    return lambda point: tuple([valuation_at(point) for valuation_at in views])


_ZERO, _ONE = Fraction(0), Fraction(1)


def compile_expr(e: QExpExpr, ctx: PrimeContext,
                 level: int | None = None) -> Callable[[Sequence], tuple[ExactValue, bool]]:
    """Compile an expression into an evaluator: the valuation vector of
    expr_carriers(e) (INF for a zero carrier) -> (exact value, ambiguous).

    Every leaf depends on its carrier's valuation alone, so the vector is all
    the evaluator reads.  With a level, ambiguous means some valuation is
    >= level; a zero carrier gives val the truncated valuation level and norm
    powers 0 (1 at power 0).  With level None the value is exact, and a zero
    val carrier or norm carrier under a negative power raises
    ValOfZeroError(carrier, negative_power).  Rational integrands stay in
    Fraction; RootScaledValue's operators absorb rational operands.
    """
    value_of = _compile(e, {c: i for i, c in enumerate(expr_carriers(e))}, ctx.p, level)
    if level is None:
        return lambda vals: (value_of(vals), False)
    return lambda vals: (value_of(vals), any(v >= level for v in vals))


def _compile(e: QExpExpr, index: dict, p: int, level: int | None) -> Callable:
    """The value half of compile_expr's evaluator; index maps a carrier to its slot."""
    if isinstance(e, RationalConst):
        value = e.value
        return lambda vals: value
    if isinstance(e, Val):
        i, carrier = index[e.carrier], e.carrier

        def val(vals):
            v = vals[i]
            if v is not INF:
                return Fraction(v)
            if level is None:
                raise ValOfZeroError(carrier, False)
            return Fraction(level)  # truncated valuation
        return val
    if isinstance(e, (Norm, FracNormPower)):
        i, carrier = index[e.carrier], e.carrier
        a, n = (1, 1) if isinstance(e, Norm) else (e.a, e.n)

        def norm_power(vals):
            v = vals[i]
            if v is INF:
                if a < 0 and level is None:
                    raise ValOfZeroError(carrier, True)
                return _ONE if a == 0 else _ZERO  # 0^0 = 1; a < 0: divergent, flagged
            if a * v % n:
                return RootScaledValue.monomial(p, Fraction(a * v, n))
            return power_norm(p, -(a * v // n))
        return norm_power
    if isinstance(e, (Sum, Product)):
        subs = [_compile(it, index, p, level) for it in e.items]
        if isinstance(e, Sum):
            return lambda vals: sum([sub(vals) for sub in subs], _ZERO)
        return lambda vals: prod([sub(vals) for sub in subs], start=_ONE)
    if isinstance(e, ScalarMultiple):
        sub, scalar = _compile(e.item, index, p, level), e.scalar
        return lambda vals: scalar * sub(vals)
    if isinstance(e, IntegerPower):
        sub, k = _compile(e.base, index, p, level), e.exponent
        return lambda vals: prod([sub(vals)] * k, start=_ONE)
    raise TypeError(f"not a DSL node: {e!r}")


def evaluate_fractional(e: QExpExpr, point: Sequence, ctx: PrimeContext) -> RootScaledValue:
    """Exact value in Q[p^(1/N), p^(-1/N)] at a rational point.

    Raises ValOfZeroError where a val carrier, or a norm carrier under a
    negative power, vanishes.
    """
    try:
        value, _ = compile_expr(e, ctx)(carrier_valuations(e, ctx)(point))
    except ValOfZeroError as err:  # name the point
        carrier, negative = err.args
        kind, tail = ("norm", " with negative power") if negative else ("val", "")
        raise ValOfZeroError(f"{kind} carrier {carrier} vanishes at {tuple(point)}{tail}") from None
    return RootScaledValue.zero(ctx.p) + value


def evaluate(e: QExpExpr, point: Sequence, ctx: PrimeContext) -> Fraction:
    """Exact rational value; raises ValueError if fractional powers make it irrational."""
    return evaluate_fractional(e, point, ctx).as_exact_rational()
