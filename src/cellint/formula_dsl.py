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

compile_expr is the one evaluator: exact at rational points (behind
evaluate_fractional and evaluate), or at integer lifts of residue classes
mod p^level with an ambiguity flag (behind the oracles).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .errors import (
    ExprSyntaxError,
    NotPIntegralError,
    UnknownVariableError,
    ValOfZeroError,
    ZeroDenominatorError,
)
from .padic_core import INF, PrimeContext, int_valuation, power_norm, residue, valuation
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


def parse_poly(text: str) -> Polynomial:
    """Parse a bare polynomial in x1..xN."""
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

ExactValue = Union[Fraction, RootScaledValue]


class _Carrier:
    """Integer-cleared polynomial carrier, valued at integer lifts or at rational points."""

    def __init__(self, poly: Polynomial, ctx: PrimeContext):
        self.terms, denom = poly.cleared()
        self.vden = int(int_valuation(denom, ctx.p)) if denom else 0
        self.p = ctx.p
        self.ctx = ctx
        self.arity = poly.arity

    def valuation_at(self, point: Sequence[int]):
        num = eval_int_terms(self.terms, point)
        if num == 0:
            return INF
        return int_valuation(num, self.p) - self.vden

    def exact_valuation_at(self, point: Sequence):
        """Valuation at a point with rational coordinates."""
        if len(point) < self.arity:
            raise ValueError(f"point has {len(point)} coordinates, need {self.arity}")
        num = eval_int_terms(self.terms, point)
        if num == 0:
            return INF
        return valuation(num, self.ctx) - self.vden


def compile_expr(e: QExpExpr, ctx: PrimeContext,
                 level: int | None = None) -> Callable[[Sequence], tuple[ExactValue, bool]]:
    """Compile an expression into an evaluator returning (exact value, ambiguous).

    With a level, points are integer lifts of residue classes and ambiguous
    means a carrier was 0 mod p^level.  Conventions at exactly-vanishing
    carriers: val contributes the level-truncated valuation, norm powers
    contribute 0.  With level None the evaluation is exact at rational
    points, never ambiguous, and a vanishing val carrier or negative norm
    power raises ValOfZeroError.
    """
    p = ctx.p
    exact = level is None

    if isinstance(e, RationalConst):
        value = e.value
        return lambda pt: (value, False)
    if isinstance(e, (Norm, Val, FracNormPower)):
        carrier = _Carrier(e.carrier, ctx)
        valuation_at = carrier.exact_valuation_at if exact else carrier.valuation_at
        top = INF if exact else level
        if isinstance(e, Norm):
            def run(pt):
                v = valuation_at(pt)
                if v is INF:
                    return Fraction(0), not exact
                return power_norm(p, -int(v)), v >= top
            return run
        if isinstance(e, Val):
            def run(pt):
                v = valuation_at(pt)
                if v is INF:
                    if exact:
                        raise ValOfZeroError(f"val carrier {e.carrier} vanishes at {tuple(pt)}")
                    return Fraction(level), True  # truncated valuation
                return Fraction(int(v)), v >= top
            return run
        a, n = e.a, e.n

        def run(pt):
            v = valuation_at(pt)
            if v is INF:
                if a > 0:
                    return Fraction(0), not exact
                if a == 0:  # 0^0 = 1 convention
                    return Fraction(1), not exact
                if exact:
                    raise ValOfZeroError(f"norm carrier {e.carrier} vanishes at "
                                         f"{tuple(pt)} with negative power")
                return Fraction(0), True  # divergent convention, flagged
            exp = Fraction(a * int(v), n)
            amb = v >= top
            if exp.denominator == 1:
                return power_norm(p, -int(exp)), amb
            return RootScaledValue.monomial(p, exp), amb
        return run
    if isinstance(e, Sum):
        subs = [compile_expr(it, ctx, level) for it in e.items]

        def run(pt):
            total: ExactValue = Fraction(0)
            amb = False
            for sub in subs:
                v, a_ = sub(pt)
                total = _vadd(total, v, p)
                amb = amb or a_
            return total, amb
        return run
    if isinstance(e, Product):
        subs = [compile_expr(it, ctx, level) for it in e.items]

        def run(pt):
            total: ExactValue = Fraction(1)
            amb = False
            for sub in subs:
                v, a_ = sub(pt)
                total = _vmul(total, v, p)
                amb = amb or a_
            return total, amb
        return run
    if isinstance(e, ScalarMultiple):
        sub = compile_expr(e.item, ctx, level)
        scalar = e.scalar

        def run(pt):
            v, amb = sub(pt)
            if isinstance(v, RootScaledValue):
                return v.scale(scalar), amb
            return scalar * v, amb
        return run
    if isinstance(e, IntegerPower):
        sub = compile_expr(e.base, ctx, level)
        k = e.exponent

        def run(pt):
            v, amb = sub(pt)
            if isinstance(v, RootScaledValue):
                out: ExactValue = RootScaledValue.from_rational(1, p)
                for _ in range(k):
                    out = out * v
                return out, amb
            return v**k, amb
        return run
    raise TypeError(f"not a DSL node: {e!r}")


def _as_root(a: ExactValue, p: int) -> RootScaledValue:
    return a if isinstance(a, RootScaledValue) else RootScaledValue.from_rational(a, p)


def _vadd(a: ExactValue, b: ExactValue, p: int) -> ExactValue:
    if isinstance(a, RootScaledValue) or isinstance(b, RootScaledValue):
        return _as_root(a, p) + _as_root(b, p)
    return a + b


def _vmul(a: ExactValue, b: ExactValue, p: int) -> ExactValue:
    if isinstance(a, RootScaledValue) or isinstance(b, RootScaledValue):
        return _as_root(a, p) * _as_root(b, p)
    return a * b


def evaluate_fractional(e: QExpExpr, point: Sequence, ctx: PrimeContext) -> RootScaledValue:
    """Exact value in Q[p^(1/N), p^(-1/N)] at a rational point.

    Raises ValOfZeroError where a val carrier, or a norm carrier under a
    negative power, vanishes.
    """
    value, _ = compile_expr(e, ctx)(point)
    return _as_root(value, ctx.p)


def evaluate(e: QExpExpr, point: Sequence, ctx: PrimeContext) -> Fraction:
    """Exact rational value; raises ValueError if fractional powers make it irrational."""
    return evaluate_fractional(e, point, ctx).as_exact_rational()


# -- Schwartz-Bruhat data ------------------------------------------------------


@dataclass(frozen=True)
class SchwartzBruhatSpec:
    """Locally constant function with compact support in Z_p^arity.

    A weighted list of residue classes, possibly at different levels;
    classes must be pairwise disjoint after refinement to a common level.
    """

    arity: int
    pieces: tuple[tuple[tuple[int, ...], int, Fraction], ...]  # (residues, level, weight)

    def common_level(self) -> int:
        return max((lvl for _, lvl, _ in self.pieces), default=1)

    def refine_to(self, level: int, ctx: PrimeContext) -> "SchwartzBruhatSpec":
        """Split every piece into residue classes at the given finer level."""
        p = ctx.p
        out: list[tuple[tuple[int, ...], int, Fraction]] = []
        for res, lvl, w in self.pieces:
            if lvl > level:
                raise ValueError("cannot refine to a coarser level")
            step = p**lvl
            count = p ** (level - lvl)
            ranges = [range(count)] * self.arity
            for bump in itertools.product(*ranges):
                fine = tuple(r + b * step for r, b in zip(res, bump))
                out.append((fine, level, w))
        spec = SchwartzBruhatSpec(self.arity, tuple(out))
        spec.check_disjoint(ctx)
        return spec

    def check_disjoint(self, ctx: PrimeContext):
        seen = set()
        for res, lvl, _ in self.pieces:
            if lvl != self.pieces[0][1]:
                raise ValueError("check_disjoint requires a common level")
            if res in seen:
                raise ValueError(f"residue class {res} listed twice")
            seen.add(res)

    def total_measure(self, ctx: PrimeContext) -> Fraction:
        """Sum of weight * Haar measure of each class."""
        total = Fraction(0)
        for _, lvl, w in self.pieces:
            total += w * Fraction(1, ctx.p ** (lvl * self.arity))
        return total

    def evaluate(self, point: Sequence, ctx: PrimeContext) -> Fraction:
        total = Fraction(0)
        for res, lvl, w in self.pieces:
            try:
                if all(residue(x, lvl, ctx) == r for x, r in zip(point, res)):
                    total += w
            except NotPIntegralError:
                continue  # point outside Z_p^arity, not in the support
        return total
