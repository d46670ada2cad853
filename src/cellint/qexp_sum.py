"""Closed-form evaluation of the shell sums behind p-adic cell integration.

Everything here is exact, and in integers until one Fraction per level.  A
series sum(k^l r^j) over a progression of k, with r = a/b, is summed as an
integer numerator and denominator (_progression_series, the one series
kernel): term by term over a finite range, through the integer Eulerian
polynomials over an infinite one.  A shell sum is its coefficient times one
rational, that one Fraction, so it has the coefficient's type: a Fraction, or
a RootScaledValue in Q[p^(1/N), p^(-1/N)].  Divergence is reported in-band as
(value 0, integrable False).  A cell fiber enters through the KRange of
v(t - c) its bounds allow, evaluated at a base point by fiber_valuation_range
(cells.contains) and read from constant bounds by level_integral.

Explicit-tower integrals are rational, and are summed in Fraction: the coset
condition forces v(t - c) = v(lam) mod n, so each factor is an integer power
of p.  The cell's running value is the shell-sum coefficient of each level:
a level with lambda != 0 builds its one Fraction, takes v(lambda) once and
pays one multiply (in shell_sum); a point level is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Sequence

from .errors import (
    BoundVanishedError,
    CertificateMismatchError,
    DivergentError,
    ExponentTooLargeError,
    ZeroCosetError,
)
from .padic_core import PrimeContext, _power_test, as_rational, power_norm, valuation
from .polynomials import format_poly
from .rootval import ExactValue, RootScaledValue

if TYPE_CHECKING:  # pragma: no cover
    from .cells import Bound, CellLevel, DecompositionCertificate

MAX_VAL_EXPONENT = 16

# -- Eulerian polynomials ------------------------------------------------------

_eulerian_cache: list[list[int]] = [[1]]


def eulerian_polynomial(l: int) -> list[int]:
    """Integer coefficients of A_l(y), with sum(j^l y^j, j>=0) = A_l(y)/(1-y)^(l+1).

    Derived by the differentiate-and-multiply recurrence
    A_{l+1}(y) = y * (A_l'(y) (1-y) + (l+1) A_l(y)); memoized up to l = 16.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l > MAX_VAL_EXPONENT:
        raise ExponentTooLargeError(f"valuation exponent {l} > {MAX_VAL_EXPONENT}")
    while len(_eulerian_cache) <= l:
        cur = _eulerian_cache[-1]
        lev = len(_eulerian_cache) - 1
        deriv = [cur[i + 1] * (i + 1) for i in range(len(cur) - 1)]
        term = [0] * (len(cur) + 1)
        for i, c in enumerate(deriv):  # A'(y)
            term[i] += c
        for i, c in enumerate(deriv):  # -y A'(y)
            term[i + 1] -= c
        for i, c in enumerate(cur):  # (l+1) A(y)
            term[i] += (lev + 1) * c
        nxt = [0] + term  # multiply by y
        while nxt and nxt[-1] == 0:
            nxt.pop()
        _eulerian_cache.append(nxt)
    return _eulerian_cache[l]


def power_sum(y, l: int, lo: int | None, hi: int | None) -> Fraction:
    """Exact sum of j^l y^j over the integer range [lo, hi] (None = unbounded).

    Finite ranges are summed directly; infinite tails use the Eulerian
    closed form, shifted for the range start.  Raises DivergentError when
    an unbounded direction does not converge.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l > MAX_VAL_EXPONENT:
        raise ExponentTooLargeError(f"valuation exponent {l} > {MAX_VAL_EXPONENT}")
    if lo is None and hi is None:
        raise DivergentError("sum over all of Z diverges")
    return progression_power_sum(y, l, KRange(1, 0, lo, hi))


# -- valuation ranges ----------------------------------------------------------


@dataclass(frozen=True)
class KRange:
    """An arithmetic progression k = residue mod modulus inside [lo, hi]."""

    modulus: int
    residue: int
    lo: int | None = None
    hi: int | None = None

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def first(self) -> int:
        if self.lo is None:
            raise ValueError("range unbounded below")
        return self.lo + (self.residue - self.lo) % self.modulus

    def last(self) -> int:
        if self.hi is None:
            raise ValueError("range unbounded above")
        return self.hi - (self.hi - self.residue) % self.modulus

    def is_empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.first() > self.hi

    def contains(self, k: int) -> bool:
        if k % self.modulus != self.residue:
            return False
        if self.lo is not None and k < self.lo:
            return False
        if self.hi is not None and k > self.hi:
            return False
        return True

    def members(self) -> range:
        """Aligned members of a finite range."""
        if self.is_empty():
            return range(0)
        return range(self.first(), self.last() + 1, self.modulus)

    def shifted(self, d: int) -> "KRange":
        return KRange(self.modulus, self.residue + d,
                      None if self.lo is None else self.lo + d,
                      None if self.hi is None else self.hi + d)


def krange_from_bounds(v_alpha: int | None, alpha_strict: bool,
                       v_beta: int | None, beta_strict: bool,
                       v_lambda: int, n: int) -> KRange:
    """Valuation range of t-c on a cell fiber.

    |alpha| < |t-c| caps k = v(t-c) above by v(alpha) (minus 1 if strict);
    |t-c| < |beta| bounds it below by v(beta) (plus 1 if strict); the coset
    pins k = v(lambda) mod n.
    """
    hi = None if v_alpha is None else (v_alpha - 1 if alpha_strict else v_alpha)
    lo = None if v_beta is None else (v_beta + 1 if beta_strict else v_beta)
    return KRange(n, v_lambda % n, lo, hi)


def _valuation_range(level: "CellLevel", prefix: Sequence, read, vlam: int,
                     ctx: PrimeContext) -> KRange:
    """The KRange of a level with lambda != 0 and v(lambda) = vlam, its bounds
    valued by read(name, bound), alpha first; BoundVanishedError names prefix
    when a bound reads 0."""

    def vb(name: str, bound: "Bound | None"):
        if bound is None:
            return None, True
        value = read(name, bound)
        if value == 0:
            raise BoundVanishedError(
                f"bound {format_poly(bound.expr)} vanishes at {tuple(prefix)}")
        return int(valuation(value, ctx)), bound.strict

    v_alpha, alpha_strict = vb("alpha", level.lower)
    v_beta, beta_strict = vb("beta", level.upper)
    return krange_from_bounds(v_alpha, alpha_strict, v_beta, beta_strict, vlam,
                              level.coset.n)


def fiber_valuation_range(level: "CellLevel", base_point: Sequence,
                          ctx: PrimeContext) -> KRange:
    """The exact set {v(t - c(x)) : t in the fiber} as a progression in an interval;
    ValueError when base_point is shorter than a bound needs."""
    if level.coset.lam == 0:
        raise ZeroCosetError("point fibers carry no valuation range")
    prefix = [Fraction(x) for x in base_point]
    return _valuation_range(level, prefix, lambda _, bound: bound.expr.eval(prefix),
                            int(valuation(level.coset.lam, ctx)), ctx)


# -- shell sums ----------------------------------------------------------------


@dataclass(frozen=True)
class TermOnCell:
    """One cell-adapted integrand term |(t-c)^a lam^(-a)|^(1/n) v(t-c)^l; an
    int or float coefficient is made an exact Fraction."""

    coefficient: ExactValue
    a: int
    n: int
    l: int
    lam: Fraction = field(default_factory=lambda: Fraction(1))

    def __post_init__(self):
        if not isinstance(self.coefficient, (Fraction, RootScaledValue)):
            object.__setattr__(self, "coefficient", as_rational(self.coefficient))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.l < 0:
            raise ValueError("l must be >= 0")
        if self.lam == 0 and self.a != 0:
            raise ValueError("lambda = 0 forces a = 0 (0^0 = 1 convention)")


def decide_integrability(term: TermOnCell, krange: KRange) -> bool:
    """Pure predicate: convergence depends only on a, n and range direction."""
    if krange.is_empty():
        return True
    w = term.n + term.a
    if krange.hi is None and w <= 0:
        return False
    if krange.lo is None and w >= 0:
        return False
    return True


def _progression_series(l: int, krange: KRange, num: int, den: int) -> tuple[int, int, int]:
    """(k0, s_num, s_den), integers with s_den > 0 and s_num/s_den the sum of
    k^l q^((k - k0)/modulus) over k in a nonempty krange, for q = num/den, den > 0.

    Walks up from the first member, or down from the last when the range is
    unbounded below (each step then multiplies by 1/q).  With the ratio per
    step r = a/b, b > 0, the sum stays in integers and the caller divides once,
    folding it into its one Fraction: a finite range k_0..k_J gives
    sum_j k_j^l a^j b^(J-j) / b^J; an infinite one is the shifted Eulerian form
    sum_t C(l,t) k0^(l-t) step^t A_t(r)/(1-r)^(t+1)
    = sum_t C(l,t) k0^(l-t) step^t b B_t (b-a)^(l-t) / (b-a)^(l+1), with
    B_t = sum_i A_t[i] a^i b^(t-i), and diverges (DivergentError) unless |a| < b.
    """
    if krange.lo is None and krange.hi is not None:
        k0, step = krange.last(), -krange.modulus
        a, b = (den, num) if num >= 0 else (-den, -num)
    else:
        k0, step = krange.first(), krange.modulus
        a, b = num, den
    if krange.lo is not None and krange.hi is not None:
        members = krange.members()
        total, a_j = 0, 1
        for k in members:
            total = total * b + k**l * a_j
            a_j *= a
        return k0, total, b ** (len(members) - 1)
    if abs(a) >= b:
        raise DivergentError(f"sum to +infinity diverges for y = {Fraction(a, b)}")
    c = b - a
    total = 0
    for t in range(l + 1):
        b_t, a_i = 0, 1
        for e in eulerian_polynomial(t):
            b_t = b_t * b + e * a_i
            a_i *= a
        total += comb(l, t) * k0 ** (l - t) * step**t * b_t * c ** (l - t)
    return k0, total * b, c ** (l + 1)


def shell_sum(term: TermOnCell, krange: KRange, ctx: PrimeContext, *,
              vlam: int | None = None) -> tuple[ExactValue, bool]:
    """Exact integral of a term over the shells v(u) = k, u in lam*P_n, k in krange.

    Value = coeff * eps * |lam^(-a)|^(1/n) * sum_k k^l p^(-k(n+a)/n), with
    eps = (p - 1)/(p * index) the exact shell density (unit_coset_density).
    Every k in the range is congruent to v(lam) mod n, so the k-sum from its
    first summed member k0 is s * p^(-k0(n+a)/n) for a rational s, and the
    whole value is coeff times eps * s * p^(-E/n), E = k0(n+a) - a v(lam).
    As k0 = v(lam) mod n, E/n = v(lam) + (k0 - v(lam))(n+a)/n is an integer:
    that factor is rational, kept in integers until its one Fraction, and the
    level pays one multiply, so the value has the coefficient's type.  A caller
    that has already taken v(lam) passes it as vlam.  Divergence is in-band:
    (0, False).
    """
    p, coeff = ctx.p, term.coefficient
    if krange.modulus != term.n:
        raise ValueError("krange modulus must match the coset order n")
    if krange.is_empty():
        return 0 * coeff, True
    if term.lam == 0:
        raise ZeroCosetError("shell_sum needs lambda != 0 (or an empty range)")
    if not decide_integrability(term, krange):
        return 0 * coeff, False
    if vlam is None:
        vlam = int(valuation(term.lam, ctx))
    if krange.residue != vlam % term.n:
        return 0 * coeff, True  # every shell in the range misses the coset
    w = term.n + term.a
    num, den = (1, p**w) if w >= 0 else (p**-w, 1)  # p^(-w), the ratio per step
    k0, s_num, s_den = _progression_series(term.l, krange, num, den)
    if not s_num:  # a zero sum needs no coset index
        return 0 * coeff, True
    shift = (k0 * w - term.a * vlam) // term.n  # exact: k0 = v(lam) mod n
    num, den = (p - 1) * s_num, p * _power_test(term.n, p)[2] * s_den
    if shift > 0:
        den *= p**shift
    else:
        num *= p**-shift
    return coeff * Fraction(num, den), True


# -- explicit tower integration ------------------------------------------------


@dataclass(frozen=True)
class CellTermSpec:
    """Cell-adapted integrand data for one cell of a certificate.

    levels holds one (a, l) exponent pair per tower level, outermost first;
    the coset data (lambda, n) comes from the certificate itself.
    """

    cell: int
    coeff: Fraction
    levels: tuple[tuple[int, int], ...]


def level_integral(level: "CellLevel", a: int, l: int, value: ExactValue,
                   ctx: PrimeContext) -> tuple[ExactValue, bool]:
    """value times the exact integral of |(t-c)^a lam^(-a)|^(1/n) v(t-c)^l over
    one explicit (constant-data) fiber: shell_sum over its valuation range with
    value as the coefficient, 0 for a point level (graph fibers carry Haar
    measure 0), (0, False) when divergent.  That integral is rational.

    A level with lambda != 0 takes v(lambda) once, for both the range residue
    and the shell exponent, and pays exactly one multiply (value times its
    rational); a point level is 0 * value.  Raises CertificateMismatchError for
    a bound that is not constant."""
    lam = level.coset.lam
    if lam == 0:
        return 0 * value, True
    term = TermOnCell(value, a, level.coset.n, l, lam)
    vlam = int(valuation(lam, ctx))
    return shell_sum(term, _valuation_range(level, (), _constant_bound, vlam, ctx), ctx,
                     vlam=vlam)


def _constant_bound(name: str, bound: "Bound") -> Fraction:
    """The value of a constant bound."""
    if not bound.expr.is_constant():
        raise CertificateMismatchError(f"{name} must be constant for explicit towers")
    return bound.expr.constant_value()


def integrate_explicit_tower(terms: Sequence[CellTermSpec],
                             cert: "DecompositionCertificate",
                             ctx: PrimeContext) -> tuple[RootScaledValue, bool]:
    """Integrate cell-adapted terms over an explicit-tower certificate.

    Innermost levels are shell-summed first and each level contributes a
    rational factor (explicit towers are products of 1-d fibers): the cell's
    value starts as its coefficient and each level multiplies it by its
    factor (level_integral); the Fraction total over cells becomes a
    RootScaledValue at return.  Any divergent contribution makes the whole
    integral (0, False): non-integrable functions integrate to zero."""
    if ctx.p != cert.prime:
        raise ValueError("context prime differs from certificate prime")
    total = Fraction(0)
    for spec in terms:
        if not 0 <= spec.cell < len(cert.cells):
            raise CertificateMismatchError(f"term references missing cell {spec.cell}")
        tower = cert.cells[spec.cell]
        if len(spec.levels) != len(tower.levels):
            raise CertificateMismatchError(
                f"term for cell {spec.cell} has {len(spec.levels)} levels, "
                f"tower has {len(tower.levels)}")
        if spec.coeff == 0:
            continue
        cellval = as_rational(spec.coeff)
        for level, (a, l) in zip(reversed(tower.levels), reversed(spec.levels)):
            cellval, ok = level_integral(level, a, l, cellval, ctx)
            if not ok:
                return RootScaledValue.zero(ctx.p), False
        total += cellval
    return RootScaledValue.from_rational(total, ctx.p), True


# -- lattice sums (the mixed Z^l x Q_p^n operator) ------------------------------


@dataclass(frozen=True)
class LatticeFactor:
    """One lattice variable contributing z^l * p^(-c z) over a progression."""

    l: int
    c: int
    krange: KRange


@dataclass(frozen=True)
class LatticeTermSpec:
    coeff: Fraction
    factors: tuple[LatticeFactor, ...]


def progression_power_sum(y, l: int, krange: KRange) -> Fraction:
    """Exact sum of z^l y^z over the aligned progression; raises DivergentError."""
    if l < 0:
        raise ValueError("l must be nonnegative")
    y = as_rational(y)
    if krange.is_empty():
        return Fraction(0)
    if krange.lo is None and krange.hi is not None:
        if y == 0 or abs(y) <= 1:
            raise DivergentError(f"sum to -infinity diverges for y = {y}")
    else:
        # a range with no bound at all reaches first() and raises ValueError
        # unless |y| >= 1 (known defect: it should diverge in-band)
        if y == 0 and krange.first() < 0:
            raise DivergentError("negative powers of y = 0")
        if krange.hi is None and abs(y) >= 1:
            raise DivergentError(f"sum to +infinity diverges for y = {y}")
    m, y_num, y_den = krange.modulus, y.numerator, y.denominator
    k0, s_num, s_den = _progression_series(l, krange, y_num**m, y_den**m)
    if k0 < 0:  # y != 0 here: y^k0 = (y_den/y_num)^(-k0)
        y_num, y_den, k0 = y_den, y_num, -k0
    return Fraction(y_num**k0 * s_num, y_den**k0 * s_den)


def mixed_sum(terms: Sequence[LatticeTermSpec],
              ctx: PrimeContext) -> tuple[Fraction, bool]:
    """Iterated exact lattice sums sum_z z^l p^(-c z) over specified ranges.

    Divergence is in-band: (0, False).  Mixed lattice x p-adic domains
    compose by multiplying with integrate_explicit_tower results.
    """
    p = ctx.p
    total = Fraction(0)
    for spec in terms:
        if spec.coeff == 0:
            continue
        value = spec.coeff
        try:
            for factor in spec.factors:
                value *= progression_power_sum(power_norm(p, -factor.c),
                                               factor.l, factor.krange)
        except DivergentError:
            return Fraction(0), False
        total += value
    return total, True
