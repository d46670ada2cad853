"""Closed-form evaluation of the shell sums behind p-adic cell integration.

Everything here is exact: geometric-type series sum(j^l y^j) are evaluated
via memoized Eulerian polynomials, shell sums land in Q[p^(1/N), p^(-1/N)],
and divergence is reported in-band as (value 0, integrable False).
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
from .padic_core import PrimeContext, power_norm, unit_coset_density, valuation
from .rootval import RootScaledValue

if TYPE_CHECKING:  # pragma: no cover
    from .cells import DecompositionCertificate

MAX_VAL_EXPONENT = 16

# -- Eulerian polynomials ------------------------------------------------------

_eulerian_cache: list[list[Fraction]] = [[Fraction(1)]]


def eulerian_polynomial(l: int) -> list[Fraction]:
    """Coefficients of A_l(y), with sum(j^l y^j, j>=0) = A_l(y)/(1-y)^(l+1).

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
        term = [Fraction(0)] * (len(cur) + 1)
        for i, c in enumerate(deriv):  # A'(y)
            term[i] += c
        for i, c in enumerate(deriv):  # -y A'(y)
            term[i + 1] -= c
        for i, c in enumerate(cur):  # (l+1) A(y)
            term[i] += (lev + 1) * c
        nxt = [Fraction(0)] + term  # multiply by y
        while nxt and nxt[-1] == 0:
            nxt.pop()
        _eulerian_cache.append(nxt)
    return _eulerian_cache[l]


def _poly_at(coeffs: Sequence[Fraction], y: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * y + c
    return total


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

    def below(self, cut: int) -> "KRange":
        hi = cut - 1 if self.hi is None else min(self.hi, cut - 1)
        return KRange(self.modulus, self.residue, self.lo, hi)

    def at_least(self, cut: int) -> "KRange":
        lo = cut if self.lo is None else max(self.lo, cut)
        return KRange(self.modulus, self.residue, lo, self.hi)

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


# -- shell sums ----------------------------------------------------------------


@dataclass(frozen=True)
class TermOnCell:
    """One cell-adapted integrand term |(t-c)^a lam^(-a)|^(1/n) v(t-c)^l."""

    coefficient: RootScaledValue
    a: int
    n: int
    l: int
    lam: Fraction = field(default_factory=lambda: Fraction(1))

    def __post_init__(self):
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


def _progression_series(l: int, krange: KRange, q: Fraction) -> tuple[int, Fraction]:
    """(k0, s) with s = sum of k^l q^((k - k0)/modulus) over k in a nonempty krange.

    Walks up from the first member, or down from the last when the range is
    unbounded below (each step then multiplies by 1/q).  A finite range is
    summed directly; an infinite one is the shifted Eulerian closed form
    sum_t C(l,t) k0^(l-t) step^t A_t(r)/(1-r)^(t+1), r the ratio per step;
    it diverges (DivergentError) unless |r| < 1.
    """
    if krange.lo is None and krange.hi is not None:
        k0, step, ratio = krange.last(), -krange.modulus, 1 / q
    else:
        k0, step, ratio = krange.first(), krange.modulus, q
    if krange.lo is not None and krange.hi is not None:
        return k0, sum(Fraction(k) ** l * ratio**j for j, k in enumerate(krange.members()))
    if abs(ratio) >= 1:
        raise DivergentError(f"sum to +infinity diverges for y = {ratio}")
    s = Fraction(0)
    for t in range(l + 1):
        tail = _poly_at(eulerian_polynomial(t), ratio) / (1 - ratio) ** (t + 1)
        s += comb(l, t) * Fraction(k0) ** (l - t) * Fraction(step) ** t * tail
    return k0, s


def _shell_power_sum(p: int, a: int, n: int, l: int, krange: KRange) -> RootScaledValue:
    """sum of k^l * p^(-k(n+a)/n) over k in krange; the caller guarantees
    convergence (n + a > 0 toward +inf, n + a < 0 toward -inf).

    Every k in the range is congruent mod n, so k(n+a)/n has one fractional
    part and the sum is a single monomial with a rational coefficient.
    """
    if krange.is_empty():
        return RootScaledValue.zero(p)
    w = n + a
    k0, s = _progression_series(l, krange, power_norm(p, -w))
    return RootScaledValue.monomial(p, Fraction(k0 * w, n), s)


def shell_sum(term: TermOnCell, krange: KRange,
              ctx: PrimeContext) -> tuple[RootScaledValue, bool]:
    """Exact integral of a term over the shells v(u) = k, u in lam*P_n, k in krange.

    Value = coeff * eps * |lam^(-a)|^(1/n) * sum_k k^l p^(-k(n+a)/n), with eps
    the exact shell density.  Divergence is in-band: (0, False).
    """
    p = ctx.p
    zero = RootScaledValue.zero(p)
    if krange.modulus != term.n:
        raise ValueError("krange modulus must match the coset order n")
    if krange.is_empty():
        return zero, True
    if term.lam == 0:
        raise ZeroCosetError("shell_sum needs lambda != 0 (or an empty range)")
    if not decide_integrability(term, krange):
        return zero, False
    vlam = int(valuation(term.lam, ctx))
    if krange.residue != vlam % term.n:
        return zero, True  # every shell in the range misses the coset
    eps = unit_coset_density(term.lam, term.n, ctx)
    prefix = term.coefficient.scale(eps) * RootScaledValue.monomial(
        p, Fraction(-term.a * vlam, term.n))
    return prefix * _shell_power_sum(p, term.a, term.n, term.l, krange), True


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


def _constant_value(poly, what: str) -> Fraction:
    if not poly.is_constant():
        raise CertificateMismatchError(f"{what} must be constant for explicit towers")
    return poly.constant_value()


def level_krange(level, ctx: PrimeContext) -> KRange:
    """Valuation range of an explicit (constant-data) cell level."""
    coset = level.coset
    if coset.lam == 0:
        raise ZeroCosetError("point levels have no valuation range")
    vlam = int(valuation(coset.lam, ctx))

    def bound_val(bound, name):
        if bound is None:
            return None, True
        value = _constant_value(bound.expr, name)
        if value == 0:
            raise BoundVanishedError(f"{name} bound vanishes")
        return int(valuation(value, ctx)), bound.strict

    v_alpha, alpha_strict = bound_val(level.lower, "alpha")
    v_beta, beta_strict = bound_val(level.upper, "beta")
    return krange_from_bounds(v_alpha, alpha_strict, v_beta, beta_strict, vlam, coset.n)


def integrate_explicit_tower(terms: Sequence[CellTermSpec],
                             cert: "DecompositionCertificate",
                             ctx: PrimeContext) -> tuple[RootScaledValue, bool]:
    """Integrate cell-adapted terms over an explicit-tower certificate.

    Innermost levels are shell-summed first and each level contributes a
    constant factor (explicit towers are products of 1-d fibers); the total
    is the sum over cells.  Any divergent contribution makes the whole
    integral (0, False), matching the convention that non-integrable
    functions integrate to zero.
    """
    p = ctx.p
    zero = RootScaledValue.zero(p)
    total = zero
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
        cellval = RootScaledValue.from_rational(spec.coeff, p)
        for level, (a, l) in reversed(list(zip(tower.levels, spec.levels))):
            if level.coset.lam == 0:
                cellval = zero  # graph fibers carry Haar measure 0
                continue
            term = TermOnCell(RootScaledValue.from_rational(1, p),
                              a, level.coset.n, l, Fraction(level.coset.lam))
            krange = level_krange(level, ctx)
            value, ok = shell_sum(term, krange, ctx)
            if not ok:
                return zero, False
            cellval = cellval * value
        total = total + cellval
    return total, True


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
    y = Fraction(y)
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
    k0, s = _progression_series(l, krange, y**krange.modulus)
    return y**k0 * s


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
