"""Exact arithmetic in Q_p over rational carriers.

Every p-adic quantity is carried by an exact rational (dense in Q_p);
valuations, norms, residues and n-th-power coset data are all computed
exactly, never approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import NotPIntegralError, ZeroCosetError, ZeroInputError

PadicScalar = Union[Fraction, int]
Valuation = Union[int, float]  # finite int, or math.inf for v(0)

INF = math.inf

# Deterministic Miller-Rabin witness set, valid for all n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise ValueError(f"primality check only deterministic below {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeContext:
    """Fixes the prime p (residue field size q = p) and a working level.

    Unramified or ramified extensions are out of scope: q = p and the
    uniformizer is p itself.
    """

    p: int
    default_level: int = 6

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.default_level < 1:
            raise ValueError("default_level must be >= 1")


def as_rational(x: PadicScalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def int_valuation(n: int, p: int) -> Valuation:
    """v_p of an integer; INF for 0."""
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(x: PadicScalar, ctx: PrimeContext) -> Valuation:
    """Exact p-adic valuation; +inf iff x = 0."""
    x = as_rational(x)
    if x == 0:
        return INF
    return int_valuation(x.numerator, ctx.p) - int_valuation(x.denominator, ctx.p)


def norm(x: PadicScalar, ctx: PrimeContext) -> Fraction:
    """|x| = p^(-v(x)) as an exact rational; 0 for x = 0."""
    v = valuation(x, ctx)
    if v is INF:
        return Fraction(0)
    return power_norm(ctx.p, -v)


def power_norm(p: int, e: int) -> Fraction:
    """p^e as an exact Fraction for any integer e."""
    return Fraction(p**e) if e >= 0 else Fraction(1, p**-e)


def unit_part(x: PadicScalar, ctx: PrimeContext) -> Fraction:
    """x * p^(-v(x)), a p-adic unit; x must be nonzero."""
    x = as_rational(x)
    if x == 0:
        raise ZeroInputError("unit part of 0 is undefined")
    v = valuation(x, ctx)
    return x * power_norm(ctx.p, -int(v))


def residue(x: PadicScalar, m: int, ctx: PrimeContext) -> int:
    """Canonical representative of x mod p^m, in [0, p^m).

    Requires v(x) >= 0; the prime-to-p part of the denominator is
    inverted mod p^m.
    """
    if m < 1:
        raise ValueError("level m must be >= 1")
    x = as_rational(x)
    pm = ctx.p**m
    if x.denominator % ctx.p == 0:
        raise NotPIntegralError(f"{x} has negative valuation at p = {ctx.p}")
    return x.numerator * pow(x.denominator, -1, pm) % pm


def hensel_level(n: int, p: int) -> int:
    """Residue precision M at which n-th-power membership of units is decided.

    M = 2*v_p(n) + 1 for odd p and 2*v_2(n) + 3 for p = 2; sufficiency is
    exercised by the stability tests rather than assumed.
    """
    e = int(int_valuation(n, p)) if n % p == 0 else 0
    return 2 * e + 3 if p == 2 else 2 * e + 1


@lru_cache(maxsize=None)
def _unit_nth_power_residues(p: int, n: int, level: int) -> frozenset:
    """Residues mod p^level of n-th powers of units."""
    pm = p**level
    return frozenset(pow(u, n, pm) for u in range(1, pm) if u % p)


def is_nth_power(x: PadicScalar, n: int, ctx: PrimeContext, level: int | None = None) -> bool:
    """Decide x in P_n (the n-th powers of Q_p^x) for nonzero rational x.

    False unless n | v(x); the unit part is then tested against the n-th
    power unit residues mod p^M with M from hensel_level (or the given
    override, used by the stability tests).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = as_rational(x)
    if x == 0:
        raise ZeroInputError("0 is not in any P_n")
    v = int(valuation(x, ctx))
    if v % n != 0:
        return False
    m = hensel_level(n, ctx.p) if level is None else level
    u = residue(unit_part(x, ctx), m, ctx)
    return u in _unit_nth_power_residues(ctx.p, n, m)


def coset_membership(x: PadicScalar, lam: PadicScalar, n: int, ctx: PrimeContext) -> bool:
    """x in lam * P_n, with the convention 0 * P_n = {0}."""
    x, lam = as_rational(x), as_rational(lam)
    if lam == 0:
        return x == 0
    if x == 0:
        return False
    return is_nth_power(x / lam, n, ctx)


def unit_coset_density(lam: PadicScalar, n: int, ctx: PrimeContext,
                       level: int | None = None) -> Fraction:
    """The rational epsilon with Measure{v(u)=k, u in lam*P_n} = eps * p^(-k).

    Computed by exact residue counting at level M: the density of unit
    residues u mod p^M with u / unit(lam) an n-th power mod p^M.  The count
    is independent of k (shells scale) and of the coset representative.
    """
    lam = as_rational(lam)
    if lam == 0:
        raise ZeroCosetError("coset scalar lambda must be nonzero")
    p = ctx.p
    m = hensel_level(n, p) if level is None else level
    pm = p**m
    powers = _unit_nth_power_residues(p, n, m)
    mu_inv = pow(residue(unit_part(lam, ctx), m, ctx), -1, pm)
    count = sum(1 for u in range(1, pm) if u % p and (u * mu_inv) % pm in powers)
    return Fraction(count, pm)


def shell_coset_measure(lam: PadicScalar, n: int, k: int, ctx: PrimeContext,
                        level: int | None = None) -> Fraction:
    """Haar measure of {u in Q_p : v(u) = k, u in lam*P_n}.

    Zero when k is incompatible with v(lam) mod n, else eps * p^(-k).
    """
    lam = as_rational(lam)
    if lam == 0:
        raise ZeroCosetError("coset scalar lambda must be nonzero")
    if (k - int(valuation(lam, ctx))) % n != 0:
        return Fraction(0)
    return unit_coset_density(lam, n, ctx, level=level) * power_norm(ctx.p, -k)


def coset_representatives(n: int, ctx: PrimeContext) -> list[Fraction]:
    """Representatives of the cosets of P_n in Q_p^x.

    Returns p^j * u for j = 0..n-1 and u running over unit-class
    representatives found by exact residue enumeration.
    """
    p = ctx.p
    m = hensel_level(n, p)
    pm = p**m
    powers = _unit_nth_power_residues(p, n, m)
    unit_reps: list[int] = []
    for u in range(1, pm):
        if u % p == 0:
            continue
        if all((u * pow(r, -1, pm)) % pm not in powers for r in unit_reps):
            unit_reps.append(u)
    return [Fraction(u * p**j) for j in range(n) for u in unit_reps]
