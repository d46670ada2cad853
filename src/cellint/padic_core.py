"""Exact arithmetic in Q_p over rational carriers.

Every p-adic quantity is carried by an exact rational (dense in Q_p);
valuations, norms, residues and n-th-power coset data are all computed
exactly, never approximated.  n-th-power cosets come in closed form from
Z_p^x = mu_(p-1) x (1+pZ_p), decided mod p^(v_p(n)+1) (mod 2^(v_2(n)+2) at
p = 2) without enumerating unit residues.  check_budget is the one guard on
how many residue classes mod p^m any enumeration (oracles, certificate
checks, exponential sums) may decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import (BudgetExceededError, InvalidArgumentError, NotPIntegralError,
                     ZeroCosetError, ZeroInputError)

PadicScalar = Union[Fraction, int]
Valuation = Union[int, float]  # finite int, or math.inf for v(0)

INF = math.inf

# Deterministic Miller-Rabin base set, valid for all n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed bases)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise InvalidArgumentError(f"primality check only deterministic below {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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
            raise InvalidArgumentError(f"p = {self.p} is not prime")
        if self.default_level < 1:
            raise InvalidArgumentError("default_level must be >= 1")


DEFAULT_BUDGET = 10**8


def check_budget(p: int, level: int, arity: int, budget: int):
    """Refuse to enumerate the p^(level*arity) residue classes of Z_p^arity
    mod p^level when they exceed the budget."""
    if p ** (level * arity) > budget:
        raise BudgetExceededError(
            f"{p}^{level * arity} residue points exceed the budget of {budget}")


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
        raise InvalidArgumentError("level m must be >= 1")
    x = as_rational(x)
    pm = ctx.p**m
    if x.denominator % ctx.p == 0:
        raise NotPIntegralError(f"{x} has negative valuation at p = {ctx.p}")
    return x.numerator * pow(x.denominator, -1, pm) % pm


def hensel_level(n: int, p: int) -> int:
    """Ambiguity margin M of the cell plans' n-th-power coset tests.

    M = 2*v_p(n) + 1 for odd p and 2*v_2(n) + 3 for p = 2; membership itself
    is decided mod p^(v_p(n)+1), or mod 2^(v_2(n)+2) at p = 2 (_power_test).
    """
    e = int(int_valuation(n, p)) if n % p == 0 else 0
    return 2 * e + 3 if p == 2 else 2 * e + 1


def _power_test(n: int, p: int) -> tuple[int, int, int]:
    """(k, level, index): a unit u is an n-th power iff u^k = 1 mod p^level,
    u^k mod p^level names its coset, and the n-th powers have that index.

    With e = v_p(n), g = gcd(n, p-1), Z_p^x = mu_(p-1) x (1 + pZ_p) gives
    the n-th powers mu_(p-1)^g x (1 + p^(e+1)Z_p) for odd p (index g*p^e),
    all of Z_2^x for odd n and 1 + 2^(e+2)Z_2 for even n (index 2^(e+1)).
    """
    e = int(int_valuation(n, p)) if n % p == 0 else 0
    if p == 2:
        return (1, e + 2, 2 ** (e + 1)) if e else (1, 1, 1)
    g = math.gcd(n, p - 1)
    return (p - 1) // g, e + 1, g * p**e


def is_nth_power(x: PadicScalar, n: int, ctx: PrimeContext) -> bool:
    """Decide x in P_n (the n-th powers of Q_p^x) for nonzero rational x.

    False unless n | v(x); the unit part is then tested in closed form
    mod p^(v_p(n)+1), or mod 2^(v_2(n)+2) at p = 2 (_power_test).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = as_rational(x)
    if x == 0:
        raise ZeroInputError("0 is not in any P_n")
    v = int(valuation(x, ctx))
    if v % n != 0:
        return False
    k, level, _ = _power_test(n, ctx.p)
    return pow(residue(unit_part(x, ctx), level, ctx), k, ctx.p**level) == 1


def coset_membership(x: PadicScalar, lam: PadicScalar, n: int, ctx: PrimeContext) -> bool:
    """x in lam * P_n, with the convention 0 * P_n = {0}."""
    x, lam = as_rational(x), as_rational(lam)
    if lam == 0:
        return x == 0
    if x == 0:
        return False
    return is_nth_power(x / lam, n, ctx)


def unit_coset_density(lam: PadicScalar, n: int, ctx: PrimeContext) -> Fraction:
    """The rational epsilon with Measure{v(u)=k, u in lam*P_n} = eps * p^(-k).

    Every unit coset of P_n has the same measure, so eps = (1 - 1/p) / index
    with the index of the n-th powers in Z_p^x from _power_test, whatever
    lam is (k and the coset representative only shift and scale the shell).
    """
    if as_rational(lam) == 0:
        raise ZeroCosetError("coset scalar lambda must be nonzero")
    return Fraction(ctx.p - 1, ctx.p * _power_test(n, ctx.p)[2])


def shell_coset_measure(lam: PadicScalar, n: int, k: int, ctx: PrimeContext) -> Fraction:
    """Haar measure of {u in Q_p : v(u) = k, u in lam*P_n}.

    Zero when k is incompatible with v(lam) mod n, else eps * p^(-k).
    """
    eps = unit_coset_density(lam, n, ctx)
    if (k - int(valuation(lam, ctx))) % n != 0:
        return Fraction(0)
    return eps * power_norm(ctx.p, -k)


def coset_representatives(n: int, ctx: PrimeContext) -> list[Fraction]:
    """Representatives of the cosets of P_n in Q_p^x.

    Returns p^j * u for j = 0..n-1 and u the least positive unit of each
    unit coset, named by u^k mod p^level (_power_test).
    """
    p = ctx.p
    k, level, index = _power_test(n, p)
    pm = p**level
    firsts: dict[int, int] = {}
    u = 0
    while len(firsts) < index:
        u += 1
        if u % p:
            firsts.setdefault(pow(u, k, pm), u)
    return [Fraction(u * p**j) for j in range(n) for u in firsts.values()]
