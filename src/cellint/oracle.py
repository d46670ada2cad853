"""Brute-force ground truth: residue-sum Riemann approximations, Monte-Carlo
estimation, and exact solution counting modulo p^m.

Residue classes are always lifted to their least nonnegative integer
representatives, so every result is reproducible bit for bit.  Integrands
are evaluated by formula_dsl.compile_expr at the enumeration level: points
where a norm/val carrier is 0 mod p^m are counted as ambiguous, the lift
decides the contribution, and the caller drives the level high enough that
the count vanishes (or tolerates it).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Sequence

from .cells import CellTower, membership
from .errors import BudgetExceededError, NonIntegralCoefficientsError
from .formula_dsl import ExactValue, QExpExpr, _vadd, compile_expr
from .padic_core import (
    INF,
    PrimeContext,
    _unit_nth_power_residues,
    hensel_level,
    int_valuation,
    power_norm,
    residue,
    valuation,
)
from .polynomials import Polynomial
from .qexp_sum import level_krange
from .rootval import RootScaledValue

DEFAULT_BUDGET = 10**8


@dataclass
class OracleResult:
    value: ExactValue
    level: int
    ambiguous_count: int

    def real_value(self) -> float:
        if isinstance(self.value, RootScaledValue):
            return self.value.real_value()
        return float(self.value)


# -- fast membership for explicit one-level cells -----------------------------------


def _fast_domain_filter(domain: CellTower, ctx: PrimeContext, level: int):
    """Precompiled (member, ambiguous) test for integer lifts, or None.

    Only for one-level towers with constant integer center and constant
    bounds; semantically identical to cells.membership (tested), just
    avoiding per-point polynomial and Fraction work.
    """
    if len(domain.levels) != 1:
        return None
    lv = domain.levels[0]
    if not lv.center.is_constant():
        return None
    center = lv.center.constant_value()
    if center.denominator != 1:
        return None
    c = int(center)
    coset = lv.coset
    p = ctx.p
    if coset.lam == 0:
        def run_point(r: int):
            diff = r - c
            v = int_valuation(diff, p)
            amb = v is INF or v >= level
            return diff == 0, amb
        return run_point
    try:
        krange = level_krange(lv, ctx)
    except Exception:
        return None
    m_hensel = hensel_level(coset.n, p)
    pm = p**m_hensel
    powers = _unit_nth_power_residues(p, coset.n, m_hensel)
    mu_inv = pow(residue(coset.lam * power_norm(p, -int(valuation(coset.lam, ctx))),
                         m_hensel, ctx), -1, pm)
    margin = level - m_hensel

    def run(r: int):
        diff = r - c
        v = int_valuation(diff, p)
        if v is INF:
            return False, True
        v = int(v)
        amb = v > margin
        if not krange.contains(v):
            return False, amb
        unit = diff // p**v if diff > 0 else -((-diff) // p**v)
        return (unit * mu_inv) % pm in powers, amb

    return run


# -- operations --------------------------------------------------------------------


def _check_budget(p: int, level: int, arity: int, budget: int):
    if p ** (level * arity) > budget:
        raise BudgetExceededError(
            f"{p}^{level * arity} residue points exceed the budget of {budget}")


def riemann_integrate(e: QExpExpr, arity: int, level: int, ctx: PrimeContext,
                      domain: CellTower | None = None,
                      budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Riemann sum over all residue classes mod p^level of Z_p^arity.

    Each class contributes p^(-arity*level) times the integrand value at its
    least nonnegative integer lift; an optional explicit cell restricts the
    domain (classes are included iff their lift is a member, and classes the
    level cannot decide are counted ambiguous).
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    p = ctx.p
    _check_budget(p, level, arity, budget)
    run = compile_expr(e, ctx, level)
    total: ExactValue = Fraction(0)
    ambiguous = 0
    pm = p**level
    fast = None
    if domain is not None and arity == 1:
        fast = _fast_domain_filter(domain, ctx, level)
    for pt in itertools.product(range(pm), repeat=arity):
        if domain is not None:
            if fast is not None:
                member, amb = fast(pt[0])
            else:
                member, amb = membership(domain, pt, ctx, level)
            if amb:
                ambiguous += 1
            if not member:
                continue
            value, amb_v = run(pt)
            if amb_v and not amb:
                ambiguous += 1
        else:
            value, amb_v = run(pt)
            if amb_v:
                ambiguous += 1
        total = _vadd(total, value, p)
    weight = Fraction(1, p ** (arity * level))
    if isinstance(total, RootScaledValue):
        value: ExactValue = total.scale(weight)
        if value.is_rational():
            value = value.as_exact_rational()
    else:
        value = total * weight
    return OracleResult(value=value, level=level, ambiguous_count=ambiguous)


def monte_carlo_integrate(e: QExpExpr, arity: int, samples: int, seed: int,
                          ctx: PrimeContext,
                          level: int | None = None) -> tuple[float, float]:
    """Seeded Monte-Carlo estimate (mean, standard error) over Z_p^arity.

    Points are uniform independent residues at the configured level, lifted;
    results are deterministic for a fixed seed.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    level = ctx.default_level if level is None else level
    rng = random.Random(seed)
    run = compile_expr(e, ctx, level)
    pm = ctx.p**level
    values = []
    for _ in range(samples):
        pt = tuple(rng.randrange(pm) for _ in range(arity))
        v, _amb = run(pt)
        values.append(v.real_value() if isinstance(v, RootScaledValue) else float(v))
    mean = sum(values) / samples
    var = sum((v - mean) ** 2 for v in values) / (samples - 1)
    return mean, sqrt(var / samples)


def _modular_terms(poly: Polynomial, modulus: int, p: int):
    """Coefficients reduced mod modulus; p-integrality enforced."""
    out = []
    for exps, coeff in poly.terms:
        if coeff.denominator % p == 0:
            raise NonIntegralCoefficientsError(
                f"coefficient {coeff} is not p-integral at p = {p}")
        c = coeff.numerator * pow(coeff.denominator, -1, modulus) % modulus
        out.append((exps, c))
    return out


def eval_poly_mod(terms, point: Sequence[int], modulus: int) -> int:
    total = 0
    for exps, c in terms:
        term = c
        for x, k in zip(point, exps):
            if k:
                term = term * pow(x, k, modulus) % modulus
        total = (total + term) % modulus
    return total


def _infer_arity(fs: Sequence[Polynomial], n: int | None) -> int:
    if n is not None:
        return n
    return max((f.max_variable() for f in fs), default=1) or 1


def count_solutions(fs: Sequence[Polynomial], z: Sequence[int], m: int,
                    ctx: PrimeContext, n: int | None = None,
                    budget: int = DEFAULT_BUDGET) -> int:
    """#{x in (Z/p^m)^n : f(x) = z mod p^m componentwise}."""
    if m < 1:
        raise ValueError("level m must be >= 1")
    p = ctx.p
    n = _infer_arity(fs, n)
    _check_budget(p, m, n, budget)
    pm = p**m
    target = tuple(int(zi) % pm for zi in z)
    if len(target) != len(fs):
        raise ValueError("z must have one residue per polynomial")
    systems = [_modular_terms(f, pm, p) for f in fs]
    count = 0
    for pt in itertools.product(range(pm), repeat=n):
        if all(eval_poly_mod(terms, pt, pm) == zi
               for terms, zi in zip(systems, target)):
            count += 1
    return count


def solution_histogram(fs: Sequence[Polynomial], m: int, ctx: PrimeContext,
                       n: int | None = None,
                       budget: int = DEFAULT_BUDGET) -> dict[tuple[int, ...], int]:
    """All counts N_m(z) at once: the histogram of f(x) mod p^m over x."""
    p = ctx.p
    n = _infer_arity(fs, n)
    _check_budget(p, m, n, budget)
    pm = p**m
    systems = [_modular_terms(f, pm, p) for f in fs]
    hist: dict[tuple[int, ...], int] = {}
    for pt in itertools.product(range(pm), repeat=n):
        key = tuple(eval_poly_mod(terms, pt, pm) for terms in systems)
        hist[key] = hist.get(key, 0) + 1
    return hist


def stabilization_check(values: Sequence, levels: Sequence[int],
                        ctx: PrimeContext) -> bool:
    """True iff consecutive differences decay like C * p^(-m).

    C is anchored at the first consecutive pair, C = |v1 - v0| * p^(m0);
    every later pair must satisfy |v(m+1) - v(m)| <= C * p^(-m).  A constant
    sequence passes; sequences with non-shrinking differences fail.
    """
    if len(values) < 3:
        raise ValueError("need at least 3 levels")
    if len(values) != len(levels):
        raise ValueError("values and levels must align")
    diffs = [abs(Fraction(values[i + 1]) - Fraction(values[i]))
             for i in range(len(values) - 1)]
    c = diffs[0] * Fraction(ctx.p) ** levels[0]
    return all(d <= c * power_norm(ctx.p, -m)
               for d, m in zip(diffs, levels[:-1]))
