"""Exponential sums, local singular series, the Fourier identity, and
decay-rate fitting.

Sums are finite and exact up to complex-double roundoff: once the level
exceeds -v(y) the integrand is constant on residue classes, so the residue
sum IS the integral.  Accumulation uses deterministic pairwise reduction.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import AllVanishedError, BudgetExceededError
from .oracle import (
    DEFAULT_BUDGET,
    _infer_arity,
    _modular_terms,
    count_solutions,
    eval_poly_mod,
    solution_histogram,
)
from .padic_core import INF, PrimeContext, residue, valuation
from .polynomials import Polynomial

VANISH_THRESHOLD = 1e-13

CharacterValue = complex


@dataclass
class ExpSumResult:
    y: tuple[Fraction, ...]
    level: int
    value: complex
    n: int
    r: int
    p: int

    def modulus(self) -> float:
        return abs(self.value)


@dataclass
class DecayFit:
    p: int
    alpha_hat: float
    c_hat: float
    samples: list[tuple[int, float]]  # (m, |E|)
    max_bound_violation: float
    vanished: list[int]
    values: list[tuple[int, complex]] = field(default_factory=list)  # (m, E) for every m


def additive_character(x, ctx: PrimeContext) -> CharacterValue:
    """psi(x) = exp(2 pi i {x}_p), the standard character, trivial on Z_p."""
    x = Fraction(x)
    v = valuation(x, ctx)
    if v is INF or v >= 0:
        return complex(1.0, 0.0)
    e = -int(v)
    pe = ctx.p**e
    r = residue(x * pe, e, ctx)
    return cmath.exp(2j * math.pi * r / pe)


def _pairwise_sum(values: list[complex]) -> complex:
    if not values:
        return complex(0.0)
    while len(values) > 1:
        values = [values[i] + values[i + 1] if i + 1 < len(values) else values[i]
                  for i in range(0, len(values), 2)]
    return values[0]


class _ComplexAccumulator:
    """Deterministic chunked pairwise summation."""

    def __init__(self, chunk: int = 4096):
        self.chunk = chunk
        self.pending: list[complex] = []
        self.partials: list[complex] = []

    def add(self, v: complex):
        self.pending.append(v)
        if len(self.pending) >= self.chunk:
            self.partials.append(_pairwise_sum(self.pending))
            self.pending = []

    def total(self) -> complex:
        if self.pending:
            self.partials.append(_pairwise_sum(self.pending))
            self.pending = []
        return _pairwise_sum(self.partials)


def _required_level(ys: Sequence[Fraction], ctx: PrimeContext) -> int:
    """m = max(0, -v(y_i)): the level at which psi(<y, f(x)>) is constant on classes."""
    required = 0
    for yi in ys:
        v = valuation(yi, ctx)
        if v is not INF and v < 0:
            required = max(required, -int(v))
    return required


def exp_sum(fs: Sequence[Polynomial], y: Sequence, ctx: PrimeContext,
            n: int | None = None, level: int | None = None,
            budget: int = DEFAULT_BUDGET) -> ExpSumResult:
    """E(y) = p^(-nm) sum over x mod p^m of psi(<y, f(x)>), m = max(0, -v(y_i)).

    Exact as an integral over Z_p^n once m is large enough (over-refining via
    the level override cannot change the value); evaluated in complex doubles
    with deterministic summation order.
    """
    p = ctx.p
    ys = tuple(Fraction(v) for v in y)
    if len(ys) != len(fs):
        raise ValueError("y must have one component per polynomial")
    arity = _infer_arity(fs, n)
    required = _required_level(ys, ctx)
    m = required if level is None else level
    if m < required:
        raise ValueError(f"level {m} below the required {required}")
    if m == 0:
        return ExpSumResult(ys, 0, complex(1.0, 0.0), arity, len(fs), p)
    if p ** (m * arity) > budget:
        raise BudgetExceededError(
            f"{p}^{m * arity} evaluation points exceed the budget of {budget}")
    pm = p**m
    coeffs = [residue(yi * pm, m, ctx) for yi in ys]
    systems = [_modular_terms(f, pm, p) for f in fs]
    table = [cmath.exp(2j * math.pi * j / pm) for j in range(pm)]
    acc = _ComplexAccumulator()
    for pt in itertools.product(range(pm), repeat=arity):
        phase = 0
        for c, terms in zip(coeffs, systems):
            phase = (phase + c * eval_poly_mod(terms, pt, pm)) % pm
        acc.add(table[phase])
    value = acc.total() / pm**arity
    return ExpSumResult(ys, m, value, arity, len(fs), p)


def normalized_kloosterman(fs: Sequence[Polynomial], a: Sequence[int],
                           m: Sequence[int], ctx: PrimeContext,
                           n: int | None = None,
                           budget: int = DEFAULT_BUDGET) -> complex:
    """E(a, m): the exponential sum at y_i = a_i * p^(-m_i), a_i prime to p."""
    if len(a) != len(fs) or len(m) != len(fs):
        raise ValueError("a and m must have one entry per polynomial")
    for ai in a:
        if math.gcd(int(ai), ctx.p) != 1:
            raise ValueError(f"a = {ai} is not prime to p = {ctx.p}")
    for mi in m:
        if mi < 1:
            raise ValueError("levels m_i must be positive")
    y = [Fraction(int(ai), ctx.p ** int(mi)) for ai, mi in zip(a, m)]
    return exp_sum(fs, y, ctx, n=n, budget=budget).value


def singular_series(fs: Sequence[Polynomial], z: Sequence, m: int,
                    ctx: PrimeContext, n: int | None = None,
                    budget: int = DEFAULT_BUDGET) -> Fraction:
    """F_m(z) = p^(-m(n-r)) N_m(z): the normalized solution count of f(x) = z.

    For regular values this stabilizes in m; stabilization is tested by the
    caller, never assumed.
    """
    p = ctx.p
    arity = _infer_arity(fs, n)
    zres = [residue(Fraction(zi), m, ctx) for zi in z]
    count = count_solutions(fs, zres, m, ctx, n=arity, budget=budget)
    scale = m * (arity - len(fs))
    return Fraction(count) * (Fraction(1, p**scale) if scale >= 0 else Fraction(p**-scale))


def fourier_check(fs: Sequence[Polynomial], y: Sequence, ctx: PrimeContext,
                  n: int | None = None,
                  budget: int = DEFAULT_BUDGET) -> tuple[complex, complex, float]:
    """Both sides of E(y) = sum_z F_m(z) p^(-rm) psi(<y,z>), finitely.

    The two sides regroup the same finite sum over fibers, so the reported
    difference is pure floating-point roundoff.
    """
    p = ctx.p
    ys = tuple(Fraction(v) for v in y)
    arity = _infer_arity(fs, n)
    r = len(fs)
    required = _required_level(ys, ctx)
    lhs = exp_sum(fs, ys, ctx, n=arity, budget=budget).value
    if required == 0:
        return lhs, complex(1.0, 0.0), abs(lhs - 1.0)
    m = required
    pm = p**m
    hist = solution_histogram(fs, m, ctx, n=arity, budget=budget)
    coeffs = [residue(yi * pm, m, ctx) for yi in ys]
    table = [cmath.exp(2j * math.pi * j / pm) for j in range(pm)]
    acc = _ComplexAccumulator()
    for z, count in sorted(hist.items()):
        phase = 0
        for c, zi in zip(coeffs, z):
            phase = (phase + c * zi) % pm
        acc.add(count * table[phase])
    rhs = acc.total() / pm**arity
    return lhs, rhs, abs(lhs - rhs)


def decay_fit(fs: Sequence[Polynomial], direction: Sequence, m_range: tuple[int, int],
              ctx: PrimeContext, n: int | None = None,
              budget: int = DEFAULT_BUDGET) -> DecayFit:
    """Fit |E(u p^(-m))| ~ c |y|^alpha along a unit direction u, m in [m1, m2].

    alpha_hat is the least-squares slope of log_p|E| against m (|y| = p^m);
    c_hat is the max of |E| |y|^(-alpha_hat) so the fitted bound holds on
    every sample.  Samples below 1e-13 are excluded and reported as exact
    vanishing; if all vanish the fit is undefined (AllVanishedError).
    """
    m1, m2 = m_range
    if not 1 <= m1 < m2:
        raise ValueError("need m2 > m1 >= 1")
    us = tuple(Fraction(u) for u in direction)
    if len(us) != len(fs):
        raise ValueError("direction must have one component per polynomial")
    for u in us:
        if valuation(u, ctx) != 0:
            raise ValueError(f"direction component {u} is not a unit")
    p = ctx.p
    samples: list[tuple[int, float]] = []
    vanished: list[int] = []
    values: list[tuple[int, complex]] = []
    for m in range(m1, m2 + 1):
        y = [u * Fraction(1, p**m) for u in us]
        res = exp_sum(fs, y, ctx, n=n, budget=budget)
        values.append((m, res.value))
        mod = abs(res.value)
        if mod < VANISH_THRESHOLD:
            vanished.append(m)
        else:
            samples.append((m, mod))
    if not samples:
        raise AllVanishedError("every sample vanished; the sum has exact decay")
    if len(samples) == 1:
        alpha = 0.0
    else:
        xs = [m for m, _ in samples]
        ls = [math.log(v) / math.log(p) for _, v in samples]
        mx = sum(xs) / len(xs)
        my = sum(ls) / len(ls)
        alpha = sum((x - mx) * (l - my) for x, l in zip(xs, ls)) / \
            sum((x - mx) ** 2 for x in xs)
    c_hat = max(v * p ** (-m * alpha) for m, v in samples)
    violation = max(
        (v - c_hat * min(p ** (m * alpha), 1.0) for m, v in samples), default=0.0)
    return DecayFit(p=p, alpha_hat=alpha, c_hat=c_hat, samples=samples,
                    max_bound_violation=max(0.0, violation), vanished=vanished,
                    values=values)


def bound_check(fit: DecayFit, slack: float = 1e-9) -> bool:
    """Every sample satisfies |E| <= c_hat * min{|y|^alpha_hat, 1} (with slack)."""
    if not fit.samples:
        raise ValueError("fit has no non-vanished samples")
    return all(
        v <= fit.c_hat * min(fit.p ** (m * fit.alpha_hat), 1.0) * (1 + slack)
        for m, v in fit.samples)


def dominance_warning(fs: Sequence[Polynomial], ctx: PrimeContext,
                      n: int | None = None, seed: int = 0) -> str | None:
    """Heuristic Jacobian-rank check at random rational points.

    Returns a warning string when the Jacobian never reaches full rank r at
    the sampled points (the map is then likely not dominant); None otherwise.
    This is advisory, not a decision procedure.
    """
    arity = _infer_arity(fs, n)
    r = len(fs)
    if r > arity:
        return f"map has {r} components in {arity} variables; cannot be dominant"
    rng = random.Random(seed)
    jac = [[f.derivative(j) for j in range(arity)] for f in fs]
    best = 0
    for _ in range(8):
        pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(arity)]
        rows = [[cell.eval(pt) for cell in row] for row in jac]
        best = max(best, _rank(rows))
        if best >= r:
            return None
    return (f"Jacobian rank stayed at {best} < {r} on sampled points; "
            "the map may not be dominant")


def _rank(rows: list[list[Fraction]]) -> int:
    mat = [row[:] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank
