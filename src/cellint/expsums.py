"""Exponential sums, local singular series, the Fourier identity, and
decay-rate fitting, over Z_p^n for n the highest variable of the polynomials
(at least 1): a higher n would give the same values from p^(m*extra) times more
points.

E(y) is held exactly.  Once the level m reaches -v(y) the integrand is
constant on residue classes, so the residue sum IS the integral:
E(y) = p^(-nm) sum_j c_j zeta^j with zeta = exp(2 pi i / p^m) and the phase
counts c_j = #{x mod p^m : <y p^m, f(x)> = j mod p^m}, read off
oracle._values_mod, the column-at-a-time enumeration (difference tables in
the last two variables) behind oracle.solution_histogram.
Vanishing is decided on the counts, not on a float: sum_j c_j zeta^j = 0
iff c is constant on every coset j + p^(m-1) Z/p^m, because the cyclotomic
polynomial Phi_(p^m) is the minimal polynomial of zeta.  The complex value
adds the p^(nm) characters in enumeration order, pairwise within each chunk
of oracle._CHUNK points and then over the chunk sums, so it is fixed bit for bit.
decay_fit adds its floats left to right, as sum() did before Python 3.12.

Each level is enumerated at most once per call.  _exp_sums keys the ys of one
level by their phase coefficients divided by the first unit among them, and
evaluates each key from one enumeration: the ys of a key are unit multiples rho
of one another (every direction of a one-polynomial decay_fits), and the
relabelled table j -> table[rho j] over the same column gives the floats of a
separate enumeration bit for bit.  fourier_check with one polynomial
reads the value histogram off the left side's phase counts, and
singular_values reads every z off one solution_histogram.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, mul
from typing import Sequence

from .errors import AllVanishedError, InvalidArgumentError
from .oracle import (
    _arity,
    _modular_view,
    _values_mod,
    _solution_target,
    solution_histogram,
)
from .padic_core import DEFAULT_BUDGET, INF, PrimeContext, check_budget, residue, valuation
from .polynomials import Polynomial

CharacterValue = complex


@dataclass
class ExpSumResult:
    y: tuple[Fraction, ...]
    level: int
    value: complex
    n: int
    r: int
    p: int
    phases: dict[int, int] = field(default_factory=dict)  # j -> c_j > 0, the exact value

    def vanishes(self) -> bool:
        """E(y) = 0 exactly: the phase counts are constant on every coset
        j + p^(m-1) Z/p^m."""
        if not self.level:
            return False
        pm = self.p**self.level
        step = pm // self.p
        return all(self.phases.get((j + step) % pm, 0) == c for j, c in self.phases.items())


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


CHARACTER_TABLE_CACHE_SIZE = 16  # moduli p^m whose character tables stay built
BOUND_SLACK = 1e-9  # the relative float roundoff bound_check forgives a sample


@lru_cache(maxsize=CHARACTER_TABLE_CACHE_SIZE)
def _character_table(pm: int) -> tuple[complex, ...]:
    """exp(2 pi i j / p^m) for j = 0 .. p^m - 1, built once per modulus."""
    return tuple(cmath.exp(2j * math.pi * j / pm) for j in range(pm))


def _pairwise_sum(values: list[complex]) -> complex:
    """The sum of values, which is never empty."""
    while len(values) > 1:  # neighbours pairwise, an odd last value carried up
        values = list(map(add, values[0::2], values[1::2])) + values[len(values) & ~1:]
    return values[0]


def _phase_coefficients(ys: Sequence[Fraction], m: int, ctx: PrimeContext) -> list[int]:
    """y_i p^m mod p^m: the phase of f(x) = z is sum_i coeff_i z_i mod p^m."""
    return [residue(yi * ctx.p**m, m, ctx) for yi in ys]


def _required_level(ys: Sequence[Fraction], ctx: PrimeContext) -> int:
    """m = max(0, -v(y_i)): the level at which psi(<y, f(x)>) is constant on classes."""
    required = 0
    for yi in ys:
        v = valuation(yi, ctx)
        if v is not INF and v < 0:
            required = max(required, -int(v))
    return required


def exp_sum(fs: Sequence[Polynomial], y: Sequence, ctx: PrimeContext,
            level: int | None = None, budget: int = DEFAULT_BUDGET) -> ExpSumResult:
    """E(y) = p^(-nm) sum over x mod p^m of psi(<y, f(x)>), m = max(0, -v(y_i)).

    Exact as an integral over Z_p^n once m is large enough (over-refining via
    the level override cannot change the value).  The result keeps the phase
    counts c_j, the exact value, next to its complex value, evaluated in
    complex doubles with deterministic summation order.
    """
    p = ctx.p
    ys = tuple(Fraction(v) for v in y)
    if len(ys) != len(fs):
        raise InvalidArgumentError("y must have one component per polynomial")
    arity = _arity(fs)
    required = _required_level(ys, ctx)
    m = required if level is None else level
    if m < required:
        raise InvalidArgumentError(f"level {m} below the required {required}")
    if m == 0:
        return ExpSumResult(ys, 0, complex(1.0, 0.0), arity, len(fs), p, {0: 1})
    return _exp_sums(fs, [ys], m, arity, ctx, budget)[0]


def _exp_sums(fs: Sequence[Polynomial], yss: Sequence[Sequence[Fraction]], m: int,
              arity: int, ctx: PrimeContext, budget: int) -> list[ExpSumResult]:
    """E(y) at one level m >= 1 for each y of yss, every y of level at most m.

    The ys are grouped by their phase row divided by its first unit entry u (a row
    without a unit entry is its own key), so a group's rows are unit multiples of
    its first.  One enumeration of the first row's phase serves the group: a row
    with rho = u / u_first has rho times that phase column, so it adds
    table[rho j mod p^m] over the same column, chunk by chunk in the same order,
    and its counts are the first row's relabelled j -> rho j.
    """
    p = ctx.p
    check_budget(p, m, arity, budget)
    pm = p**m
    views = [_modular_view(f, pm, p) for f in fs]
    table = _character_table(pm)
    groups: dict[tuple, tuple] = {}  # key -> (first row, its 1/u, [(index, rho)])
    for k, ys in enumerate(yss):
        row = _phase_coefficients(ys, m, ctx)
        u = next((c for c in row if c % p), 1)  # the first unit entry, 1 if there is none
        u_inverse = pow(u, -1, pm)
        _, lead_inverse, members = groups.setdefault(
            tuple(c * u_inverse % pm for c in row), (row, u_inverse, []))
        members.append((k, u * lead_inverse % pm))
    results: list = [None] * len(yss)
    for lead, _, members in groups.values():
        # <y p^m, f(x)> mod p^m as one integer view: the terms of each f_i times c_i * inverse_i
        phase = ([(e, c * inverse * a) for (terms, inverse), c in zip(views, lead)
                  for e, a in terms], 1)
        tables = [table if rho == 1 else [table[rho * j % pm] for j in range(pm)]
                  for _, rho in members]
        phases: Counter = Counter()
        partials: list[list[complex]] = [[] for _ in members]
        for (column,) in _values_mod([phase], m, arity, p):
            phases.update(column)
            for relabelled, sums in zip(tables, partials):
                sums.append(_pairwise_sum(list(map(relabelled.__getitem__, column))))
        for (k, rho), sums in zip(members, partials):
            counts = dict(phases) if rho == 1 else {rho * j % pm: c for j, c in phases.items()}
            results[k] = ExpSumResult(tuple(yss[k]), m, _pairwise_sum(sums) / pm**arity,
                                      arity, len(fs), p, counts)
    return results


def normalized_kloosterman(fs: Sequence[Polynomial], a: Sequence[int],
                           m: Sequence[int], ctx: PrimeContext,
                           budget: int = DEFAULT_BUDGET) -> complex:
    """E(a, m): the exponential sum at y_i = a_i * p^(-m_i), ints a_i prime to p and m_i >= 1."""
    if len(a) != len(fs) or len(m) != len(fs):
        raise InvalidArgumentError("a and m must have one entry per polynomial")
    for v in (*a, *m):
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidArgumentError(f"a and m must be integers, got {v!r}")
    for ai in a:
        if math.gcd(ai, ctx.p) != 1:
            raise InvalidArgumentError(f"a = {ai} is not prime to p = {ctx.p}")
    for mi in m:
        if mi < 1:
            raise InvalidArgumentError("levels m_i must be positive")
    if m:  # admitted at the largest m_i before any p^(m_i) is built
        check_budget(ctx.p, max(m), _arity(fs), budget)
    y = [Fraction(ai, ctx.p**mi) for ai, mi in zip(a, m)]
    return exp_sum(fs, y, ctx, budget=budget).value


def singular_series(fs: Sequence[Polynomial], z: Sequence, m: int,
                    ctx: PrimeContext, budget: int = DEFAULT_BUDGET) -> Fraction:
    """F_m(z) = p^(-m(n-r)) N_m(z): the normalized solution count of f(x) = z.

    For regular values this stabilizes in m; stabilization is tested by the
    caller, never assumed.
    """
    return singular_values(fs, [z], m, ctx, budget=budget)[0]


def singular_values(fs: Sequence[Polynomial], zs: Sequence[Sequence], m: int,
                    ctx: PrimeContext, budget: int = DEFAULT_BUDGET) -> list[Fraction]:
    """F_m(z) for each z of zs, read off one solution histogram of f mod p^m."""
    p = ctx.p
    arity = _arity(fs)
    check_budget(p, m, arity, budget)  # before any z mod p^m is built
    targets = [_solution_target(fs, z, m, ctx) for z in zs]
    hist = solution_histogram(fs, m, ctx, budget=budget)
    scale = m * (arity - len(fs))
    factor = Fraction(1, p**scale) if scale >= 0 else Fraction(p**-scale)
    return [Fraction(hist.get(target, 0)) * factor for target in targets]


def fourier_check(fs: Sequence[Polynomial], y: Sequence, ctx: PrimeContext,
                  budget: int = DEFAULT_BUDGET) -> tuple[complex, complex, float]:
    """Both sides of E(y) = sum_z F_m(z) p^(-rm) psi(<y,z>), finitely.

    The left side sums point by point, the right side fibre by fibre: the
    two regroup the same finite sum, so the reported difference is pure
    floating-point roundoff.  With one polynomial the fibre sizes are the
    left side's phase counts, relabelled; with several, solution_histogram
    enumerates them.
    """
    ys = tuple(Fraction(v) for v in y)
    required = _required_level(ys, ctx)
    left = exp_sum(fs, ys, ctx, budget=budget)
    lhs = left.value
    if required == 0:
        return lhs, complex(1.0, 0.0), abs(lhs - 1.0)
    pm = ctx.p**required
    coeffs = _phase_coefficients(ys, required, ctx)
    if len(fs) == 1:  # c = y p^m is a unit, so f(x) = c^(-1) j where the phase is j
        inverse = pow(coeffs[0], -1, pm)
        hist = {(inverse * j % pm,): count for j, count in left.phases.items()}
    else:
        hist = solution_histogram(fs, required, ctx, budget=budget)
    table = _character_table(pm)
    terms = []
    for z, count in sorted(hist.items()):
        terms.append(count * table[sum(map(mul, coeffs, z)) % pm])
    rhs = _pairwise_sum(terms) / pm**left.n
    return lhs, rhs, abs(lhs - rhs)


def decay_fit(fs: Sequence[Polynomial], direction: Sequence, m_range: tuple[int, int],
              ctx: PrimeContext, budget: int = DEFAULT_BUDGET) -> DecayFit:
    """Fit |E(u p^(-m))| ~ c |y|^alpha along a unit direction u, m in [m1, m2].

    alpha_hat is the least-squares slope of log_p|E| against m (|y| = p^m);
    c_hat is the max of |E| |y|^(-alpha_hat) so the fitted bound holds on
    every sample.  Samples where E vanishes exactly (ExpSumResult.vanishes)
    are excluded and reported; if all vanish the fit is undefined
    (AllVanishedError).
    """
    return decay_fits(fs, [direction], m_range, ctx, budget=budget)[0]


def decay_fits(fs: Sequence[Polynomial], directions: Sequence[Sequence],
               m_range: tuple[int, int], ctx: PrimeContext,
               budget: int = DEFAULT_BUDGET) -> list[DecayFit]:
    """decay_fit along each of the directions, every direction checked first.

    At each level the directions share the enumerations of _exp_sums: with one
    polynomial, u_k p^(-m) has phase coefficient rho_k c_1 with the unit
    rho_k = u_k / u_1, so all directions share one.
    """
    m1, m2 = m_range
    if not 1 <= m1 < m2:
        raise InvalidArgumentError("need m2 > m1 >= 1")
    uss = []
    for direction in directions:
        us = tuple(Fraction(u) for u in direction)
        if len(us) != len(fs):
            raise InvalidArgumentError("direction must have one component per polynomial")
        for u in us:
            if valuation(u, ctx) != 0:
                raise InvalidArgumentError(f"direction component {u} is not a unit")
        uss.append(us)
    p, arity = ctx.p, _arity(fs)
    check_budget(p, m2, arity, budget)  # before any level is summed
    levels = range(m1, m2 + 1)
    by_level = [_exp_sums(fs, [[u * Fraction(1, p**m) for u in us] for us in uss],
                          m, arity, ctx, budget) for m in levels]
    return [_fit(p, list(zip(levels, results))) for results in zip(*by_level)]


def _fit(p: int, results: list[tuple[int, ExpSumResult]]) -> DecayFit:
    """The DecayFit of the sums (m, E) along one direction."""
    samples: list[tuple[int, float]] = []
    vanished: list[int] = []
    values: list[tuple[int, complex]] = []
    for m, res in results:
        values.append((m, res.value))
        if res.vanishes():
            vanished.append(m)
        else:
            samples.append((m, abs(res.value)))
    if not samples:
        raise AllVanishedError("every sample vanished; the sum has exact decay")
    if len(samples) == 1:
        alpha = 0.0
    else:
        xs = [m for m, _ in samples]
        ls = [math.log(v) / math.log(p) for _, v in samples]
        mx = sum(xs) / len(xs)
        my = reduce(add, ls, 0) / len(ls)
        alpha = reduce(add, ((x - mx) * (l - my) for x, l in zip(xs, ls)), 0) / \
            reduce(add, ((x - mx) ** 2 for x in xs), 0)
    c_hat = max(v * p ** (-m * alpha) for m, v in samples)
    violation = max(
        (v - c_hat * min(p ** (m * alpha), 1.0) for m, v in samples), default=0.0)
    return DecayFit(p=p, alpha_hat=alpha, c_hat=c_hat, samples=samples,
                    max_bound_violation=max(0.0, violation), vanished=vanished,
                    values=values)


def bound_violations(fit: DecayFit) -> list[tuple[int, float]]:
    """The samples (m, |E|) above c_hat * min{|y|^alpha_hat, 1}, up to BOUND_SLACK."""
    return [(m, v) for m, v in fit.samples
            if v > fit.c_hat * min(fit.p ** (m * fit.alpha_hat), 1.0) * (1 + BOUND_SLACK)]


def bound_check(fit: DecayFit) -> bool:
    """Every sample satisfies |E| <= c_hat * min{|y|^alpha_hat, 1}, up to BOUND_SLACK."""
    if not fit.samples:
        raise ValueError("fit has no non-vanished samples")
    return not bound_violations(fit)


RANK_PRIME = 2**61 - 1  # dominance_warning takes the Jacobian's rank mod this prime


def dominance_warning(fs: Sequence[Polynomial], seed: int = 0) -> str | None:
    """Heuristic Jacobian-rank check at random rational points.

    Returns a warning string when the Jacobian never reaches full rank r at
    the sampled points (the map is then likely not dominant); None otherwise.
    This is advisory, not a decision procedure.  The rank is taken mod the
    prime q = RANK_PRIME (jacobian_rank_mod), so its cost does not grow with
    the degree.  It is at most the rational rank, and falls below it at a
    point only where q divides every minor of that size there.
    """
    arity = _arity(fs)
    r = len(fs)
    if r > arity:
        return f"map has {r} components in {arity} variables; cannot be dominant"
    rng = random.Random(seed)
    jac = integer_jacobian(fs)
    best = 0
    for _ in range(8):  # a pair per coordinate keeps the sampled stream; only used ones are read
        draws = [(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(arity)]
        best = max(best, jacobian_rank_mod(jac, {i: Fraction(*draws[i]) for i in jac[0]}))
        if best >= r:
            return None
    return (f"Jacobian rank stayed at {best} < {r} on sampled points; "
            "the map may not be dominant")


def integer_jacobian(fs: Sequence[Polynomial]) -> tuple[list[int], list[list[list[tuple]]]]:
    """(the variables some f_i uses, increasing; the Jacobian of fs in those
    variables as integer term lists, row i that of f_i's cleared integer view,
    f_i times its denominator).  The column of an unused variable is zero, so
    neither it nor the denominators change the rank."""
    used = sorted({i for f in fs for e, _ in f.terms for i, _ in e})
    return used, [[[(e, int(c * denom)) for e, c in f.derivative(j).terms] for j in used]
                  for f, denom in [(f, f.cleared()[1]) for f in fs]]


def jacobian_rank_mod(jac: tuple, point) -> int:
    """The rank mod the prime q = RANK_PRIME of an integer_jacobian at a
    rational point whose denominators q does not divide: each entry evaluated
    with pow(x, e, q) at the point's used coordinates reduced mod q, then
    Gaussian elimination mod q.  point is indexed by coordinate (a sequence,
    or a mapping that holds the used coordinates only)."""
    q, (used, jac) = RANK_PRIME, jac
    xs = {i: (x := Fraction(point[i])).numerator * pow(x.denominator, -1, q) % q for i in used}
    rows = [[sum(c * math.prod([pow(xs[i], k, q) for i, k in e]) for e, c in terms) % q
             for terms in row] for row in jac]
    rank = 0
    for col in range(len(used)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, q)
        top = rows[rank] = [v * inverse % q for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col]
                rows[i] = [(a - factor * b) % q for a, b in zip(rows[i], top)]
        rank += 1
    return rank
