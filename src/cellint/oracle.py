"""Brute-force ground truth: residue-sum Riemann approximations, Monte-Carlo
estimation, and exact solution counting modulo p^m.

Residue classes are always lifted to their least nonnegative integer
representatives, so every result is reproducible bit for bit.  Integrands
are evaluated by formula_dsl.compile_expr at the enumeration level: points
where a norm/val carrier is 0 mod p^m are counted as ambiguous, the lift
decides the contribution, and the caller drives the level high enough that
the count vanishes (or tolerates it).

riemann_integrate never evaluates the integrand lift by lift.  Its value
at a lift depends only on the lift's key, the tuple of exact valuations of
the distinct norm/val carriers there: it counts lifts per key, and the
compiled evaluator reads the whole tally {valuations: lifts} in one call,
summing it in integers through the integrand's term form.
The classes are refined one p-adic digit at a time (cells.refine_classes,
shared with the certificate checks): a class r mod p^j is settled, its
p^(n(level-j)) lifts counted at once, when the domain's membership is fixed
on it and every carrier's valuation is constant on it
(cells.settle_on_valuations, check_norm_description's rule too).  By Taylor's
formula f(r + p^j t) = sum_k a_k(r) p^(j|k|) t^k with integer a_k, so that
holds where f(r) is nonzero mod p^j, and also where v = v(f(r)) is finite and
every a_k(r) with j|k| <= v is 0 mod p^(v - j|k| + 1), as at a repeated root
or a p-power coefficient.  Every lift then has the valuations of r, hence r's
key.  One classify serves the box and a domain: the carriers are views of the
cells.MembershipPlan that plans the domain, so a carrier that is also a
level's t - c(x) is evaluated once per class, and a carrier is valued, or its
Taylor coefficients read, only on the classes settled or where it is 0 mod
p^j (or a test reads it).  The budget counts all p^(level*n) classes.

A multi-level oracle walks once.  Neither the domain's split nor constant_on
reads the level, so a class settled at depth j is settled, with the same
key, in a walk to any level m >= j, where it holds p^(n(m-j)) classes.
riemann_sums walks to the largest level listed and counts, as it walks, the
lifts mod p^m of each key for every listed level m: a class settled at depth
j <= m adds p^(n(m-j)), and a listed lower level m also adds 1 for each of
its own leaves, the classes a walk to m keys at depth m that this walk splits
further.  Each level's riemann_integrate then reads its own tally with its
own compile_expr, whose zero carriers and ambiguity flag read the level, as
does the domain's Hensel margin each key carries (ambiguous iff flagged > m):
one evaluator call per level, on the tally of that level's member
valuations, the margins of one valuation tuple merged.

_values_mod is the one enumeration of (Z/p^m)^n under a polynomial map.  It
reads each f through the same integer view (Polynomial.cleared), with the
cleared denominator inverted mod p^m once per polynomial, and walks the
points a column at a time, by difference tables: eval_poly_mod folds each
prefix x_1..x_(n-1) into one coefficient per power of the last variable,
evaluates the first d + 1 of the p^m values of x_n by Horner, reduced mod
p^m at every step, and the rest by running sums of their differences; for
n >= 2 and p^m <= _CHUNK the columns along x_(n-1) are likewise sums of
difference columns.  Every value is an exact integer reduced mod p^m, so the
values are those of the per-point loop, and they come out in
itertools.product order, a chunk of _CHUNK points at a time.
solution_histogram counts them, count_solutions looks one count up there,
and exp_sum counts the phases of <y, f(x)> along the same enumeration.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import prod, sqrt
from operator import add, mod, sub
from typing import Iterator, Sequence

from .cells import Domain, MembershipPlan, refine_classes, settle_on_valuations, valuation_key
from .errors import FloatOverflowError, InvalidArgumentError, NonIntegralCoefficientsError
from .formula_dsl import ExactValue, QExpExpr, compile_expr, expr_carriers
from .padic_core import (
    DEFAULT_BUDGET,
    PrimeContext,
    check_budget,
    power_norm,
    residue,
)
from .polynomials import Polynomial
from .rootval import RootScaledValue

_CHUNK = 4096  # points per step of _values_mod
DEFAULT_LEVEL = 6  # the level of monte_carlo_integrate and of the CLI's oracle runs


@dataclass
class OracleResult:
    value: ExactValue
    level: int
    ambiguous_count: int

    def real_value(self) -> float:
        """The value as a float; FloatOverflowError when it is too large for one."""
        try:
            return float(self.value)
        except OverflowError:  # a Fraction past the float range
            raise FloatOverflowError() from None


# -- operations --------------------------------------------------------------------


def _arity(fs: Sequence[Polynomial], n: int | None = None) -> int:
    """n, checked against the highest variable of fs, or that variable (at least 1)."""
    need = max((f.arity for f in fs), default=0)
    if n is None:
        return need or 1
    if n < need:
        raise InvalidArgumentError(f"arity is {n}, but the expression needs at least {need}")
    return n


def riemann_integrate(e: QExpExpr, arity: int, level: int, ctx: PrimeContext,
                      domain: Domain | None = None,
                      budget: int = DEFAULT_BUDGET, *, walk: dict | None = None) -> OracleResult:
    """Riemann sum over all residue classes mod p^level of Z_p^arity.

    Each class contributes p^(-arity*level) times the integrand value at its
    least nonnegative integer lift.  An optional domain restricts the sum:
    with a tower, classes are included iff their lift is a member, and
    classes the level cannot decide are counted ambiguous; a BoxDomain
    restricts nothing, as None does.

    The lifts are counted per key, the tuple of exact valuations of the
    expression's distinct carriers, and the member keys, their Hensel
    margins merged, make one tally that the compiled evaluator sums in one
    call, p^(-arity*level) folded in; the value and the ambiguity flag
    depend only on the key, so the exact sum is the same as lift by lift.
    Classes are refined one p-adic digit at a time and counted whole as soon
    as their domain membership is fixed and, on a member class, every
    carrier's valuation is constant (cells.settle_on_valuations); a carrier
    is valued only on the classes counted or where it is 0 mod p^j.  The
    budget bounds the p^(arity*level) classes decided, however few are
    visited.  Raises check_budget's errors for the level, then
    InvalidArgumentError for an arity below the expression's or the
    domain's.  walk is _walk's per-level tally {m: {key: lifts mod p^m}} of
    a walk that listed the level, which riemann_sums shares between its
    levels; by default, a walk to level.
    """
    counts = (walk or _walk(e, arity, [level], ctx, domain, budget))[level]
    tally, ambiguous = {}, 0
    for (valuations, flagged), count in counts.items():
        if valuations is not None:  # a member: one tally entry whatever its margin
            tally[valuations] = tally.get(valuations, 0) + count
        if flagged > level and not (valuations and max(valuations) >= level):
            ambiguous += count  # flagged by the margin alone
    value, flagged_by_value = compile_expr(e, ctx, level)(tally, arity * level)
    if isinstance(value, RootScaledValue) and value.is_rational():
        value = value.as_exact_rational()
    return OracleResult(value=value, level=level, ambiguous_count=ambiguous + flagged_by_value)


def riemann_sums(e: QExpExpr, arity: int, levels: Sequence[int], ctx: PrimeContext,
                 domain: Domain | None = None,
                 budget: int = DEFAULT_BUDGET) -> list[OracleResult]:
    """riemann_integrate at each of levels, in order and repeats included, from
    one walk of the digit tree to the largest (_walk).  Every level is
    admitted before the walk; an empty list is an InvalidArgumentError."""
    walk = _walk(e, arity, levels, ctx, domain, budget)
    sums = {m: riemann_integrate(e, arity, m, ctx, domain, budget, walk=walk)
            for m in dict.fromkeys(levels)}
    return [sums[m] for m in levels]


def _walk(e: QExpExpr, arity: int, levels: Sequence[int], ctx: PrimeContext,
          domain: Domain | None, budget: int) -> dict[int, dict]:
    """One walk of refine_classes to the largest of levels, tallied for each
    (see the module docstring): {m: {key: lifts mod p^m}} for every listed
    level m, keys in the order found.  A class settled at depth j <= m holds
    p^(arity*(m-j)) lifts of m, from m's size table; a leaf of a lower listed
    level m holds one.  check_budget admits the smallest and the largest
    level, then the arity is checked."""
    if not levels:
        raise InvalidArgumentError("need at least one level")
    p = ctx.p
    for level in (min(levels), max(levels)):
        check_budget(p, level, arity, budget)
    polys = expr_carriers(e)
    _arity(polys, arity)
    if domain is not None and domain.arity > arity:
        raise InvalidArgumentError(f"arity is {arity}, but the domain has arity {domain.arity}")
    top = max(levels)
    lifts: dict = {m: {} for m in levels}
    sizes = [(lifts[m], [p ** (arity * (m - j)) for j in range(m + 1)]) for m in lifts]
    plan = MembershipPlan(ctx)
    classify = settle_on_valuations([plan.view(f) for f in polys])
    for key, r, j, whole in refine_classes(p, top, arity, classify, plan.domain_of(domain),
                                           lifts.keys() - {top}):
        if whole:
            for tally, size in sizes:
                if j < len(size):
                    tally[key] = tally.get(key, 0) + size[j]
        else:  # a leaf of the lower listed level j
            lifts[j][key] = lifts[j].get(key, 0) + 1
    return lifts


def monte_carlo_integrate(e: QExpExpr, arity: int, samples: int, seed: int,
                          ctx: PrimeContext,
                          level: int | None = None) -> tuple[float, float]:
    """Seeded Monte-Carlo estimate (mean, standard error) over Z_p^arity.

    Points are uniform independent residues at the configured level, lifted;
    results are deterministic for a fixed seed.  Each point is valued through
    the integer carrier views, as riemann_integrate's classes are.  Raises
    InvalidArgumentError for level < 1.
    """
    _arity(expr_carriers(e), arity)
    if samples < 2:
        raise ValueError("need at least 2 samples")
    level = DEFAULT_LEVEL if level is None else level
    if level < 1:
        raise InvalidArgumentError("level m must be >= 1")
    rng = random.Random(seed)
    run, plan = compile_expr(e, ctx, level), MembershipPlan(ctx)
    views = [plan.view(f) for f in expr_carriers(e)]
    pm = ctx.p**level
    values = []
    for _ in range(samples):
        pt = tuple(rng.randrange(pm) for _ in range(arity))
        v, _amb = run({valuation_key(views, pt): 1})
        values.append(float(v))
    mean = reduce(add, values, 0) / samples
    var = reduce(add, ((v - mean) ** 2 for v in values), 0) / (samples - 1)
    return mean, sqrt(var / samples)


def _modular_view(f: Polynomial, modulus: int, p: int) -> tuple:
    """(terms, inverse) with f = terms * inverse mod modulus = p^m: the cleared
    integer view of f, each exponent e >= m + phi(p^m) read as m + (e - m) mod
    phi(p^m) and equal keys merged (Euler on units, x^e = 0 for p | x once e >=
    m), and the inverse of its denominator; p-integrality enforced."""
    terms, denom = f.cleared()
    if denom % p == 0:
        coeff = next(c for _, c in f.terms if c.denominator % p == 0)
        raise NonIntegralCoefficientsError(
            f"coefficient {coeff} is not p-integral at p = {p}")
    m, phi = next(k for k in itertools.count() if p**k >= modulus), modulus - modulus // p
    reduced: Counter = Counter()
    for e, c in terms:
        reduced[tuple(k if k < m + phi else m + (k - m) % phi for k in e)] += c
    return tuple(reduced.items()), pow(denom, -1, modulus)


def _degree(terms, i: int) -> int:
    """The degree of an integer view's terms in x_(i+1)."""
    return max((e[i] for e, _ in terms if i < len(e)), default=0)


def eval_poly_mod(view: tuple, prefix: tuple, block: range, modulus: int) -> list[int]:
    """f(prefix, t) mod modulus for each t in block, a range of step 1, from f's
    _modular_view.  The prefix x_1..x_(n-1) is folded into one integer
    coefficient per power of the last variable x_n, of degree d, by powers
    mod modulus; Horner gives the first d + 1 values, reduced at every step,
    and the rest come from their forward differences at block[0] by d nested
    running sums: additions and one reduction per value.  A block of at most
    d + 1 values is returned from Horner."""
    terms, inverse = view
    last = len(prefix)  # the index of x_n
    coeffs = [0] * (1 + _degree(terms, last))
    for e, c in terms:
        power = prod(map(pow, prefix, e, itertools.repeat(modulus)))
        coeffs[-1 - (e[last] if last < len(e) else 0)] += c * power
    lead, *rest = [c * inverse % modulus for c in coeffs]
    head = block[:len(coeffs)]
    values = [lead] * len(head)
    for c in rest:
        values = [(v * t + c) % modulus for v, t in zip(values, head)]
    if len(block) <= len(coeffs):
        return values
    seeds = [values[0]]  # the differences of orders 0..d at block[0]
    while len(values) > 1:
        values = list(map(sub, values[1:], values[:-1]))
        seeds.append(values[0])
    column = [seeds.pop()] * (len(block) - len(rest))
    for seed in reversed(seeds):
        column = itertools.accumulate(column, initial=seed)
    return list(map(mod, column, itertools.repeat(modulus)))


def _values_mod(views: Sequence[tuple], m: int, n: int, p: int) -> Iterator[list[list[int]]]:
    """The points of (Z/p^m)^n in itertools.product order, _CHUNK at a time, as
    one column of f(x) mod p^m per _modular_view: the one enumeration of
    (Z/p^m)^n under a polynomial map.  Each prefix x_1..x_(n-1) heads a column
    of p^m values of x_n, made by eval_poly_mod in blocks of at most _CHUNK.
    For n >= 2 and p^m <= _CHUNK the columns along x_(n-1), of degree d' there,
    come from differences instead: eval_poly_mod makes the first d' + 1 of
    them, and each later one is the previous plus a backward-difference
    column, in d' additions and one reduction per value.  So each view holds
    O((d' + 1) * _CHUNK) values.  Callers check the budget first."""
    pm, heads = p**m, max(n - 1, 0)
    column = range(pm if n else 1)  # n = 0: the one empty point

    def columns(view):
        if n < 2 or pm > _CHUNK:
            for prefix in itertools.product(range(pm), repeat=heads):
                for i in range(0, len(column), _CHUNK):
                    yield eval_poly_mod(view, prefix, column[i:i + _CHUNK], pm)
            return
        d = _degree(view[0], n - 2)
        for prefix in itertools.product(range(pm), repeat=n - 2):
            seeds = [eval_poly_mod(view, prefix + (a,), column, pm) for a in range(min(d + 1, pm))]
            yield from seeds
            nabla = [seeds[-1]]  # the backward differences of orders 0..d at x_(n-1) = d
            while len(seeds) > 1:
                seeds = [list(map(sub, b, a)) for a, b in zip(seeds, seeds[1:])]
                nabla.append(seeds[-1])
            for _ in range(d + 1, pm):
                for j in reversed(range(d)):
                    nabla[j] = list(map(add, nabla[j], nabla[j + 1]))
                nabla[0] = list(map(mod, nabla[0], itertools.repeat(pm)))
                yield nabla[0]
    streams = [itertools.chain.from_iterable(columns(view)) for view in views]
    for _ in range(0, pm**heads * len(column), _CHUNK):
        yield [list(itertools.islice(values, _CHUNK)) for values in streams]


def solution_histogram(fs: Sequence[Polynomial], m: int, ctx: PrimeContext,
                       n: int | None = None,
                       budget: int = DEFAULT_BUDGET) -> dict[tuple[int, ...], int]:
    """All counts N_m(z) at once: the histogram of f(x) mod p^m over x, admitted
    by check_budget."""
    p = ctx.p
    n = _arity(fs, n)
    check_budget(p, m, n, budget)
    if not fs:
        return {(): p ** (m * n)}
    views = [_modular_view(f, p**m, p) for f in fs]
    hist: Counter = Counter()
    for columns in _values_mod(views, m, n, p):
        hist.update(zip(*columns))
    return dict(hist)


def count_solutions(fs: Sequence[Polynomial], z: Sequence, m: int,
                    ctx: PrimeContext, n: int | None = None,
                    budget: int = DEFAULT_BUDGET) -> int:
    """#{x in (Z/p^m)^n : f(x) = z mod p^m componentwise}."""
    check_budget(ctx.p, m, _arity(fs, n), budget)  # before z mod p^m is built
    target = _solution_target(fs, z, m, ctx)
    return solution_histogram(fs, m, ctx, n=n, budget=budget).get(target, 0)


def _solution_target(fs: Sequence[Polynomial], z: Sequence, m: int, ctx: PrimeContext) -> tuple:
    """z mod p^m, a key of solution_histogram: one p-integral z_i per f_i, reduced exactly."""
    if len(z) != len(fs):
        raise InvalidArgumentError("z must have one residue per polynomial")
    return tuple(residue(zi, m, ctx) for zi in z)


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
