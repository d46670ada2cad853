"""Brute-force ground truth: residue-sum Riemann approximations, Monte-Carlo
estimation, and exact solution counting modulo p^m.

Residue classes are always lifted to their least nonnegative integer
representatives, so every result is reproducible bit for bit.  The lift
decides a class's contribution, and riemann_integrate alone decides which
lifts mod p^m are ambiguous, by one rule (see there); the caller drives the
level high enough that the count vanishes (or tolerates it).

riemann_integrate never evaluates the integrand lift by lift.  Its value
at a lift depends only on the lift's key, the tuple of exact valuations of
the distinct norm/val carriers there: it counts lifts per key, and
formula_dsl.compile_expr's evaluator reads the whole tally {valuations:
lifts} in one call, summing it in integers through the integrand's term form.
The classes are boxes r + p^J*Z_p^n, one depth J_k per coordinate, refined
one p-adic digit at a time (cells.refine_classes, shared with the
certificate checks): a box is split only in the coordinates that its
undecided views (a domain level's t - c or bound, a carrier) read, and is
settled, its p^(sum(level - J_k)) lifts counted at once, when the domain's
membership is fixed on it and every carrier's valuation is constant on it
(cells.settle_on_valuations, check_norm_description's rule too): where f(r)
is nonzero mod p^j, j the least J_k over the variables f reads, or by
Taylor's formula at a repeated root or a p-power coefficient
(cells._Carrier.constant_on).  Every lift then has r's key.  One classify
serves the box and a domain: the carriers are views of the
cells.MembershipPlan that plans the domain, so a carrier that is also a
level's t - c(x) is evaluated once per class, and a carrier is valued, or its
Taylor coefficients read, only on the boxes settled or where it is 0 mod
p^j (or a test reads it).  The carriers are read where the domain's
membership is not yet fixed too, so the box is split in their coordinates
with the domain's.  The budget counts all p^(level*n) classes.

A multi-level oracle walks once and compiles once.  riemann_sums walks to
the largest level listed, and cells.tally counts from its boxes the lifts
mod p^m of each key for every listed level m, by the oracle's own rule: a
class mod p^m has the key of its least nonnegative lift.  Each level's
riemann_integrate then sums its own tally in one call of the walk's one
evaluator.

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
from math import sqrt
from operator import add, mod, sub
from typing import Iterator, Sequence

from .cells import (Domain, MembershipPlan, refine_classes, settle_on_valuations, tally,
                    valuation_key)
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
                      budget: int = DEFAULT_BUDGET, *, walk: tuple | None = None) -> OracleResult:
    """Riemann sum over all residue classes mod p^level of Z_p^arity.

    Each class contributes p^(-arity*level) times the integrand value at its
    least nonnegative integer lift.  An optional domain restricts the sum:
    with a tower, classes are included iff their lift is a member; a
    BoxDomain restricts nothing, as None does.  The one ambiguity rule: a
    lift is ambiguous iff its key's Hensel margin exceeds the level or some
    carrier valuation is at least the level (INF included).

    The member keys (valuations, margin), their margins merged, make one
    tally that the evaluator sums in one call at the level, p^(-arity*level)
    folded in.  The budget bounds all p^(arity*level) classes, however few
    are visited: check_budget's errors for the level come first, then
    InvalidArgumentError for an arity below the expression's or the
    domain's.  walk is _walk's (evaluator, {m: {key: lifts mod p^m}}) for
    levels that include this one, which riemann_sums shares between its
    levels; by default, a walk to level.
    """
    evaluate, lifts = walk or _walk(e, arity, [level], ctx, domain, budget)
    tally, ambiguous = {}, 0
    for (valuations, flagged), count in lifts[level].items():
        if valuations is not None:  # a member: one tally entry whatever its margin
            tally[valuations] = tally.get(valuations, 0) + count
        if flagged > level or (valuations and max(valuations) >= level):
            ambiguous += count
    value = evaluate(tally, level, arity * level)
    if isinstance(value, RootScaledValue) and value.is_rational():
        value = value.as_exact_rational()
    return OracleResult(value=value, level=level, ambiguous_count=ambiguous)


def riemann_sums(e: QExpExpr, arity: int, levels: Sequence[int], ctx: PrimeContext,
                 domain: Domain | None = None,
                 budget: int = DEFAULT_BUDGET) -> list[OracleResult]:
    """riemann_integrate at each of levels, in order, from one walk of the
    digit tree to the largest and one compiled evaluator (_walk).  Every level
    is admitted before the walk, then the levels must increase strictly; an
    empty list is an InvalidArgumentError."""
    walk = _walk(e, arity, levels, ctx, domain, budget)
    return [riemann_integrate(e, arity, m, ctx, domain, budget, walk=walk) for m in levels]


def _walk(e: QExpExpr, arity: int, levels: Sequence[int], ctx: PrimeContext,
          domain: Domain | None, budget: int) -> tuple:
    """The integrand compiled once and one walk of refine_classes to the
    largest of levels, tallied by cells.tally: (evaluator, {m: {key: lifts
    mod p^m}}) for every listed level m, keys in the order found.
    check_budget admits the smallest and the largest level, then the levels
    must increase strictly, then the arity is checked."""
    if not levels:
        raise InvalidArgumentError("need at least one level")
    p = ctx.p
    for level in (min(levels), max(levels)):
        check_budget(p, level, arity, budget)
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise InvalidArgumentError(
            f"levels must increase strictly, got {','.join(map(str, levels))}")
    polys = expr_carriers(e)
    _arity(polys, arity)
    if domain is not None and domain.arity > arity:
        raise InvalidArgumentError(f"arity is {arity}, but the domain has arity {domain.arity}")
    plan = MembershipPlan(ctx)
    classify = settle_on_valuations([plan.view(f) for f in polys], levels[-1])
    counts, _ = tally(refine_classes(p, levels[-1], arity, classify, plan.domain_of(domain)),
                      p, levels, arity)
    return compile_expr(e, ctx), counts


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
    run, plan = compile_expr(e, ctx), MembershipPlan(ctx)
    views = [plan.view(f) for f in expr_carriers(e)]
    pm = ctx.p**level
    values = []
    for _ in range(samples):
        pt = tuple(rng.randrange(pm) for _ in range(arity))
        values.append(float(run({valuation_key(views, pt): 1}, level)))
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
        reduced[tuple((i, k if k < m + phi else m + (k - m) % phi) for i, k in e)] += c
    return tuple(reduced.items()), pow(denom, -1, modulus)


def _degree(terms, i: int) -> int:
    """The degree of an integer view's terms in x_(i+1)."""
    return max((k for e, _ in terms for j, k in e if j == i), default=0)


def eval_poly_mod(view: tuple, prefix: tuple, block: range, modulus: int) -> list[int]:
    """f(prefix, t) mod modulus for each t in block, a range of step 1, from f's
    _modular_view.  The prefix x_1..x_(n-1) is folded into one integer
    coefficient per power of the last variable x_n, of degree d, over each
    term's own factors by powers mod modulus; Horner gives the first d + 1
    values, reduced at every step, and the rest come from their forward
    differences at block[0] by d nested running sums: additions and one
    reduction per value.  A block of at most d + 1 values is returned from
    Horner."""
    terms, inverse = view
    last = len(prefix)  # the index of x_n
    coeffs = [0] * (1 + _degree(terms, last))
    for e, c in terms:
        k = 0
        for i, j in e:
            if i < last:
                c *= pow(prefix[i], j, modulus)
            else:
                k = j
        coeffs[-1 - k] += c
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
    sequence passes; sequences with non-shrinking differences fail.  The
    levels must increase strictly.
    """
    if len(values) < 3:
        raise ValueError("need at least 3 levels")
    if len(values) != len(levels):
        raise ValueError("values and levels must align")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must increase")
    diffs = [abs(Fraction(values[i + 1]) - Fraction(values[i]))
             for i in range(len(values) - 1)]
    c = diffs[0] * Fraction(ctx.p) ** levels[0]
    return all(d <= c * power_norm(ctx.p, -m)
               for d, m in zip(diffs, levels[:-1]))
