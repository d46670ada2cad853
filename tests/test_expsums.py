"""Characters, exponential sums, singular series, Fourier identity, decay fits."""

import cmath
import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellint import (
    AllVanishedError,
    InvalidArgumentError,
    PrimeContext,
    additive_character,
    bound_check,
    decay_fit,
    dominance_warning,
    exp_sum,
    fourier_check,
    normalized_kloosterman,
    parse_poly,
    singular_series,
)
from cellint import expsums
from cellint.expsums import (
    DecayFit,
    ExpSumResult,
    _character_table,
    _required_level,
    decay_fits,
)
from cellint.oracle import solution_histogram
from cellint.padic_core import DEFAULT_BUDGET, residue
from cellint.polynomials import Polynomial, eval_int_terms

C3 = PrimeContext(3)
C5 = PrimeContext(5)
C7 = PrimeContext(7)

X = parse_poly("x1")
X2 = parse_poly("x1^2")
X3 = parse_poly("x1^3")


def test_character_examples():
    assert additive_character(0, C5) == 1
    assert additive_character(7, C5) == 1  # trivial on Z_p
    assert abs(additive_character(Fraction(1, 5), C5) - cmath.exp(2j * math.pi / 5)) < 1e-15
    # p'-part of the denominator is folded into the representative
    v = additive_character(Fraction(1, 10), C5)  # 1/10 = 3/5 + integral part at p=5
    assert abs(v - cmath.exp(2j * math.pi * 3 / 5)) < 1e-14


def test_character_additivity_random():
    rng = random.Random(2718)
    for _ in range(500):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 60))
        y = Fraction(rng.randint(-50, 50), rng.randint(1, 60))
        lhs = additive_character(x + y, C5)
        rhs = additive_character(x, C5) * additive_character(y, C5)
        assert abs(lhs - rhs) < 1e-12


def test_character_unit_modulus():
    rng = random.Random(3)
    for _ in range(200):
        x = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert abs(abs(additive_character(x, C5)) - 1) < 1e-12


def test_exp_sum_full_character():
    res = exp_sum([X], [Fraction(1, 25)], C5)
    assert res.level == 2
    assert abs(res.value) < 1e-12


def test_exp_sum_trivial_level():
    res = exp_sum([X], [Fraction(1)], C5)
    assert res.level == 0 and res.value == 1


def test_exp_sum_gauss():
    res = exp_sum([X2], [Fraction(1, 5)], C5)
    assert abs(abs(res.value) - 5 ** -0.5) < 1e-9


def test_exp_sum_gauss_all_levels():
    # |E| = p^{-m/2} exactly for the squaring map at odd p
    for m in range(1, 6):
        res = exp_sum([X2], [Fraction(1, 5**m)], C5)
        assert abs(abs(res.value) - 5 ** (-m / 2)) < 1e-9, m


def test_character_table_is_built_once_per_modulus():
    _character_table.cache_clear()
    first = exp_sum([X2 + X], [Fraction(2, 25)], C5)
    again = exp_sum([X2 + X], [Fraction(2, 25)], C5)
    assert (again.value, again.phases) == (first.value, first.phases)
    assert _character_table.cache_info().misses == 1
    assert _character_table.cache_info().maxsize is not None
    # the table is the per-call expression, bit for bit
    assert _character_table(25) == tuple(cmath.exp(2j * math.pi * j / 25) for j in range(25))


def test_exp_sum_level_override_consistent():
    base = exp_sum([X2], [Fraction(1, 25)], C5)
    refined = exp_sum([X2], [Fraction(1, 25)], C5, level=3)
    assert abs(base.value - refined.value) < 1e-10
    with pytest.raises(ValueError):
        exp_sum([X2], [Fraction(1, 25)], C5, level=1)


def test_exp_sum_normalization_bound():
    rng = random.Random(55)
    for _ in range(20):
        f = parse_poly(f"{rng.randint(1, 4)}*x1^3 + {rng.randint(1, 9)}*x1")
        res = exp_sum([f], [Fraction(1, 5**rng.randint(1, 4))], C5)
        assert abs(res.value) <= 1 + 1e-9


def test_exp_sum_zero_direction():
    res = exp_sum([X2], [Fraction(0)], C5)
    assert res.value == 1  # E(0) = 1 exactly


def test_exp_sum_takes_its_arity_from_the_highest_variable():
    # x2 is never dropped: the sum is over Z_p^2, where x1 is a free variable
    res = exp_sum([parse_poly("x2^2")], [Fraction(1, 5)], C5)
    assert res.n == 2
    one = exp_sum([X2], [Fraction(1, 5)], C5)  # the same sum over Z_p^1
    assert res.phases == {j: 5 * c for j, c in one.phases.items()}
    assert abs(res.value - one.value) <= 1e-15


def test_exp_sum_keeps_exact_phase_counts():
    res = exp_sum([X2], [Fraction(1, 5)], C5)
    assert res.phases == {0: 1, 1: 2, 4: 2}
    assert exp_sum([X2], [Fraction(0)], C5).phases == {0: 1}
    assert not res.vanishes()
    assert exp_sum([X], [Fraction(2, 25)], C5).vanishes()


def test_kloosterman_mixed_levels_brute_force():
    # E(a, m) with component levels (2, 1): independent direct summation
    v = normalized_kloosterman([X, X2], [1, 1], [2, 1], C5)
    brute = sum(cmath.exp(2j * math.pi * ((x % 25) / 25 + (x * x % 5) / 5))
                for x in range(25)) / 25
    assert abs(v - brute) < 1e-12


def test_kloosterman_examples():
    assert abs(normalized_kloosterman([X], [1], [1], C5)) < 1e-12
    assert abs(abs(normalized_kloosterman([X2], [1], [1], C5)) - 5 ** -0.5) < 1e-9
    v = normalized_kloosterman([X, X2], [1, 1], [1, 1], C5)
    brute = sum(cmath.exp(2j * math.pi * (x + x * x) / 5) for x in range(5)) / 5
    assert abs(v - brute) < 1e-12
    assert abs(abs(v) - 5 ** -0.5) < 1e-9
    with pytest.raises(ValueError):
        normalized_kloosterman([X], [5], [1], C5)


@pytest.mark.parametrize("a, m, bad", [
    ([Fraction(3, 2)], [1], "Fraction(3, 2)"),  # used to be the sum at a = 1
    ([1], [1.5], "1.5"),  # used to be the sum at m = 1
    ([True], [1], "True"),
    ([1], [True], "True"),
    ([2.0], [1], "2.0"),
])
def test_kloosterman_refuses_non_integer_a_and_m(a, m, bad):
    with pytest.raises(InvalidArgumentError, match=f"must be integers, got {re.escape(bad)}$"):
        normalized_kloosterman([X2], a, m, C5)


def test_singular_series_identity_map():
    for z in range(5):
        for m in (1, 2, 3):
            assert singular_series([X], [z], m, C5) == 1


def test_singular_series_squares():
    for m in (1, 2, 3, 4):
        assert singular_series([X2], [1], m, C5) == 2
    assert singular_series([X2], [2], 2, C5) == 0


def test_singular_series_normalization():
    # f(x1, x2) = x1 + x2: n - r = 1, fibers are lines: F = 1
    assert singular_series([parse_poly("x1 + x2")], [3], 2, C5) == 1


@pytest.mark.parametrize("fs,y,ctx", [
    ([X2], [Fraction(1, 5)], C5),
    ([parse_poly("x1^3 + x1")], [Fraction(1, 25)], C5),
    ([parse_poly("x1^2 + x2^2")], [Fraction(1, 5)], C5),
    ([X2], [Fraction(1, 3)], C3),
])
def test_fourier_identity(fs, y, ctx):
    lhs, rhs, diff = fourier_check(fs, y, ctx)
    assert diff < 1e-9


def test_decay_linear_all_vanish():
    with pytest.raises(AllVanishedError):
        decay_fit([X], [1], (1, 6), C5)


def test_decay_gauss():
    fit = decay_fit([X2], [1], (1, 8), C5)
    assert -0.55 <= fit.alpha_hat <= -0.45
    assert fit.c_hat <= 1 + 1e-6
    assert bound_check(fit)
    assert fit.vanished == []


def test_decay_cubic_p7():
    fit = decay_fit([X3], [1], (1, 6), C7)
    assert -0.45 <= fit.alpha_hat <= -0.22
    assert bound_check(fit)


def test_decay_fit_is_summed_left_to_right():
    """The slope's sums add floats left to right from 0, so the fit is the same
    bits on every Python version (a compensated sum, as the builtin sum of
    floats is from Python 3.12, moves these last bits and the weakest ray)."""
    f = parse_poly("x1^2 + 5*x1^3")
    fits = {u: decay_fit([f], [u], (1, 4), C5) for u in (2, 12, 16)}
    assert {u: repr(fit.alpha_hat) for u, fit in fits.items()} == {
        2: "-0.5000000000000002", 12: "-0.5000000000000002", 16: "-0.5000000000000001"}
    assert max(fits, key=lambda u: fits[u].alpha_hat) == 16


def test_bound_check_manual():
    fit = DecayFit(p=5, alpha_hat=-0.5, c_hat=1.0,
                   samples=[(m, 5 ** (-m / 2)) for m in range(1, 9)],
                   max_bound_violation=0.0, vanished=[])
    assert bound_check(fit)
    fit.c_hat = 0.5  # below the max ratio: bound must now fail
    assert not bound_check(fit)


def test_dominance_warning():
    assert dominance_warning([X2]) is None
    assert dominance_warning([parse_poly("x1 + x2")]) is None
    # f = (x1 + x2, 2*x1 + 2*x2): rank-1 Jacobian with r = 2 cannot be dominant
    assert "rank stayed at 1" in dominance_warning(
        [parse_poly("x1 + x2"), parse_poly("2*x1 + 2*x2")])
    # f = (x1, x1): two components in one variable
    assert "cannot be dominant" in dominance_warning([X, X])


def _rational_rank(rows):
    """The rank of a matrix of Fractions, by Gaussian elimination over Q."""
    rows, rank = [row[:] for row in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_the_rank_mod_q_is_the_rational_rank_on_low_degree_maps():
    """Seeded random maps of degree <= 3 in 1-3 variables, some with dependent
    components or constant ones: at random rational points the Jacobian's
    rank mod RANK_PRIME is its rank over Q."""
    rng = random.Random(20)
    ranks = Counter()
    for _ in range(300):
        arity, r = rng.randint(1, 3), rng.randint(1, 3)
        fs = []
        for _ in range(r):
            if fs and rng.random() < 0.3:  # a combination of earlier components
                coeffs = {}
                for f in fs:
                    k = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for e, c in f.terms:
                        coeffs[e] = coeffs.get(e, 0) + k * c
            else:
                coeffs = {tuple((i, k) for i in range(arity) if (k := rng.randint(0, 3))):
                          Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(rng.randint(1, 4))}
            fs.append(Polynomial.from_coeffs(coeffs))
        pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(arity)]
        exact = _rational_rank([[f.derivative(j).eval(pt) for j in range(arity)] for f in fs])
        assert expsums.jacobian_rank_mod(expsums.integer_jacobian(fs, arity), pt) == exact, \
            (fs, pt)
        ranks[(min(r, arity), exact)] += 1
    assert len(ranks) >= 6  # full and deficient ranks both occur


# -- phase counts against the per-point complex sum -----------------------------------


_SIZES = [(p, n, m) for p in (2, 3, 5, 7) for n in (1, 2) for m in range(1, 12)
          if p ** (m * n) <= 2401]


def _pairwise_sum(values):
    if not values:
        return complex(0.0)
    while len(values) > 1:
        values = [values[i] + values[i + 1] if i + 1 < len(values) else values[i]
                  for i in range(0, len(values), 2)]
    return values[0]


def _exact_values_mod(fs, m, ctx, n):
    """f(x) mod p^m for every x in (Z/p^m)^n, in product order, by exact evaluation."""
    for pt in itertools.product(range(ctx.p**m), repeat=n):
        yield tuple(residue(f.eval(pt), m, ctx) for f in fs)


def brute_force_exp_sum(fs, ys, m, ctx, n):
    """The per-point sum: a p^m-entry cmath table, added pairwise in product order."""
    pm = ctx.p**m
    coeffs = [residue(yi * pm, m, ctx) for yi in ys]
    table = [cmath.exp(2j * math.pi * j / pm) for j in range(pm)]
    terms = [table[sum(c * v for c, v in zip(coeffs, z)) % pm]
             for z in _exact_values_mod(fs, m, ctx, n)]
    return _pairwise_sum(terms) / pm**n


def cyclotomic_remainder(counts, p, m):
    """sum_j counts[j] x^j mod Phi_(p^m)(x) = sum_(k<p) x^(k p^(m-1)), exactly."""
    a = list(counts)
    step = p ** (m - 1)
    degree = step * (p - 1)
    for i in range(len(a) - 1, degree - 1, -1):
        c, a[i] = a[i], 0
        for k in range(p - 1):
            a[i - degree + k * step] -= c
    return a[:degree]


@st.composite
def _p_integral_poly(draw, p, n):
    """At most four terms in x1..xn, degrees up to 3, denominators prime to p."""
    dens = [d for d in range(1, 10) if d % p]
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n).map(
            lambda e: tuple((i, k) for i, k in enumerate(e) if k)),
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from(dens)),
        min_size=1, max_size=4))
    return Polynomial.from_coeffs(terms)


def _top(fs):
    """The highest variable of fs, at least 1: the arity the exp-sum layer sums over."""
    return max((f.arity for f in fs), default=0) or 1


@st.composite
def _sum_problem(draw):
    """(fs, y, ctx, n, m): r in 1-2 polynomials in x1..xk, y_i = a_i / p^(m_i),
    p^(m*k) <= 2401, and n their highest variable."""
    p, k, m = draw(st.sampled_from(_SIZES))
    r = draw(st.integers(1, 2))
    fs = [draw(_p_integral_poly(p, k)) for _ in range(r)]
    ys = [Fraction(draw(st.integers(-30, 30)), p ** draw(st.integers(0, m))) for _ in fs]
    return fs, ys, PrimeContext(p), _top(fs), m


_differential = settings(derandomize=True, max_examples=80, deadline=None)


@_differential
@given(problem=_sum_problem())
@example(problem=([X], [Fraction(1, 8)], PrimeContext(2), 1, 3))
@example(problem=([parse_poly("x1 + 3*x2^2")], [Fraction(2, 49)], C7, 2, 2))
def test_exp_sum_matches_per_point_sum(problem):
    fs, ys, ctx, n, _ = problem
    res = exp_sum(fs, ys, ctx)
    assert res.n == n
    if res.level == 0:
        assert res.value == 1 and not res.vanishes()
        return
    brute = brute_force_exp_sum(fs, ys, res.level, ctx, n)
    assert abs(res.value - brute) <= 1e-12
    counts = [res.phases.get(j, 0) for j in range(ctx.p**res.level)]
    assert sum(counts) == ctx.p ** (res.level * n)
    assert res.vanishes() == (not any(cyclotomic_remainder(counts, ctx.p, res.level)))
    assert res.vanishes() == (abs(brute) < 1e-13)  # the float threshold it replaces
    lhs, rhs, diff = fourier_check(fs, ys, ctx)
    assert lhs == res.value and abs(rhs - brute) <= 1e-12 and diff <= 1e-12


@_differential
@given(problem=_sum_problem(), z=st.lists(st.integers(-50, 50), min_size=2, max_size=2))
def test_singular_series_matches_per_point_count(problem, z):
    fs, _, ctx, n, m = problem
    z = z[:len(fs)]
    count = sum(1 for v in _exact_values_mod(fs, m, ctx, n)
                if v == tuple(residue(zi, m, ctx) for zi in z))
    assert singular_series(fs, z, m, ctx) == \
        Fraction(count) / Fraction(ctx.p) ** (m * (n - len(fs)))


# -- bit identity with the per-point loop, past one chunk -----------------------------


_CHUNKED_SIZES = [(p, n, m) for p in (2, 3, 5, 7) for n in (1, 2, 3) for m in range(1, 15)
                  if 512 < p ** (m * n) <= 20000]


def per_point_exp_sum(fs, ys, m, ctx, n):
    """E(y) and its phase counts point by point: f(x) from the cleared integer
    view at each point of (Z/p^m)^n in product order, the characters added
    pairwise within each chunk of 4096 points and then over the chunk sums."""
    pm = ctx.p**m
    views = []
    for f in fs:
        terms, denom = f.cleared()
        views.append((terms, pow(denom, -1, pm)))
    coeffs = [residue(yi * pm, m, ctx) for yi in ys]
    table = [cmath.exp(2j * math.pi * j / pm) for j in range(pm)]
    phases, partials = Counter(), []
    points = itertools.product(range(pm), repeat=n)
    while chunk := list(itertools.islice(points, 4096)):
        column = [sum(c * inverse * eval_int_terms(terms, x)
                      for c, (terms, inverse) in zip(coeffs, views)) % pm for x in chunk]
        phases.update(column)
        partials.append(_pairwise_sum([table[j] for j in column]))
    return _pairwise_sum(partials) / pm**n, dict(phases)


@st.composite
def _chunked_problem(draw):
    """(fs, y, ctx, n, m) with 512 < p^(m*n) <= 20000; f_1 in x1..xn with xn, any
    other f_i in x1..xk, 1 <= k <= n."""
    p, n, m = draw(st.sampled_from(_CHUNKED_SIZES))
    fs = [draw(_p_integral_poly(p, n).filter(lambda f: f.arity == n))]
    fs += [draw(_p_integral_poly(p, draw(st.integers(1, n))))
           for _ in range(draw(st.integers(0, 1)))]
    ys = [Fraction(draw(st.integers(-30, 30)), p ** draw(st.integers(0, m))) for _ in fs]
    return fs, ys, PrimeContext(p), n, m


@settings(derandomize=True, max_examples=50, deadline=None)
@given(problem=_chunked_problem())
@example(problem=([parse_poly("x1^3 + 2*x1")], [Fraction(1, 3**8)], C3, 1, 8))
@example(problem=([parse_poly("x1^2 + x1*x2^3 - 2")], [Fraction(1, 81)], C3, 2, 4))
@example(problem=([parse_poly("x1*x2 + 1/3*x2^2")], [Fraction(2, 125)], C5, 2, 3))
@example(problem=([parse_poly("x1*x2*x3 + x3^3")], [Fraction(1, 32)], PrimeContext(2), 3, 5))
@example(problem=([parse_poly("3/2")], [Fraction(1, 25)], C5, 1, 2))
@example(problem=([parse_poly("x1^2 + x2"), parse_poly("x1^3")],
                  [Fraction(1, 3), Fraction(2, 27)], C3, 2, 4))
@example(problem=([parse_poly("x1^2 + x3 + 1")], [Fraction(1, 9)], C3, 3, 3))
@example(problem=([parse_poly("x1^5 + x1")], [Fraction(1, 4)], PrimeContext(2), 1, 2))
@example(problem=([parse_poly("x1^4*x2 + x2^3")], [Fraction(1, 3)], C3, 2, 1))
@example(problem=([parse_poly("x1^3 + 1"), parse_poly("x2")], [Fraction(2, 27), Fraction(0)],
                  C3, 2, 3))
@example(problem=([parse_poly("x2^3")], [Fraction(2, 27)], C3, 2, 3))
@example(problem=([parse_poly("x1*x2^2*x3 + x3^3")], [Fraction(1, 9)], C3, 3, 2))
def test_exp_sum_is_the_per_point_loop_bit_for_bit(problem):
    fs, ys, ctx, n, m = problem
    res = exp_sum(fs, ys, ctx, level=m)
    value, phases = per_point_exp_sum(fs, ys, m, ctx, n)
    assert res.value == value
    assert res.phases == phases


@settings(derandomize=True, max_examples=150, deadline=None)
@given(size=st.sampled_from([(p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3)
                             if p**m <= 125]),
       data=st.data())
def test_vanishing_matches_cyclotomic_remainder(size, data):
    p, m = size
    pm, step = p**m, p ** (m - 1)
    if data.draw(st.booleans()):  # constant on the cosets j + p^(m-1) Z/p^m: vanishes
        base = data.draw(st.lists(st.integers(0, 3), min_size=step, max_size=step))
        counts = [base[j % step] for j in range(pm)]
    else:
        counts = data.draw(st.lists(st.integers(0, 3), min_size=pm, max_size=pm))
    res = ExpSumResult((), m, complex(0), 1, 0, p, {j: c for j, c in enumerate(counts) if c})
    assert res.vanishes() == (not any(cyclotomic_remainder(counts, p, m)))


# -- one enumeration per level, against one enumeration per call ----------------------


_DECAY_SIZES = [(p, n, m2) for p in (3, 5, 7) for n in (1, 2) for m2 in (2, 3, 4)
                if p ** (m2 * n) <= 6561]


@st.composite
def _decay_problem(draw):
    """(fs, directions, ctx, n, m2): r in 1-2 polynomials in x1..xk and one to four unit
    directions, with r = 2 maybe one more, a unit multiple of the first; n the
    highest variable."""
    p, k, m2 = draw(st.sampled_from(_DECAY_SIZES))
    r = draw(st.integers(1, 2))
    fs = [draw(_p_integral_poly(p, k)) for _ in range(r)]
    units = st.integers(1, p * p).filter(lambda u: u % p)
    directions = draw(st.lists(st.lists(units, min_size=r, max_size=r), min_size=1, max_size=4))
    if r == 2 and draw(st.booleans()):
        rho = draw(units)
        directions.append([rho * u for u in directions[0]])
    return fs, directions, PrimeContext(p), _top(fs), m2


@_differential
@given(problem=_decay_problem())
@example(problem=([X3], [[1], [2], [4]], C3, 1, 3))  # vanishes at m = 1 only
@example(problem=([parse_poly("x1^2 + 2*x2^2 + x1*x2^2")], [[1], [2], [Fraction(5, 7)]],
                  C3, 2, 4))  # 3^8 points: past one chunk
@example(problem=([X2, parse_poly("x2^2")], [[1, 2], [2, 4], [1, 1]], C3, 2, 3))  # r = 2
@example(problem=([X], [[1], [3]], C5, 1, 2))  # every sample vanishes
def test_decay_fits_are_one_decay_fit_per_direction(problem):
    fs, directions, ctx, _, m2 = problem
    try:
        singles = [decay_fit(fs, d, (1, m2), ctx) for d in directions]
    except AllVanishedError:
        with pytest.raises(AllVanishedError):
            decay_fits(fs, directions, (1, m2), ctx)
        return
    shared = decay_fits(fs, directions, (1, m2), ctx)
    for fit, single in zip(shared, singles, strict=True):
        assert fit.values == single.values and fit.samples == single.samples
        assert fit.alpha_hat == single.alpha_hat and fit.c_hat == single.c_hat
        assert fit.vanished == single.vanished
        assert fit == single


@st.composite
def _grouping_problem(draw):
    """(fs, yss, ctx, n, m): r in 1-2 polynomials in x1..xk and ys of level at most m
    that mix repeats, unit multiples of earlier ys and fresh ys, whose phase rows may
    hold zero or non-unit entries; n the highest variable."""
    p, k, m = draw(st.sampled_from(_SIZES))
    r = draw(st.integers(1, 2))
    fs = [draw(_p_integral_poly(p, k)) for _ in range(r)]
    units = st.integers(1, p * p).filter(lambda u: u % p)
    fresh = st.lists(st.builds(lambda a, k: Fraction(a, p**k), st.integers(-30, 30),
                               st.integers(0, m)), min_size=r, max_size=r)
    yss = [draw(fresh)]
    for _ in range(draw(st.integers(0, 5))):
        earlier = draw(st.sampled_from(yss))
        yss.append(draw(st.one_of(st.just(earlier), fresh,
                                  units.map(lambda rho: [rho * y for y in earlier]))))
    return fs, yss, PrimeContext(p), _top(fs), m


@_differential
@given(problem=_grouping_problem())
@example(problem=([X2], [[Fraction(1, 9)], [Fraction(2, 9)], [Fraction(1, 3)], [Fraction(1, 3)],
                         [Fraction(0)], [Fraction(0)]], C3, 1, 2))
@example(problem=([X2, parse_poly("x2^2")], [[Fraction(1, 9), Fraction(1, 3)],
                                              [Fraction(2, 9), Fraction(2, 3)],
                                              [Fraction(0), Fraction(1, 3)],
                                              [Fraction(0), Fraction(4, 3)],
                                              [Fraction(1, 3), Fraction(0)],
                                              [Fraction(1, 3), Fraction(0)]], C3, 2, 2))
def test_grouped_exp_sums_are_one_exp_sum_per_y(problem):
    """_exp_sums over many ys of one level equals one exp_sum per y, field by
    field, with the value's float bits and the phase counts."""
    fs, yss, ctx, n, m = problem
    shared = expsums._exp_sums(fs, yss, m, n, ctx, DEFAULT_BUDGET)
    singles = [exp_sum(fs, ys, ctx, level=m) for ys in yss]
    for res, single in zip(shared, singles, strict=True):
        assert res == single
        assert (res.value.real.hex(), res.value.imag.hex()) == \
            (single.value.real.hex(), single.value.imag.hex())
        assert res.phases == single.phases


def test_directions_share_one_enumeration_per_level(monkeypatch):
    """With one polynomial every direction reads one enumeration per level; with
    two, a direction shares one only with a unit multiple of itself."""
    calls = []
    values_mod = expsums._values_mod
    monkeypatch.setattr(expsums, "_values_mod",
                        lambda *args: calls.append(args[1]) or values_mod(*args))
    fits = decay_fits([X3], [[1], [2], [4]], (1, 3), C3)
    assert calls == [1, 2, 3]
    assert [fit.vanished for fit in fits] == [[1], [1], [1]]
    calls.clear()
    decay_fits([X2, parse_poly("x2^2")], [[1, 2], [2, 4], [1, 1]], (1, 2), C3)
    assert calls == [1, 1, 2, 2]  # [2, 4] = 2 * [1, 2] shares; [1, 1] does not


def two_enumeration_fourier(fs, ys, ctx, n):
    """Both sides of the Fourier identity from two enumerations: exp_sum, then the
    value histogram of solution_histogram, added in sorted order."""
    lhs = exp_sum(fs, ys, ctx).value
    m = _required_level(ys, ctx)
    if m == 0:
        return lhs, complex(1.0, 0.0), abs(lhs - 1.0)
    pm = ctx.p**m
    coeffs = [residue(yi * pm, m, ctx) for yi in ys]
    table = _character_table(pm)
    terms = [count * table[sum(c * zi for c, zi in zip(coeffs, z)) % pm]
             for z, count in sorted(solution_histogram(fs, m, ctx, n=n).items())]
    rhs = _pairwise_sum(terms) / pm**n
    return lhs, rhs, abs(lhs - rhs)


@_differential
@given(problem=_sum_problem())
@example(problem=([parse_poly("x1^3 + 2*x1")], [Fraction(1, 3**8)], C3, 1, 8))
@example(problem=([parse_poly("x1^2 + x1*x2^3 - 2")], [Fraction(4, 81)], C3, 2, 4))
@example(problem=([parse_poly("x1^2 + x2"), parse_poly("x1^3")],
                  [Fraction(1, 3), Fraction(2, 27)], C3, 2, 3))
@example(problem=([parse_poly("1/2*x1^2 + x2")], [Fraction(3, 7)], C7, 2, 1))
def test_fourier_check_is_the_two_enumeration_computation(problem):
    fs, ys, ctx, n, _ = problem
    assert fourier_check(fs, ys, ctx) == two_enumeration_fourier(fs, ys, ctx, n)
