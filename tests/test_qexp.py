"""Closed-form shell sums: exactness, divergence conventions, invariants."""

import random
from dataclasses import replace
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellint import (
    BoxDomain,
    CellTermSpec,
    CertificateMismatchError,
    DecompositionCertificate,
    DivergentError,
    ExponentTooLargeError,
    KRange,
    LatticeFactor,
    LatticeTermSpec,
    PrimeContext,
    RootScaledValue,
    TermOnCell,
    decide_integrability,
    eulerian_polynomial,
    integrate_explicit_tower,
    krange_from_bounds,
    mixed_sum,
    point_cell,
    power_sum,
    shell_sum,
    unit_ball_coset_cell,
    zp_nonzero_cell,
)
from cellint import padic_core, qexp_sum
from cellint.cells import (
    Bound,
    CellLevel,
    CellTower,
    CosetSpec,
    fiber_measure,
    fiber_valuation_range,
    tower_measure,
)
from cellint.padic_core import power_norm, unit_coset_density, valuation
from cellint.polynomials import Polynomial
from cellint.qexp_sum import progression_power_sum

C5 = PrimeContext(5)
ONE5 = RootScaledValue.from_rational(1, 5)


def term(a, n, l, lam=1, coeff=ONE5):
    return TermOnCell(coeff, a, n, l, Fraction(lam))


# -- Eulerian polynomials and power sums ---------------------------------------


def test_eulerian_small_cases():
    assert eulerian_polynomial(0) == [1]
    assert eulerian_polynomial(1) == [0, 1]
    assert eulerian_polynomial(2) == [0, 1, 1]
    assert eulerian_polynomial(3) == [0, 1, 4, 1]
    assert eulerian_polynomial(4) == [0, 1, 11, 11, 1]


def test_power_sum_closed_forms_against_partial_sums():
    # independent numeric oracle: truncated series vs the closed form
    for y in (Fraction(1, 2), Fraction(2, 7), Fraction(-1, 3)):
        for l in range(7):
            partial = sum(Fraction(j) ** l * y**j for j in range(0, 400))
            closed = power_sum(y, l, 0, None)
            assert abs(float(closed) - float(partial)) < 1e-10, (y, l)


def test_power_sum_examples():
    assert power_sum(Fraction(1, 2), 0, 0, None) == 2
    assert power_sum(Fraction(1, 3), 1, 0, None) == Fraction(3, 4)
    # derived value: partial sums to 200 approach 6; closed form y(1+y)/(1-y)^3
    y = Fraction(1, 2)
    partial = sum(Fraction(j) ** 2 * y**j for j in range(1, 201))
    closed = y * (1 + y) / (1 - y) ** 3
    assert abs(float(partial) - 6.0) < 1e-12
    assert closed == 6
    assert power_sum(y, 2, 1, None) == 6


def test_power_sum_shifted_and_negative_starts():
    y = Fraction(2, 7)
    assert power_sum(y, 1, 3, None) == power_sum(y, 1, 0, None) - power_sum(y, 1, 0, 2)
    assert power_sum(y, 0, -2, None) == y**-2 + y**-1 + power_sum(y, 0, 0, None)
    # downward tail needs |y| > 1
    assert power_sum(Fraction(3), 0, None, -1) == sum(Fraction(3) ** j for j in range(-40, 0)) + \
        Fraction(3) ** -41 / (1 - Fraction(1, 3))


def test_power_sum_divergence():
    with pytest.raises(DivergentError):
        power_sum(Fraction(1), 0, 0, None)
    with pytest.raises(DivergentError):
        power_sum(Fraction(3, 2), 1, 0, None)
    with pytest.raises(DivergentError):
        power_sum(Fraction(1, 2), 0, None, 5)
    with pytest.raises(DivergentError):
        power_sum(Fraction(1, 2), 0, None, None)


def test_power_sum_telescoping_random():
    rng = random.Random(5150)
    for _ in range(300):
        y = Fraction(rng.randint(1, 9), rng.randint(10, 30))
        l = rng.randint(0, 4)
        cut = rng.randint(0, 12)
        total = power_sum(y, l, 0, None)
        assert power_sum(y, l, 0, cut) + power_sum(y, l, cut + 1, None) == total


def test_power_sum_exponent_cap():
    with pytest.raises(ExponentTooLargeError):
        power_sum(Fraction(1, 2), 17, 0, None)
    assert power_sum(Fraction(1, 2), 16, 0, None) > 0


# -- the shifted series behind every closed form, against direct summation --------

_series = settings(derandomize=True, max_examples=150, deadline=None)
_nonzero = st.fractions(-4, 4, max_denominator=9).filter(lambda y: y != 0)
_small = st.fractions(-1, 1, max_denominator=30).filter(lambda y: y != 0 and abs(y) < 1)


def _direct(y, l, modulus, residue, lo, hi):
    return sum((Fraction(k) ** l * y**k for k in range(lo, hi + 1)
                if k % modulus == residue % modulus), Fraction(0))


@_series
@given(y=_nonzero, l=st.integers(0, 4), modulus=st.integers(1, 4),
       residue=st.integers(0, 6), lo=st.integers(-8, 8), length=st.integers(-2, 14))
def test_finite_series_match_direct_summation(y, l, modulus, residue, lo, length):
    hi = lo + length
    assert progression_power_sum(y, l, KRange(modulus, residue, lo, hi)) == \
        _direct(y, l, modulus, residue, lo, hi)
    assert power_sum(y, l, lo, hi) == _direct(y, l, 1, 0, lo, hi)


@_series
@given(y=_small, l=st.integers(0, 4), modulus=st.integers(1, 4),
       residue=st.integers(0, 6), lo=st.integers(-8, 8), skip=st.integers(0, 10))
def test_infinite_series_split_at_a_cut(y, l, modulus, residue, lo, skip):
    cut = lo + skip
    up = KRange(modulus, residue, lo, None)
    assert progression_power_sum(y, l, up) == \
        progression_power_sum(y, l, KRange(modulus, residue, lo, cut)) + \
        progression_power_sum(y, l, KRange(modulus, residue, cut + 1, None))
    assert power_sum(y, l, lo, None) == power_sum(y, l, lo, cut) + power_sum(y, l, cut + 1, None)
    # mirrored: (-inf, hi] = (-inf, hi - skip - 1] + [hi - skip, hi], converging for |1/y| > 1
    z, hi = 1 / y, lo
    down = KRange(modulus, residue, None, hi)
    assert progression_power_sum(z, l, down) == \
        progression_power_sum(z, l, KRange(modulus, residue, None, hi - skip - 1)) + \
        progression_power_sum(z, l, KRange(modulus, residue, hi - skip, hi))
    assert power_sum(z, l, None, hi) == \
        power_sum(z, l, None, hi - skip - 1) + power_sum(z, l, hi - skip, hi)


@_series
@given(p=st.sampled_from([2, 3, 5, 7]), n=st.integers(1, 4), c=st.integers(-3, 3),
       l=st.integers(0, 4), residue=st.integers(0, 6), lo=st.integers(-6, 6),
       length=st.integers(-1, 10))
def test_shell_series_match_lattice_series_for_integral_exponents(p, n, c, l, residue,
                                                                  lo, length):
    # with n | n + a the shell term p^(-k(n+a)/n) is y^k for y = p^(-c), c = (n+a)/n;
    # lam = p^r puts v(lam) in the range's class and contributes |lam^(-a)|^(1/n) = p^(ar/n)
    ctx = PrimeContext(p)
    a, r = n * c - n, residue % n
    y = power_norm(p, -c)
    t = TermOnCell(RootScaledValue.from_rational(1, p), a, n, l, Fraction(p**r))
    eps = unit_coset_density(1, n, ctx)
    ranges = [KRange(n, residue, lo, lo + length)]
    if c > 0:
        ranges.append(KRange(n, residue, lo, None))
    if c < 0:
        ranges.append(KRange(n, residue, None, lo))
    for kr in ranges:
        assert shell_sum(t, kr, ctx) == (RootScaledValue.monomial(
            p, Fraction(-a * r, n), eps * progression_power_sum(y, l, kr)), True)


# -- the integer series against the Fraction forms it replaced -------------------
#
# The closed forms are summed in integers and divided once.  The oracles below are
# the term-by-term Fraction loop and the Fraction Eulerian tail, with A_t taken from
# the explicit Eulerian-number sum instead of the recurrence.


def _eulerian_oracle(t):
    return [Fraction(1)] if t == 0 else [Fraction(0)] + [
        Fraction(sum((-1) ** j * comb(t + 1, j) * (i - j) ** t for j in range(i + 1)))
        for i in range(1, t + 1)]


def _fraction_series(l, krange, q):
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
        a_t = sum(c * ratio**i for i, c in enumerate(_eulerian_oracle(t)))
        s += comb(l, t) * Fraction(k0) ** (l - t) * Fraction(step) ** t \
            * a_t / (1 - ratio) ** (t + 1)
    return k0, s


def _fraction_progression_sum(y, l, krange):
    y = Fraction(y)
    if krange.is_empty():
        return Fraction(0)
    if krange.lo is None and krange.hi is not None:
        if y == 0 or abs(y) <= 1:
            raise DivergentError(f"sum to -infinity diverges for y = {y}")
    else:
        if y == 0 and krange.first() < 0:
            raise DivergentError("negative powers of y = 0")
        if krange.hi is None and abs(y) >= 1:
            raise DivergentError(f"sum to +infinity diverges for y = {y}")
    k0, s = _fraction_series(l, krange, y**krange.modulus)
    return y**k0 * s


def _fraction_power_sum(y, l, lo, hi):
    if lo is None and hi is None:
        raise DivergentError("sum over all of Z diverges")
    return _fraction_progression_sum(y, l, KRange(1, 0, lo, hi))


def _fraction_shell_sum(t, krange, ctx):
    p, zero = ctx.p, RootScaledValue.zero(ctx.p)
    if krange.is_empty():
        return zero, True
    if not decide_integrability(t, krange):
        return zero, False
    vlam = int(valuation(t.lam, ctx))
    if krange.residue != vlam % t.n:
        return zero, True
    w = t.n + t.a
    k0, s = _fraction_series(t.l, krange, power_norm(p, -w))
    prefix = t.coefficient.scale(unit_coset_density(t.lam, t.n, ctx)) \
        * RootScaledValue.monomial(p, Fraction(-t.a * vlam, t.n))
    return prefix * RootScaledValue.monomial(p, Fraction(k0 * w, t.n), s), True


def _fraction_tower(terms, cert, ctx):
    zero = RootScaledValue.zero(ctx.p)
    total = zero
    for spec in terms:
        if spec.coeff == 0:
            continue
        cellval = RootScaledValue.from_rational(spec.coeff, ctx.p)
        for level, (a, l) in reversed(list(zip(cert.cells[spec.cell].levels, spec.levels))):
            value, ok = zero, True
            if level.coset.lam != 0:
                t = TermOnCell(RootScaledValue.from_rational(1, ctx.p),
                               a, level.coset.n, l, level.coset.lam)
                value, ok = _fraction_shell_sum(t, fiber_valuation_range(level, (), ctx), ctx)
            if not ok:
                return zero, False
            cellval = cellval * value
        total = total + cellval
    return total, True


def _outcome(fn, *args):
    """The value with its type, or the exception's type and message."""
    try:
        value = fn(*args)
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)
    return type(value), value


_differential = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def _ranges(draw, modulus):
    residue, lo = draw(st.integers(0, 6)), draw(st.integers(-8, 8))
    kind = draw(st.sampled_from(["finite", "up", "down", "all"]))
    hi = lo + draw(st.integers(-2, 16))
    return KRange(modulus, residue, *{"finite": (lo, hi), "up": (lo, None),
                                      "down": (None, hi), "all": (None, None)}[kind])


def test_eulerian_polynomials_are_integer_eulerian_numbers():
    for t in range(17):
        coeffs = eulerian_polynomial(t)
        assert all(type(c) is int for c in coeffs) and coeffs == _eulerian_oracle(t)


@_differential
@given(y=st.fractions(-9, 9, max_denominator=12), l=st.integers(0, 16),
       krange=st.integers(1, 5).flatmap(_ranges))
@example(y=Fraction(1), l=3, krange=KRange(2, 1, -5, 9))  # y = 1 (w = 0), finite range
@example(y=Fraction(7, 2), l=2, krange=KRange(3, 1, None, -4))  # downward walk, k0 = -5
@example(y=Fraction(-1, 3), l=1, krange=KRange(1, 0, -6, None))  # k0 < 0 going up
@example(y=Fraction(2, 9), l=16, krange=KRange(4, 3, 0, None))  # l = 16
@example(y=Fraction(1, 2), l=2, krange=KRange(16, 5, -20, None))  # p = 2, modulus 16
def test_power_sums_match_fraction_forms(y, l, krange):
    assert _outcome(progression_power_sum, y, l, krange) == \
        _outcome(_fraction_progression_sum, y, l, krange)
    assert _outcome(power_sum, y, l, krange.lo, krange.hi) == \
        _outcome(_fraction_power_sum, y, l, krange.lo, krange.hi)


_exponents = st.fractions(-3, 3, max_denominator=4)
_rationals = st.fractions(-20, 20, max_denominator=10)


@st.composite
def _root_values(draw, p):
    value = RootScaledValue.zero(p)
    for f, c in draw(st.lists(st.tuples(_exponents, _rationals), min_size=1, max_size=4)):
        value = value + RootScaledValue.monomial(p, f, c)
    return value


@st.composite
def _lams(draw, p):
    unit = Fraction(draw(st.sampled_from([1, -1, 2, -3, 4, 6])),
                    draw(st.sampled_from([1, 7, 11])))
    return unit * power_norm(p, draw(st.integers(-4, 4)))


@st.composite
def _shell_cases(draw):
    p, n, l = draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 4)), draw(st.integers(0, 6))
    lam, krange = draw(_lams(p)), draw(_ranges(n))
    if krange.hi is None:
        convergent = st.integers(1 - n, 6)
    elif krange.lo is None:
        convergent = st.integers(-6 - n, -1 - n)
    else:
        convergent = st.integers(-6, 6)
    if draw(st.integers(0, 3)):  # mostly a convergent sum over the coset's class of k
        a = draw(convergent)
        krange = KRange(n, int(valuation(lam, PrimeContext(p))), krange.lo, krange.hi)
    else:
        a = draw(st.integers(-6, 6))
    return p, TermOnCell(draw(_root_values(p)), a, n, l, lam), krange


def _shell_example(p, a, n, l, lam, krange, coeff=Fraction(2, 3)):
    if not isinstance(coeff, RootScaledValue):
        coeff = RootScaledValue.from_rational(coeff, p)
    return example(case=(p, TermOnCell(coeff, a, n, l, Fraction(lam)), krange))


@_differential
@given(case=_shell_cases())
@_shell_example(3, -2, 2, 3, 3, KRange(2, 1, -3, 7))  # w = n + a = 0, finite range
@_shell_example(5, -3, 1, 2, Fraction(1, 25), KRange(1, 0, None, 4))  # w < 0, downward walk
@_shell_example(7, 1, 3, 1, Fraction(2, 49), KRange(3, 1, -8, None))  # k0 = -8
@_shell_example(2, 0, 1, 16, 1, KRange(1, 0, 0, None))  # l = 16
@_shell_example(2, 3, 16, 2, Fraction(3, 4), KRange(16, 14, -2, None))  # p = 2, n = 16
# a coefficient at p^(-3/4): the Fraction forms fold 3/4 + 1/2 (from |lam^(-a)|^(1/n))
# past 1, while the integer kernel's factor is rational and nothing folds
@_shell_example(5, 1, 2, 1, 5, KRange(2, 1, 1, None),
                RootScaledValue.monomial(5, Fraction(3, 4), Fraction(5, 2)))
@_shell_example(5, 2, 1, 1, Fraction(1, 5), KRange(1, 0, -1, None),  # two items
                RootScaledValue.monomial(5, Fraction(1, 3), 2) + Fraction(-7))
# a float and an int coefficient are made exact Fractions by TermOnCell
@example(case=(5, TermOnCell(0.5, 1, 2, 1, Fraction(5)), KRange(2, 1, 1, None)))
@example(case=(3, TermOnCell(-4, -2, 2, 3, Fraction(3)), KRange(2, 1, -3, 7)))
def test_shell_sums_match_fraction_forms(case):
    """A RootScaledValue coefficient gives the ring value of the Fraction forms; a
    rational one (a Fraction, or an int or float made one) gives that value's
    Fraction, so explicit towers never leave Q."""
    p, t, krange = case
    ctx = PrimeContext(p)
    coeff = t.coefficient
    if not isinstance(coeff, RootScaledValue):
        assert type(coeff) is Fraction
        coeff = RootScaledValue.from_rational(coeff, p)
    want = _outcome(_fraction_shell_sum, replace(t, coefficient=coeff), krange, ctx)
    if coeff is t.coefficient:
        assert _outcome(shell_sum, t, krange, ctx) == want
        if not coeff.is_rational():
            return
        t = replace(t, coefficient=coeff.as_exact_rational())
    if want[0] is tuple:
        want = tuple, (want[1][0].as_exact_rational(), want[1][1])
    got = _outcome(shell_sum, t, krange, ctx)
    assert got == want and (got[0] is not tuple or type(got[1][0]) is Fraction)


@st.composite
def _explicit_levels(draw, p):
    if draw(st.integers(0, 9)) == 0:
        return CellLevel(Polynomial.constant(draw(st.integers(-2, 2))), None, None,
                         CosetSpec(Fraction(0), 1))

    def side(weight):  # a bound in weight draws of 6
        if draw(st.integers(1, 6)) > weight:
            return None
        return Bound(Polynomial.constant(draw(_lams(p))), draw(st.booleans()))

    # alpha caps k = v(t - c) above, beta bounds it below: mostly beta alone
    return CellLevel(Polynomial.constant(draw(st.integers(-2, 2))), side(1), side(5),
                     CosetSpec(draw(_lams(p)), draw(st.integers(1, 4))))


@st.composite
def _tower_cases(draw):
    p, depth, cells = (draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 3)),
                       draw(st.integers(1, 2)))
    towers = tuple(CellTower(tuple(draw(_explicit_levels(p)) for _ in range(depth)))
                   for _ in range(cells))
    cert = DecompositionCertificate(p, BoxDomain(depth), towers)
    exps = st.tuples(st.integers(-2, 4), st.integers(0, 4))
    terms = [CellTermSpec(draw(st.integers(0, cells - 1)),
                          draw(st.fractions(-3, 3, max_denominator=4)),
                          tuple(draw(exps) for _ in range(depth)))
             for _ in range(draw(st.integers(1, 3)))]
    return p, terms, cert


def _level(lam, n=1, lower=None, upper=None):
    """A constant level |lower| < |t| < |upper|, t in lam*P_n (None: no bound)."""
    def bound(c):
        return None if c is None else Bound(Polynomial.constant(Fraction(c)), True)
    return CellLevel(Polynomial.constant(0), bound(lower), bound(upper),
                     CosetSpec(Fraction(lam), n))


def _tower_example(p, *levels, coeff=Fraction(-5, 4)):
    """One cell of (level, (a, l)) pairs, outermost first."""
    cert = DecompositionCertificate(p, BoxDomain(len(levels)),
                                    (CellTower(tuple(lv for lv, _ in levels)),))
    return example(case=(p, [CellTermSpec(0, coeff, tuple(e for _, e in levels))], cert))


@_differential
@given(case=_tower_cases())
@_tower_example(5, (_level(1, lower=625, upper=Fraction(1, 25)), (-1, 2)))  # w = 0, k in [-1, 3]
@_tower_example(5, (_level(3, lower=Fraction(1, 5)), (-3, 1)))  # w < 0, downward from k0 = -2
@_tower_example(3, (_level(Fraction(2, 9), 2, upper=Fraction(1, 3**5)), (0, 3)))  # k0 = -4
@_tower_example(7, (_level(1, upper=1), (1, 16)), (_level(2, upper=7), (0, 16)))  # l = 16
@_tower_example(2, (_level(Fraction(3, 4), 16, upper=Fraction(1, 8)), (3, 2)),  # p = 2, n = 16
                (_level(1, 16, upper=1), (-15, 0)))
# the Fraction forms fold 1/2 + 1/2 (from |lam^(-a)|^(1/n) and the k-sum) into 1
@_tower_example(5, (_level(5, 2, upper=Fraction(1, 5)), (1, 0)), (_level(1, 2, upper=1), (1, 1)))
# a float and an int coefficient integrate exactly as their Fractions
@_tower_example(5, (_level(5, 2, upper=Fraction(1, 5)), (1, 0)), coeff=0.5)
@_tower_example(3, (_level(Fraction(2, 9), 2, upper=Fraction(1, 3**5)), (0, 3)), coeff=-3)
def test_explicit_towers_match_fraction_forms(case):
    """Integrals match the Fraction forms and stay a RootScaledValue at the API;
    tower and fiber measures are Fractions."""
    p, terms, cert = case
    ctx = PrimeContext(p)
    got = _outcome(integrate_explicit_tower, terms, cert, ctx)
    fractions = [replace(spec, coeff=Fraction(spec.coeff)) for spec in terms]
    assert got == _outcome(_fraction_tower, terms, cert, ctx) \
        == _outcome(integrate_explicit_tower, fractions, cert, ctx)
    assert got[0] is not tuple or type(got[1][0]) is RootScaledValue
    for i, tower in enumerate(cert.cells):
        unit = [CellTermSpec(i, Fraction(1), ((0, 0),) * len(tower.levels))]
        value, ok = _fraction_tower(unit, cert, ctx)
        if not ok:
            with pytest.raises(DivergentError):
                tower_measure(tower, ctx)
            continue
        fibers = [fiber_measure(level, ctx) for level in tower.levels]
        measure = tower_measure(tower, ctx)
        assert type(measure) is Fraction and all(type(f) is Fraction for f in fibers)
        assert measure == prod(fibers) == value.as_exact_rational()


def test_lattice_exponent_must_be_nonnegative():
    with pytest.raises(ValueError, match="l must be nonnegative"):
        progression_power_sum(Fraction(1, 2), -1, KRange(1, 0, 1, 3))


# -- KRange ----------------------------------------------------------------------


def test_krange_basics():
    kr = KRange(2, 0, 0, None)
    assert kr.first() == 0 and not kr.is_empty()
    assert kr.contains(4) and not kr.contains(3) and not kr.contains(-2)
    kr = KRange(2, 1, 0, 7)
    assert list(kr.members()) == [1, 3, 5, 7]
    assert KRange(2, 0, 3, 3).is_empty()
    assert not KRange(2, 0, 3, 4).is_empty()
    empty = KRange(1, 0, 5, 2)
    assert empty.is_empty()


def test_krange_from_bounds():
    # |alpha| < |t - c| caps k above, |t - c| < |beta| bounds it below
    assert krange_from_bounds(5, True, 1, True, 0, 1) == KRange(1, 0, 2, 4)
    assert krange_from_bounds(5, False, 1, False, 7, 3) == KRange(3, 1, 1, 5)
    assert krange_from_bounds(None, True, -2, False, -3, 2) == KRange(2, 1, -2, None)
    assert krange_from_bounds(0, True, None, True, 4, 4) == KRange(4, 0, None, -1)
    assert krange_from_bounds(None, False, None, False, 1, 1) == KRange(1, 0)
    assert krange_from_bounds(2, True, 2, False, 0, 1).is_empty()


def test_krange_split():
    below, above = KRange(3, 1, -2, 5), KRange(3, 1, 6, None)
    assert list(below.members()) == [-2, 1, 4]
    assert above.first() == 7


# -- shell sums -------------------------------------------------------------------


def test_shell_sum_unit_interval():
    # int_{Z_p} |t| dt
    v, ok = shell_sum(term(1, 1, 0), KRange(1, 0, 0, None), C5)
    assert ok and v.as_exact_rational() == Fraction(5, 6)
    # int_{Z_p} dt
    v, ok = shell_sum(term(0, 1, 0), KRange(1, 0, 0, None), C5)
    assert ok and v.as_exact_rational() == 1
    # divergent: int |t|^{-1}
    v, ok = shell_sum(term(-1, 1, 0), KRange(1, 0, 0, None), C5)
    assert not ok and v == RootScaledValue.zero(5)
    # int over P_2 shells of |t|^{1/2}
    v, ok = shell_sum(term(1, 2, 0), KRange(2, 0, 0, None), C5)
    assert ok and v.as_exact_rational() == Fraction(25, 62)


def test_shell_sum_fractional_value():
    # The lam^{-a} normalization keeps normalized terms rational: here
    # eps * |5^{-1}|^{1/2} * sum_{k odd >= 1} 5^{-3k/2} = 5/62 exactly.
    kr = KRange(2, 1, 1, None)
    v, ok = shell_sum(term(1, 2, 0, lam=5), kr, C5)
    eps = Fraction(2, 5)
    tail = Fraction(5**3, 5**3 - 1)  # sum over j of 5^{-3j}
    assert ok and v.as_exact_rational() == eps * tail * Fraction(1, 5) == Fraction(5, 62)
    # The unnormalized integral int_{5P_2, |t|<=1} |t|^{1/2} carries its
    # irrationality in the coefficient |5|^{1/2}:
    coeff = RootScaledValue.monomial(5, Fraction(1, 2))
    v, ok = shell_sum(term(1, 2, 0, lam=5, coeff=coeff), kr, C5)
    assert ok and not v.is_rational() and v.root_order == 2
    assert v == RootScaledValue.monomial(5, Fraction(3, 2), eps * tail)


def test_shell_sum_empty_and_mismatched_residue():
    v, ok = shell_sum(term(1, 2, 0), KRange(2, 0, 3, 2), C5)
    assert ok and v == RootScaledValue.zero(5)
    # residue class avoids the coset valuations entirely
    v, ok = shell_sum(term(1, 2, 0, lam=1), KRange(2, 1, 1, 9), C5)
    assert ok and v == RootScaledValue.zero(5)


def test_decide_integrability():
    assert decide_integrability(term(1, 1, 0), KRange(1, 0, 0, None)) is True
    assert decide_integrability(term(-1, 1, 0), KRange(1, 0, 0, None)) is False
    assert decide_integrability(term(-3, 2, 0), KRange(2, 0, None, 0)) is True
    assert decide_integrability(term(1, 2, 5), KRange(2, 0, 2, 9)) is True
    assert decide_integrability(term(0, 1, 1), KRange(1, 0, None, None)) is False


def test_shell_sum_flag_matches_predicate_random():
    rng = random.Random(77)
    for _ in range(300):
        a = rng.randint(-4, 4)
        n = rng.randint(1, 3)
        l = rng.randint(0, 3)
        coeff = RootScaledValue.from_rational(Fraction(rng.randint(1, 9), rng.randint(1, 5)), 5)
        bounds = rng.choice([(0, None), (None, 0), (-3, 8)])
        t = term(a, n, l, coeff=coeff)
        kr = KRange(n, 0, *bounds)
        _, ok = shell_sum(t, kr, C5)
        assert ok == decide_integrability(t, kr)


def test_shell_sum_range_splitting_exact():
    rng = random.Random(88)
    for _ in range(200):
        n = rng.randint(1, 3)
        a = rng.randint(1 - n, 4)  # n + a > 0 so the upward tail converges
        l = rng.randint(0, 2)
        lam = rng.choice([Fraction(1), Fraction(2), Fraction(5), Fraction(1, 5)])
        t = term(a, n, l, lam=lam)
        kr = KRange(n, rng.randrange(n), rng.randint(-4, 2), None)
        cut = rng.randint(-2, 8)
        whole, ok = shell_sum(t, kr, C5)
        lo_part, ok1 = shell_sum(t, KRange(n, kr.residue, kr.lo, cut - 1), C5)
        hi_part, ok2 = shell_sum(t, KRange(n, kr.residue, max(kr.lo, cut), None), C5)
        assert ok and ok1 and ok2
        assert whole == lo_part + hi_part


def test_shell_sum_scaling_covariance():
    # Full shell sums (with the |lam^{-a}|^{1/n} normalization) scale by
    # p^{-n} under lam -> p^n lam with the range shifted by n; with lam kept,
    # the shifted k-sum scales by p^{-(n+a)}.
    for a, n in [(1, 1), (1, 2), (2, 3), (0, 2)]:
        kr = KRange(n, 0, 0, None)
        t1 = term(a, n, 0, lam=1)
        t2 = term(a, n, 0, lam=5**n)
        v1, _ = shell_sum(t1, kr, C5)
        v2, _ = shell_sum(t2, kr.shifted(n), C5)
        assert v2 == v1.scale(Fraction(1, 5**n))
        v3, _ = shell_sum(t1, kr.shifted(n), C5)
        assert v3 == v1 * RootScaledValue.monomial(5, Fraction(n + a))


def test_shell_sum_downward_tail():
    # k -> -infinity converges when n + a < 0: big shells, decaying integrand.
    v, ok = shell_sum(term(-3, 1, 0), KRange(1, 0, None, 0), C5)
    # sum over k <= 0 of (1 - 1/5) p^{-k(1-3)} = (4/5) sum_{k<=0} 5^{2k}
    assert ok and v.as_exact_rational() == Fraction(4, 5) * Fraction(25, 24)


# -- explicit tower integration ----------------------------------------------------


def test_tower_product_integral():
    lvl = zp_nonzero_cell().levels[0]
    cert = DecompositionCertificate(5, BoxDomain(2), (CellTower((lvl, lvl)),))
    terms = [CellTermSpec(0, Fraction(1), ((1, 0), (1, 0)))]
    v, ok = integrate_explicit_tower(terms, cert, C5)
    assert ok and v.as_exact_rational() == Fraction(25, 36)


def test_tower_valuation_integral_with_point_cell():
    cert = DecompositionCertificate(
        5, BoxDomain(1), (point_cell(0), zp_nonzero_cell()))
    terms = [CellTermSpec(0, Fraction(1), ((0, 1),)),
             CellTermSpec(1, Fraction(1), ((0, 1),))]
    v, ok = integrate_explicit_tower(terms, cert, C5)
    assert ok and v.as_exact_rational() == Fraction(1, 4)


def test_tower_refuses_a_context_at_another_prime():
    cert = DecompositionCertificate(5, BoxDomain(1), (zp_nonzero_cell(),))
    terms = [CellTermSpec(0, Fraction(1), ((1, 0),))]
    with pytest.raises(ValueError, match="context prime differs from certificate prime"):
        integrate_explicit_tower(terms, cert, PrimeContext(7))


def test_tower_zero_integrand():
    cert = DecompositionCertificate(5, BoxDomain(1), (zp_nonzero_cell(),))
    v, ok = integrate_explicit_tower([CellTermSpec(0, Fraction(0), ((1, 0),))], cert, C5)
    assert ok and v == RootScaledValue.zero(5)


def test_tower_divergent_returns_zero_false():
    cert = DecompositionCertificate(5, BoxDomain(1), (zp_nonzero_cell(),))
    v, ok = integrate_explicit_tower([CellTermSpec(0, Fraction(1), ((-1, 0),))], cert, C5)
    assert not ok and v == RootScaledValue.zero(5)


def test_point_level_before_divergent_level():
    # levels run innermost first: the point level makes the value 0, and the
    # divergent outer level still makes the whole integral (0, False)
    unbounded = CellLevel(Polynomial.constant(0), None, None, CosetSpec(Fraction(1), 1))
    point = point_cell(0).levels[0]
    cert = DecompositionCertificate(5, BoxDomain(2), (CellTower((unbounded, point)),))
    v, ok = integrate_explicit_tower([CellTermSpec(0, Fraction(1), ((0, 0), (0, 0)))],
                                     cert, C5)
    assert not ok and v == RootScaledValue.zero(5)
    with pytest.raises(DivergentError):  # tower_measure runs outermost first
        tower_measure(CellTower((point, unbounded)), C5)


def test_one_multiply_per_explicit_level(monkeypatch):
    """Counts, not times: explicit towers stay in Fraction, so each level with
    lambda != 0 pays one Fraction multiply and one v(lambda), no level touches
    RootScaledValue arithmetic, and the total is made a RootScaledValue once."""
    cells = (CellTower((_level(2, upper=25), point_cell(0).levels[0], _level(3, 2, upper=1))),
             CellTower((_level(7, lower=Fraction(1, 25)), _level(10, upper=1),
                        _level(Fraction(1, 5), 2, lower=125, upper=Fraction(1, 25)))))
    cert = DecompositionCertificate(5, BoxDomain(3), cells)
    terms = [CellTermSpec(0, Fraction(2), ((1, 0), (0, 0), (0, 2))),
             CellTermSpec(1, Fraction(-1, 3), ((-2, 1), (0, 0), (2, 3)))]
    expected = _fraction_tower(terms, cert, C5)

    calls = {"fraction_mul": 0, "root_mul": 0, "from_rational": 0}
    valued = []
    fraction_mul, root_mul = Fraction.__mul__, RootScaledValue.__mul__
    from_rational = RootScaledValue.from_rational.__func__
    valuation_ = padic_core.valuation

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    def counted_valuation(x, ctx):
        valued.append(Fraction(x))
        return valuation_(x, ctx)

    monkeypatch.setattr(Fraction, "__mul__", counted("fraction_mul", fraction_mul))
    monkeypatch.setattr(RootScaledValue, "__mul__", counted("root_mul", root_mul))
    monkeypatch.setattr(RootScaledValue, "from_rational",
                        classmethod(counted("from_rational", from_rational)))
    for module in (padic_core, qexp_sum):
        monkeypatch.setattr(module, "valuation", counted_valuation)
    got = integrate_explicit_tower(terms, cert, C5)
    counts = dict(calls)
    monkeypatch.undo()
    assert got == expected and type(got[0]) is RootScaledValue
    assert expected[1] and expected[0] != RootScaledValue.zero(5)

    levels = [lv for tower in cells for lv in tower.levels]
    lams = [lv.coset.lam for lv in levels if lv.coset.lam != 0]
    bounds = [b.expr.constant_value() for lv in levels if lv.coset.lam != 0
              for b in (lv.lower, lv.upper) if b is not None]
    assert len(lams) == 5 and not set(lams) & set(bounds)
    assert counts == {"fraction_mul": len(lams), "root_mul": 0, "from_rational": 1}
    assert sorted(valued) == sorted(lams + bounds)  # v(lambda) once per level


def test_tower_certificate_mismatch():
    cert = DecompositionCertificate(5, BoxDomain(1), (zp_nonzero_cell(),))
    with pytest.raises(CertificateMismatchError):
        integrate_explicit_tower([CellTermSpec(3, Fraction(1), ((1, 0),))], cert, C5)
    with pytest.raises(CertificateMismatchError):
        integrate_explicit_tower([CellTermSpec(0, Fraction(1), ((1, 0), (0, 0)))], cert, C5)


def test_tower_p2_fractional_integral():
    cert = DecompositionCertificate(5, BoxDomain(1), (unit_ball_coset_cell(1, 2),))
    v, ok = integrate_explicit_tower([CellTermSpec(0, Fraction(1), ((1, 0),))], cert, C5)
    assert ok and v.as_exact_rational() == Fraction(25, 62)


# -- lattice sums -------------------------------------------------------------------


def test_mixed_sum_examples():
    geo = LatticeFactor(0, 1, KRange(1, 0, 0, None))
    total, ok = mixed_sum([LatticeTermSpec(Fraction(1), (geo, ))], C5)
    assert ok and total == Fraction(5, 4)

    total, ok = mixed_sum([LatticeTermSpec(Fraction(1), (geo, geo))], C5)
    assert ok and total == Fraction(25, 16)

    weighted = LatticeFactor(1, 2, KRange(1, 0, 1, None))
    total, ok = mixed_sum([LatticeTermSpec(Fraction(1), (weighted,))], C5)
    assert ok and total == Fraction(25, 576)


def test_mixed_sum_divergence_in_band():
    growing = LatticeFactor(0, -1, KRange(1, 0, 0, None))  # sum of 5^z
    total, ok = mixed_sum([LatticeTermSpec(Fraction(1), (growing,))], C5)
    assert not ok and total == 0


def test_mixed_sum_progressions():
    # z = 2 mod 3, z in [2, 14]: direct check
    fac = LatticeFactor(1, 1, KRange(3, 2, 2, 14))
    total, ok = mixed_sum([LatticeTermSpec(Fraction(2), (fac,))], C5)
    direct = 2 * sum(Fraction(z) * Fraction(1, 5**z) for z in (2, 5, 8, 11, 14))
    assert ok and total == direct


@st.composite
def _lattice_factors(draw):
    """A factor over a finite or one-sided progression (never all of Z)."""
    modulus, residue = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    lo = draw(st.integers(-8, 8))
    bounds = draw(st.sampled_from([(lo, lo + draw(st.integers(-2, 14))), (lo, None), (None, lo)]))
    return LatticeFactor(draw(st.integers(0, 5)), draw(st.integers(-3, 3)),
                         KRange(modulus, residue, *bounds))


def _fraction_mixed_sum(terms, p):
    """Sum of coeff * prod of the Fraction progression sums; (0, False) once a
    term with coeff != 0 has a divergent factor."""
    products = []
    for spec in terms:
        if spec.coeff == 0:
            continue
        sums = [_outcome(_fraction_progression_sum, power_norm(p, -f.c), f.l, f.krange)
                for f in spec.factors]
        if any(kind is DivergentError for kind, _ in sums):
            return Fraction(0), False
        products.append(spec.coeff * prod(value for _, value in sums))
    return sum(products, Fraction(0)), True


_lattice_terms = st.lists(st.builds(LatticeTermSpec, st.fractions(-3, 3, max_denominator=4),
                                    st.lists(_lattice_factors(), max_size=3).map(tuple)),
                          min_size=1, max_size=3)


@_differential
@given(p=st.sampled_from([2, 3, 5, 7]), terms=_lattice_terms)
@example(p=5, terms=[LatticeTermSpec(Fraction(1), (LatticeFactor(1, 1, KRange(2, 1, -3, None)),
                                                    LatticeFactor(0, -1, KRange(1, 0, 0, None))))])
def test_mixed_sums_match_fraction_forms(p, terms):
    total, ok = mixed_sum(terms, PrimeContext(p))
    assert type(total) is Fraction and (total, ok) == _fraction_mixed_sum(terms, p)
