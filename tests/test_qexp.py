"""Closed-form shell sums: exactness, divergence conventions, invariants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    mixed_sum,
    point_cell,
    power_sum,
    shell_sum,
    unit_ball_coset_cell,
    zp_nonzero_cell,
)
from cellint.cells import CellTower
from cellint.padic_core import power_norm
from cellint.qexp_sum import _shell_power_sum, progression_power_sum

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
        progression_power_sum(y, l, up.below(cut + 1)) + \
        progression_power_sum(y, l, up.at_least(cut + 1))
    assert power_sum(y, l, lo, None) == power_sum(y, l, lo, cut) + power_sum(y, l, cut + 1, None)
    # mirrored: (-inf, hi] = (-inf, hi - skip - 1] + [hi - skip, hi], converging for |1/y| > 1
    z, hi = 1 / y, lo
    down = KRange(modulus, residue, None, hi)
    assert progression_power_sum(z, l, down) == \
        progression_power_sum(z, l, down.below(hi - skip)) + \
        progression_power_sum(z, l, down.at_least(hi - skip))
    assert power_sum(z, l, None, hi) == \
        power_sum(z, l, None, hi - skip - 1) + power_sum(z, l, hi - skip, hi)


@_series
@given(p=st.sampled_from([2, 3, 5, 7]), n=st.integers(1, 4), c=st.integers(-3, 3),
       l=st.integers(0, 4), residue=st.integers(0, 6), lo=st.integers(-6, 6),
       length=st.integers(-1, 10))
def test_shell_series_match_lattice_series_for_integral_exponents(p, n, c, l, residue,
                                                                  lo, length):
    # with n | n + a the shell term p^(-k(n+a)/n) is y^k for y = p^(-c), c = (n+a)/n
    a = n * c - n
    y = power_norm(p, -c)
    ranges = [KRange(n, residue, lo, lo + length)]
    if c > 0:
        ranges.append(KRange(n, residue, lo, None))
    if c < 0:
        ranges.append(KRange(n, residue, None, lo))
    for kr in ranges:
        assert _shell_power_sum(p, a, n, l, kr) == \
            RootScaledValue.from_rational(progression_power_sum(y, l, kr), p)


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


def test_krange_split():
    kr = KRange(3, 1, -2, None)
    below, above = kr.below(6), kr.at_least(6)
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
    assert not ok and v.is_zero()
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
    assert ok and v.is_zero()
    # residue class avoids the coset valuations entirely
    v, ok = shell_sum(term(1, 2, 0, lam=1), KRange(2, 1, 1, 9), C5)
    assert ok and v.is_zero()


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
        lo_part, ok1 = shell_sum(t, kr.below(cut), C5)
        hi_part, ok2 = shell_sum(t, kr.at_least(cut), C5)
        assert ok and ok1 and ok2
        assert whole == lo_part + hi_part


def test_shell_sum_scaling_covariance():
    # Full shell sums (with the |lam^{-a}|^{1/n} normalization) scale by
    # p^{-n} under lam -> p^n lam with the range shifted by n; the bare
    # k-sum scales by p^{-(n+a)}.
    for a, n in [(1, 1), (1, 2), (2, 3), (0, 2)]:
        kr = KRange(n, 0, 0, None)
        t1 = term(a, n, 0, lam=1)
        t2 = term(a, n, 0, lam=5**n)
        v1, _ = shell_sum(t1, kr, C5)
        v2, _ = shell_sum(t2, kr.shifted(n), C5)
        assert v2 == v1.scale(Fraction(1, 5**n))
        bare1 = _shell_power_sum(5, a, n, 0, kr)
        bare2 = _shell_power_sum(5, a, n, 0, kr.shifted(n))
        assert bare2 == bare1 * RootScaledValue.monomial(5, Fraction(n + a))


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


def test_tower_zero_integrand():
    cert = DecompositionCertificate(5, BoxDomain(1), (zp_nonzero_cell(),))
    v, ok = integrate_explicit_tower([CellTermSpec(0, Fraction(0), ((1, 0),))], cert, C5)
    assert ok and v.is_zero()


def test_tower_divergent_returns_zero_false():
    cert = DecompositionCertificate(5, BoxDomain(1), (zp_nonzero_cell(),))
    v, ok = integrate_explicit_tower([CellTermSpec(0, Fraction(1), ((-1, 0),))], cert, C5)
    assert not ok and v.is_zero()


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
