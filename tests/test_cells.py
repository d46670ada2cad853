"""Cell membership, fiber geometry, and certificate verification."""

import json
import random
from fractions import Fraction

import pytest

from cellint import (
    Bound,
    BoundVanishedError,
    BudgetExceededError,
    BoxDomain,
    CellLevel,
    CellTower,
    CosetSpec,
    DecompositionCertificate,
    DivergentError,
    KRange,
    NormDescription,
    PrimeContext,
    check_norm_description,
    check_partition,
    certificate_from_dict,
    certificate_to_dict,
    contains,
    fiber_measure,
    fiber_valuation_range,
    hensel_level,
    parse_poly,
    point_cell,
    tower_measure,
    unit_ball_coset_cell,
    valuation,
    zp_nonzero_cell,
)
from cellint.polynomials import Polynomial

C2 = PrimeContext(2)
C5 = PrimeContext(5)


def one_level(center=0, lower=None, upper=None, lam=1, n=1) -> CellTower:
    return CellTower((CellLevel(
        center=Polynomial.constant(center),
        lower=lower, upper=upper,
        coset=CosetSpec(Fraction(lam), n)),))


def bound(value, strict=True) -> Bound:
    return Bound(Polynomial.constant(value), strict)


# -- contains -----------------------------------------------------------------


def test_contains_examples():
    zp = zp_nonzero_cell()
    assert contains(zp, [Fraction(1, 5)], C5) is False  # |1/5| = 5 > 1
    assert contains(zp, [1], C5) is True
    pc = point_cell(0)
    assert contains(pc, [0], C5) is True
    assert contains(pc, [1], C5) is False
    # {|t-1| < 1, t-1 in 5 P_2} contains 6: 5/5 = 1 is a square, |5| < 1
    cell = CellTower((CellLevel(
        center=Polynomial.constant(1),
        lower=None,
        upper=Bound(Polynomial.constant(1), strict=True),
        coset=CosetSpec(Fraction(5), 2)),))
    assert contains(cell, [6], C5) is True
    assert contains(cell, [1], C5) is False   # t - 1 = 0 not in 5 P_2
    assert contains(cell, [11], C5) is False  # 10/5 = 2 not a square mod 5


def test_contains_bound_vanished():
    lvl = CellLevel(center=Polynomial.constant(0),
                    lower=None,
                    upper=Bound(parse_poly("x1 - 5"), strict=False),
                    coset=CosetSpec(Fraction(1), 1))
    tower = CellTower((CellLevel(center=Polynomial.constant(0), lower=None,
                                 upper=bound(1, strict=False),
                                 coset=CosetSpec(Fraction(1), 1)), lvl))
    with pytest.raises(BoundVanishedError):
        contains(tower, [5, 1], C5)


def test_contains_scoping_validation():
    with pytest.raises(ValueError):
        CellTower((CellLevel(center=parse_poly("x1"), lower=None, upper=None,
                             coset=CosetSpec(Fraction(0), 1)),))


def test_contains_stable_under_representative_perturbation():
    rng = random.Random(12)
    cells = [zp_nonzero_cell(), unit_ball_coset_cell(1, 2), unit_ball_coset_cell(2, 2),
             unit_ball_coset_cell(5, 2), one_level(lower=bound(25), upper=bound(Fraction(1, 5)))]
    for _ in range(300):
        tower = rng.choice(cells)
        t = Fraction(rng.randint(-300, 300))
        if t == 0:
            continue
        level = tower.levels[0]
        k = int(valuation(t, C5))
        stable_level = k + hensel_level(level.coset.n, 5) + 1
        base = contains(tower, [t], C5)
        for _ in range(5):
            w = rng.randint(-20, 20)
            assert contains(tower, [t + w * Fraction(5) ** stable_level], C5) == base


# -- fiber valuation ranges -----------------------------------------------------


def test_fiber_range_zp():
    kr = fiber_valuation_range(zp_nonzero_cell().levels[0], [], C5)
    assert kr == KRange(1, 0, 0, None)


def test_fiber_range_strict_upper():
    # {|t| < |1/5|, t in P_2}: |t| < 5 forces v(t) > -1, parity from P_2
    lvl = one_level(upper=bound(Fraction(1, 5)), n=2).levels[0]
    assert fiber_valuation_range(lvl, [], C5) == KRange(2, 0, 0, None)
    # {|t| < |5|, t in P_2}: v(t) > 1, even: k >= 2
    lvl = one_level(upper=bound(5), n=2).levels[0]
    assert fiber_valuation_range(lvl, [], C5) == KRange(2, 0, 2, None)


def test_fiber_range_empty():
    # |1/25| < |t| < |5| needs k < -2 and k > 1 at once: empty
    lvl = one_level(lower=bound(Fraction(1, 25)), upper=bound(5)).levels[0]
    kr = fiber_valuation_range(lvl, [], C5)
    assert kr.is_empty()


def test_fiber_range_brute_force():
    # predicted progression matches the observed v(t - c) on residue lifts
    cases = [
        one_level(upper=bound(1, strict=False), lam=1, n=2),
        one_level(upper=bound(1, strict=False), lam=5, n=2),
        one_level(lower=bound(Fraction(1, 5)), upper=bound(25), lam=1, n=1),
        one_level(upper=bound(5), lam=2, n=3),
    ]
    m = 6
    for tower in cases:
        level = tower.levels[0]
        kr = fiber_valuation_range(level, [], C5)
        observed = set()
        for r in range(5**m):
            if contains(tower, [r], C5):
                v = valuation(Fraction(r) - level.center.constant_value(), C5)
                observed.add(int(v))
        predicted = {k for k in range(-1, m) if kr.contains(k)}
        assert observed == predicted, tower


def test_fiber_measures():
    assert tower_measure(zp_nonzero_cell(), C5) == 1
    assert tower_measure(one_level(upper=bound(1, strict=True)), C5) == Fraction(1, 5)
    assert tower_measure(unit_ball_coset_cell(1, 2), C5) == Fraction(5, 12)
    assert tower_measure(point_cell(0), C5) == 0
    with pytest.raises(DivergentError):
        fiber_measure(one_level().levels[0], C5)  # no upper bound: infinite measure


# -- partition certificates -------------------------------------------------------


def coset_ball_cert(prime=5) -> DecompositionCertificate:
    cells = tuple(unit_ball_coset_cell(lam, 2) for lam in (1, 2, 5, 10))
    return DecompositionCertificate(prime, zp_nonzero_cell(), cells)


def test_partition_coset_cert():
    report = check_partition(coset_ball_cert(), 4, C5)
    assert report.ok
    assert report.ambiguous_points == 0
    assert report.points_tested == 5**4 - 1
    assert sum(tower_measure(c, C5) for c in coset_ball_cert().cells) == 1


def test_partition_zp_point_plus_rest():
    cert = DecompositionCertificate(
        5, BoxDomain(1), (point_cell(0), zp_nonzero_cell()))
    report = check_partition(cert, 3, C5)
    assert report.ok
    # the 0 class cannot be decided at any finite level: reported, not hidden
    assert report.ambiguous_points == 1
    # measure additivity across the verified partition of Z_p
    assert sum(tower_measure(c, C5) for c in cert.cells) == 1
    with pytest.raises(BudgetExceededError):  # 5^12 points, refused before enumerating
        check_partition(cert, 12, C5, budget=1000)


def test_partition_double_cover_detected():
    cert = DecompositionCertificate(
        5, BoxDomain(1), (point_cell(0), zp_nonzero_cell(), zp_nonzero_cell()))
    report = check_partition(cert, 2, C5)
    assert not report.ok
    assert all(owners == [1, 2] for _, owners in report.violations)


def test_partition_gap_detected():
    cert = DecompositionCertificate(5, BoxDomain(1), (zp_nonzero_cell(),))
    report = check_partition(cert, 2, C5)
    assert not report.ok  # the 0 class is covered by no cell
    assert ((0,), []) in report.violations


def test_partition_low_precision_is_ambiguous():
    # at p = 2 the square classes need 2^5; level 3 cannot decide them all
    cells = tuple(unit_ball_coset_cell(lam, 2)
                  for lam in (1, 3, 5, 7, 2, 6, 10, 14))
    cert = DecompositionCertificate(2, zp_nonzero_cell(), cells)
    report = check_partition(cert, 3, C2)
    assert report.ambiguous_points > 0


# -- norm descriptions -------------------------------------------------------------


def near_one_cell() -> CellTower:
    return CellTower((CellLevel(
        center=Polynomial.constant(1),
        lower=None,
        upper=Bound(Polynomial.constant(1), strict=True),
        coset=CosetSpec(Fraction(5), 2)),))


def test_norm_description_identity():
    cert = DecompositionCertificate(
        5, zp_nonzero_cell(), (zp_nonzero_cell(),),
        (NormDescription(cell=0, function=0, delta=Polynomial.constant(1), a=1),))
    report = check_norm_description([parse_poly("x1")], cert, 3, C5)
    assert report.ok and report.points_checked == 5**3 - 1


def test_norm_description_t2_minus_1():
    # |t^2 - 1| = |5| * |(t-1)^2 5^{-2}|^{1/2} on {|t-1| < 1, t-1 in 5 P_2}
    cert = DecompositionCertificate(
        5, BoxDomain(1), (near_one_cell(),),
        (NormDescription(cell=0, function=0, delta=Polynomial.constant(5), a=2),))
    report = check_norm_description([parse_poly("x1^2 - 1")], cert, 4, C5)
    assert report.ok
    assert report.points_checked > 0
    with pytest.raises(BudgetExceededError):
        check_norm_description([parse_poly("x1^2 - 1")], cert, 12, C5, budget=1000)


def test_norm_description_mutated_exponent_fails():
    cert = DecompositionCertificate(
        5, BoxDomain(1), (near_one_cell(),),
        (NormDescription(cell=0, function=0, delta=Polynomial.constant(5), a=1),))
    report = check_norm_description([parse_poly("x1^2 - 1")], cert, 4, C5)
    assert not report.ok
    assert len(report.mismatches) >= 1
    point, lhs, rhs = report.mismatches[0]
    assert lhs != rhs


def test_norm_description_point_cell():
    cert = DecompositionCertificate(
        5, BoxDomain(1), (point_cell(2),),
        (NormDescription(cell=0, function=0, delta=Polynomial.constant(10), a=0),))
    # f(t) = 5t at t = 2 has |f| = 1/5 = |delta|
    report = check_norm_description([parse_poly("5*x1")], cert, 3, C5)
    assert report.ok and report.points_checked == 1


# -- file format --------------------------------------------------------------------


CERT_JSON = """
{
  "prime": 5,
  "domain": {"kind": "tower",
             "levels": [{"center": "0",
                         "upper": {"expr": "1", "strict": false},
                         "coset": {"lambda": "1", "n": 1}}]},
  "cells": [
    {"levels": [{"center": "0",
                 "upper": {"expr": "1", "strict": false},
                 "coset": {"lambda": "1", "n": 2}}]},
    {"levels": [{"center": "0",
                 "upper": {"expr": "1", "strict": false},
                 "coset": {"lambda": "2", "n": 2}}]},
    {"levels": [{"center": "0",
                 "upper": {"expr": "1", "strict": false},
                 "coset": {"lambda": "5", "n": 2}}]},
    {"levels": [{"center": "0",
                 "upper": {"expr": "1", "strict": false},
                 "coset": {"lambda": "10", "n": 2}}]}
  ],
  "descriptions": [{"cell": 0, "function": 0, "delta": "1", "a": 1}]
}
"""


def test_certificate_json_round_trip():
    cert = certificate_from_dict(json.loads(CERT_JSON))
    assert cert.cells == coset_ball_cert().cells
    assert cert.domain == zp_nonzero_cell()
    again = certificate_from_dict(certificate_to_dict(cert))
    assert again == cert


def test_certificate_arity_check():
    with pytest.raises(ValueError):
        DecompositionCertificate(5, BoxDomain(2), (zp_nonzero_cell(),))
