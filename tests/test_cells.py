"""Cell membership, fiber geometry, and certificate verification."""

import itertools
import json
import os
import random
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from math import prod
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cellint import (
    INF,
    Bound,
    BoundVanishedError,
    BudgetExceededError,
    BoxDomain,
    CellintError,
    CellLevel,
    CellTower,
    CellTermSpec,
    CosetSpec,
    DecompositionCertificate,
    DivergentError,
    InvalidArgumentError,
    KRange,
    NormDescription,
    PrimeContext,
    check_norm_description,
    check_partition,
    certificate_from_dict,
    certificate_to_dict,
    contains,
    coset_membership,
    coset_representatives,
    fiber_measure,
    fiber_valuation_range,
    hensel_level,
    integrate_explicit_tower,
    load_certificate,
    load_terms,
    parse_expr,
    parse_poly,
    point_cell,
    riemann_sums,
    save_certificate,
    terms_from_dict,
    tower_measure,
    unit_ball_coset_cell,
    unit_coset_density,
    valuation,
    zp_nonzero_cell,
)
import cellint.cells as cells_module
import cellint.oracle as oracle_module
from cellint.cells import MembershipPlan, _Carrier, _described_level, _rational, membership
from cellint.errors import CertificateMismatchError
from cellint.formula_dsl import Norm, carrier_valuations, compile_expr
from cellint.padic_core import _power_test
from cellint.polynomials import Polynomial, format_poly

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


def test_contains_raises_on_a_vanished_bound_after_a_failed_comparison():
    # at (5, 1) level 1 fails its lower bound (k = 0 is not < v(1)), and its
    # upper bound x1 - 5 vanishes: the level's range is taken first, so it raises
    tower = CellTower((zp_nonzero_cell().levels[0],
                       CellLevel(Polynomial.constant(0), bound(1), Bound(parse_poly("x1 - 5")),
                                 CosetSpec(Fraction(1), 1))))
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


def test_explicit_levels_need_constant_bounds():
    level = CellLevel(Polynomial.constant(0), None, Bound(parse_poly("x1")),
                      CosetSpec(Fraction(1), 1))
    tower = CellTower((zp_nonzero_cell().levels[0], level))
    cert = DecompositionCertificate(5, BoxDomain(2), (tower,))
    spec = CellTermSpec(0, Fraction(1), ((0, 0), (0, 0)))
    with pytest.raises(CertificateMismatchError, match="beta must be constant"):
        integrate_explicit_tower([spec], cert, C5)
    for measure, arg in ((fiber_measure, level), (tower_measure, tower)):
        with pytest.raises(CertificateMismatchError, match="beta must be constant"):
            measure(arg, C5)
    with pytest.raises(ValueError):  # the base point is too short for the bound
        fiber_valuation_range(level, [], C5)
    assert fiber_valuation_range(level, [5], C5) == KRange(1, 0, 2, None)
    # bounds are checked in order, alpha first: a vanished alpha is reported as such
    zero_alpha = CellLevel(Polynomial.constant(0), bound(0), Bound(parse_poly("x1")),
                           CosetSpec(Fraction(1), 1))
    with pytest.raises(BoundVanishedError):
        fiber_measure(zero_alpha, C5)
    with pytest.raises(CertificateMismatchError, match="alpha must be constant"):
        fiber_measure(CellLevel(Polynomial.constant(0), Bound(parse_poly("x1")), bound(0),
                                CosetSpec(Fraction(1), 1)), C5)


# -- partition certificates -------------------------------------------------------


def coset_ball_cert(prime=5) -> DecompositionCertificate:
    cells = tuple(unit_ball_coset_cell(lam, 2) for lam in (1, 2, 5, 10))
    return DecompositionCertificate(prime, zp_nonzero_cell(), cells)


def test_checks_refuse_levels_below_one():
    for m in (0, -1):  # no point would be tested, and a broken certificate would pass
        with pytest.raises(InvalidArgumentError, match="level m must be >= 1"):
            check_partition(coset_ball_cert(), m, C5)
        with pytest.raises(InvalidArgumentError, match="level m must be >= 1"):
            check_norm_description([parse_poly("x1")], coset_ball_cert(), m, C5)


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
    # all 5^8 classes decided, though only those near 0 are split to single lifts
    report = check_partition(cert, 8, C5)
    assert (report.ok, report.points_tested, report.ambiguous_points) == (True, 390625, 1)
    # measure additivity across the verified partition of Z_p
    assert sum(tower_measure(c, C5) for c in cert.cells) == 1
    with pytest.raises(BudgetExceededError):  # 5^12 points, refused before enumerating
        check_partition(cert, 12, C5, budget=1000)


def test_partition_coset_order_7_to_the_6():
    # the units in lam * P_(7^6) are lam times the roots of unity times 1 + 7^7 Z_7:
    # among the lifts 0..342 of Z_7 mod 7^3 each coset cell holds only lam itself
    c7 = PrimeContext(7)
    cells = (point_cell(0),) + tuple(unit_ball_coset_cell(lam, 7**6) for lam in (1, 8, 50))
    cert = DecompositionCertificate(7, BoxDomain(1), cells)
    report = check_partition(cert, 3, c7)
    assert (report.points_tested, report.ambiguous_points) == (343, 343)
    assert report.violations == [((t,), []) for t in range(343) if t not in (0, 1, 8, 50)]
    assert report.violations == per_lift_partition(cert, 3, c7)[0]


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


def test_a_cell_reaching_outside_the_box_is_refused_at_every_level():
    """{|t| < |5^(-6)|} and the point 0 cover Z_5 exactly once at every level m,
    but the first cell also holds every t with -5 <= v(t) < 0."""
    wide = one_level(upper=bound(Fraction(1, 5**6)))
    cert = DecompositionCertificate(5, BoxDomain(1), (wide, point_cell(0)))
    assert check_partition(cert, 1, C5).outside == [0]
    for m in (1, 3, 6):
        report = check_partition(cert, m, C5)
        assert (report.ok, report.violations, report.outside) == (False, [], [0])
        assert report.summary().startswith("partition check: 1 cell(s) outside the domain, ")
    inside = DecompositionCertificate(5, BoxDomain(1), (zp_nonzero_cell(), point_cell(0)))
    assert check_partition(inside, 3, C5).ok


def test_cells_outside_a_tower_domain_compare_windows_and_residues():
    """Over the tower {|t - 1| <= 1, t - 1 in P_2} (v(t - 1) even and >= 0), a
    level of the same centre must admit only even valuations >= 0, and a point
    level t = 1 lies outside it; a level about another centre is left to the
    check on classes."""
    domain = one_level(1, upper=bound(1, strict=False), n=2)
    cells = (one_level(1, upper=bound(1, strict=False), lam=25, n=4),  # v = 2 mod 4: inside
             one_level(1, upper=bound(1, strict=False), lam=5, n=2),  # odd valuations
             one_level(1, upper=bound(Fraction(1, 25), strict=False), n=2),  # v >= -2
             point_cell(1),
             one_level(1, lower=bound(1), upper=bound(5, strict=False), lam=5, n=2),  # empty
             one_level(2, upper=bound(1, strict=False), lam=5, n=1))  # another centre
    cert = DecompositionCertificate(5, domain, cells)
    assert check_partition(cert, 1, C5).outside == [1, 2, 3]


def test_cells_outside_a_tower_domain_compare_unit_parts():
    """Over the tower {|t - 1| <= 1, t - 1 in P_2} at p = 5, a level of the same
    centre must also hold only squares as unit parts: lam_C*P_(n_C) is within
    P_2 iff the n_C-th powers of units are squares and unit(lam_C) is one."""
    domain = one_level(1, upper=bound(1, strict=False), n=2)
    units = {"lower": bound(5), "upper": bound(1, strict=False)}  # v(t - 1) = 0 only
    cells = (one_level(1, **units, lam=1, n=1),  # every unit
             one_level(1, **units, lam=1, n=3),  # the cubes: every unit at p = 5
             one_level(1, upper=bound(1, strict=False), lam=2, n=2),  # 2 is not a square
             one_level(1, upper=bound(1, strict=False), lam=4, n=4),  # 4*P_4 within P_2
             one_level(1, **units, lam=9, n=6),  # U^6 = U^2, and 9 is a square
             one_level(1, **units, lam=3, n=6))  # 3 is not a square
    cert = DecompositionCertificate(5, domain, cells)
    assert check_partition(cert, 1, C5).outside == [0, 1, 2, 5]


@pytest.mark.parametrize("p, s", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_a_single_shell_about_a_over_p_s_is_within_z_p_by_its_units(p, s):
    """The shell v(t - c) = -s about c = a/p^s, in lam*P_n with v(lam) = -s,
    lies in Z_p iff c + lam*w^n is p-integral for every unit w mod p^s.  The
    box check decides it for every unit a and unit part of lam mod p^s, and
    for n <= 8, 12 and 20, which the exponent of (Z/p^s)^x divides for some
    of these sizes and not for others; some shells lie in Z_p at every size."""
    ctx, q = PrimeContext(p), p**s
    plan = MembershipPlan(ctx)
    units = [w for w in range(1, q + 1) if w % p]
    shell = {"lower": bound(Fraction(p) ** (1 - s)), "upper": bound(Fraction(1, q), strict=False)}
    inside = 0
    for a, u, n in itertools.product(units, units, (*range(1, 9), 12, 20)):
        c, lam = Fraction(a, q), Fraction(u, q)
        reaches = any(valuation(c + lam * w**n, ctx) < 0 for w in units)
        assert plan.outside(BoxDomain(1), [plan.levels_of(one_level(c, **shell, lam=lam, n=n))]) \
            == ([0] if reaches else []), (a, u, n)
        inside += not reaches
    assert inside


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


def test_bad_description_is_reported_before_the_budget():
    """A description that does not fit its cell is a CertificateMismatchError
    even where the check would exceed the budget."""
    cert = DecompositionCertificate(
        5, BoxDomain(1), (near_one_cell(),),
        (NormDescription(cell=0, function=0, delta=parse_poly("x1"), a=2),))
    with pytest.raises(CertificateMismatchError, match="description delta x1 uses x1"):
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


_OUTER = {"center": "0", "upper": {"expr": "1", "strict": False},
          "coset": {"lambda": "1", "n": 1}}
TOWER_CERT = {
    "prime": 5,
    "domain": {"kind": "tower", "levels": [
        _OUTER, {"center": "x1^2 + 1", "lower": {"expr": "25"},
                 "coset": {"lambda": "1/5", "n": 2}}]},
    "cells": [
        {"levels": [_OUTER, {"center": "x1^2 + 1", "upper": {"expr": "x1", "strict": True},
                             "coset": {"lambda": "2", "n": 2}}]},
        {"levels": [_OUTER, {"center": "x1^2 + 1", "coset": {"lambda": "0", "n": 1}}]},
    ],
    "descriptions": [{"cell": 0, "function": 1, "delta": "x1 - 3", "a": 2, "level": 1},
                     {"cell": 1, "a": 0}],
}


def test_save_certificate_round_trip(tmp_path):
    cert = certificate_from_dict(TOWER_CERT)
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    loaded = load_certificate(path)
    assert certificate_to_dict(loaded) == certificate_to_dict(cert)
    assert loaded == cert


def test_loading_reads_each_distinct_text_once(tmp_path):
    """A count, not a time: 50 loads of one file parse each distinct text once."""
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(TOWER_CERT), encoding="utf-8")
    levels = [lv for tower in (TOWER_CERT["domain"], *TOWER_CERT["cells"])
              for lv in tower["levels"]]
    polys = {lv.get("center", "0") for lv in levels} \
        | {lv[side]["expr"] for lv in levels for side in ("lower", "upper") if side in lv} \
        | {d.get("delta", "1") for d in TOWER_CERT["descriptions"]}
    lambdas = {lv["coset"]["lambda"] for lv in levels}
    parse_poly.cache_clear()
    _rational.cache_clear()
    first = load_certificate(path)
    for _ in range(49):
        assert load_certificate(path) == first
    for cache, texts in ((parse_poly, polys), (_rational, lambdas)):
        info = cache.cache_info()
        assert info.misses == len(texts) and info.maxsize is not None


_BOX_CERT = {
    "prime": 5, "domain": {"kind": "box", "arity": 1},
    "cells": [{"levels": [_OUTER]}],
    "descriptions": [{"cell": 0, "function": 0, "delta": "1", "a": 1, "level": 0}],
}
_TERMS = {"terms": [{"cell": 0, "coeff": "1/2", "levels": [{"a": 1, "l": 2}]}]}


def test_save_certificate_round_trip_over_the_box(tmp_path):
    cert = certificate_from_dict(_BOX_CERT)
    path = tmp_path / "cert.json"
    save_certificate(cert, path)
    loaded = load_certificate(path)
    assert loaded == cert and loaded.domain == BoxDomain(1)
    assert certificate_to_dict(loaded) == _BOX_CERT


# every integer field of the two file formats: (document, path to the field)
INTEGER_FIELDS = [
    (_BOX_CERT, ("prime",)),
    (_BOX_CERT, ("domain", "arity")),
    (_BOX_CERT, ("cells", 0, "levels", 0, "coset", "n")),
    (_BOX_CERT, ("descriptions", 0, "cell")),
    (_BOX_CERT, ("descriptions", 0, "function")),
    (_BOX_CERT, ("descriptions", 0, "a")),
    (_BOX_CERT, ("descriptions", 0, "level")),
    (_TERMS, ("terms", 0, "cell")),
    (_TERMS, ("terms", 0, "levels", 0, "a")),
    (_TERMS, ("terms", 0, "levels", 0, "l")),
]


def with_field(doc: dict, path: tuple, value) -> dict:
    """A deep copy of doc with the entry at path set to value."""
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@pytest.mark.parametrize("doc, path", INTEGER_FIELDS)
def test_integer_fields_are_not_truncated(doc, path):
    read, what = (terms_from_dict, "terms") if "terms" in doc else \
        (certificate_from_dict, "certificate")
    value = doc
    for key in path:
        value = value[key]
    assert read(with_field(doc, path, float(value))) == read(doc)  # 1.0 is 1
    assert read(with_field(doc, path, str(value))) == read(doc)  # integer text
    for bad in (value + 0.5, True, "two", [value]):
        with pytest.raises(InvalidArgumentError,
                           match=f"^malformed {what}: .*{path[-1]}=.* is not an integer$"):
            read(with_field(doc, path, bad))


def test_negative_valuation_exponent_is_malformed():
    assert terms_from_dict(with_field(_TERMS, ("terms", 0, "levels", 0, "l"), 0))
    for bad in (-1, -1.0, "-3"):
        with pytest.raises(InvalidArgumentError, match=r"^malformed terms: .*l=-\d must be >= 0$"):
            terms_from_dict(with_field(_TERMS, ("terms", 0, "levels", 0, "l"), bad))


# -- the compiled membership and the digit-tree checks against per-lift loops -------


def _precision_loss(poly: Polynomial, ctx) -> int:
    loss = 0
    for _, c in poly.terms:
        v = valuation(c, ctx)
        if v is not INF and v < 0:
            loss = max(loss, -int(v))
    return loss


def _bound_value(bound: Bound, prefix) -> Fraction:
    value = bound.expr.eval(prefix)
    if value == 0:
        raise BoundVanishedError("bound vanishes")
    return value


def _level_holds(level: CellLevel, prefix, t, ctx) -> bool:
    diff = Fraction(t) - level.center.eval(prefix)
    if level.coset.lam == 0:
        return diff == 0
    k = valuation(diff, ctx)
    if level.lower is not None:
        va = valuation(_bound_value(level.lower, prefix), ctx)
        if not (k < va if level.lower.strict else k <= va):
            return False
    if level.upper is not None:
        vb = valuation(_bound_value(level.upper, prefix), ctx)
        if not (k > vb if level.upper.strict else k >= vb):
            return False
    return coset_membership(diff, level.coset.lam, level.coset.n, ctx)


def fraction_contains(tower: CellTower, point, ctx) -> bool:
    pt = [Fraction(x) for x in point]
    return all(_level_holds(level, pt[:i], pt[i], ctx) for i, level in enumerate(tower.levels))


def fraction_membership(tower: CellTower, point, ctx, level_m: int) -> tuple[bool, bool]:
    """The Fraction membership test: exact at the lift, with the ambiguity margins."""
    pt = [Fraction(x) for x in point]
    member = True
    ambiguous = False
    for i, level in enumerate(tower.levels):
        prefix = pt[:i]
        k = valuation(pt[i] - level.center.eval(prefix), ctx)
        margin = level_m - _precision_loss(level.center, ctx)
        m_hensel = 1 if level.coset.lam == 0 else hensel_level(level.coset.n, ctx.p)
        if k is INF or k + m_hensel > margin:
            ambiguous = True
        for b in (level.lower, level.upper):
            if b is not None and not b.expr.is_constant():
                vb = valuation(b.expr.eval(prefix), ctx)
                if vb is INF or vb >= level_m - _precision_loss(b.expr, ctx):
                    ambiguous = True
        try:
            holds = _level_holds(level, prefix, pt[i], ctx)
        except BoundVanishedError:
            ambiguous = True
            holds = False
        if not holds:
            member = False
            break
    return member, ambiguous


def per_lift_partition(cert, m, ctx):
    """The per-lift check_partition loop: (violations, ambiguous, points)."""
    violations = []
    ambiguous_points = total = 0
    for res in itertools.product(range(ctx.p**m), repeat=cert.domain.arity):
        if not isinstance(cert.domain, BoxDomain) \
                and not fraction_membership(cert.domain, res, ctx, m)[0]:
            continue
        total += 1
        owners = []
        point_ambiguous = False
        for idx, tower in enumerate(cert.cells):
            member, amb = fraction_membership(tower, res, ctx, m)
            point_ambiguous = point_ambiguous or amb
            if member:
                owners.append(idx)
        ambiguous_points += point_ambiguous
        if len(owners) != 1:
            violations.append((res, owners))
    return violations, ambiguous_points, total


def per_lift_norm_description(functions, cert, m, ctx):
    """The per-lift check_norm_description loop: (mismatches, ambiguous, points)."""
    mismatches = []
    ambiguous = checked = 0
    level_indices = [_described_level(desc, functions, cert) for desc in cert.descriptions]
    for desc, level_idx in zip(cert.descriptions, level_indices):
        tower = cert.cells[desc.cell]
        level = tower.levels[level_idx]
        for res in itertools.product(range(ctx.p**m), repeat=tower.arity):
            member, amb = fraction_membership(tower, res, ctx, m)
            if not member:
                continue
            checked += 1
            ambiguous += amb
            point = [Fraction(r) for r in res]
            prefix = point[:level_idx]
            diff = point[level_idx] - level.center.eval(prefix)
            dval = desc.delta.eval(prefix)
            lhs = valuation(functions[desc.function].eval(point), ctx)
            vd = valuation(dval, ctx)
            if level.coset.lam == 0:
                rhs = vd
            else:
                k = valuation(diff, ctx)
                vlam = int(valuation(level.coset.lam, ctx))
                if k is INF or vd is INF:
                    rhs = INF
                else:
                    rhs = Fraction(vd) + Fraction(desc.a * (int(k) - vlam), level.coset.n)
            lhs = lhs if lhs is INF else Fraction(lhs)
            if lhs != rhs or (lhs is INF) != (rhs is INF):
                mismatches.append((res, lhs, rhs))
    return mismatches, ambiguous, checked


def at_level(test, point, level: int) -> tuple:
    """A planned test's answer at the class mod p^level of an integer point:
    (holds, ambiguous), ambiguous where its flagged margin passes the level."""
    holds, _, flagged = test(point, (level,) * len(point))
    return holds, flagged > level


def test_compiled_membership_matches_oracle_on_one_level_towers():
    for ctx in (PrimeContext(2), PrimeContext(5)):
        p = ctx.p
        towers = [zp_nonzero_cell(), unit_ball_coset_cell(1, 2),
                  unit_ball_coset_cell(p, 2), unit_ball_coset_cell(3, 3),
                  point_cell(1)]
        for level in (2, 4):
            for tower in towers:
                member_of = MembershipPlan(ctx).member_of(tower)
                for r in range(p**level):
                    assert at_level(member_of, (r,), level) \
                        == fraction_membership(tower, (r,), ctx, level)


_SIZES = [(p, n, m) for p in (2, 3, 5, 7) for n in (1, 2) for m in range(1, 12)
          if p ** (m * n) <= 2401]
# the two deepest levels of each (p, n): classes settle below the top only when m >= 2
_DEEP_SIZES = [(p, n, m) for p, n, m in _SIZES if p ** ((m + 2) * n) > 2401 and m >= 2]


@st.composite
def _poly(draw, p: int, nvars: int, constant_ok: bool = True) -> Polynomial:
    """A polynomial in x1..x{nvars}, possibly with p in a denominator."""
    poly = Polynomial.constant(0)
    for _ in range(draw(st.integers(1, 3))):
        term = Polynomial.constant(Fraction(draw(st.sampled_from((1, -1, 2, 3, p, -p, p * p))),
                                            draw(st.sampled_from((1, 1, 2, p, p * p)))))
        for i in range(nvars):
            term = term * Polynomial.variable(i) ** draw(st.integers(0, 2))
        poly = poly + term
    return poly


@st.composite
def _bound(draw, p: int, index: int) -> Bound | None:
    kind = draw(st.sampled_from(("none", "constant", "zero", "poly", "root") if index else
                                ("none", "constant", "zero")))
    if kind == "none":
        return None
    if kind == "zero":  # vanishes everywhere: a malformed cell
        expr = Polynomial.constant(0)
    elif kind == "constant":
        expr = Polynomial.constant(draw(st.sampled_from((1, p, p * p, Fraction(1, p), 3))))
    elif kind == "root":  # 0 mod p^j on classes of units, where x1 alone is unambiguous
        expr = Polynomial.variable(0) - Polynomial.constant(draw(st.integers(1, p)))
    else:  # non-constant: may vanish at some prefixes
        expr = draw(_poly(p, index))
    return Bound(expr, draw(st.booleans()))


@st.composite
def _cell_level(draw, p: int, index: int) -> CellLevel:
    center = draw(_poly(p, index)) if index else Polynomial.constant(
        Fraction(draw(st.integers(0, p * p)), draw(st.sampled_from((1, 2, p)))))
    if draw(st.integers(0, 5)) == 0:  # a point level
        return CellLevel(center, None, None, CosetSpec(Fraction(0), 1))
    lam = Fraction(draw(st.sampled_from((1, 2, 3, p, p * p, 2 * p))),
                   draw(st.sampled_from((1, 1, p))))
    n = draw(st.sampled_from((1, 2, 3, 4, p, 2 * p)))  # p | n for some orders
    return CellLevel(center, draw(_bound(p, index)), draw(_bound(p, index)),
                     CosetSpec(lam, n))


@st.composite
def _random_tower(draw, p: int, arity: int) -> CellTower:
    """Random levels; the first is often Z_p minus a point, so later levels get tested."""
    first = zp_nonzero_cell().levels[0] if draw(st.booleans()) else draw(_cell_level(p, 0))
    return CellTower((first,) + tuple(draw(_cell_level(p, i)) for i in range(1, arity)))


@st.composite
def _certificate(draw, sizes):
    """A certificate that is a true coset partition, one with a cell dropped or
    duplicated, or random cells; with norm descriptions and functions."""
    p, arity, m = draw(st.sampled_from(sizes))
    ctx = PrimeContext(p)
    kind = draw(st.sampled_from(("partition", "broken", "random")))
    if kind == "random":
        domain = BoxDomain(arity) if draw(st.booleans()) else draw(_random_tower(p, arity))
        cells = tuple(draw(_random_tower(p, arity)) for _ in range(draw(st.integers(1, 4))))
    else:
        n = draw(st.sampled_from((1, 2, 3) if arity == 1 else (1, 2)))
        levels = [unit_ball_coset_cell(lam, n).levels[0] for lam in coset_representatives(n, ctx)]
        cells = [CellTower((level,)) for level in levels + [point_cell(0).levels[0]]]
        if arity == 2:  # over each first-level cell: Z_p minus a moving centre, and the centre
            center = parse_poly(draw(st.sampled_from(("x1", "x1^2 + 1", "2*x1 + 3"))))
            second = (CellLevel(center, None, bound(1, strict=False), CosetSpec(Fraction(1), 1)),
                      CellLevel(center, None, None, CosetSpec(Fraction(0), 1)))
            cells = [CellTower(cell.levels + (level,)) for cell in cells for level in second]
        if kind == "broken":
            idx = draw(st.integers(0, len(cells) - 1))
            cells.insert(idx, cells[idx]) if draw(st.booleans()) else cells.pop(idx)
        domain, cells = BoxDomain(arity), tuple(cells)
    descriptions = []
    for _ in range(draw(st.integers(1, 3))):
        level = draw(st.sampled_from((-1, 0)))
        # delta lives on the level's prefix; one in eight reaches past it (an error)
        nvars = level % arity + (draw(st.integers(0, 7)) == 0)
        delta = draw(st.one_of(_poly(p, nvars), st.just(
            Polynomial.variable(0) - Polynomial.constant(1) if nvars else Polynomial.constant(p))))
        descriptions.append(NormDescription(
            cell=draw(st.integers(0, len(cells) - 1)), function=draw(st.integers(0, 1)),
            delta=delta, a=draw(st.sampled_from((0, 0, 1, 2, -1, 4))), level=level))
    functions = [draw(_poly(p, arity)), Polynomial.variable(arity - 1) ** draw(st.integers(1, 3))]
    return DecompositionCertificate(p, domain, cells, tuple(descriptions)), functions, m, ctx


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (CellintError, ValueError) as ex:
        return type(ex).__name__, str(ex)


_differential = settings(derandomize=True, max_examples=150, deadline=None)


@_differential
@given(data=st.data())
def test_compiled_membership_matches_fraction_oracle(data):
    p, arity, m = data.draw(st.sampled_from(_SIZES))
    ctx = PrimeContext(p)
    tower = data.draw(_random_tower(p, arity))
    member_of = MembershipPlan(ctx).member_of(tower)
    level = data.draw(st.integers(0, m + 1))
    for pt in itertools.product(range(p**m), repeat=arity):
        assert at_level(member_of, pt, level) == fraction_membership(tower, pt, ctx, level), pt
    assert membership(tower, pt, ctx, m) == fraction_membership(tower, pt, ctx, m)


_X1 = Polynomial.variable(0)


def _over_units(lower, upper) -> CellTower:
    """Z_p minus 0, then a level in x2 about x1 with these bounds."""
    return CellTower((zp_nonzero_cell().levels[0],
                      CellLevel(_X1, lower, upper, CosetSpec(Fraction(2), 2))))


@pytest.mark.parametrize("tower", [
    one_level(lower=bound(9), upper=bound(0)),
    _over_units(bound(0), Bound(_X1 - Polynomial.constant(1))),
    _over_units(bound(9), Bound(_X1 - Polynomial.constant(1), strict=False)),
    _over_units(Bound(_X1 * _X1), bound(3)),
    _over_units(Bound(_X1 - Polynomial.constant(1)), bound(0)),
], ids=["zero-beta-after-failing-alpha", "zero-alpha-then-poly-beta", "constant-alpha-poly-beta",
        "poly-alpha-constant-beta", "poly-alpha-then-zero-beta"])
def test_level_window_matches_fraction_oracle(tower):
    """Constant bounds fold into one window at plan time, and a constant zero
    bound fails the level after the bounds before it, as the Fraction oracle
    reads them in order: alpha, then beta."""
    ctx = PrimeContext(3)
    member_of = MembershipPlan(ctx).member_of(tower)
    for level in range(5):
        for pt in itertools.product(range(27), repeat=tower.arity):
            assert at_level(member_of, pt, level) \
                == fraction_membership(tower, pt, ctx, level), (pt, level)


def test_membership_rejects_a_point_of_the_wrong_arity():
    tower = certificate_from_dict({"prime": 5, "domain": {"kind": "box", "arity": 2}, "cells": [
        {"levels": [{"center": c, "upper": {"expr": "1", "strict": False},
                     "coset": {"lambda": "1", "n": 1}} for c in ("0", "x1")]}]}).cells[0]
    assert membership(tower, (3, 4), C5, 3) == (True, False)
    for point in ((3,), (3, 4, 7)):
        message = rf"^point arity {len(point)} != tower arity 2$"
        with pytest.raises(InvalidArgumentError, match=message):
            membership(tower, point, C5, 3)
        with pytest.raises(ValueError, match=message):
            contains(tower, point, C5)


@_differential
@given(data=st.data())
def test_contains_matches_fraction_oracle(data):
    """contains takes each tested level's valuation range before comparing, so
    where the oracle stops at a failed comparison it may raise BoundVanishedError."""
    p, arity, _ = data.draw(st.sampled_from(_SIZES))
    ctx = PrimeContext(p)
    tower = data.draw(_random_tower(p, arity))
    coordinate = st.builds(Fraction, st.integers(-p**3, p**3), st.sampled_from((1, 1, 2, p)))
    for point in data.draw(st.lists(st.lists(coordinate, min_size=arity, max_size=arity),
                                    min_size=1, max_size=20)):
        got, want = _outcome(contains, tower, point, ctx), _outcome(fraction_contains,
                                                                    tower, point, ctx)
        if isinstance(got, tuple) and got[0] == "BoundVanishedError" and want is False:
            continue
        assert (got if isinstance(got, bool) else got[0]) == \
            (want if isinstance(want, bool) else want[0]), (point, got, want)


@st.composite
def _explicit_level(draw, p: int) -> CellLevel:
    """A constant-data level: a point, or a unit or non-unit coset of order n
    between optional constant bounds, each strict or not."""
    center = Polynomial.constant(draw(st.integers(-p, p)))
    lam = Fraction(draw(st.sampled_from((0, 1, 2, 3, p, p * p, 2 * p))),
                   draw(st.sampled_from((1, 1, p))))
    if lam == 0:
        return CellLevel(center, None, None, CosetSpec(lam, 1))
    sides = [None if draw(st.integers(0, 2)) == 0 else
             bound(draw(st.sampled_from((1, 3, p, p * p, Fraction(1, p), Fraction(2, p * p)))),
                   draw(st.booleans())) for _ in range(2)]
    return CellLevel(center, *sides, CosetSpec(lam, draw(st.sampled_from((1, 2, 3, 4, p, 2 * p)))))


def geometric_measure(level: CellLevel, ctx) -> Fraction | None:
    """The fiber's measure as eps * sum of p^(-k) over its shells v(t - c) = k,
    k = v(lam) mod n between the bounds; None when that sum diverges."""
    if level.coset.lam == 0:
        return Fraction(0)
    p, n = ctx.p, level.coset.n
    hi = lo = None
    if level.lower is not None:  # |alpha| < |t - c|: k < v(alpha), or <= if not strict
        hi = int(valuation(level.lower.expr.constant_value(), ctx)) - level.lower.strict
    if level.upper is not None:  # |t - c| < |beta|: k > v(beta), or >= if not strict
        lo = int(valuation(level.upper.expr.constant_value(), ctx)) + level.upper.strict
    if lo is None:  # no lower bound on k: never empty, and |t - c| is unbounded
        return None
    first = lo + (int(valuation(level.coset.lam, ctx)) - lo) % n
    q = Fraction(1, p)
    if hi is None:
        shells = q**first / (1 - q**n)
    else:
        shells = sum((q**k for k in range(first, hi + 1, n)), Fraction(0))
    return unit_coset_density(level.coset.lam, n, ctx) * shells


@_differential
@given(data=st.data())
def test_fiber_measure_is_the_explicit_tower_integral(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    ctx = PrimeContext(p)
    levels = data.draw(st.lists(_explicit_level(p), min_size=1, max_size=3))

    def closed_form(tower):
        cert = DecompositionCertificate(p, BoxDomain(tower.arity), (tower,))
        spec = CellTermSpec(0, Fraction(1), ((0, 0),) * tower.arity)
        return integrate_explicit_tower([spec], cert, ctx)

    expected = [geometric_measure(level, ctx) for level in levels]
    for level, want in zip(levels, expected):
        value, integrable = closed_form(CellTower((level,)))
        assert integrable == (want is not None)
        if integrable:
            assert fiber_measure(level, ctx) == value.as_exact_rational() == want
        else:
            with pytest.raises(DivergentError):
                fiber_measure(level, ctx)
    tower = CellTower(tuple(levels))
    value, integrable = closed_form(tower)
    assert integrable == (None not in expected)
    if integrable:
        assert tower_measure(tower, ctx) == value.as_exact_rational() == prod(expected)
    else:
        with pytest.raises(DivergentError):
            tower_measure(tower, ctx)


@_differential
@given(data=st.data())
def test_cells_outside_the_box_hold_a_point_outside(data):
    """Over the box, a cell of explicit levels about constant centres (integers,
    or a/p^s with s in {1, 2}) is refused iff it holds a point outside Z_p^n.
    Its levels are independent, so it does iff each level has a member and
    some level a member outside Z_p.  The members are those _level_members
    finds: one of every admitted valuation in [-30, 30], which holds every
    admitted k < 0, and one of every unit class mod p^2 at the least, which
    sees whether the units of a single shell about a/p^s stay in Z_p."""
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    ctx = PrimeContext(p)
    centers = st.integers(-p, p) | st.builds(lambda a, s: Fraction(a, p**s),
                                             st.integers(-p * p, p * p), st.sampled_from((1, 2)))
    levels = [CellLevel(Polynomial.constant(data.draw(centers)), level.lower, level.upper,
                        level.coset)
              for level in data.draw(st.lists(_explicit_level(p), min_size=1, max_size=2))]
    tower = CellTower(tuple(levels))
    units = [w for w in range(1, p * p) if w % p]
    members = [_level_members(level, units, ctx) for level in levels]
    expected = False
    if all(members):
        point = [next((t for t in ms if Fraction(t).denominator % p == 0), ms[0])
                 for ms in members]
        assert contains(tower, point, ctx)
        expected = any(Fraction(x).denominator % p == 0 for x in point)
    cert = DecompositionCertificate(p, BoxDomain(len(levels)), (tower,))
    assert check_partition(cert, 1, ctx).outside == ([0] if expected else [])


def _level_members(level: CellLevel, units, ctx) -> list[Fraction]:
    """Values t of a constant-data level that contains finds in it: t = c +
    lam*p^(n*s) of each valuation v(lam) + n*s in [-30, 30], then t = c +
    (t0 - c)*w^n for the least such member t0 and each unit w in units; c
    itself for a point level."""
    c, lam, n, p = level.center.constant_value(), level.coset.lam, level.coset.n, ctx.p
    if lam == 0:
        return [c]
    vlam = int(valuation(lam, ctx))
    tower = CellTower((level,))
    shells = [t for t in (c + lam * Fraction(p) ** (n * s)
                          for s in range(-((30 + vlam) // n), (30 - vlam) // n + 1))
              if contains(tower, [t], ctx)]
    rotated = [c + (shells[0] - c) * w**n for w in units] if shells else []
    assert all(contains(tower, [t], ctx) for t in rotated)
    return shells + rotated


@_differential
@given(data=st.data())
def test_cells_outside_a_tower_domain_hold_a_point_outside(data):
    """Over a tower domain of explicit levels, a cell of explicit levels about
    the domain's centres is refused iff contains finds one of its points
    outside the domain.  The levels of such a cell are independent, so its
    points are one member per level with one level varied over the members
    _level_members finds: one of every valuation in [-30, 30], which holds
    the first two past each finite bound (a level's orders are at most 14),
    and one of every unit w mod p^L at one valuation, L the precision at
    which the domain level tells units apart."""
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    ctx = PrimeContext(p)
    domain = CellTower(tuple(data.draw(st.lists(_explicit_level(p), min_size=1, max_size=2))))
    units = [[w for w in range(1, p ** _power_test(level.coset.n, p)[1] + 1) if w % p]
             for level in domain.levels]
    assume(all(_level_members(level, us, ctx) for level, us in zip(domain.levels, units)))
    cells = []
    for level in domain.levels:  # each cell level about the domain level's centre
        cells.append(data.draw(st.lists(_explicit_level(p).map(
            lambda cell: CellLevel(level.center, cell.lower, cell.upper, cell.coset)),
            min_size=1, max_size=3)))
    towers = [CellTower(levels) for levels in itertools.product(*cells)]
    expected = []
    for idx, tower in enumerate(towers):
        members = [_level_members(level, us, ctx) for level, us in zip(tower.levels, units)]
        points = [[ms[0] for ms in members[:i]] + [t] + [ms[0] for ms in members[i + 1:]]
                  for i, level_members in enumerate(members) if all(members)
                  for t in level_members]
        assert all(contains(tower, point, ctx) for point in points)
        if not all(contains(domain, point, ctx) for point in points):
            expected.append(idx)
    cert = DecompositionCertificate(p, domain, tuple(towers))
    assert check_partition(cert, 1, ctx).outside == expected


@_differential
@given(data=st.data())
def test_carrier_valuation_is_the_rational_valuation(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    ctx = PrimeContext(p)
    arity = data.draw(st.integers(0, 3))
    poly = data.draw(_poly(p, arity))
    integers = st.integers(-p**3, p**3)
    point = data.draw(st.lists(integers | st.builds(Fraction, integers, st.sampled_from(
        (1, 2, p, p * p, 3 * p))), min_size=arity, max_size=arity))
    if data.draw(st.booleans()):  # make it vanish at the point
        poly = poly - Polynomial.constant(poly.eval(point))
    carrier = _Carrier(poly, ctx)
    lift = [x.numerator if isinstance(x, Fraction) else x for x in point]
    assert carrier.valuation(lift) - carrier.vden == valuation(poly.eval(lift), ctx)
    if poly.arity:
        with pytest.raises(ValueError):
            carrier_valuations(Norm(poly), ctx)(point[:poly.arity - 1])


@_differential
@given(problem=_certificate(_SIZES))
def test_check_partition_matches_per_lift_loop(problem):
    cert, _, m, ctx = problem
    report = check_partition(cert, m, ctx)
    violations, ambiguous, points = per_lift_partition(cert, m, ctx)
    assert (report.violations, report.ambiguous_points, report.points_tested) \
        == (violations, ambiguous, points)
    assert report.ok == (not violations and not report.outside)


# product certificates of at most 343 points: the per-lift loops test every cell at each
_PRODUCT_SIZES = [(p, n, m) for p, n, m in _SIZES if p ** (m * n) <= 343]


@st.composite
def _product_certificate(draw):
    """A certificate as a decomposition builds it: level i of every cell shares
    one centre c_i and one upper bound, and the cells are all products of the
    coset representatives of P_(n_i), then some are dropped or duplicated (the
    same tower or an equal copy).  Each description is |u*(x_i - c_i)^k| =
    |u*lam_i^k| * |(t - c_i)^(kn) lam_i^(-kn)|^(1/n) on one cell, true unless
    its exponent a is shifted."""
    p, arity, m = draw(st.sampled_from(_PRODUCT_SIZES))
    ctx = PrimeContext(p)
    centers = [Polynomial.constant(draw(st.integers(0, p * p)))]
    centers += [draw(_poly(p, i)) for i in range(1, arity)]
    uppers = [bound(1, strict=False)] + [
        bound(1, strict=False) if draw(st.booleans()) else Bound(draw(_poly(p, i)), False)
        for i in range(1, arity)]
    orders = [draw(st.sampled_from((1, 2, 3) if arity == 1 else (1, 2))) for _ in centers]
    towers = [()]
    for center, upper, n in zip(centers, uppers, orders):
        towers = [tower + (CellLevel(center, None, upper, CosetSpec(lam, n)),)
                  for tower in towers for lam in coset_representatives(n, ctx)]
    cells = [CellTower(levels) for levels in towers]
    for _ in range(draw(st.integers(0, 2))):
        idx = draw(st.integers(0, len(cells) - 1))
        kind = draw(st.sampled_from(("drop", "same", "copy")))
        if kind == "drop" and len(cells) > 1:
            cells.pop(idx)
        elif kind != "drop":
            cells.insert(idx, cells[idx] if kind == "same" else CellTower(cells[idx].levels))
    domain = BoxDomain(arity) if draw(st.booleans()) else CellTower(tuple(
        CellLevel(c, None, bound(1, strict=False), CosetSpec(Fraction(1), 1)) for c in centers))
    functions, descriptions = [], []
    for _ in range(draw(st.integers(1, 3))):
        cell = draw(st.integers(0, len(cells) - 1))
        level = draw(st.integers(0, arity - 1))
        lam, n = cells[cell].levels[level].coset.lam, cells[cell].levels[level].coset.n
        k, u = draw(st.integers(1, 2)), draw(st.sampled_from((1, 2, 3, p)))
        functions.append((Polynomial.variable(level) - centers[level]).scale(u) ** k)
        descriptions.append(NormDescription(
            cell=cell, function=len(functions) - 1, delta=Polynomial.constant(u * lam**k),
            a=k * n + draw(st.sampled_from((0, 0, 0, 1))), level=level))
    cert = DecompositionCertificate(p, domain, tuple(cells), tuple(descriptions))
    return cert, functions, m, ctx


def _carriers(towers, polys=()) -> set:
    """The distinct level carriers of the towers (each x_i - c_i(x) and non-constant
    bound) and the polynomials polys."""
    carriers = set(polys)
    for tower in towers:
        for i, level in enumerate(tower.levels):
            carriers.add(Polynomial.variable(i) - level.center)
            carriers.update(b.expr for b in (level.lower, level.upper)
                            if b is not None and not b.expr.is_constant())
    return carriers


@contextmanager
def _counting(carriers):
    """Count the integer evaluations of the carrier views (eval_int_terms in
    cells, the module of _Carrier) and the classes cells.refine_classes visits
    (one membership test, or one classify call without a domain, per class).
    An evaluation of some carrier's own cleared terms counts as "evals", any
    other (a Taylor coefficient _Carrier.constant_on reads) as "coefficients"."""
    own = {poly.cleared()[0] for poly in carriers}
    counts = {"evals": 0, "coefficients": 0, "visited": 0}
    evaluate, refine = cells_module.eval_int_terms, cells_module.refine_classes

    def counting_eval(terms, point):
        counts["evals" if terms in own else "coefficients"] += 1
        return evaluate(terms, point)

    def visiting(fn):
        def visit(*args):
            counts["visited"] += 1
            return fn(*args)
        return visit

    def counting_refine(p, level, arity, classify, member_of=None):
        if member_of is None:
            return refine(p, level, arity, visiting(classify))
        return refine(p, level, arity, classify, visiting(member_of))

    with patch.object(cells_module, "eval_int_terms", counting_eval), \
            patch.object(cells_module, "refine_classes", counting_refine):
        yield counts


@settings(derandomize=True, max_examples=50, deadline=None)
@given(problem=_product_certificate())
def test_shared_plan_matches_per_lift_loops_on_product_certificates(problem):
    """One plan per check equals the per-lift loops field by field, and each
    class evaluates each distinct carrier's own terms at most once (and some
    carrier at least once: a plan that ignored the point would evaluate less).
    The Taylor coefficients the norm check reads to settle a class are
    counted apart."""
    cert, functions, m, ctx = problem
    domain = [] if isinstance(cert.domain, BoxDomain) else [cert.domain]
    carriers = _carriers(domain + list(cert.cells))
    with _counting(carriers) as counts:
        report = check_partition(cert, m, ctx)
    violations, ambiguous, points = per_lift_partition(cert, m, ctx)
    assert (report.violations, report.ambiguous_points, report.points_tested, report.ok) \
        == (violations, ambiguous, points, not violations and not report.outside)
    assert counts["visited"] <= counts["evals"] <= len(carriers) * counts["visited"]

    carriers = _carriers([cert.cells[d.cell] for d in cert.descriptions],
                         functions + [d.delta for d in cert.descriptions])
    with _counting(carriers) as counts:
        norms = check_norm_description(functions, cert, m, ctx)
    mismatches, ambiguous, points = per_lift_norm_description(functions, cert, m, ctx)
    assert (norms.mismatches, norms.ambiguous_points, norms.points_checked, norms.ok) \
        == (mismatches, ambiguous, points, not mismatches)
    assert counts["visited"] <= counts["evals"] <= len(carriers) * counts["visited"]


@st.composite
def _siblings(draw, p: int, center: Polynomial) -> list[CellLevel]:
    """Levels about one centre: cosets of orders 1-4 (a representative of their
    order or another lam) between constant bounds, one of them again with
    another window; then perhaps a zero constant bound, a point level and,
    about a polynomial centre, a non-constant bound."""
    ctx, orders = PrimeContext(p), st.integers(1, 4)
    windows = st.tuples(st.sampled_from((None, bound(p**3), bound(p * p, strict=False))),
                        st.sampled_from((None, bound(1, strict=False), bound(p),
                                         bound(Fraction(1, p), strict=False))))
    levels = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(orders)
        lam = draw(st.sampled_from(coset_representatives(n, ctx))
                   | st.sampled_from((Fraction(2), Fraction(3, p), Fraction(p * p))))
        levels.append(CellLevel(center, *draw(windows), CosetSpec(lam, n)))
    levels.append(CellLevel(center, *draw(windows), levels[0].coset))
    extras = [CellLevel(center, None, bound(0), CosetSpec(Fraction(1), draw(orders))),
              CellLevel(center, None, None, CosetSpec(Fraction(0), 1))]
    if not center.is_constant():
        extras.append(CellLevel(center, None, Bound(_X1 - Polynomial.constant(1), draw(
            st.booleans())), CosetSpec(Fraction(1), draw(orders))))
    return levels + [level for level in extras if draw(st.booleans())]


@st.composite
def _coset_index_problem(draw):
    """Cells picked from sibling levels about one constant centre (and perhaps a
    level about another), then about a polynomial centre at arity 2; over the
    box or a tower picked from the same levels."""
    p, arity, m = draw(st.sampled_from(_SIZES))
    ctx = PrimeContext(p)
    first = draw(_siblings(p, Polynomial.constant(draw(st.integers(0, p)))))
    if draw(st.booleans()):
        first.append(one_level(p + 1, upper=bound(1, strict=False), n=2).levels[0])
    pools = [first]
    if arity == 2:
        center = parse_poly(draw(st.sampled_from(("x1", "x1^2 + 1", "2*x1 + 3"))))
        pools.append(draw(_siblings(p, center)))
    picks = st.tuples(*(st.sampled_from(pool) for pool in pools))
    cells = tuple(CellTower(levels) for levels in draw(st.lists(picks, min_size=1, max_size=10)))
    domain = BoxDomain(arity) if draw(st.booleans()) else CellTower(draw(picks))
    return DecompositionCertificate(p, domain, cells), m, ctx


@settings(derandomize=True, max_examples=100, deadline=None)
@given(problem=_coset_index_problem())
def test_coset_lookup_matches_the_per_tower_loop(problem):
    """owners_of decides the explicit sibling levels of a node by one coset
    signature per class; at every class r mod p^j, j <= m, it equals the loop
    of each tower's member_of (the owners sorted, ambiguous the or of the
    flags), and check_partition's report equals that loop over the lifts."""
    cert, m, ctx = problem
    p, arity = ctx.p, cert.domain.arity
    plan = MembershipPlan(ctx)
    owners_of = plan.owners_of([plan.levels_of(tower) for tower in cert.cells])
    loop = MembershipPlan(ctx)
    members = [loop.member_of(tower) for tower in cert.cells]

    def per_tower(point, at):
        flags = [at_level(member, point, at) for member in members]
        return tuple(i for i, (holds, _) in enumerate(flags) if holds), any(a for _, a in flags)

    for j in range(m + 1):
        for r in itertools.product(range(p**j), repeat=arity):
            assert at_level(owners_of, r, j) == per_tower(r, j), (r, j)
    domain = loop.domain_of(cert.domain)
    violations, ambiguous, points = [], 0, 0
    for pt in itertools.product(range(p**m), repeat=arity):
        if domain is None or domain(pt, (m,) * arity)[0]:
            owners, amb = per_tower(pt, m)
            points, ambiguous = points + 1, ambiguous + amb
            if len(owners) != 1:
                violations.append((pt, list(owners)))
    report = check_partition(cert, m, ctx)
    assert (report.violations, report.ambiguous_points, report.points_tested) \
        == (violations, ambiguous, points)


@pytest.mark.parametrize("p, m, count", [(2, 6, 32), (5, 3, 16)])
def test_partition_takes_one_coset_signature_per_class(p, m, count):
    """The cells {|t| <= 1, t in lam*P_4} partition Z_p minus 0, all siblings of
    the tree's one node: check_partition takes at most one unit power per
    class it visits, where each cell's own test took one wherever v(t) =
    v(lam) mod 4 (8 per class at p = 2, 4 at p = 5), and reports as the
    per-lift loop does."""
    ctx = PrimeContext(p)
    cells = tuple(unit_ball_coset_cell(lam, 4) for lam in coset_representatives(4, ctx))
    cert = DecompositionCertificate(p, zp_nonzero_cell(), cells)
    assert len(cells) == count
    visited, powers = [], []
    refine, unit = cells_module.refine_classes, cells_module._Order.unit

    def counting_refine(p, level, arity, classify, member_of=None):
        return refine(p, level, arity, classify,
                      lambda *args: visited.append(args) or member_of(*args))

    def counting_unit(order):
        if order.modulus > 1:  # a unit power is taken
            powers.append(order.n)
        return unit(order)

    with patch.object(cells_module, "refine_classes", counting_refine), \
            patch.object(cells_module._Order, "unit", counting_unit):
        report = check_partition(cert, m, ctx)
    assert (report.violations, report.ambiguous_points, report.points_tested) \
        == per_lift_partition(cert, m, ctx)
    assert report.ok
    assert 0 < len(powers) <= len(visited)


def per_lift_riemann(e, arity, m, ctx, domain) -> tuple:
    """The per-lift Riemann sum over a tower domain, membership by the Fraction
    oracle: (value, ambiguous lifts).  A lift is ambiguous by its margin or,
    on a member, by a valuation >= m in its own carrier_valuations vector."""
    run, valuations = compile_expr(e, ctx), carrier_valuations(e, ctx)
    total, ambiguous = Fraction(0), 0
    for pt in itertools.product(range(ctx.p**m), repeat=arity):
        member, amb = fraction_membership(domain, pt, ctx, m)
        if member:
            vals = valuations(pt)
            total, amb = total + run({vals: 1}, m), amb or any(v >= m for v in vals)
        ambiguous += amb
    return total * Fraction(1, ctx.p ** (arity * m)), ambiguous


_INTEGRANDS = {1: ("norm(x1)", "val(x1 - 1)", "norm(x1^2 - 2)*val(x1)"),
               2: ("norm(x1*x2)", "val(x2 - x1) + norm(x1)", "norm(x2^2 - x1^3)")}


@st.composite
def _tower_domain_problem(draw):
    """(cert, functions, e, m, ctx) over a tower domain at p in {2, 3, 5} with
    coset orders n in {1, 2, 3, 4}, so p | n at p = 2 (n = 2, 4) and p = 3
    (n = 3).  Each domain level about its centre (a constant, then x1 or
    x1^2 + 1) is Z_p minus the centre, a shell of it, or one coset of order
    n; the cells are the cosets of order n about the first centre, over Z_p
    minus the second centre and that centre, or random towers."""
    p, arity = draw(st.sampled_from((2, 3, 5))), draw(st.integers(1, 2))
    m = draw(st.integers(1, max(k for k in range(1, 12) if p ** (k * arity) <= 729)))
    ctx, n = PrimeContext(p), draw(st.integers(1, 4))
    centers = [Polynomial.constant(draw(st.integers(0, p)))]
    if arity == 2:
        centers.append(parse_poly(draw(st.sampled_from(("x1", "x1^2 + 1")))))
    unit_ball, one = bound(1, strict=False), CosetSpec(Fraction(1), 1)
    lam = draw(st.sampled_from(coset_representatives(n, ctx)))
    kinds = {"punctured": (None, unit_ball, one), "shell": (bound(p**3), unit_ball, one),
             "coset": (None, draw(st.sampled_from((unit_ball, bound(p)))), CosetSpec(lam, n))}
    domain = CellTower(tuple(CellLevel(c, *kinds[draw(st.sampled_from(sorted(kinds)))])
                             for c in centers))
    if draw(st.booleans()):
        cells = [(CellLevel(centers[0], None, unit_ball, CosetSpec(rep, n)),)
                 for rep in coset_representatives(n, ctx)]
        if arity == 2:
            cells = [cell + (level,) for cell in cells for level in (
                CellLevel(centers[1], None, unit_ball, one),
                CellLevel(centers[1], None, None, CosetSpec(Fraction(0), 1)))]
        cells = tuple(CellTower(levels) for levels in cells)
    else:
        cells = tuple(draw(_random_tower(p, arity)) for _ in range(draw(st.integers(1, 4))))
    descriptions = []
    for _ in range(draw(st.integers(1, 2))):
        cell = draw(st.integers(0, len(cells) - 1))
        point = cells[cell].levels[-1].coset.lam == 0
        delta = draw(st.sampled_from((Polynomial.constant(1), Polynomial.constant(p))
                                     + ((parse_poly("x1 - 1"),) if arity == 2 else ())))
        descriptions.append(NormDescription(cell, draw(st.integers(0, 1)), delta,
                                            0 if point else draw(st.sampled_from((0, 1, 2)))))
    functions = [Polynomial.variable(arity - 1) ** draw(st.integers(1, 3)), draw(_poly(p, arity))]
    e = parse_expr(draw(st.sampled_from(_INTEGRANDS[arity])))
    return DecompositionCertificate(p, domain, cells, tuple(descriptions)), functions, e, m, ctx


@settings(derandomize=True, max_examples=100, deadline=None)
@given(problem=_tower_domain_problem())
def test_decided_classes_match_per_lift_loops_over_tower_domains(problem):
    """A class is split only until its membership is fixed, and the Hensel
    margin only flags it.  Over tower domains, with p | n among the orders:
    every lift mod p^m of a class r mod p^j whose domain test is decided at
    depth j (undecided 0) gets the same (holds, undecided, flagged) as r, and
    a class undecided at depth j is flagged past j; and check_partition,
    check_norm_description and riemann_sums at every level up to m equal
    their per-lift loops."""
    cert, functions, e, m, ctx = problem
    p, arity = ctx.p, cert.domain.arity
    member_of = MembershipPlan(ctx).member_of(cert.domain)
    for j in range(m + 1):
        depths = (j,) * arity
        for r in itertools.product(range(p**j), repeat=arity):
            holds, undecided, flagged = answer = member_of(r, depths)
            assert not undecided or flagged > j
            if not undecided:
                for t in itertools.product(range(p ** (m - j)), repeat=arity):
                    lift = tuple(x + p**j * y for x, y in zip(r, t))
                    assert member_of(lift, depths) == answer, (r, j, lift)
    report = check_partition(cert, m, ctx)
    assert (report.violations, report.ambiguous_points, report.points_tested) \
        == per_lift_partition(cert, m, ctx)
    norms = check_norm_description(functions, cert, m, ctx)
    assert (norms.mismatches, norms.ambiguous_points, norms.points_checked) \
        == per_lift_norm_description(functions, cert, m, ctx)
    levels = list(range(1, m + 1))
    for result, level in zip(riemann_sums(e, arity, levels, ctx, domain=cert.domain), levels):
        assert (result.value, result.ambiguous_count) \
            == per_lift_riemann(e, arity, level, ctx, cert.domain), level


@pytest.mark.parametrize("p, f, delta, a, m, most, mismatches", [
    (5, "25*x1", "25", 1, 6, 31, 0),
    (5, "25*x1^3", "25", 3, 6, 31, 0),
    (3, "x1^2*(x1 - 1)^2", "1", 2, 6, 34, 243),
    (7, "(x1 - 1)^3", "1", 0, 5, 64, 2401),
])
def test_norm_check_settles_a_class_once_every_valuation_is_constant(
        p, f, delta, a, m, most, mismatches):
    """A class on which f is 0 mod p^j is settled as soon as the valuations of
    f, delta and t - c are constant on it, by the oracle's rule: the walk makes
    at most `most` membership tests (531, 4 031, 154 and 778 when a class was
    settled only where f and delta were nonzero mod p^j), for the report of
    the per-lift loop."""
    ctx = PrimeContext(p)
    cert = DecompositionCertificate(p, BoxDomain(1), (zp_nonzero_cell(), point_cell(0)),
                                    (NormDescription(0, 0, parse_poly(delta), a),))
    functions = [parse_poly(f)]
    visited, refine = [], cells_module.refine_classes

    def counting_refine(p, level, arity, classify, member_of=None):
        return refine(p, level, arity, classify,
                      lambda *args: visited.append(args) or member_of(*args))

    with patch.object(cells_module, "refine_classes", counting_refine):
        report = check_norm_description(functions, cert, m, ctx)
    expected = per_lift_norm_description(functions, cert, m, ctx)
    assert (report.mismatches, report.ambiguous_points, report.points_checked) == expected
    assert (len(report.mismatches), report.ok) == (mismatches, not mismatches)
    assert len(visited) <= most


def _delta_root_problem():
    """delta = x1 - 1 is 0 mod 3^j on member classes x1 = 1 mod 3^j that are
    otherwise settled: they must be split, as f = x2 - x1 + 1/3 never vanishes."""
    ctx = PrimeContext(3)
    first = (zp_nonzero_cell().levels[0], point_cell(0).levels[0])
    center = parse_poly("x1")
    second = (CellLevel(center, None, bound(1, strict=False), CosetSpec(Fraction(1), 1)),
              CellLevel(center, None, None, CosetSpec(Fraction(0), 1)))
    cells = tuple(CellTower((a, b)) for a in first for b in second)
    desc = NormDescription(cell=0, function=0, delta=parse_poly("x1 - 1"), a=1)
    cert = DecompositionCertificate(3, BoxDomain(2), cells, (desc,))
    return cert, [parse_poly("x2 - x1 + 1/3")], 3, ctx


@settings(derandomize=True, max_examples=100, deadline=None)
@given(problem=_certificate(_DEEP_SIZES))
@example(problem=_delta_root_problem())
def test_check_norm_description_matches_per_lift_loop(problem):
    cert, functions, m, ctx = problem
    report = _outcome(check_norm_description, functions, cert, m, ctx)
    expected = _outcome(per_lift_norm_description, functions, cert, m, ctx)
    if isinstance(expected, tuple) and isinstance(expected[0], str):
        assert report == expected
        return
    mismatches, ambiguous, points = expected
    assert (report.ambiguous_points, report.points_checked) == (ambiguous, points)
    assert [(pt, str(lhs), str(rhs)) for pt, lhs, rhs in report.mismatches] \
        == [(pt, str(lhs), str(rhs)) for pt, lhs, rhs in mismatches]
    assert report.mismatches == mismatches


def _cube_refine(p, level, arity, classify, member_of=None):
    """refine_classes with one depth for every coordinate: a box r + p^j*Z_p^n
    that is undecided in any coordinate is split in all of them, r + p^j*d
    for every digit vector d.  The reference walk of the per-coordinate one:
    same protocol, same keys, same lifts mod p^m at every level."""
    digits = list(itertools.product(range(p), repeat=arity))
    stack = [((0,) * arity, 0)]
    while stack:
        r, j = stack.pop()
        J = (j,) * arity
        member, undecided, flagged = (True, 0, 0) if member_of is None else member_of(r, J)
        key = None
        if member or undecided:
            key, reads = classify(r, J, flagged, level)
            undecided |= reads
        if not member:
            key = None, flagged
        if undecided and j < level:
            stack.extend((tuple(x + p**j * d for x, d in zip(r, ds)), j + 1) for ds in digits)
        else:
            yield key, r, J


_WALK_SIZES = [(p, n, m) for p in (2, 3, 5) for n in (1, 2, 3) for m in range(1, 8)
               if p ** (m * n) <= 729]


def _punctured(centers) -> CellTower:
    """Z_p minus a constant centre at every level."""
    return CellTower(tuple(CellLevel(Polynomial.constant(c), None, bound(1, strict=False),
                                     CosetSpec(Fraction(1), 1)) for c in centers))


@st.composite
def _walk_problem(draw):
    """(e, n, levels, ctx, cert, functions) at p in {2, 3, 5}, arity 1-3: over the
    box, Z_p minus constant centres, or random towers (constant and polynomial
    centres, constant, zero and non-constant bounds); an integrand of carriers
    that read every coordinate or one; a strictly increasing list of levels;
    random cells and norm descriptions."""
    p, n, m = draw(st.sampled_from(_WALK_SIZES))
    ctx = PrimeContext(p)
    centers = st.lists(st.integers(0, p), min_size=n, max_size=n)
    domain = draw(st.one_of(st.just(BoxDomain(n)), centers.map(_punctured),
                            _random_tower(p, n)))
    cells = draw(st.lists(st.one_of(_random_tower(p, n), centers.map(_punctured)),
                          min_size=1, max_size=3))
    one = st.builds(lambda k, c: Polynomial.variable(k) - Polynomial.constant(c),
                    st.integers(0, n - 1), st.integers(0, p))
    f, g = draw(st.one_of(one, _poly(p, n))), draw(st.one_of(one, _poly(p, n)))
    form = draw(st.sampled_from(("norm({})*val({})", "norm({}) + val({})", "norm({})^{{1/2}}*norm({})")))
    e = parse_expr(form.format(format_poly(f), format_poly(g)))
    functions = [draw(_poly(p, n))]
    descriptions = []
    for _ in range(draw(st.integers(0, 2))):
        cell = draw(st.integers(0, len(cells) - 1))
        point = cells[cell].levels[-1].coset.lam == 0
        delta = draw(_poly(p, n - 1)) if n > 1 and draw(st.booleans()) else \
            Polynomial.constant(draw(st.sampled_from((1, p, 2))))
        descriptions.append(NormDescription(cell, 0, delta, 0 if point else draw(st.integers(0, 2))))
    levels = sorted(draw(st.sets(st.integers(1, m), min_size=1, max_size=4)))
    cert = DecompositionCertificate(p, domain, tuple(cells), tuple(descriptions))
    return e, n, levels, ctx, cert, functions


def _walk_outputs(problem) -> tuple:
    """The oracle's lift tallies at every listed level, and the partition and
    norm reports at the largest, as the walk in place gives them."""
    e, n, levels, ctx, cert, functions = problem
    _, lifts = oracle_module._walk(e, n, levels, ctx, cert.domain, 10**6)
    m = max(levels)
    partition, norms = check_partition(cert, m, ctx), check_norm_description(functions, cert, m, ctx)
    return (lifts, (partition.violations, partition.ambiguous_points, partition.points_tested),
            (norms.mismatches, norms.ambiguous_points, norms.points_checked))


_TWICE_PUNCTURED = _punctured((1, 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(problem=_walk_problem())
@example(problem=(parse_expr("norm(x1 - 3)"), 2, [1, 3], PrimeContext(2),
                  DecompositionCertificate(2, _TWICE_PUNCTURED, (_TWICE_PUNCTURED,)), []))
def test_per_coordinate_walk_matches_the_cube_walk(problem):
    """The walk that splits only the undecided coordinates at the least depth
    among them gives the cube walk's lift tallies at every listed level (one
    walk for several levels), and its partition and norm reports."""
    walked = _walk_outputs(problem)
    with patch.object(cells_module, "refine_classes", _cube_refine), \
            patch.object(oracle_module, "refine_classes", _cube_refine):
        cubed = _walk_outputs(problem)
    assert walked == cubed


@settings(derandomize=True, max_examples=150, deadline=None)
@given(problem=_walk_problem())
@example(problem=(parse_expr("norm(x1 - 3)"), 2, [1, 3], PrimeContext(2),
                  DecompositionCertificate(2, _TWICE_PUNCTURED, (_TWICE_PUNCTURED,)), []))
def test_one_walk_tallies_every_level_as_a_walk_to_it_alone(problem):
    """The walk to the largest listed level counts each lower level m by the
    least lifts mod p^m of its settled boxes: its raw tally at m, every key
    with its margin and lift count, is that of a walk to m alone."""
    e, n, levels, ctx, cert, _ = problem
    _, lifts = oracle_module._walk(e, n, levels, ctx, cert.domain, 10**6)
    for m in levels:
        assert lifts[m] == oracle_module._walk(e, n, [m], ctx, cert.domain, 10**6)[1][m], m


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats(allow_nan=False)
    | st.text(max_size=4) | st.sampled_from(("1/0", "x1", "0", "-1", "tower", "box")),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)


def _paths(value, prefix=()):
    yield prefix
    children = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated(draw, valid: dict):
    """A valid JSON document with one to three entries replaced or deleted."""
    data = json.loads(json.dumps(valid))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        if not path:
            return draw(_JSON)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(_JSON)
    return data


_VALID_TERMS = {"terms": [{"cell": 0, "coeff": "1/2", "levels": [{"a": 1, "l": 0}]}]}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(cert=_mutated(json.loads(CERT_JSON)), terms=_mutated(_VALID_TERMS),
       text=st.text(max_size=40))
def test_malformed_inputs_raise_cellint_errors(cert, terms, text):
    for fn, data in ((certificate_from_dict, cert), (terms_from_dict, terms)):
        try:
            fn(data)
        except CellintError:
            pass
    with tempfile.TemporaryDirectory() as tmp:
        for doc in (json.dumps(cert), json.dumps(terms), text):
            path = os.path.join(tmp, "input.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(doc)
            for load in (load_certificate, load_terms):
                try:
                    load(path)
                except CellintError:
                    pass
        for load in (load_certificate, load_terms):
            with pytest.raises(CellintError, match="cannot read"):
                load(os.path.join(tmp, "missing.json"))
