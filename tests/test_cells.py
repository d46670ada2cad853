"""Cell membership, fiber geometry, and certificate verification."""

import itertools
import json
import os
import random
import tempfile
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
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
    parse_poly,
    point_cell,
    save_certificate,
    terms_from_dict,
    tower_measure,
    unit_ball_coset_cell,
    unit_coset_density,
    valuation,
    zp_nonzero_cell,
)
from cellint.cells import _described_level, _rational, compile_membership, membership
from cellint.errors import CertificateMismatchError
from cellint.formula_dsl import _Carrier
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


def test_compiled_membership_matches_oracle_on_one_level_towers():
    for ctx in (PrimeContext(2), PrimeContext(5)):
        p = ctx.p
        towers = [zp_nonzero_cell(), unit_ball_coset_cell(1, 2),
                  unit_ball_coset_cell(p, 2), unit_ball_coset_cell(3, 3),
                  point_cell(1)]
        for level in (2, 4):
            for tower in towers:
                member_of = compile_membership(tower, ctx)
                for r in range(p**level):
                    assert member_of((r,), level) == fraction_membership(tower, (r,), ctx, level)


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
    member_of = compile_membership(tower, ctx)
    level = data.draw(st.integers(0, m + 1))
    for pt in itertools.product(range(p**m), repeat=arity):
        assert member_of(pt, level) == fraction_membership(tower, pt, ctx, level), pt
    assert membership(tower, pt, ctx, m) == fraction_membership(tower, pt, ctx, m)


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
    assert carrier.valuation_at(point) == valuation(poly.eval(point), ctx)
    lift = [x.numerator if isinstance(x, Fraction) else x for x in point]
    assert carrier.valuation_at(lift) == valuation(poly.eval(lift), ctx)
    if poly.arity:
        with pytest.raises(ValueError):
            carrier.valuation_at(point[:poly.arity - 1])


@_differential
@given(problem=_certificate(_SIZES))
def test_check_partition_matches_per_lift_loop(problem):
    cert, _, m, ctx = problem
    report = check_partition(cert, m, ctx)
    violations, ambiguous, points = per_lift_partition(cert, m, ctx)
    assert (report.violations, report.ambiguous_points, report.points_tested) \
        == (violations, ambiguous, points)
    assert report.ok == (not violations)


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
