"""Cells, membership, exact fiber measures, and decomposition certificates.

A cell level constrains one coordinate t against the earlier ones via
|alpha(x)| <1 |t - c(x)| <2 |beta(x)| and a coset condition t - c(x) in
lam*P_n; towers nest levels.  Certificates (a finite list of cells claimed
to partition a domain, plus norm descriptions |f| = |delta| *
|(t-c)^a lam^(-a)|^(1/n)) are verified exactly on lifted residue points.

contains reads a level through qexp_sum.fiber_valuation_range (re-exported
here) and coset_membership; fiber_measure and tower_measure thread one value
through qexp_sum.level_integral at a = l = 0.
compile_membership plans a tower once, in integer arithmetic.  The checks
walk the digit-tree kernel refine_classes, which settles a class r mod p^j
(all its p^(n(m-j)) lifts at once) when every plan is unambiguous on it and
no described f or delta is 0 mod p^j.  The budget counts all p^(m*n) classes.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Sequence, Union

from .errors import CertificateMismatchError, DivergentError, InvalidArgumentError
from .formula_dsl import _Carrier, parse_poly
from .padic_core import (
    DEFAULT_BUDGET,
    INF,
    PrimeContext,
    _power_test,
    check_budget,
    coset_membership,
    hensel_level,
    int_valuation,
    residue,
    unit_part,
    valuation,
)
from .polynomials import Polynomial, eval_int_terms, format_poly
from .qexp_sum import CellTermSpec, fiber_valuation_range, level_integral
from .rootval import RootScaledValue

# -- data types ----------------------------------------------------------------


@dataclass(frozen=True)
class CosetSpec:
    """The coset lam * P_n; lam = 0 encodes the graph/point case."""

    lam: Fraction
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("coset order n must be >= 1")
        if type(self.lam) is not Fraction:  # a parsed Fraction is kept, and shared
            object.__setattr__(self, "lam", Fraction(self.lam))


@dataclass(frozen=True)
class Bound:
    """One side of a norm condition; expr must be nonzero on the base."""

    expr: Polynomial
    strict: bool = True


@dataclass(frozen=True)
class CellLevel:
    """One nesting level: bounds and coset for t relative to center(x)."""

    center: Polynomial
    lower: Bound | None  # alpha: |alpha| < |t - c|   (caps v(t-c) above)
    upper: Bound | None  # beta:  |t - c| < |beta|    (bounds v(t-c) below)
    coset: CosetSpec

    def __post_init__(self):
        if self.coset.lam == 0 and (self.lower is not None or self.upper is not None):
            raise ValueError("point levels (lambda = 0) take no norm bounds")


@dataclass(frozen=True)
class CellTower:
    levels: tuple[CellLevel, ...]

    def __post_init__(self):
        for i, level in enumerate(self.levels):
            used = max([level.center.arity]
                       + [b.expr.arity for b in (level.lower, level.upper) if b])
            if used > i:
                raise ValueError(f"level {i} references variable x{used} of a later level")

    @property
    def arity(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class BoxDomain:
    """The full box Z_p^arity."""

    arity: int


Domain = Union[BoxDomain, CellTower]


@dataclass(frozen=True)
class NormDescription:
    """Claim |f| = |delta(x)| * |(t-c)^a lam^(-a)|^(1/n) on one cell level."""

    cell: int
    function: int
    delta: Polynomial
    a: int
    level: int = -1


@dataclass(frozen=True)
class DecompositionCertificate:
    prime: int
    domain: Domain
    cells: tuple[CellTower, ...]
    descriptions: tuple[NormDescription, ...] = field(default=())

    def __post_init__(self):
        arity = self.domain.arity
        for i, tower in enumerate(self.cells):
            if tower.arity != arity:
                raise ValueError(f"cell {i} has arity {tower.arity}, domain has {arity}")


# -- convenience constructors ----------------------------------------------------


def unit_ball_coset_cell(lam, n: int) -> CellTower:
    """{t : |t| <= 1, t in lam*P_n} as a one-level tower."""
    return CellTower((CellLevel(
        center=Polynomial.constant(0),
        lower=None,
        upper=Bound(Polynomial.constant(1), strict=False),
        coset=CosetSpec(Fraction(lam), n)),))


def zp_nonzero_cell() -> CellTower:
    """Z_p minus the origin: {|t| <= 1, t in 1*P_1}."""
    return unit_ball_coset_cell(1, 1)


def point_cell(center=0) -> CellTower:
    """The single point t = center (lambda = 0)."""
    return CellTower((CellLevel(
        center=Polynomial.constant(center),
        lower=None,
        upper=None,
        coset=CosetSpec(Fraction(0), 1)),))


# -- membership ------------------------------------------------------------------


def _level_holds(level: CellLevel, prefix: Sequence[Fraction], t: Fraction,
                 ctx: PrimeContext) -> bool:
    diff = Fraction(t) - level.center.eval(prefix)
    if level.coset.lam == 0:
        return diff == 0
    krange = fiber_valuation_range(level, prefix, ctx)
    return diff != 0 and krange.contains(int(valuation(diff, ctx))) \
        and coset_membership(diff, level.coset.lam, level.coset.n, ctx)


def contains(tower: CellTower, point: Sequence, ctx: PrimeContext) -> bool:
    """Exact membership of a rational point, tested level by level up to the
    first that fails; BoundVanishedError if a bound of a tested level is 0."""
    if len(point) != tower.arity:
        raise ValueError(f"point arity {len(point)} != tower arity {tower.arity}")
    pt = [Fraction(x) for x in point]
    return all(_level_holds(level, pt[:i], pt[i], ctx)
               for i, level in enumerate(tower.levels))


def _plan_level(index: int, level: CellLevel, ctx: PrimeContext):
    """(point, level) -> (holds, ambiguous) for one cell level, in integers: with
    t - c(x) = N(x)/D cleared of denominators, v(t - c) = v(N) - v(D) and
    unit((t - c)/lam) = unit(N) * unit(D*lam)^(-1) mod p^M, whose n-th-power
    coset is padic_core._power_test's closed form."""
    p, lam, n = ctx.p, level.coset.lam, level.coset.n
    diff = _Carrier(Polynomial.variable(index) - level.center, ctx)
    terms, vden = diff.terms, diff.vden
    bounds = []
    for lower, bound in ((True, level.lower), (False, level.upper)):
        if bound is not None:
            view = _Carrier(bound.expr, ctx)
            const = view.valuation_at(()) if bound.expr.is_constant() else None
            bounds.append((lower, bound.strict, view.terms, view.vden, const))
    hensel = 1 if lam == 0 else hensel_level(n, p)
    if lam != 0:
        vlam = int(valuation(lam, ctx))
        inverse = pow(residue(unit_part(diff.denom * lam, ctx), hensel, ctx), -1, p**hensel)
        exponent, power_level, _ = _power_test(n, p)
        power_modulus = p**power_level

    def test(point: Sequence[int], at: int) -> tuple[bool, bool]:
        num = eval_int_terms(terms, point)
        vnum = INF if num == 0 else int_valuation(num, p)
        ambiguous = vnum + hensel > at
        values = []
        for _, _, bterms, bvden, const in bounds:
            if const is None:
                b = eval_int_terms(bterms, point)
                ambiguous = ambiguous or b % p**at == 0
                const = INF if b == 0 else int_valuation(b, p) - bvden
            values.append(const)
        if lam == 0:
            return num == 0, ambiguous
        k = vnum - vden
        for (lower, strict, _, _, _), v in zip(bounds, values):
            if v is INF:  # the bound vanished: a malformed cell at this point
                return False, True
            if not ((k < v if strict else k <= v) if lower else (k > v if strict else k >= v)):
                return False, ambiguous
        if num == 0 or (k - vlam) % n:
            return False, ambiguous
        return pow(num // p**vnum * inverse, exponent, power_modulus) == 1, ambiguous

    return test


def compile_membership(tower: CellTower,
                       ctx: PrimeContext) -> Callable[[Sequence[int], int], tuple[bool, bool]]:
    """Plan a tower once: (integer point, level) -> (member, ambiguous).

    Membership is exact at the point, and ambiguous when the class mod
    p^level does not fix it: at some level v(t - c) + M > level - (precision
    lost to p in the centre's denominators), M the coset's Hensel level (1
    for a point), or a non-constant bound is 0 mod p^level once cleared, or
    a bound vanishes.  Levels after the first that fails are not tested.
    """
    levels = [_plan_level(i, level, ctx) for i, level in enumerate(tower.levels)]

    def member_of(point: Sequence[int], level: int) -> tuple[bool, bool]:
        ambiguous = False
        for test in levels:
            holds, amb = test(point, level)
            ambiguous = ambiguous or amb
            if not holds:
                return False, ambiguous
        return True, ambiguous

    return member_of


def refine_classes(p: int, level: int, arity: int, classify: Callable,
                   member_of: Callable | None = None) -> Iterator[tuple]:
    """Settle the classes r mod p^j of Z_p^arity, depth first, one p-adic digit at a time.

    A class that member_of (a membership plan) finds ambiguous is split, one
    outside it is settled with the key (None, ambiguous); classify(r, j,
    ambiguous) keys all p^(arity*(level-j)) lifts of the others, or returns
    None to split r into r + p^j*d (never at j = level).  Yields (key, r, j).
    """
    digits = list(itertools.product(range(p), repeat=arity))
    stack = [((0,) * arity, 0)]
    while stack:
        r, j = stack.pop()
        member, amb = (True, False) if member_of is None else member_of(r, j)
        key = None if amb and j < level else classify(r, j, amb) if member else (None, amb)
        if key is None:
            pj = p**j
            stack.extend((tuple(x + pj * d for x, d in zip(r, ds)), j + 1) for ds in digits)
        else:
            yield key, r, j


def membership(tower: CellTower, point: Sequence, ctx: PrimeContext,
               level_m: int) -> tuple[bool, bool]:
    """(member, ambiguous) of the integer lift of a class mod p^level_m, planned once."""
    if any(Fraction(x).denominator != 1 for x in point):
        raise InvalidArgumentError("membership is decided at integer lifts")
    return compile_membership(tower, ctx)(tuple(int(x) for x in point), level_m)


# -- fiber geometry ---------------------------------------------------------------


def _explicit_measure(levels: Sequence[CellLevel], ctx: PrimeContext) -> Fraction:
    """Product of the Haar measures of constant-data fibers, outermost first:
    the running value is each level's coefficient (level_integral at a = l = 0)."""
    value = RootScaledValue.from_rational(1, ctx.p)
    for level in levels:
        value, ok = level_integral(level, 0, 0, value, ctx)
        if not ok:
            raise DivergentError("fiber has infinite measure (norm unbounded above)")
    return value.as_exact_rational()


def fiber_measure(level: CellLevel, ctx: PrimeContext) -> Fraction:
    """Haar measure of a constant-data fiber, summed in closed form."""
    return _explicit_measure((level,), ctx)


def tower_measure(tower: CellTower, ctx: PrimeContext) -> Fraction:
    """Measure of an explicit tower (product of its constant-data fibers)."""
    return _explicit_measure(tower.levels, ctx)


# -- certificate checking ----------------------------------------------------------


@dataclass
class PartitionReport:
    ok: bool
    violations: list[tuple[tuple[int, ...], list[int]]]
    ambiguous_points: int
    points_tested: int

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (f"partition check: {status}, {self.points_tested} points, "
                f"{self.ambiguous_points} ambiguous")


def check_partition(cert: DecompositionCertificate, m: int, ctx: PrimeContext,
                    budget: int = DEFAULT_BUDGET) -> PartitionReport:
    """Verify that the cells cover every tested domain point exactly once.

    Points are the canonical lifts of all residue classes mod p^m lying in
    the domain; evaluations whose result is not constant on the whole
    residue class are counted as ambiguous (reported, never silently
    passed) but still decided at the lift.  Violations are listed in product
    order.  Raises InvalidArgumentError for m < 1, and BudgetExceededError
    before enumerating when p^(m*arity) exceeds the budget.
    """
    if m < 1:
        raise InvalidArgumentError("level m must be >= 1")
    if ctx.p != cert.prime:
        raise ValueError("context prime differs from certificate prime")
    p, arity = ctx.p, cert.domain.arity
    check_budget(p, m, arity, budget)
    domain = None if isinstance(cert.domain, BoxDomain) else compile_membership(cert.domain, ctx)
    cells = [compile_membership(tower, ctx) for tower in cert.cells]

    def classify(r, j, _):
        owners = []
        point_ambiguous = False
        for idx, cell in enumerate(cells):
            member, amb = cell(r, j)
            if amb:
                if j < m:
                    return None
                point_ambiguous = True
            if member:
                owners.append(idx)
        return tuple(owners), point_ambiguous

    violations: list[tuple[tuple[int, ...], list[int]]] = []
    ambiguous_points = 0
    total = 0
    for (owners, amb), r, j in refine_classes(p, m, arity, classify, domain):
        if owners is None:
            continue
        size = p ** (arity * (m - j))
        total += size
        ambiguous_points += size if amb else 0
        if len(owners) != 1:
            lifts = itertools.product(*(range(x, p**m, p**j) for x in r))  # product order
            violations.extend((pt, list(owners)) for pt in lifts)
    violations.sort()
    return PartitionReport(ok=not violations, violations=violations,
                           ambiguous_points=ambiguous_points, points_tested=total)


def _described_level(desc: NormDescription, functions: Sequence[Polynomial],
                    cert: DecompositionCertificate) -> int:
    """The index of the level a norm description is about, checked to fit:
    its cell and function exist, -L <= level < L for the cell's L >= 1 levels,
    delta uses only the variables before that level, f only the cell's, and
    a = 0 on a point level.  CertificateMismatchError otherwise."""
    if not 0 <= desc.cell < len(cert.cells):
        raise CertificateMismatchError(f"description references missing cell {desc.cell}")
    if not 0 <= desc.function < len(functions):
        raise CertificateMismatchError(
            f"description references missing function {desc.function}")
    tower, f = cert.cells[desc.cell], functions[desc.function]
    count = len(tower.levels)
    if not -count <= desc.level < count:
        raise CertificateMismatchError(
            f"description level {desc.level} is not a level of cell {desc.cell} "
            f"({count} level(s))")
    index = desc.level % count
    if desc.delta.arity > index:
        raise CertificateMismatchError(
            f"description delta {format_poly(desc.delta)} uses x{desc.delta.arity}, but "
            f"only {index} variable(s) precede level {index} of cell {desc.cell}")
    if f.arity > tower.arity:
        raise CertificateMismatchError(
            f"function {desc.function} ({format_poly(f)}) uses x{f.arity}, but cell "
            f"{desc.cell} has arity {tower.arity}")
    if tower.levels[index].coset.lam == 0 and desc.a != 0:
        raise CertificateMismatchError("lambda = 0 level requires a = 0")
    return index


@dataclass
class NormCheckReport:
    ok: bool
    mismatches: list[tuple[tuple[int, ...], object, object]]  # point, lhs exp, rhs exp
    ambiguous_points: int
    points_checked: int

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatch(es)"
        return (f"norm description check: {status}, {self.points_checked} points, "
                f"{self.ambiguous_points} ambiguous")


def check_norm_description(functions: Sequence[Polynomial],
                           cert: DecompositionCertificate, m: int,
                           ctx: PrimeContext,
                           budget: int = DEFAULT_BUDGET) -> NormCheckReport:
    """Verify |f| = |delta| * |(t-c)^a lam^(-a)|^(1/n) pointwise on each cell.

    Norms are compared exactly as elements of p^((1/n)Z) union {0} via their
    exponents.  Every certificate description entry is tested on all lifted
    cell points mod p^m (mismatches in product order per entry).  Raises
    InvalidArgumentError for m < 1, BudgetExceededError before enumerating
    when p^(m*arity) exceeds budget, and CertificateMismatchError before
    enumerating when a description does not fit its cell (_described_level).
    """
    if m < 1:
        raise InvalidArgumentError("level m must be >= 1")
    if ctx.p != cert.prime:
        raise ValueError("context prime differs from certificate prime")
    p = ctx.p
    check_budget(p, m, cert.domain.arity, budget)
    level_indices = [_described_level(desc, functions, cert) for desc in cert.descriptions]
    mismatches: list[tuple[tuple[int, ...], object, object]] = []
    ambiguous = 0
    checked = 0
    for desc, level_idx in zip(cert.descriptions, level_indices):
        tower = cert.cells[desc.cell]
        level = tower.levels[level_idx]
        f, delta = _Carrier(functions[desc.function], ctx), _Carrier(desc.delta, ctx)
        diff = _Carrier(Polynomial.variable(level_idx) - level.center, ctx)
        vlam = None if level.coset.lam == 0 else int(valuation(level.coset.lam, ctx))

        def classify(r, j, amb):
            fnum, dnum = eval_int_terms(f.terms, r), eval_int_terms(delta.terms, r)
            if j < m and not (fnum % p**j and dnum % p**j):
                return None
            lhs = INF if fnum == 0 else Fraction(int_valuation(fnum, p) - f.vden)
            vd = INF if dnum == 0 else int_valuation(dnum, p) - delta.vden
            if vlam is None:
                return (lhs, vd), amb
            k = diff.valuation_at(r)
            if k is INF or vd is INF:
                return (lhs, INF), amb
            return (lhs, Fraction(vd) + Fraction(desc.a * (k - vlam), level.coset.n)), amb

        start = len(mismatches)
        for (sides, amb), r, j in refine_classes(p, m, tower.arity, classify,
                                                 compile_membership(tower, ctx)):
            if sides is None:
                continue
            size = p ** (tower.arity * (m - j))
            checked += size
            ambiguous += size if amb else 0
            if sides[0] != sides[1]:  # exponents in Q, or INF for |0|
                lifts = itertools.product(*(range(x, p**m, p**j) for x in r))
                mismatches.extend((pt, *sides) for pt in lifts)
        mismatches[start:] = sorted(mismatches[start:])
    return NormCheckReport(ok=not mismatches, mismatches=mismatches,
                           ambiguous_points=ambiguous, points_checked=checked)


# -- certificate file format ---------------------------------------------------
#
# Polynomials are DSL texts (parse_poly) and rationals "a/b" texts (_rational);
# each distinct text is read once per process and its immutable value shared
# by every certificate and terms file that repeats it.  Integer fields go
# through read_integer, the rule the CLI also applies to its integer flags.

RATIONAL_CACHE_SIZE = 1024  # distinct rational texts kept parsed


def read_integer(value, what: str) -> int:
    """An integer read from JSON or a config value: an int, an integral float
    (1e9) or integer text.  ValueError naming what=value for anything else: a
    fractional float, a boolean, other text."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        return int(str(value))
    except ValueError:
        raise ValueError(f"{what}={value!r} is not an integer") from None


@lru_cache(maxsize=RATIONAL_CACHE_SIZE)
def _rational(text: str) -> Fraction:
    return Fraction(text)


def _bound_from_dict(d: dict | None) -> Bound | None:
    if d is None:
        return None
    return Bound(parse_poly(str(d["expr"])), bool(d.get("strict", True)))


def _level_from_dict(d: dict) -> CellLevel:
    coset = d["coset"]
    return CellLevel(
        center=parse_poly(str(d.get("center", "0"))),
        lower=_bound_from_dict(d.get("lower")),
        upper=_bound_from_dict(d.get("upper")),
        coset=CosetSpec(_rational(str(coset["lambda"])), read_integer(coset["n"], "n")))


def _tower_from_dict(d: dict) -> CellTower:
    return CellTower(tuple(_level_from_dict(lv) for lv in d["levels"]))


@contextmanager
def _reading(what: str):
    """Turn what reading a JSON value of the wrong shape raises into InvalidArgumentError."""
    try:
        yield
    except (KeyError, IndexError, TypeError, AttributeError, ValueError, ZeroDivisionError,
            OverflowError) as ex:
        detail = f"missing key {ex}" if isinstance(ex, KeyError) else f"{type(ex).__name__}: {ex}"
        raise InvalidArgumentError(f"malformed {what}: {detail}") from ex


def certificate_from_dict(data: dict) -> DecompositionCertificate:
    """A certificate from its JSON form; InvalidArgumentError if malformed."""
    with _reading("certificate"):
        dom = data["domain"]
        if dom.get("kind", "box") == "box":
            domain: Domain = BoxDomain(read_integer(dom["arity"], "arity"))
        else:
            domain = _tower_from_dict(dom)
        cells = tuple(_tower_from_dict(c) for c in data["cells"])
        descriptions = tuple(
            NormDescription(cell=read_integer(d["cell"], "cell"),
                            function=read_integer(d.get("function", 0), "function"),
                            delta=parse_poly(str(d.get("delta", "1"))),
                            a=read_integer(d["a"], "a"),
                            level=read_integer(d.get("level", -1), "level"))
            for d in data.get("descriptions", ()))
        return DecompositionCertificate(prime=read_integer(data["prime"], "prime"),
                                        domain=domain, cells=cells, descriptions=descriptions)


def _bound_to_dict(b: Bound | None):
    if b is None:
        return None
    return {"expr": format_poly(b.expr), "strict": b.strict}


def _tower_to_dict(tower: CellTower) -> dict:
    levels = []
    for lv in tower.levels:
        entry: dict = {"center": format_poly(lv.center),
                       "coset": {"lambda": str(lv.coset.lam), "n": lv.coset.n}}
        if lv.lower is not None:
            entry["lower"] = _bound_to_dict(lv.lower)
        if lv.upper is not None:
            entry["upper"] = _bound_to_dict(lv.upper)
        levels.append(entry)
    return {"levels": levels}


def certificate_to_dict(cert: DecompositionCertificate) -> dict:
    if isinstance(cert.domain, BoxDomain):
        dom = {"kind": "box", "arity": cert.domain.arity}
    else:
        dom = {"kind": "tower", **_tower_to_dict(cert.domain)}
    return {
        "prime": cert.prime,
        "domain": dom,
        "cells": [_tower_to_dict(c) for c in cert.cells],
        "descriptions": [
            {"cell": d.cell, "function": d.function, "delta": format_poly(d.delta),
             "a": d.a, "level": d.level}
            for d in cert.descriptions],
    }


def _load_json(path, what: str, from_dict):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as ex:
        raise InvalidArgumentError(f"cannot read {what} file {path}: {ex.strerror}") from ex
    except ValueError as ex:
        raise InvalidArgumentError(f"{what} file {path} is not valid JSON: {ex}") from ex
    return from_dict(data)


def load_certificate(path) -> DecompositionCertificate:
    return _load_json(path, "certificate", certificate_from_dict)


def save_certificate(cert: DecompositionCertificate, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_dict(cert), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _exponent_l(value) -> int:
    """The valuation exponent l of a terms level: an integer >= 0."""
    l = read_integer(value, "l")
    if l < 0:
        raise ValueError(f"l={l} must be >= 0")
    return l


def terms_from_dict(data: dict) -> list[CellTermSpec]:
    """Cell-adapted integrand terms, as written in a terms JSON file;
    InvalidArgumentError if malformed."""
    with _reading("terms"):
        out = []
        for t in data["terms"]:
            levels = tuple((read_integer(lv["a"], "a"), _exponent_l(lv["l"]))
                           for lv in t["levels"])
            out.append(CellTermSpec(cell=read_integer(t["cell"], "cell"),
                                    coeff=_rational(str(t.get("coeff", "1"))),
                                    levels=levels))
        return out


def load_terms(path) -> list[CellTermSpec]:
    return _load_json(path, "terms", terms_from_dict)
