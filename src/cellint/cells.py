"""Cells, membership, exact fiber measures, and decomposition certificates.

A cell level constrains one coordinate t against the earlier ones via
|alpha(x)| <1 |t - c(x)| <2 |beta(x)| and a coset condition t - c(x) in
lam*P_n; towers nest levels.  Certificates (a finite list of cells claimed
to partition a domain, plus norm descriptions |f| = |delta| *
|(t-c)^a lam^(-a)|^(1/n)) are verified exactly on lifted residue points.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence, Union

from .errors import (
    BoundVanishedError,
    CertificateMismatchError,
    DivergentError,
    ZeroCosetError,
)
from .formula_dsl import parse_poly
from .padic_core import (
    DEFAULT_BUDGET,
    INF,
    PrimeContext,
    check_budget,
    coset_membership,
    hensel_level,
    valuation,
)
from .polynomials import Polynomial, format_poly
from .qexp_sum import CellTermSpec, KRange, TermOnCell, krange_from_bounds, level_krange, shell_sum
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
            used = max([level.center.max_variable()]
                       + [b.expr.max_variable() for b in (level.lower, level.upper) if b])
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


def _bound_value(bound: Bound, prefix: Sequence[Fraction]) -> Fraction:
    value = bound.expr.eval(prefix)
    if value == 0:
        raise BoundVanishedError(
            f"bound {format_poly(bound.expr)} vanishes at {tuple(prefix)}")
    return value


def _level_holds(level: CellLevel, prefix: Sequence[Fraction], t: Fraction,
                 ctx: PrimeContext) -> bool:
    c = level.center.eval(prefix)
    diff = Fraction(t) - c
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


def contains(tower: CellTower, point: Sequence, ctx: PrimeContext) -> bool:
    """Exact membership of a rational point (every test is decidable)."""
    if len(point) != tower.arity:
        raise ValueError(f"point arity {len(point)} != tower arity {tower.arity}")
    pt = [Fraction(x) for x in point]
    return all(_level_holds(level, pt[:i], pt[i], ctx)
               for i, level in enumerate(tower.levels))


def _poly_precision_loss(poly: Polynomial, ctx: PrimeContext) -> int:
    """Levels of precision lost by denominators with p in them."""
    loss = 0
    for _, c in poly.terms:
        v = valuation(c, ctx)
        if v is not INF and v < 0:
            loss = max(loss, -int(v))
    return loss


def membership(tower: CellTower, point: Sequence, ctx: PrimeContext,
               level_m: int) -> tuple[bool, bool]:
    """(member, ambiguous) for the lifted representative of a residue class.

    Membership is decided exactly at the lift.  The evaluation is flagged
    ambiguous when the residue class mod p^level_m does not determine the
    result: some test involved v(t - c) with v(t-c) + M(n) > level_m (M the
    Hensel level of the coset), or a non-constant bound/center whose value
    sits too close to 0 mod p^level_m.
    """
    pt = [Fraction(x) for x in point]
    member = True
    ambiguous = False
    for i, level in enumerate(tower.levels):
        prefix = pt[:i]
        c = level.center.eval(prefix)
        diff = pt[i] - c
        k = valuation(diff, ctx)
        margin = level_m - _poly_precision_loss(level.center, ctx)
        m_hensel = 1 if level.coset.lam == 0 else hensel_level(level.coset.n, ctx.p)
        if k is INF or k + m_hensel > margin:
            ambiguous = True
        for bound in (level.lower, level.upper):
            if bound is not None and not bound.expr.is_constant():
                vb = valuation(bound.expr.eval(prefix), ctx)
                if vb is INF or vb >= level_m - _poly_precision_loss(bound.expr, ctx):
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


# -- fiber geometry ---------------------------------------------------------------


def fiber_valuation_range(level: CellLevel, base_point: Sequence,
                          ctx: PrimeContext) -> KRange:
    """The exact set {v(t - c(x)) : t in the fiber} as a progression in an interval."""
    if level.coset.lam == 0:
        raise ZeroCosetError("point fibers carry no valuation range")
    prefix = [Fraction(x) for x in base_point]
    vlam = int(valuation(level.coset.lam, ctx))

    def vb(bound: Bound | None):
        if bound is None:
            return None, True
        return int(valuation(_bound_value(bound, prefix), ctx)), bound.strict

    v_alpha, alpha_strict = vb(level.lower)
    v_beta, beta_strict = vb(level.upper)
    return krange_from_bounds(v_alpha, alpha_strict, v_beta, beta_strict,
                              vlam, level.coset.n)


def fiber_measure(level: CellLevel, ctx: PrimeContext) -> Fraction:
    """Haar measure of a constant-data fiber, summed in closed form."""
    if level.coset.lam == 0:
        return Fraction(0)
    krange = level_krange(level, ctx)
    if krange.is_empty():
        return Fraction(0)
    if krange.lo is None:
        raise DivergentError("fiber has infinite measure (norm unbounded above)")
    one = RootScaledValue.from_rational(1, ctx.p)
    term = TermOnCell(one, 0, level.coset.n, 0, Fraction(level.coset.lam))
    value, ok = shell_sum(term, krange, ctx)
    assert ok  # a = 0 with k bounded below always converges
    return value.as_exact_rational()


def tower_measure(tower: CellTower, ctx: PrimeContext) -> Fraction:
    """Measure of an explicit tower (product of its constant-data fibers)."""
    total = Fraction(1)
    for level in tower.levels:
        total *= fiber_measure(level, ctx)
    return total


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


def _domain_points(domain: Domain, m: int, ctx: PrimeContext) -> Iterator[tuple[int, ...]]:
    """Residue vectors mod p^m whose canonical lift lies in the domain."""
    pm = ctx.p**m
    for res in itertools.product(range(pm), repeat=domain.arity):
        if isinstance(domain, BoxDomain):
            yield res
        else:
            member, _ = membership(domain, [Fraction(r) for r in res], ctx, m)
            if member:
                yield res


def check_partition(cert: DecompositionCertificate, m: int, ctx: PrimeContext,
                    budget: int = DEFAULT_BUDGET) -> PartitionReport:
    """Verify that the cells cover every tested domain point exactly once.

    Points are the canonical lifts of all residue classes mod p^m lying in
    the domain; evaluations whose result is not constant on the whole
    residue class are counted as ambiguous (reported, never silently
    passed) but still decided at the lift.  Raises BudgetExceededError
    before enumerating when p^(m*arity) exceeds the budget.
    """
    if ctx.p != cert.prime:
        raise ValueError("context prime differs from certificate prime")
    check_budget(ctx.p, m, cert.domain.arity, budget)
    violations: list[tuple[tuple[int, ...], list[int]]] = []
    ambiguous_points = 0
    total = 0
    for res in _domain_points(cert.domain, m, ctx):
        total += 1
        point = [Fraction(r) for r in res]
        owners: list[int] = []
        point_ambiguous = False
        for idx, tower in enumerate(cert.cells):
            member, amb = membership(tower, point, ctx, m)
            point_ambiguous = point_ambiguous or amb
            if member:
                owners.append(idx)
        if point_ambiguous:
            ambiguous_points += 1
        if len(owners) != 1:
            violations.append((res, owners))
    return PartitionReport(ok=not violations, violations=violations,
                           ambiguous_points=ambiguous_points, points_tested=total)


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
    cell points mod p^m.  Raises BudgetExceededError before enumerating
    when p^(m*arity) exceeds the budget.
    """
    if ctx.p != cert.prime:
        raise ValueError("context prime differs from certificate prime")
    check_budget(ctx.p, m, cert.domain.arity, budget)
    mismatches: list[tuple[tuple[int, ...], object, object]] = []
    ambiguous = 0
    checked = 0
    pm = ctx.p**m
    for desc in cert.descriptions:
        if not 0 <= desc.cell < len(cert.cells):
            raise CertificateMismatchError(f"description references missing cell {desc.cell}")
        if not 0 <= desc.function < len(functions):
            raise CertificateMismatchError(
                f"description references missing function {desc.function}")
        tower = cert.cells[desc.cell]
        level_idx = desc.level % len(tower.levels)
        level = tower.levels[level_idx]
        f = functions[desc.function]
        for res in itertools.product(range(pm), repeat=tower.arity):
            point = [Fraction(r) for r in res]
            member, amb = membership(tower, point, ctx, m)
            if not member:
                continue
            checked += 1
            if amb:
                ambiguous += 1
            prefix = point[:level_idx]
            diff = point[level_idx] - level.center.eval(prefix)
            dval = desc.delta.eval(prefix)
            lhs = valuation(f.eval(point), ctx)  # INF encodes |f| = 0
            vd = valuation(dval, ctx)
            if level.coset.lam == 0:
                if desc.a != 0:
                    raise CertificateMismatchError("lambda = 0 level requires a = 0")
                rhs = vd
            else:
                k = valuation(diff, ctx)
                vlam = int(valuation(level.coset.lam, ctx))
                if k is INF or vd is INF:
                    rhs = INF
                else:
                    rhs = Fraction(vd) + Fraction(desc.a * (int(k) - vlam), level.coset.n)
            lhs_cmp = lhs if lhs is INF else Fraction(lhs)
            if not _exponents_equal(lhs_cmp, rhs):
                mismatches.append((res, lhs_cmp, rhs))
    return NormCheckReport(ok=not mismatches, mismatches=mismatches,
                           ambiguous_points=ambiguous, points_checked=checked)


def _exponents_equal(a, b) -> bool:
    if a is INF or b is INF:
        return a is b
    return a == b


# -- certificate file format ---------------------------------------------------


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
        coset=CosetSpec(Fraction(str(coset["lambda"])), int(coset["n"])))


def _tower_from_dict(d: dict) -> CellTower:
    return CellTower(tuple(_level_from_dict(lv) for lv in d["levels"]))


def certificate_from_dict(data: dict) -> DecompositionCertificate:
    dom = data["domain"]
    if dom.get("kind", "box") == "box":
        domain: Domain = BoxDomain(int(dom["arity"]))
    else:
        domain = _tower_from_dict(dom)
    cells = tuple(_tower_from_dict(c) for c in data["cells"])
    descriptions = tuple(
        NormDescription(cell=int(d["cell"]), function=int(d.get("function", 0)),
                        delta=parse_poly(str(d.get("delta", "1"))), a=int(d["a"]),
                        level=int(d.get("level", -1)))
        for d in data.get("descriptions", ()))
    return DecompositionCertificate(prime=int(data["prime"]), domain=domain,
                                    cells=cells, descriptions=descriptions)


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


def load_certificate(path) -> DecompositionCertificate:
    with open(path, "r", encoding="utf-8") as fh:
        return certificate_from_dict(json.load(fh))


def save_certificate(cert: DecompositionCertificate, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(certificate_to_dict(cert), fh, indent=2, sort_keys=True)
        fh.write("\n")


def terms_from_dict(data: dict) -> list[CellTermSpec]:
    """Cell-adapted integrand terms, as written in a terms JSON file."""
    out = []
    for t in data["terms"]:
        levels = tuple((int(lv["a"]), int(lv["l"])) for lv in t["levels"])
        out.append(CellTermSpec(cell=int(t["cell"]),
                                coeff=Fraction(str(t.get("coeff", "1"))),
                                levels=levels))
    return out


def load_terms(path) -> list[CellTermSpec]:
    with open(path, "r", encoding="utf-8") as fh:
        return terms_from_dict(json.load(fh))
