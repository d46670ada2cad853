"""Cells, membership, exact fiber measures, and decomposition certificates.

A cell level constrains one coordinate t against the earlier ones via
|alpha(x)| <1 |t - c(x)| <2 |beta(x)| and a coset condition t - c(x) in
lam*P_n; towers nest levels.  Certificates (a finite list of cells claimed
to partition a domain, plus norm descriptions |f| = |delta| *
|(t-c)^a lam^(-a)|^(1/n)) are verified exactly on lifted residue points.

contains reads a level through qexp_sum.fiber_valuation_range (re-exported
here) and coset_membership; fiber_measure and tower_measure thread one value
through qexp_sum.level_integral at a = l = 0.
A MembershipPlan plans the membership tests of one check once, in integer
arithmetic: one cleared view (_Carrier) per distinct level carrier (t -
c(x), keyed by level index and centre, and each non-constant bound),
evaluated once per class and valued only where a test or a settled class
reads it, and one record (_Level) per distinct level: its test, whose
constant bounds are folded into one window of v(t - c) at plan time, and for
an explicit level its order, window and lam's unit part.  A coset test
compares the coset signature of t - c (its valuation mod n and unit part to
the n-th-power precision, _Order) with lam's.  check_partition merges the
cells into a tree of level records, and decides the sibling levels of one
node that share an order with one signature and one lookup per class, not
one test per cell.  The domain, the described towers and f, delta and t - c
of check_norm_description, and the domain and integrand carriers of
oracle.riemann_integrate read the same plan's views, and
MembershipPlan.member_of plans a single tower.  The checks walk the
digit-tree kernel refine_classes.  Its classes are boxes r + p^J*Z_p^n with
one depth J_k per coordinate, as a tower level constrains only x_i - c_i:
a test returns one need per view it reads (t - c or a non-constant bound),
fixed on a box once the view's depth, the least J_k over the variables it
reads, reaches it, and a box is split only in the coordinates its
undecided views read.  It settles a box (all its p^(sum(m - J_k)) lifts at
once) once every test is fixed on it and (one rule, settle_on_valuations)
every carrier read has a constant valuation on it; the Hensel margin only
flags it ambiguous, as _tally counts.  The walk goes to one level;
oracle.riemann_sums counts each lower listed level from the same boxes, by
their least lifts.  The budget counts all p^(m*n) classes.  The classes
see only the domain's points, so check_partition also asks the plan which
cells reach outside the domain (MembershipPlan.outside), in one comparison
per level record: with Z_p over the box, with the domain's record of the
same view of t - c over a tower.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, gcd, prod
from operator import add, itemgetter, ne, or_
from typing import Callable, Iterator, Sequence, Union

from .errors import CertificateMismatchError, DivergentError, InvalidArgumentError
from .formula_dsl import parse_poly
from .padic_core import (
    DEFAULT_BUDGET,
    INF,
    PrimeContext,
    _power_test,
    check_budget,
    coset_membership,
    hensel_level,
    int_valuation,
    valuation,
)
from .polynomials import Polynomial, eval_int_terms, format_poly
from .qexp_sum import CellTermSpec, fiber_valuation_range, level_integral

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


class _Carrier:
    """Integer-cleared polynomial carrier poly = terms/denom, with vden = v(denom),
    terms as poly.cleared() gives them, each (key, c) over the term's own
    variables only, so a point is evaluated over its nonzero exponents only.
    At integer points it keeps the last point read, matched by identity (which the
    kept reference makes unique), so every test handed one class tuple shares one
    evaluation, and values it only when asked.  Its support is the coordinates
    its terms read (coords, and the bit set mask); on a box r + p^J*Z_p^n its
    depth is the least J_k over them (depth), as terms(r + p^J*y) = terms(r)
    mod p^depth."""

    point = None

    def __init__(self, poly: Polynomial, ctx: PrimeContext):
        self.terms, self.denom = poly.cleared()
        self.vden = int(int_valuation(self.denom, ctx.p))
        self.p = ctx.p
        self.degree = max((sum([k for _, k in e]) for e, _ in self.terms), default=0)
        self.coords = tuple(sorted({i for e, _ in self.terms for i, _ in e}))
        self.mask = sum(1 << i for i in self.coords)
        self.taylor = [()]  # taylor[d]: (k, a_k) with |k| = d, built up to the order read
        # the depths of a support of two or more coordinates in one call (4x a list's speed)
        self.support_depths = itemgetter(*self.coords) if len(self.coords) > 1 else None

    def depth(self, depths: Sequence[int]):
        """The least depth over the support, INF for a constant carrier."""
        coords = self.coords
        if len(coords) == 1:
            return depths[coords[0]]
        return min(self.support_depths(depths)) if coords else INF

    def open_on(self, need: int, depths: Sequence[int], lo: int, whole: int) -> int:
        """mask if this view is still open on the box of depths (its depth
        is below need, the depth that fixes what a test read of it), else 0.
        lo = min(depths) is at most the depth, and is the depth of a view that
        reads every coordinate (the bit set whole), so one min per box spares
        the depth of most views."""
        return self.mask if need > lo and (self.mask == whole or need > self.depth(depths)) else 0

    def read(self, point: Sequence[int]) -> int:
        """terms(point), the cleared integer value at an integer point."""
        if point is not self.point:
            self.point, self.num, self.v = point, eval_int_terms(self.terms, point), None
        return self.num

    def valuation(self, point: Sequence[int]):
        """v(terms(point)), INF for 0, taken once per point.  A new point is
        evaluated here, not through read; num and v are kept for constant_on
        and _Order.unit."""
        if point is not self.point:
            self.point, self.num, self.v = point, eval_int_terms(self.terms, point), None
        v = self.v
        if v is None:
            v = self.v = INF if self.num == 0 else int_valuation(self.num, self.p)
        return v

    def constant_on(self, point: Sequence[int], depths: Sequence[int]) -> bool:
        """Whether v(terms) is constant on the box point + p^J*Z_p^n, J = depths.

        A value nonzero mod p^s, s the carrier's depth (v < s), settles it
        with no valuation.  Otherwise, with v = v(terms(point)) finite, let F
        be the coordinates read at depth 0 and s the least positive depth of a
        coordinate read.  The Taylor expansion in the other coordinates is
        terms(x_F, point + p^J*t) = sum_k h_k(x_F)*p^(J.k)*t^k, h_k(x_F) =
        a_k(x_F, point) with k zero on F; v is constant when h_0's
        non-constant coefficients, and every coefficient of h_k for k != 0
        with J.k <= v, are 0 mod p^(v - J.k + 1) (_vanishes), as terms is
        then terms(point) mod p^(v + 1) on the box.  Since a polynomial's
        coefficients vanish mod p^e iff its Taylor coefficients at an integer
        point do, this is the Taylor test at point in every coordinate.  As
        J.k >= s|k|, the orders read are those up to v // s, in order of |k|
        up to the first that fails, each built on first use (_taylor); none
        where every coordinate read is at depth 0, where h_0 is terms itself.
        False does not prove v(terms) varies on the box."""
        p, s, flat = self.p, self.depth(depths), ()
        if s is INF:  # a constant
            return self.read(point) != 0
        if s and self.read(point) % p**s:
            return True
        v = self.valuation(point)
        if v is INF:
            return False
        if not s:
            flat = [k for k in self.coords if not depths[k]]
            if not _vanishes(self.terms, point, flat, p**(v + 1), False):
                return False
            s = min([depths[k] for k in self.coords if depths[k]], default=INF)
        for order in range(1, min(v // s, self.degree) + 1 if s is not INF else 1):
            for k, coefficient in self._taylor(order):
                if flat and any(i in flat for i, _ in k):
                    continue
                dot = sum([depths[i] * j for i, j in k])
                if dot <= v and not _vanishes(coefficient, point, flat, p**(v - dot + 1)):
                    return False
        return True

    def _taylor(self, order: int) -> list:
        """(k, terms of a_k) for each k with |k| = order, k a monomial key and
        a_k a term list [(key, c)]: a_k = sum c*prod(C(e_i, k_i))*x^(e - k)
        over the terms c*x^e with k <= e, the integer Taylor coefficients of
        terms, built one order at a time on first use."""
        taylor = self.taylor
        while len(taylor) <= order:
            d, coefficients = len(taylor), {}
            for factors, c in self.terms:
                for k in itertools.product(*(range(min(e, d) + 1) for _, e in factors)):
                    if sum(k) == d:
                        pairs = tuple(zip(factors, k))
                        term = (tuple((i, e - j) for (i, e), j in pairs if e > j),
                                c * prod([comb(e, j) for (_, e), j in pairs]))
                        key = tuple((i, j) for (i, _), j in pairs if j)
                        coefficients.setdefault(key, []).append(term)
            taylor.append([(k, tuple(terms)) for k, terms in coefficients.items()])
        return taylor[order]


def _vanishes(terms: Sequence[tuple], point: Sequence[int], flat: Sequence[int],
              modulus: int, constant: bool = True) -> bool:
    """Whether every coefficient of terms [(key, c)], taken as a polynomial
    in the coordinates flat with every other coordinate at point, is 0 mod
    modulus; its constant coefficient is skipped unless constant.  Each
    coefficient is keyed by the pairs of the term's key in the flat
    coordinates, () for the constant one.  With flat empty, whether
    terms(point) is."""
    if not flat:
        return not constant or eval_int_terms(terms, point) % modulus == 0
    coefficients: dict = {}
    for factors, c in terms:
        for i, d in factors:
            if i not in flat:
                c *= pow(point[i], d, modulus)
        key = tuple([f for f in factors if f[0] in flat])
        coefficients[key] = (coefficients.get(key, 0) + c) % modulus
    return not any(value for key, value in coefficients.items() if constant or key)


class _Order:
    """The cosets lam*P_n of one order n about one view of t - c = N/D, cleared.

    A nonzero t - c lies in lam*P_n iff its signature (v(t - c) mod n,
    unit(N)^e mod p^L) equals lam's, (v(lam) mod n, unit(D*lam)^e mod p^L),
    with (e, L) from padic_core._power_test, since (ab)^e = a^e b^e.  The
    cosets of one order partition Q_p^x, so one signature names the only
    coset of that order holding a class.  At unit index 1 (every unit an n-th
    power, as for n = 1) the unit part is 0 throughout and no power is taken.
    """

    def __init__(self, diff: _Carrier, n: int, p: int):
        self.diff, self.n, self.hensel = diff, n, hensel_level(n, p)
        self.exponent, self.level, self.index = _power_test(n, p)  # (e, L, index), L = 1 at index 1
        self.modulus = p**self.level if self.index > 1 else 1

    def key(self, lam: Fraction) -> tuple[int, int]:
        """The signature of t - c = lam (nonzero)."""
        p, modulus = self.diff.p, self.modulus
        num, den = self.diff.denom * lam.numerator, lam.denominator  # D*lam = num/den
        vnum, vden = int_valuation(num, p), int_valuation(den, p)
        residue = (vnum - vden - self.diff.vden) % self.n
        if modulus == 1:
            return residue, 0
        unit = num // p**vnum * pow(den // p**vden, -1, modulus)
        return residue, pow(unit, self.exponent, modulus)

    def unit(self) -> int:
        """unit(N)^e mod p^L, the unit part of the signature of the point the
        view last valued (N != 0 there)."""
        if self.modulus == 1:
            return 0
        diff = self.diff
        return pow(diff.num // diff.p**diff.v, self.exponent, self.modulus)


@dataclass(eq=False)
class _Level:
    """One planned cell level: its test, view of t - c, centre and lam, and for
    an explicit level admitting some k = v(t - c) its _Order, window (first,
    last, residue, n): first <= k <= last, k = residue mod n, and lam's unit
    part (_Order.key).  Compared by identity: a plan keeps one per level."""

    test: Callable
    diff: _Carrier
    center: Polynomial
    lam: Fraction
    order: _Order | None = None
    window: tuple | None = None
    unit: int = 0


class MembershipPlan:
    """The membership tests of one check over one prime, planned once.

    A cell level reads two kinds of carriers: t - c(x) = x_i - c(x), keyed by
    (i, c) and built only on a miss, and its non-constant bound polynomials.
    The plan keeps one view (_Carrier) per distinct carrier and one record
    (_Level) per distinct (index, level), and every tower and polynomial
    planned on it (a domain, the cells of a certificate, the towers, f and
    delta its descriptions name, an integrand's carriers) shares them: a class
    evaluates each carrier once, however many cells, levels and callers read
    it, and values it only where a test or a settled class needs it.
    """

    def __init__(self, ctx: PrimeContext):
        self.ctx = ctx
        self._views: dict = {}
        self._diffs: dict = {}
        self._orders: dict = {}
        self._levels: dict = {}

    def view(self, poly: Polynomial) -> _Carrier:
        view = self._views.get(poly)
        if view is None:
            view = self._views[poly] = _Carrier(poly, self.ctx)
        return view

    def diff(self, index: int, center: Polynomial) -> _Carrier:
        """The view of t - c(x) = x_(index+1) - center."""
        view = self._diffs.get((index, center))
        if view is None:
            view = self._diffs[index, center] = self.view(Polynomial.variable_minus(index, center))
        return view

    def _order(self, diff: _Carrier, n: int) -> _Order:
        order = self._orders.get((diff, n))
        if order is None:
            order = self._orders[diff, n] = _Order(diff, n, self.ctx.p)
        return order

    def _level(self, index: int, level: CellLevel) -> _Level:
        record = self._levels.get((index, level))
        if record is None:
            record = self._levels[index, level] = self._plan_level(index, level)
        return record

    def _plan_level(self, index: int, level: CellLevel) -> _Level:
        """The record of one cell level, with its test point -> (holds, needs,
        flagged) in integers.

        With t - c(x) = N(x)/D cleared of denominators, v(t - c) = v(N) - v(D),
        and t - c is in lam*P_n iff its coset signature equals lam's (_Order).
        The bounds narrow a window lo <= v(t - c) <= hi, nonzero constants at
        plan time; a zero constant ends the fold (alpha first), and fails the
        level ambiguously.  A level whose bounds are all nonzero constants
        (explicit) and that admits some valuation also records its order, its
        window and the unit part of lam's signature.  needs holds one (view,
        need) per view read: holds is fixed on a box where each view's depth
        (_Carrier.depth) is at least its need, as N(r + p^J*y) = N(r) mod
        p^depth.  The need of t - c is v(N) + L (_Order.level) where k = v(t -
        c) is in the constant window and k = residue mod n, so that the unit
        part may be read whatever the non-constant bounds read, and v(N) + 1
        elsewhere; of a non-constant bound of cleared valuation bv, bv + 1;
        INF at a zero carrier.  Each need is a function of its view's value
        alone, so a view fixed on a box stays fixed on every box within it.
        flagged is v(N) + M (1 for a point), INF for a zero bound in the
        window, and at least each bv + 1.
        """
        lam, n = level.coset.lam, level.coset.n
        diff = self.diff(index, level.center)
        read, vden = diff.valuation, diff.vden
        if lam == 0:
            def point_test(point: Sequence[int]) -> tuple:
                v = read(point)
                return v is INF, ((diff, v + 1),), v + 1  # M = 1
            return _Level(point_test, diff, level.center, lam)
        order = self._order(diff, n)
        unit, hensel, digits = order.unit, order.hensel, order.level
        residue, unit_key = order.key(lam)
        lo, hi, zero, reads = -INF, INF, False, []
        for lower, bound in ((True, level.lower), (False, level.upper)):
            if bound is None:
                continue
            if not bound.expr.is_constant():
                reads.append((lower, bound.strict, self.view(bound.expr)))
                continue
            value = valuation(bound.expr.constant_value(), self.ctx)
            zero = value is INF
            if zero:
                break
            if lower:  # |alpha| < |t - c|: k < v(alpha)
                hi = min(hi, value - bound.strict)
            else:  # |t - c| < |beta|: k > v(beta)
                lo = max(lo, value + bound.strict)

        def test(point: Sequence[int]) -> tuple:
            v = read(point)
            flagged, k_lo, k_hi, bounds = v + hensel, lo, hi, []
            for lower, strict, view in reads:  # the non-constant bounds, read at the class
                bv = view.valuation(point)
                flagged = max(flagged, bv + 1)
                bounds.append((view, bv + 1))
                if bv is INF:  # the bound vanished: a malformed cell at this point
                    k_hi = -INF
                elif lower:
                    k_hi = min(k_hi, bv - view.vden - strict)
                else:
                    k_lo = max(k_lo, bv - view.vden + strict)
            k = v - vden
            if zero or v is INF or k % n != residue or not lo <= k <= hi:
                holds, need = False, v + 1
                if zero and k_lo <= k <= k_hi:  # past the window, a zero bound is ambiguous
                    flagged = INF
            else:  # the unit part is read wherever the bounds read may still admit k
                holds, need = k_lo <= k <= k_hi and unit() == unit_key, v + digits
            return holds, ((diff, need), *bounds) if bounds else ((diff, need),), flagged
        first = lo if lo == -INF else lo + (residue - lo) % n  # the least and greatest k admitted
        last = hi if hi == INF else hi - (hi - residue) % n
        if reads or zero or first > last:
            return _Level(test, diff, level.center, lam)
        return _Level(test, diff, level.center, lam, order, (first, last, residue, n), unit_key)

    def levels_of(self, tower: CellTower) -> list[_Level]:
        """The planned record of each level of a tower."""
        return [self._level(i, level) for i, level in enumerate(tower.levels)]

    def member_of(self, tower: CellTower) -> Callable[[Sequence[int], Sequence[int]], tuple]:
        """Plan a tower on this plan: (integer point, depths) -> (member,
        undecided, flagged).

        Membership is exact at the point, and fixed on the box point +
        p^J*Z_p^n, J = depths, where undecided, the bit set of the coordinates
        read by the views whose depth is below their need (_open), is 0.  The
        class mod p^m is ambiguous iff flagged > m: at some level v(t - c) + M
        > m - (precision lost to p in the centre's denominators), M the
        coset's Hensel level (1 for a point), or a non-constant bound is 0 mod
        p^m once cleared, or a bound vanishes; the largest over the levels up
        to the first that fails.  The levels past a failing one that is not
        fixed on the box are still read, for undecided alone: where it holds
        they decide membership.
        """
        tests = [level.test for level in self.levels_of(tower)]

        def member_of(point: Sequence[int], depths: Sequence[int]) -> tuple:
            member, undecided, flagged, lo = True, 0, 0, min(depths) if depths else 0
            whole = (1 << len(depths)) - 1  # the walk's coordinates, maybe more than the tower's
            for test in tests:
                holds, needs, f = test(point)
                open_ = _open(needs, depths, lo, whole)
                undecided |= open_
                if member:
                    flagged, member = max(flagged, f), holds
                if not (holds or open_):
                    break
            return member, undecided, flagged

        return member_of

    def domain_of(self, domain: Domain | None) -> Callable | None:
        """member_of of a tower domain; None for the box or no domain, which
        restrict nothing."""
        return None if domain is None or isinstance(domain, BoxDomain) else self.member_of(domain)

    def owners_of(self, towers: Sequence[list]) -> Callable[[Sequence[int], Sequence[int]], tuple]:
        """(integer point, depths) -> (indices of the towers holding it,
        undecided, flagged), for towers planned by levels_of.

        The towers are merged into a tree of level records, so a level shared
        by the towers' common prefix is tested once.  The explicit coset
        levels of one node that share an order (one view of t - c, one n) are
        decided together: one valuation and one coset signature (_Order) per
        class name the one coset of that order holding it, and a lookup by
        signature leaves only the windows of the levels of that coset to
        compare.  Every other level (a point, a zero or non-constant bound)
        is tested alone.  Siblings of one group share their view and Hensel
        margin, so flagged is the largest of member_of's over the towers; the
        need of a group's view is v + L where a unit part is read, v + 1 where
        no level admits k mod n, INF at v = INF.  undecided is member_of's
        over the levels read, those below a level that holds.  Unlike
        member_of, it does not read below a failing level that is not fixed:
        check_partition walks to one level, which stays exact whichever box
        first reads a view, and over a domain whose levels have the cells'
        centres the domain's member_of reads those views anyway (cells_cert's
        partition checks visit the same classes either way).
        """
        root: tuple[dict, list] = ({}, [])
        whole = (1 << max(map(len, towers), default=0)) - 1
        for idx, levels in enumerate(towers):
            children, owners = root
            for level in levels:
                children, owners = children.setdefault(level, ({}, []))
            owners.append(idx)

        def node(levels: dict) -> tuple[list, list]:
            """([(test, node, owners)] of the levels tested alone, [(view, read,
            vden, n, hensel, L, unit, {k mod n: {unit part: [(first, last,
            node, owners)]}})] of the groups), node None for a leaf."""
            alone, groups = [], {}
            for level, (children, owners) in levels.items():
                branch = (node(children) if children else None, owners)
                if level.order is None:
                    alone.append((level.test, *branch))
                    continue
                first, last, residue, _ = level.window
                table = groups.setdefault(level.order, {}).setdefault(residue, {})
                table.setdefault(level.unit, []).append((first, last, *branch))
            return alone, [(order.diff, order.diff.valuation, order.diff.vden, order.n,
                            order.hensel, order.level, order.unit, table)
                           for order, table in groups.items()]

        tree = node(root[0])

        def owners_of(point: Sequence[int], depths: Sequence[int]) -> tuple:
            owners, undecided, flagged, lo = list(root[1]), 0, 0, min(depths) if depths else 0
            stack = [tree]
            while stack:
                alone, groups = stack.pop()
                for test, children, cells in alone:
                    holds, needs, f = test(point)
                    undecided |= _open(needs, depths, lo, whole)
                    flagged = max(flagged, f)
                    if holds:
                        owners += cells
                        if children:
                            stack.append(children)
                for view, read, vden, n, hensel, digits, unit, table in groups:
                    v = read(point)
                    flagged, k = max(flagged, v + hensel), v - vden
                    units = None if v is INF else table.get(k % n)
                    need = v + (1 if units is None else digits)
                    undecided |= view.open_on(need, depths, lo, whole)
                    if units is None:
                        continue
                    for first, last, children, cells in units.get(unit(), ()):
                        if first <= k <= last:
                            owners += cells
                            if children:
                                stack.append(children)
            return tuple(sorted(owners)), undecided, flagged

        return owners_of

    def outside(self, domain: Domain, towers: Sequence[list]) -> list[int]:
        """The indices of the towers, planned by levels_of, that reach outside
        the domain, decided exactly at no level where each level of a tower is
        a point or has a window.  Such a tower is empty iff some level admits
        no valuation; otherwise each level has points of every admitted
        v(t - c), and of every unit of its coset, above every prefix, so one
        level reaching outside the domain's level or Z_p (_reaches_out) puts a
        point outside the domain."""
        outer = None if isinstance(domain, BoxDomain) else self.levels_of(domain)
        return [idx for idx, levels in enumerate(towers)
                if all(level.window or not level.lam for level in levels)
                and any(self._reaches_out(level, outer and outer[i])
                        for i, level in enumerate(levels))]

    def _reaches_out(self, cell: _Level, bound: _Level | None) -> bool:
        """Whether a cell level holds a point outside the domain level bound, or
        outside Z_p for None; False where the classes decide: another centre,
        a polynomial one not p-integral, or a domain level with neither a
        window nor lam = 0.  Over Z_p, a level about a p-integral centre
        reaches out iff some v(t - c) < 0.  About a constant c with v(c) = -s
        < 0, the point c reaches out, and a window lies in Z_p iff it admits
        only k = -s, unit(lam) = unit(-c) mod p^s, and the exponent of
        (Z/p^s)^x divides n (then lam*U^n is within unit(-c)*(1 + p^s*Z_p)).
        Over a level of the same view, a point lies only within a point and a
        window only within a window admitting its valuations; lam_C*P_(n_C)
        also holds a unit part outside lam_D*P_(n_D) unless U^(n_C) is within
        U^(n_D) (equal unit indices of the n_D-th and the gcd(n_C, n_D)-th
        powers) and unit(lam_C/lam_D) is an n_D-th power."""
        p, s = self.ctx.p, cell.diff.vden
        if bound is None:
            if not s:
                return cell.window is not None and cell.window[0] < 0
            if not cell.center.is_constant():
                return False
            if cell.window is None:  # the point c
                return True
            first, last, _, n = cell.window
            exponent = p ** (s - 2) if p == 2 and s > 2 else (p - 1) * p ** (s - 1)  # of (Z/p^s)^x
            unit = cell.lam * Fraction(p) ** -valuation(cell.lam, self.ctx)
            gap = unit + cell.center.constant_value() * p**s  # unit(lam) - unit(-c)
            return not first == last == -s or n % exponent != 0 or valuation(gap, self.ctx) < s
        if bound.diff is not cell.diff or bound.lam and bound.window is None:
            return False
        if not cell.lam or not bound.lam:
            return cell.lam != bound.lam
        order = bound.order
        return not _within(cell.window, bound.window) \
            or _power_test(gcd(cell.window[3], order.n), p)[2] != order.index \
            or order.key(cell.lam)[1] != bound.unit


def _within(inner: tuple, outer: tuple) -> bool:
    """Whether every valuation the window inner admits is admitted by outer."""
    first, last, residue, n = inner
    lo, hi, outer_residue, outer_n = outer
    if first == last:  # one valuation
        return lo <= first <= hi and (first - outer_residue) % outer_n == 0
    return lo <= first and last <= hi and n % outer_n == 0 \
        and (residue - outer_residue) % outer_n == 0


def _open(needs: Sequence[tuple], depths: Sequence[int], lo: int, whole: int) -> int:
    """The bit set of the coordinates read by the views of needs, (view, need)
    pairs, that are not fixed on the box of depths (_Carrier.open_on)."""
    undecided = 0
    for view, need in needs:
        undecided |= view.open_on(need, depths, lo, whole)
    return undecided


def refine_classes(p: int, level: int, arity: int, classify: Callable,
                   member_of: Callable | None = None) -> Iterator[tuple]:
    """Settle the boxes r + p^J*Z_p^arity, J a depth per coordinate, depth first,
    one p-adic digit at a time, down to the level.

    A box is undecided in the coordinates (a bit set) that its views still
    able to change read.  member_of(r, J) (a membership plan's, or None for
    the box) gives (member, undecided, flagged).  Unless the box lies outside
    member_of for good (member False, undecided 0), classify(r, J, flagged,
    level) gives (key, undecided), key None while a view of its own is
    undecided below the level; it need not be asked where member_of is
    undecided in every coordinate.  Every lift of a decided box has its
    flagged (0 over the box): ambiguous mod p^m iff flagged > m.

    Of the undecided coordinates, those at the least depth d among them are
    split, r_k + p^d*digit, and no other.  So a coordinate passes a depth
    only after every undecided coordinate has reached it; and as a view,
    once decided, stays decided and the tests read every view that can
    still change, the undecided coordinates share one depth, max(J).  A box
    with none undecided below the level is yielded as (key, r, J), key
    (None, flagged) outside member_of; it holds p^(sum(level - J_k)) lifts
    mod p^level.
    """
    stack, whole = [((0,) * arity, (0,) * arity)], (1 << arity) - 1
    while stack:
        r, J = stack.pop()
        member, undecided, flagged = (True, 0, 0) if member_of is None else member_of(r, J)
        key = None
        if (member or undecided) and undecided != whole:  # classify may add coordinates
            key, reads = classify(r, J, flagged, level)
            undecided |= reads
        split = undecided and _split(p, level, undecided, J)
        if split:
            child, offsets = split
            stack.extend([(tuple(map(add, r, offset)), child) for offset in offsets])
        elif member:
            yield key or classify(r, J, flagged, level)[0], r, J
        else:
            yield (None, flagged), r, J


SPLIT_CACHE_SIZE = 4096  # split plans kept, by (p, level, undecided, J)


@lru_cache(maxsize=SPLIT_CACHE_SIZE)
def _split(p: int, level: int, undecided: int, J: tuple) -> tuple | None:
    """How refine_classes splits a box of depths J undecided in the bit set
    undecided: None where the least depth d of an undecided coordinate is
    the level; else (the children's depths, their offsets from r in product
    order).  The undecided coordinates at depth d are split, by p^d*digit."""
    d = min([j for k, j in enumerate(J) if undecided >> k & 1])
    if d == level:
        return None
    split = [undecided >> k & 1 and j == d for k, j in enumerate(J)]
    steps = [range(0, p ** (d + 1), p**d) if s else (0,) for s in split]
    return tuple(map(add, J, split)), list(itertools.product(*steps))


def valuation_key(views: Sequence[_Carrier], point: Sequence[int]) -> tuple:
    """The valuations of the carrier views at an integer point, a key of
    compile_expr's tally: v(terms(point)) - v(denom) for each view, INF for a
    zero carrier."""
    return tuple([INF if (v := view.valuation(point)) is INF else v - view.vden
                  for view in views])


def settle_on_valuations(views: Sequence[_Carrier]) -> Callable:
    """refine_classes' classify over carrier views: a view is undecided on a
    box unless its constant_on holds there or its depth reaches the level
    (then it is fixed on every lift; one that reads no coordinate is fixed
    everywhere); the key, valuation_key, is taken once none is undecided."""
    moving = [view for view in views if view.mask]
    read = reduce(or_, [view.mask for view in moving], 0)  # every coordinate read

    def classify(r, J, flagged, level):
        if moving and min(J) < level:
            undecided = 0
            for view in moving:
                if not (view.constant_on(r, J) or view.depth(J) >= level):
                    undecided |= view.mask
                    if undecided == read:  # no other view can add a coordinate
                        break
            if undecided:
                return None, undecided
        return (valuation_key(views, r), flagged), 0
    return classify


def _tally(p: int, m: int, arity: int, classify: Callable, member_of: Callable | None,
           flag: Callable) -> tuple[int, int, list]:
    """Walk refine_classes over the member boxes: (points, ambiguous points,
    the sorted (lift, key) of every lift of a box whose key flag(key) marks)."""
    points, ambiguous, marked, top = 0, 0, [], arity * m
    for (key, flagged), r, J in refine_classes(p, m, arity, classify, member_of):
        if key is None:
            continue
        size = p ** (top - sum(J))
        points += size
        ambiguous += size if flagged > m else 0
        if flag(key):
            lifts = itertools.product(*(range(x, p**m, p**j) for x, j in zip(r, J)))
            marked.extend((pt, key) for pt in lifts)
    return points, ambiguous, sorted(marked)


def membership(tower: CellTower, point: Sequence, ctx: PrimeContext,
               level_m: int) -> tuple[bool, bool]:
    """(member, ambiguous) of the integer lift of a class mod p^level_m: the
    tower planned once, on a MembershipPlan of its own."""
    if len(point) != tower.arity:
        raise InvalidArgumentError(f"point arity {len(point)} != tower arity {tower.arity}")
    if any(Fraction(x).denominator != 1 for x in point):
        raise InvalidArgumentError("membership is decided at integer lifts")
    member, _, flagged = MembershipPlan(ctx).member_of(tower)(tuple(int(x) for x in point),
                                                              (level_m,) * tower.arity)
    return member, flagged > level_m


# -- fiber geometry ---------------------------------------------------------------


def _explicit_measure(levels: Sequence[CellLevel], ctx: PrimeContext) -> Fraction:
    """Product of the Haar measures of constant-data fibers, outermost first:
    the running value is each level's coefficient (level_integral at a = l = 0)."""
    value = Fraction(1)
    for level in levels:
        value, ok = level_integral(level, 0, 0, value, ctx)
        if not ok:
            raise DivergentError("fiber has infinite measure (norm unbounded above)")
    return value


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
    outside: list[int] = field(default_factory=list)  # cells reaching outside the domain

    def summary(self) -> str:
        status = ", ".join(
            ([f"{len(self.violations)} violation(s)"] if self.violations else [])
            + ([f"{len(self.outside)} cell(s) outside the domain"] if self.outside else []))
        return (f"partition check: {status or 'ok'}, {self.points_tested} points, "
                f"{self.ambiguous_points} ambiguous")


def check_partition(cert: DecompositionCertificate, m: int, ctx: PrimeContext,
                    budget: int = DEFAULT_BUDGET) -> PartitionReport:
    """Verify that the cells cover every tested domain point exactly once.

    Points are the canonical lifts of all residue classes mod p^m lying in
    the domain; evaluations whose result is not constant on the whole
    residue class are counted as ambiguous (reported, never silently
    passed) but still decided at the lift.  Violations are listed in product
    order.  Raises check_budget's errors for m before enumerating.
    """
    if ctx.p != cert.prime:
        raise ValueError("context prime differs from certificate prime")
    p, arity = ctx.p, cert.domain.arity
    check_budget(p, m, arity, budget)
    plan = MembershipPlan(ctx)
    domain = plan.domain_of(cert.domain)
    towers = [plan.levels_of(tower) for tower in cert.cells]
    owners_of = plan.owners_of(towers)

    def classify(r, J, _, level):
        owners, undecided, flagged = owners_of(r, J)
        return (owners, flagged), undecided

    total, ambiguous_points, lifts = _tally(p, m, arity, classify, domain,
                                            lambda owners: len(owners) != 1)
    violations = [(pt, list(owners)) for pt, owners in lifts]
    outside = plan.outside(cert.domain, towers)
    return PartitionReport(ok=not violations and not outside, violations=violations,
                           ambiguous_points=ambiguous_points, points_tested=total,
                           outside=outside)


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
    cell points mod p^m (mismatches in product order per entry), settled by
    the oracle's rule on f, delta and t - c.  Raises CertificateMismatchError
    when a description does not fit its cell (_described_level), and then
    check_budget's errors for m, all before enumerating.
    """
    if ctx.p != cert.prime:
        raise ValueError("context prime differs from certificate prime")
    p = ctx.p
    level_indices = [_described_level(desc, functions, cert) for desc in cert.descriptions]
    check_budget(p, m, cert.domain.arity, budget)
    plan = MembershipPlan(ctx)
    mismatches: list[tuple[tuple[int, ...], object, object]] = []
    ambiguous = checked = 0
    for desc, level_idx in zip(cert.descriptions, level_indices):
        tower = cert.cells[desc.cell]
        level = tower.levels[level_idx]
        views = (plan.view(functions[desc.function]), plan.view(desc.delta),
                 plan.diff(level_idx, level.center))
        vlam = None if level.coset.lam == 0 else int(valuation(level.coset.lam, ctx))

        def sides(vf, vd, k):
            """(lhs, rhs) from the key v(f), v(delta), v(t - c): exponents in Q, or INF for |0|."""
            lhs = INF if vf is INF else Fraction(vf)
            if vlam is None:
                return lhs, vd
            if k is INF or vd is INF:
                return lhs, INF
            return lhs, Fraction(vd) + Fraction(desc.a * (k - vlam), level.coset.n)

        points, amb_points, lifts = _tally(p, m, tower.arity, settle_on_valuations(views),
                                           plan.member_of(tower), lambda key: ne(*sides(*key)))
        checked, ambiguous = checked + points, ambiguous + amb_points
        mismatches.extend((pt, *sides(*key)) for pt, key in lifts)
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


def _bound_to_dict(b: Bound) -> dict:
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
