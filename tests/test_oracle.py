"""Residue-sum oracle, Monte-Carlo estimation, and solution counting."""

import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import add, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellint import (
    INF,
    BoxDomain,
    BudgetExceededError,
    InvalidArgumentError,
    NonIntegralCoefficientsError,
    NotPIntegralError,
    PrimeContext,
    count_solutions,
    exp_sum,
    monte_carlo_integrate,
    parse_expr,
    parse_poly,
    point_cell,
    riemann_integrate,
    solution_histogram,
    stabilization_check,
    unit_ball_coset_cell,
    zp_nonzero_cell,
)
from cellint.cells import Bound, CellLevel, CellTower, CosetSpec, MembershipPlan
from cellint import cells, oracle
from cellint.cli import main
from cellint.formula_dsl import carrier_valuations, compile_expr, expr_carriers
from cellint.oracle import DEFAULT_LEVEL, _CHUNK, _modular_view, _values_mod, eval_poly_mod
from cellint.padic_core import residue
from cellint.polynomials import Polynomial
from cellint.rootval import RootScaledValue

C5 = PrimeContext(5)
C7 = PrimeContext(7)


def _key(e):
    """The monomial key of the exponent vector e: its nonzero entries (index, exponent)."""
    return tuple((i, k) for i, k in enumerate(e) if k)


def test_riemann_constant():
    for m in (1, 3):
        r = riemann_integrate(parse_expr("1"), 1, m, C5)
        assert r.value == 1 and r.ambiguous_count == 0


def test_riemann_norm():
    r = riemann_integrate(parse_expr("norm(x1)"), 1, 6, C5)
    assert r.ambiguous_count == 1  # the residue 0
    assert abs(r.value - Fraction(5, 6)) <= Fraction(1, 5**5)
    # exact truncated value: sum_{k<m} (1-1/p) p^{-2k}
    expected = sum((1 - Fraction(1, 5)) * Fraction(1, 5**(2 * k)) for k in range(6))
    assert r.value == expected


def test_a_rational_root_scaled_value_is_returned_as_a_fraction():
    """norm(x1)^{1/2} squared compiles to a RootScaledValue, but its sums are
    rational: riemann_integrate and riemann_sums return them as the Fractions
    of norm(x1)."""
    e, plain = parse_expr("norm(x1)^{1/2}*norm(x1)^{1/2}"), parse_expr("norm(x1)")
    assert isinstance(compile_expr(e, C5)({(1,): 1}), RootScaledValue)
    expected = [(Fraction(104, 125), 1), (Fraction(2604, 3125), 1), (Fraction(65104, 78125), 1)]
    for results in ([riemann_integrate(e, 1, m, C5) for m in (2, 3, 4)],
                    oracle.riemann_sums(e, 1, [2, 3, 4], C5),
                    oracle.riemann_sums(plain, 1, [2, 3, 4], C5)):
        assert [(r.value, r.ambiguous_count) for r in results] == expected
        assert all(type(r.value) is Fraction for r in results)


def test_riemann_valuation():
    r = riemann_integrate(parse_expr("val(x1)"), 1, 6, C5)
    assert r.ambiguous_count == 1
    assert abs(float(r.value) - 0.25) < 1e-3


def test_riemann_domain_restricted():
    r = riemann_integrate(parse_expr("norm(x1)^{1/2}"), 1, 6, C5,
                          domain=unit_ball_coset_cell(1, 2))
    assert abs(float(r.value) - 25 / 62) < 1e-5


def test_riemann_refinement_consistency():
    # x1^2 + 5 never vanishes on Z_5 and v is bounded by 1, so the integrand
    # is constant on level-2 classes: refining cannot change the exact value.
    e = parse_expr("norm(x1^2 + 5)")
    values = {m: riemann_integrate(e, 1, m, C5).value for m in (2, 3, 4)}
    assert values[2] == values[3] == values[4]
    assert riemann_integrate(e, 1, 2, C5).ambiguous_count == 0


def test_riemann_budget():
    with pytest.raises(BudgetExceededError):
        riemann_integrate(parse_expr("norm(x1)"), 1, 8, C5, budget=1000)


def test_riemann_two_variables():
    r = riemann_integrate(parse_expr("norm(x1)*norm(x2)"), 2, 3, C5)
    expected_1d = sum((1 - Fraction(1, 5)) * Fraction(1, 5**(2 * k)) for k in range(3))
    assert r.value == expected_1d**2


def test_monte_carlo_constant_and_determinism():
    est, err = monte_carlo_integrate(parse_expr("1"), 1, 100, 7, C5)
    assert est == 1.0 and err == 0.0
    a = monte_carlo_integrate(parse_expr("norm(x1)"), 1, 5000, 42, C5)
    b = monte_carlo_integrate(parse_expr("norm(x1)"), 1, 5000, 42, C5)
    assert a == b  # bit-identical for a fixed seed
    c = monte_carlo_integrate(parse_expr("norm(x1)"), 1, 5000, 43, C5)
    assert a != c


@pytest.mark.parametrize("text, arity, level", [
    ("norm(x1)", 1, None),
    ("norm(x1^2 - 2*x2^3)^{1/2} * val(x1 + x2) + 3", 2, 4),
    ("val(1/5*x1 + 2/3) - norm(1/3*x1 + x2)^{-1/2}", 2, 3),
    ("val(x1 - x1) + norm(25)", 1, 2),
])
def test_monte_carlo_is_the_carrier_valuations_loop(text, arity, level):
    """The integer carrier views give the samples of Polynomial.eval, bit for bit."""
    e, seed, samples = parse_expr(text), 11, 2000
    rng, level_used = random.Random(seed), DEFAULT_LEVEL if level is None else level
    run, valuations = compile_expr(e, C5), carrier_valuations(e, C5)
    values = []
    for _ in range(samples):
        pt = tuple(rng.randrange(5**level_used) for _ in range(arity))
        values.append(float(run({valuations(pt): 1}, level_used)))
    mean = reduce(add, values, 0) / samples
    var = reduce(add, ((v - mean) ** 2 for v in values), 0) / (samples - 1)
    assert monte_carlo_integrate(e, arity, samples, seed, C5, level=level) == \
        (mean, math.sqrt(var / samples))


def test_monte_carlo_close_to_oracle():
    est, err = monte_carlo_integrate(parse_expr("norm(x1)"), 1, 20000, 42, C5)
    assert abs(est - 5 / 6) <= 5 * err


def test_count_solutions_examples():
    assert count_solutions([parse_poly("x1")], [3], 2, C5) == 1
    assert count_solutions([parse_poly("x1^2")], [1], 2, C5) == 2  # {1, 24}
    assert count_solutions([parse_poly("x1^2")], [2], 1, C5) == 0


def test_count_solutions_multiplicative_on_products():
    f = [parse_poly("x1^2"), parse_poly("x2^3 + 1")]
    for z1, z2 in [(1, 1), (4, 2), (1, 0)]:
        joint = count_solutions(f, [z1, z2], 2, C5, n=2)
        left = count_solutions([parse_poly("x1^2")], [z1], 2, C5)
        right = count_solutions([parse_poly("x1^3 + 1")], [z2], 2, C5)
        assert joint == left * right


def test_count_solutions_reduces_a_rational_target_exactly():
    """z = 1/2 is 3 mod 5, no square: it used to be truncated to 0, which is one."""
    x2 = parse_poly("x1^2")
    assert count_solutions([x2], [Fraction(1, 2)], 1, C5) == 0
    assert count_solutions([x2], [Fraction(1, 4)], 1, C5) == 2  # 1/4 = 4 mod 5
    assert count_solutions([x2], [Fraction(1, 2)], 2, C5) == 0
    assert count_solutions([parse_poly("x1")], [1.5], 2, C5) == 1  # used to count z = 1
    with pytest.raises(NotPIntegralError):
        count_solutions([x2], [Fraction(1, 5)], 1, C5)


def test_count_solutions_rejects_non_integral():
    with pytest.raises(NonIntegralCoefficientsError):
        count_solutions([parse_poly("1/5*x1")], [0], 1, C5)


def test_count_solutions_non_integral_message():
    with pytest.raises(NonIntegralCoefficientsError,
                       match=r"^coefficient 2/5 is not p-integral at p = 5$"):
        count_solutions([parse_poly("x1^2 + 2/5*x1 + 1/3")], [0], 1, C5)
    with pytest.raises(NonIntegralCoefficientsError,
                       match=r"^coefficient 1/7 is not p-integral at p = 7$"):
        solution_histogram([parse_poly("x1"), parse_poly("1/7*x2 + 1/2")], 1, C7, n=2)


def test_count_solutions_rejects_dropped_variables():
    # x2 at n = 1 used to be dropped silently, counting all of Z/5
    with pytest.raises(InvalidArgumentError, match="arity is 1"):
        count_solutions([parse_poly("x2")], [1], 1, C5, n=1)
    with pytest.raises(InvalidArgumentError, match="arity is 1"):
        solution_histogram([parse_poly("x1*x2")], 1, C5, n=1)


def test_histogram_matches_counts():
    hist = solution_histogram([parse_poly("x1^2")], 2, C5)
    assert hist[(1,)] == 2
    assert sum(hist.values()) == 25
    assert (2,) not in hist


def test_a_map_with_no_polynomials_counts_every_point_at_the_empty_value():
    """With no f, every x mod p^m maps to the empty tuple: one histogram entry
    of p^(m*n) points (n at least 1 by default), and z = () is hit by all."""
    assert solution_histogram([], 2, C5) == {(): 25}
    assert solution_histogram([], 2, C5, n=2) == {(): 625}
    assert count_solutions([], [], 2, C5) == 25


def test_stabilization_constant():
    assert stabilization_check([Fraction(1)] * 4, [3, 4, 5, 6], C5) is True


def test_stabilization_riemann_norm():
    values = [riemann_integrate(parse_expr("norm(x1)"), 1, m, C5).value
              for m in range(3, 8)]
    assert stabilization_check(values, list(range(3, 8)), C5) is True


def test_stabilization_divergent():
    # int |t|^{-1}: partial sums grow by (1 - 1/p) per level
    values = [riemann_integrate(parse_expr("norm(x1)^{-1/1}"), 1, m, C5).value
              for m in range(4, 9)]
    diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    assert all(d == 1 - Fraction(1, 5) for d in diffs)
    assert stabilization_check(values, list(range(4, 9)), C5) is False


@pytest.mark.parametrize("levels", [[4, 3, 2], [3, 3, 3], [2, 3, 3]])
def test_stabilization_check_needs_increasing_levels(levels):
    with pytest.raises(ValueError, match="levels must increase"):
        stabilization_check([Fraction(1), Fraction(1, 5), Fraction(1, 25)], levels, C5)


def test_riemann_box_domain_restricts_nothing():
    for text, arity, level in (("norm(x1)", 1, 3), ("norm(x1^2 - 2*x2^3)*val(x1)", 2, 2)):
        e = parse_expr(text)
        boxed = riemann_integrate(e, arity, level, C5, domain=BoxDomain(arity))
        whole = riemann_integrate(e, arity, level, C5)
        assert (boxed.value, boxed.ambiguous_count) == (whole.value, whole.ambiguous_count)
    with pytest.raises(InvalidArgumentError, match="the domain has arity 3"):
        riemann_integrate(parse_expr("norm(x1)"), 1, 3, C5, domain=BoxDomain(3))


def test_riemann_arity_and_level_errors():
    for e, arity in (("norm(x2)", 1), ("norm(x1)", 0), ("val(x1*x3) + 1", 2)):
        with pytest.raises(InvalidArgumentError, match=f"arity is {arity}"):
            riemann_integrate(parse_expr(e), arity, 2, C5)
        with pytest.raises(InvalidArgumentError):
            monte_carlo_integrate(parse_expr(e), arity, 10, 0, C5)
    with pytest.raises(ValueError, match="level m must be >= 1"):  # still a ValueError
        riemann_integrate(parse_expr("norm(x1)"), 1, 0, C5)


@pytest.mark.parametrize("level", [0, -1])
def test_monte_carlo_rejects_a_level_below_one(level):
    """Level 0 used to sample the one residue mod p^0, an estimate of 0 for an
    integral of 5/6, and level -1 failed inside random.randrange."""
    with pytest.raises(InvalidArgumentError, match="level m must be >= 1"):
        monte_carlo_integrate(parse_expr("norm(x1)"), 1, 10, 0, C5, level=level)


@pytest.mark.parametrize("m", [0, -1])
def test_solution_histogram_rejects_a_level_below_one(m):
    """Level -1 used to fail inside pow; count_solutions reads the same check."""
    with pytest.raises(InvalidArgumentError, match="level m must be >= 1"):
        solution_histogram([parse_poly("x1^2")], m, C5)
    with pytest.raises(InvalidArgumentError, match="level m must be >= 1"):
        count_solutions([parse_poly("x1^2")], [1], m, C5)


# -- the key-counting kernel against the per-point loop ------------------------------


def brute_force_riemann(e, arity, level, ctx, domain=None):
    """The per-point Riemann sum: every lift evaluated and added one by one.
    A lift is ambiguous iff its Hensel margin exceeds the level or, on a
    member, some valuation of its own carrier_valuations vector is at least
    the level.

    Membership is the compiled plan, tested against the Fraction oracle in
    test_cells.py.
    """
    p = ctx.p
    run, valuations = compile_expr(e, ctx), carrier_valuations(e, ctx)
    total = Fraction(0)
    ambiguous = 0
    member_of = None if domain is None else MembershipPlan(ctx).member_of(domain)
    for pt in itertools.product(range(p**level), repeat=arity):
        member, _, flagged = (True, 0, 0) if domain is None else member_of(pt, (level,) * arity)
        vals = valuations(pt) if member else ()
        if flagged > level or any(v >= level for v in vals):
            ambiguous += 1
        if member:
            total = total + run({vals: 1}, level)
    weight = Fraction(1, p ** (arity * level))
    if isinstance(total, RootScaledValue):
        value = total.scale(weight)
        if value.is_rational():
            value = value.as_exact_rational()
    else:
        value = total * weight
    return value, ambiguous


def test_riemann_refinement_edge_cases():
    cases = [
        ("1/3", 0, 3, 5, "1/3", 0),  # carrier-free box of arity 0: one class
        ("2*norm(5) + val(10)", 0, 3, 5, "7/5", 0),
        ("norm(x1 - x1)", 1, 3, 5, "0", 125),  # the zero carrier
        ("val(125*x1)", 1, 3, 5, "403/125", 125),  # v = 3 + v(x1): settled at j = 1 off 0
        ("norm(125*x1)^{1/2} + val(x1)", 1, 3, 5, "159/625 + 504/3125*5^(-1/2)", 125),
        ("norm(x1)", 1, 1, 7, "6/7", 1),
        ("val(x1*x2)", 2, 1, 3, "5/9", 5),
    ]
    for text, arity, level, p, value, ambiguous in cases:
        r = riemann_integrate(parse_expr(text), arity, level, PrimeContext(p))
        assert (str(r.value), r.ambiguous_count) == (value, ambiguous), text


_SIZES = [(p, n, m) for p in (2, 3, 5, 7) for n in (1, 2) for m in range(1, 12)
          if p ** (m * n) <= 2401]
# Repeated roots and p-power coefficients, where v is constant on a class long
# before the carrier is nonzero mod p^j; x1^2 - x1 is even everywhere at p = 2
# with no dominant term, so no class of it may be settled early.
_SINGULAR = {1: ("(x1 - 1)^2*x1", "x1^3 - x1^2", "(x1 - 2)^3", "(x1 - 3)^3*x1", "x1^2 - x1"),
             2: ("x1^2 - 2*x2^3", "x1^3 - x2^2", "x1^2*x2 - 3*x2^4", "25*x1^2*x2")}
_POWERS = ((1, 2), (1, 3), (2, 3), (3, 2), (-1, 2), (-1, 3))
_SCALARS = ("2", "3", "1/2", "3/2", "5/4")


@st.composite
def _carrier(draw, p: int, n: int) -> str:
    kind = draw(st.sampled_from(("integer", "denominator", "singular")))
    if kind == "singular":
        return f"({draw(st.sampled_from(_SINGULAR[n]))})"
    monomials = draw(st.lists(
        st.tuples(st.integers(-9, 9).filter(bool),
                  st.tuples(*[st.integers(0, 3)] * n)), min_size=1, max_size=3))
    poly = Polynomial.constant(0)
    for coeff, exps in monomials:
        term = Polynomial.constant(coeff)
        for i, k in enumerate(exps):
            term = term * Polynomial.variable(i) ** k
        poly = poly + term
    if kind == "denominator":
        poly = poly.scale(Fraction(draw(st.integers(1, 4)), p ** draw(st.integers(1, 2))))
    return f"({poly})"


@st.composite
def _integrand(draw, p: int, n: int) -> str:
    f, g = draw(_carrier(p, n)), draw(_carrier(p, n))
    a, k = draw(st.sampled_from(_POWERS))
    s = draw(st.sampled_from(_SCALARS))
    return draw(st.sampled_from((
        f"norm{f}",
        f"val{f}",
        f"norm{f}^{{{a}/{k}}}",
        f"{s}*norm{f} + val{g}",
        f"norm{f}*val{g}",
        f"{s}*norm{f}^{{{a}/{k}}} + norm{g}",
        f"val{f}^2 + {s}",
    )))


def _one_level(center: Polynomial, lam, n: int, upper=None, lower=None) -> CellLevel:
    return CellLevel(center=center, lower=lower, upper=upper, coset=CosetSpec(Fraction(lam), n))


@st.composite
def _tower(draw, p: int, n: int) -> CellTower:
    """A one-level tower over Z_p (n = 1) or a two-level tower over Z_p^2 (n = 2)."""
    first = draw(st.sampled_from((
        unit_ball_coset_cell(1, 1).levels[0], unit_ball_coset_cell(2, 2).levels[0],
        unit_ball_coset_cell(p, 2).levels[0], unit_ball_coset_cell(3, 3).levels[0],
        point_cell(1).levels[0],
        _one_level(Polynomial.constant(1), 1, 1, upper=Bound(Polynomial.constant(1))),
        _one_level(Polynomial.constant(2), 1, 2, lower=Bound(Polynomial.constant(p**2)),
                   upper=Bound(Polynomial.constant(1), strict=False)))))
    if n == 1:
        return CellTower((first,))
    center = parse_poly(draw(st.sampled_from(("0", "x1", "x1^2 + 1", "2*x1 + 3"))))
    upper = draw(st.sampled_from((None, Bound(Polynomial.constant(1), strict=False),
                                  Bound(Polynomial.constant(1)))))
    lam = draw(st.sampled_from((1, 2, p)))
    return CellTower((first, _one_level(center, lam, draw(st.integers(1, 2)), upper=upper)))


@st.composite
def _problem(draw, with_domain: bool):
    p, n, m = draw(st.sampled_from(_SIZES))
    domain = draw(_tower(p, n)) if with_domain else None
    return parse_expr(draw(_integrand(p, n))), n, m, PrimeContext(p), domain


def _check_against_brute_force(e, n, m, ctx, domain):
    r = riemann_integrate(e, n, m, ctx, domain=domain)
    value, ambiguous = brute_force_riemann(e, n, m, ctx, domain=domain)
    assert (str(r.value), r.ambiguous_count) == (str(value), ambiguous)


_kernel = settings(derandomize=True, max_examples=120, deadline=None)


@_kernel
@given(problem=_problem(with_domain=False))
def test_riemann_box_matches_brute_force(problem):
    _check_against_brute_force(*problem)


@_kernel
@given(problem=_problem(with_domain=True))
def test_riemann_domain_matches_brute_force(problem):
    _check_against_brute_force(*problem)


@st.composite
def _level_lists(draw):
    """(e, n, levels, ctx, domain): p in {2, 3, 5}, arity 1-2, the box or a tower,
    and a strictly increasing list of levels up to p^(m*n) <= 729."""
    p, n = draw(st.sampled_from((2, 3, 5))), draw(st.integers(1, 2))
    top = max(m for m in range(1, 10) if p ** (m * n) <= 729)
    levels = sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=5)))
    domain = draw(st.one_of(st.none(), _tower(p, n)))
    return parse_expr(draw(_integrand(p, n))), n, levels, PrimeContext(p), domain


@settings(derandomize=True, max_examples=100, deadline=None)
@given(problem=_level_lists())
@example(problem=(parse_expr("norm(x1)*val(x1 - 2)"), 1, [1, 2, 4], PrimeContext(3), None))
@example(problem=(parse_expr("norm(x1 - 1)^{1/2} + val(x1)"), 1, [1, 2, 3], C5,
                  unit_ball_coset_cell(1, 2)))
@example(problem=(parse_expr("norm(x1)"), 1, [2, 3], PrimeContext(2),
                  unit_ball_coset_cell(1, 2)))  # ((0,), 5) at level 3: the margin alone
@example(problem=(parse_expr("1/3 + val(10)"), 0, [1, 2, 3], C5, None))  # arity 0: J = ()
def test_riemann_sums_are_the_walks_to_each_level(problem):
    """One walk to the largest level gives every listed level's sum, in the
    order listed: the value and ambiguous count of a walk to that level alone,
    and of the per-point loop."""
    e, n, levels, ctx, domain = problem
    results = oracle.riemann_sums(e, n, levels, ctx, domain=domain)
    assert [r.level for r in results] == levels
    for result, m in zip(results, levels):
        alone = riemann_integrate(e, n, m, ctx, domain=domain)
        value, ambiguous = brute_force_riemann(e, n, m, ctx, domain=domain)
        got = (str(result.value), result.ambiguous_count)
        assert got == (str(alone.value), alone.ambiguous_count)
        assert got == (str(value), ambiguous)


def test_riemann_sums_admit_every_level_before_the_walk(monkeypatch):
    monkeypatch.setattr(oracle, "refine_classes", lambda *args: pytest.fail("a walk ran"))
    e = parse_expr("norm(x1)")
    with pytest.raises(InvalidArgumentError, match="at least one level"):
        oracle.riemann_sums(e, 1, [], C5)
    with pytest.raises(InvalidArgumentError, match="level m must be >= 1"):
        oracle.riemann_sums(e, 1, [3, 0], C5)
    with pytest.raises(BudgetExceededError):
        oracle.riemann_sums(e, 1, [3, 40], C5)
    with pytest.raises(BudgetExceededError):  # the budget is checked before the order
        oracle.riemann_sums(e, 1, [40, 3], C5)
    for levels in ([3, 3], [4, 2, 5]):
        with pytest.raises(InvalidArgumentError, match="levels must increase strictly"):
            oracle.riemann_sums(e, 1, levels, C5)


def test_oracle_levels_walk_once(monkeypatch, capsys):
    """oracle --level 4,5,6 makes one walk, to level 6, and visits exactly the
    classes of oracle --level 6: 173, where a walk per level visits 49 + 93 + 173.
    It compiles the integrand once and calls the evaluator once per level."""
    walks, visits, refine = [], [], oracle.refine_classes
    compiles, evaluations, compile_ = [], [], oracle.compile_expr

    def counting_compile(*args):
        run = compile_(*args)
        compiles.append(args)
        return lambda *call: evaluations.append(call[1:]) or run(*call)

    def counting_refine(p, level, arity, classify, member_of=None):
        walks.append(level)
        return refine(p, level, arity, lambda *args: visits.append(args) or classify(*args),
                      member_of)

    monkeypatch.setattr(oracle, "refine_classes", counting_refine)
    monkeypatch.setattr(oracle, "compile_expr", counting_compile)
    counts = {}
    for levels in ("6", "4,5,6"):
        walks.clear(), visits.clear(), compiles.clear(), evaluations.clear()
        assert main(["oracle", "--expr", "norm(x1^2 - x2^3)", "--arity", "2", "--level", levels,
                     "--prime", "2"]) == 0
        assert walks == [6] and len(compiles) == 1
        assert [level for level, _ in evaluations] == [int(m) for m in levels.split(",")]
        counts[levels] = len(visits)
    assert counts["4,5,6"] == counts["6"] == 173


def test_riemann_evaluates_one_tally_per_level_and_values_no_carrier_at_a_point(monkeypatch):
    """The evaluator reads the kernel's keys as one tally per level: one call,
    whose keys are the distinct valuation tuples of the member classes in the
    order first found, a tuple's Hensel margins merged, and whose counts sum
    to the member lifts; no carrier is valued at a point (no Polynomial.eval
    call)."""
    valued = []
    monkeypatch.setattr(Polynomial, "eval",
                        lambda self, point: valued.append(point))  # must not be called
    keys, calls = [], []
    refine, compile_ = oracle.refine_classes, oracle.compile_expr

    def recorded_refine(*args):
        for key, r, J in refine(*args):
            keys.append((key, J))
            yield key, r, J

    def counted_compile(*args):
        run = compile_(*args)
        return lambda tally, level, shift: calls.append(dict(tally)) or run(tally, level, shift)

    monkeypatch.setattr(oracle, "refine_classes", recorded_refine)
    monkeypatch.setattr(oracle, "compile_expr", counted_compile)
    squares, units = (CellTower((CellLevel(Polynomial.constant(0), None, None,
                                           CosetSpec(Fraction(1), n)),)) for n in (2, 1))
    level = 3
    for text, arity, domain in (("norm(x1^2 - 2*x2^3)^{1/2}*val(x1) + val(x1 - x2)", 2, None),
                                ("norm(x1 - 1)*val(x1 - 4) + norm(x1 + 5)^{-1/3}", 1, squares),
                                ("norm(x1 - 1)^{1/2} + val(x1 + 1)", 1, units)):
        keys.clear(), calls.clear()
        riemann_integrate(parse_expr(text), arity, level, C5, domain=domain)
        members = [(key, J) for key, J in keys if key[0] is not None]
        tuples = list(dict.fromkeys(valuations for (valuations, _), _ in members))
        assert len(tuples) > 3 and len(calls) == 1 and list(calls[0]) == tuples
        assert sum(calls[0].values()) == sum(5 ** (arity * level - sum(J)) for _, J in members)
        if domain is units:  # v(x1) = 1 and 2 give (0, 0) under margins 2 and 3
            assert len(set(key for key, _ in members)) > len(tuples)
    assert valued == []


def test_riemann_reads_each_carrier_once_and_values_only_settled_classes(monkeypatch):
    """One classify: a visited class evaluates each distinct carrier's own
    terms at most once.  A carrier is valued, and its Taylor coefficients are
    evaluated, only on a class that is settled or where that carrier is 0 mod
    p^depth, its depth the least J_k over the coordinates it reads; a settled
    class values each carrier at most once, and a zero carrier not at all (it
    is INF in the key).  The carriers of this integrand vanish mod p^depth on
    many classes, and the cusp's are split down to the level."""
    e = parse_expr("norm(x1^2 - 2*x2^3)*val(x1)")
    own = {f.cleared()[0] for f in expr_carriers(e)}
    reads = {terms: [i for i in range(2) if any(j == i for key, _ in terms for j, _ in key)]
             for terms in own}
    counts = {"evals": 0, "coefficients": 0, "valuations": 0, "visited": 0, "settled": 0}
    evaluate, value, refine = (cells.eval_int_terms, cells.int_valuation,
                               oracle.refine_classes)

    def counted_eval(terms, point):
        counts["evals" if terms in own else "coefficients"] += 1
        return evaluate(terms, point)

    def counted_valuation(n, p):
        counts["valuations"] += 1
        return value(n, p)

    def counting_refine(p, level, arity, classify, member_of=None):
        def visit(r, J):
            before = dict(counts)
            key, undecided = classify(r, J)
            spent = {name: counts[name] - before[name] for name in counts}
            zero = sum(not evaluate(terms, r) % p**min(J[i] for i in reads[terms])
                       for terms in own)
            counts["visited"] += 1
            assert spent["evals"] <= len(own)
            if key is None:  # split: only carriers 0 mod p^depth were valued or expanded
                assert spent["valuations"] <= zero and (zero or not spent["coefficients"])
            else:
                counts["settled"] += 1
                assert spent["valuations"] <= sum(v is not INF for v in key)
            return key, undecided

        return refine(p, level, arity, visit, member_of)

    expected = riemann_integrate(e, 2, 4, C5)
    monkeypatch.setattr(cells, "eval_int_terms", counted_eval)
    monkeypatch.setattr(cells, "int_valuation", counted_valuation)
    monkeypatch.setattr(oracle, "refine_classes", counting_refine)
    run = riemann_integrate(e, 2, 4, C5)
    assert (run.value, run.ambiguous_count) == (expected.value, expected.ambiguous_count)
    assert counts["settled"] < counts["visited"] <= counts["evals"] <= len(own) * counts["visited"]
    assert counts["coefficients"] > 0 and counts["visited"] <= 7001


def test_each_carrier_clears_its_terms_once(monkeypatch):
    """A carrier view reads its polynomial's cleared terms (Polynomial.cleared)
    once, never per class read or valued: the clearings are at most the views,
    and far fewer than the classes visited."""
    counts, views = {"builds": 0, "visited": 0}, []
    build, init, refine = Polynomial.cleared, cells._Carrier.__init__, oracle.refine_classes

    def counted_build(poly):
        counts["builds"] += 1
        return build(poly)

    def kept_init(self, *args):
        views.append(self)
        init(self, *args)

    def counting_refine(p, level, arity, classify, member_of=None):
        def visit(*args):
            counts["visited"] += 1
            return classify(*args)
        return refine(p, level, arity, visit, member_of)

    monkeypatch.setattr(Polynomial, "cleared", counted_build)
    monkeypatch.setattr(cells._Carrier, "__init__", kept_init)
    monkeypatch.setattr(oracle, "refine_classes", counting_refine)
    riemann_integrate(parse_expr("norm(x1^2 - 2*x2^3)*val(x1)"), 2, 4, C5)
    assert 0 < counts["builds"] <= len(views)
    assert 100 * counts["builds"] < counts["visited"]


@pytest.mark.parametrize("text, arity, p, value, ambiguous, most", [
    ("norm((x1 - 3)^3*x1)", 1, 7, "70971185417/96889010407", 50, 50),
    ("norm(x1^2*x2)", 2, 5, "512726812416/762939453125", 18625, 7701),
])
def test_riemann_settles_a_class_once_every_valuation_is_constant(
        text, arity, p, value, ambiguous, most, monkeypatch):
    """A repeated root is settled as soon as its Taylor terms cannot reach v(f):
    the walk visits at most `most` classes (428 and 34 501 when a class was
    settled only where f was nonzero mod p^j), for the same value."""
    visited, refine = [], oracle.refine_classes

    def counting_refine(p, level, arity, classify, member_of=None):
        return refine(p, level, arity, lambda *args: visited.append(args) or classify(*args),
                      member_of)

    monkeypatch.setattr(oracle, "refine_classes", counting_refine)
    run = riemann_integrate(parse_expr(text), arity, 4, PrimeContext(p))
    assert (str(run.value), run.ambiguous_count) == (value, ambiguous)
    assert len(visited) <= most


def test_a_punctured_domain_splits_a_class_only_until_it_is_decided(monkeypatch):
    """Over Z_2 minus 0, then minus x1 (the two-level integrate domains), a
    shell v(t - c) = v is decided by its class mod 2^(v + 1), though its Hensel
    margin v + 3 flags it ambiguous until 2^(v + 3): the walk makes at most
    421 membership tests (821 when the margin drove it), for the per-point
    value and ambiguous count."""
    visited, refine = [], oracle.refine_classes

    def counting_refine(p, level, arity, classify, member_of=None):
        return refine(p, level, arity, classify,
                      lambda *args: visited.append(args) or member_of(*args))

    monkeypatch.setattr(oracle, "refine_classes", counting_refine)
    ctx, e = PrimeContext(2), parse_expr("norm(x1*x2) + val(x2 - 3)")
    domain = CellTower((zp_nonzero_cell().levels[0], CellLevel(
        parse_poly("x1"), None, Bound(Polynomial.constant(1), False), CosetSpec(Fraction(1), 1))))
    run = riemann_integrate(e, 2, 5, ctx, domain=domain)
    assert (str(run.value), run.ambiguous_count) == ("21855/16384", 312)
    assert len(visited) <= 421
    value, ambiguous = brute_force_riemann(e, 2, 5, ctx, domain=domain)
    assert (run.value, run.ambiguous_count) == (value, ambiguous)


@pytest.mark.parametrize("text, value, ambiguous, most", [
    ("1", "3124/3125", 3125, 26),
    ("norm(x2 - 1)", "5084634896/6103515625", 6249, 526),
])
def test_a_domain_below_the_walks_arity_is_decided_by_its_views_depth(
        text, value, ambiguous, most, monkeypatch):
    """Z_5 minus 0 as the domain of a walk over Z_5^2: the view x1 reads every
    coordinate of the domain but not of the walk, so it is fixed once x1's
    depth reaches its need, though x2 may stay at depth 0.  The walk makes at
    most `most` membership tests (3 906 and 4 206 when the view waited for the
    least depth of every coordinate), for the value and ambiguous count that
    the walk split down to the level gave."""
    visited, refine = [], oracle.refine_classes

    def counting_refine(p, level, arity, classify, member_of=None):
        return refine(p, level, arity, classify,
                      lambda *args: visited.append(args) or member_of(*args))

    monkeypatch.setattr(oracle, "refine_classes", counting_refine)
    e, domain = parse_expr(text), zp_nonzero_cell()
    run = riemann_integrate(e, 2, 5, C5, domain=domain)
    assert (str(run.value), run.ambiguous_count) == (value, ambiguous)
    assert len(visited) <= most


def _twice_punctured(p: int) -> CellTower:
    """Z_p^2 minus the lines x1 = 1 and x2 = 1: centre 1, lam = 1, n = 1, |t - 1| <= 1."""
    return CellTower(tuple(CellLevel(Polynomial.constant(1), None,
                                     Bound(Polynomial.constant(1), strict=False),
                                     CosetSpec(Fraction(1), 1)) for _ in range(2)))


@pytest.mark.parametrize("p, level, value, ambiguous, most", [
    (2, 4, "935/2048", 112, 41),
    (3, 3, "1820/6561", 53, 64),
])
def test_a_box_splits_only_the_coordinates_its_undecided_views_read(
        p, level, value, ambiguous, most, monkeypatch):
    """Over Z_p^2 minus the lines x1 = 1 and x2 = 1, every view reads one
    coordinate, so a box splits only in the coordinates still undecided: the
    walk makes at most `most` membership tests (105 and 208 when every
    coordinate split together), for the per-point value and ambiguous count."""
    visited, refine = [], oracle.refine_classes

    def counting_refine(p, level, arity, classify, member_of=None):
        return refine(p, level, arity, classify,
                      lambda *args: visited.append(args) or member_of(*args))

    monkeypatch.setattr(oracle, "refine_classes", counting_refine)
    ctx, e, domain = PrimeContext(p), parse_expr("norm(x1 - 1)*val(x2 - 1)"), _twice_punctured(p)
    run = riemann_integrate(e, 2, level, ctx, domain=domain)
    assert (str(run.value), run.ambiguous_count) == (value, ambiguous)
    assert len(visited) <= most
    assert (run.value, run.ambiguous_count) == brute_force_riemann(e, 2, level, ctx, domain=domain)


def test_two_levels_over_a_punctured_plane_walk_once():
    """The walk to level 3 counts level 1's least lifts as a walk to level 1 keys them."""
    results = oracle.riemann_sums(parse_expr("norm(x1 - 3)"), 2, [1, 3], PrimeContext(2),
                                  domain=_twice_punctured(2))
    assert [(str(r.value), r.ambiguous_count) for r in results] == [("1/4", 4), ("133/256", 48)]


@pytest.mark.parametrize("text", ["norm(x1^2 - 3)", "val(x1 - 2)*norm(x1)", "norm(25*x1^3 - x1)"])
def test_an_integrand_in_x1_alone_never_splits_x2(text, monkeypatch):
    """At arity 2 an integrand in x1 alone leaves x2 at depth 0 in every box
    visited, and its sum is the per-point one."""
    depths, refine = [], oracle.refine_classes

    def recording_refine(p, level, arity, classify, member_of=None):
        return refine(p, level, arity,
                      lambda r, J, *rest: depths.append(J) or classify(r, J, *rest),
                      member_of)

    monkeypatch.setattr(oracle, "refine_classes", recording_refine)
    e = parse_expr(text)
    run = riemann_integrate(e, 2, 4, PrimeContext(3))
    assert len(depths) > 1 and {J[1] for J in depths} == {0}
    assert (run.value, run.ambiguous_count) == brute_force_riemann(e, 2, 4, PrimeContext(3))


@st.composite
def _taylor_case(draw):
    """(f, p, j, r): f = p^a * g^k * h with small integer g, h in 1-2 variables,
    and an integer point r, often near a repeated root."""
    p, n, j = draw(st.sampled_from((2, 3, 5))), draw(st.integers(1, 2)), draw(st.integers(1, 4))

    def factor(max_exp):
        coeffs: dict = {}
        for c, e in draw(st.lists(st.tuples(st.integers(-6, 6).filter(bool),
                                            st.tuples(*[st.integers(0, max_exp)] * n).map(_key)),
                                  min_size=1, max_size=3)):
            coeffs[e] = coeffs.get(e, 0) + c
        return Polynomial.from_coeffs(coeffs)

    f = factor(1) ** draw(st.integers(1, 3)) * factor(2)
    f = f.scale(p ** draw(st.integers(0, 3)))
    r = tuple(draw(st.integers(0, p ** (j + 2))) for _ in range(n))
    return f, p, j, r


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_taylor_case())
@example(case=(parse_poly("(x1 - 3)^3*x1"), 7, 2, (10,)))
@example(case=(parse_poly("25*x1^2*x2"), 5, 2, (5, 7)))
@example(case=(parse_poly("x1^2 - x1"), 2, 1, (2,)))
@example(case=(parse_poly("x1^2 - x1"), 2, 2, (5,)))
@example(case=(parse_poly("125*x1"), 5, 1, (1,)))
def test_constant_on_proves_a_constant_valuation(case):
    """_Carrier.constant_on(r, (j, ..., j)) is True whenever v(f(r)) < j, and
    when it is True every lift r + p^j*t, t over (Z/p^3)^n, has the valuation
    v(f(r))."""
    f, p, j, r = case
    carrier = cells._Carrier(f, PrimeContext(p))
    v = cells.int_valuation(cells.eval_int_terms(carrier.terms, r), p)
    settled = carrier.constant_on(r, (j,) * len(r))
    if v is not INF and v < j:
        assert settled
    if settled:
        for t in itertools.product(range(p**3), repeat=len(r)):
            lift = [x + p**j * y for x, y in zip(r, t)]
            assert cells.int_valuation(
                cells.eval_int_terms(carrier.terms, lift), p) == v, (f, r, t)


def _eager_constant_on(carrier):
    """constant_on as it was with every Taylor coefficient of the carrier built
    up front, at every depth vector J, and read wherever J.k <= v: the
    reference of the lazy orders, of the depth-0 coefficient test and of the
    least depth over the coordinates read."""
    p, coefficients = carrier.p, {}
    arity = max((i + 1 for key, _ in carrier.terms for i, _ in key), default=0)
    for key, c in carrier.terms:
        e = tuple(dict(key).get(i, 0) for i in range(arity))
        for k in itertools.product(*(range(d + 1) for d in e)):
            if any(k):
                term = (_key(map(sub, e, k)), c * math.prod(map(math.comb, e, k)))
                coefficients.setdefault(k, []).append(term)
    taylor = sorted(coefficients.items())

    def constant_on(point, depths):
        value = cells.eval_int_terms(carrier.terms, point)
        if value == 0:
            return False
        v = cells.int_valuation(value, p)
        for k, terms in taylor:
            dot = sum(map(math.prod, zip(k, depths)))
            if dot <= v and cells.eval_int_terms(terms, point) % p**(v - dot + 1):
                return False
        return True
    return constant_on


def _seeded_carrier(rng, p, arity):
    """p^a * g^k * h with small integer g (degree 1) and h (degree <= 2), so that
    many points are repeated roots or p-power multiples."""
    def factor(top):
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple((i, k) for i in range(arity) if (k := rng.randint(0, top)))
            coeffs[e] = coeffs.get(e, 0) + rng.choice((-3, -2, -1, 1, 2, 3, p))
        return Polynomial.from_coeffs(coeffs)
    f = factor(1) ** rng.randint(1, 3) * factor(2)
    return f.scale(p ** rng.randint(0, 3))


def test_lazy_taylor_orders_match_the_eager_expansion():
    """Seeded carriers at p in {2, 3, 5}, arity 1-3 and depths 0-3: constant_on,
    which builds the Taylor orders lazily and tests the coefficients
    themselves at depth 0, answers as the eager expansion does, on the class
    representatives r mod p^j and on points past them; and so it does at
    depth vectors that are not uniform, a least depth 0 among them, on the
    boxes r + p^J*Z_p^n and on points past them."""
    rng, answers, mixed = random.Random(32), set(), set()
    for p in (2, 3, 5):
        for arity in (1, 2, 3):
            for _ in range(15):
                f = _seeded_carrier(rng, p, arity)
                carrier = cells._Carrier(f, PrimeContext(p))
                eager = _eager_constant_on(carrier)
                for j in range(4):
                    points = [tuple(rng.randrange(p ** (j + k // 25)) for _ in range(arity))
                              for k in range(30)]  # 25 classes mod p^j, 5 points mod p^(j+1)
                    for point in points:
                        got = carrier.constant_on(point, (j,) * arity)
                        assert got == eager(point, (j,) * arity), (f, p, point, j)
                        answers.add((j == 0, got))
                for k in range(60 if arity > 1 else 0):
                    depths = tuple(rng.randrange(4) for _ in range(arity))
                    point = tuple(rng.randrange(p ** (d + k // 50)) for d in depths)
                    got = carrier.constant_on(point, depths)
                    assert got == eager(point, depths), (f, p, point, depths)
                    if min(depths) < max(depths):
                        mixed.add((min(depths) == 0, got))
    assert answers == {(True, True), (True, False), (False, True), (False, False)}
    assert mixed == {(True, True), (True, False), (False, True), (False, False)}


def test_high_degree_carrier_expands_only_the_orders_read(deadline, capsys):
    """norm(x1^30000 + 5) to level 3 at p = 5 reads the Taylor coefficients of
    order 1 only, so it returns at once (past 30 s with every order built up
    front)."""
    deadline(1)
    assert main(["oracle", "--expr", "norm(x1^30000 + 5)", "--arity", "1", "--level", "3",
                 "--prime", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "21/25"


def test_high_degree_carrier_at_mixed_depths_reads_no_order(deadline, capsys):
    """At the root only x2 is split, norm(x2) being undecided, so the first
    carrier is read on boxes of depths (0, j): its x1-coefficient 25 is 0 mod 5,
    and v = 0 < 1 reads no Taylor order in x2, so it returns at once (the
    Taylor loop over every order of x1 did not finish at ^30000)."""
    deadline(1)
    assert main(["oracle", "--expr", "norm(25*x1^30000 + 25*x2 + 1)*norm(x2)", "--arity", "2",
                 "--level", "3", "--prime", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == "2604/3125"


# -- the one modular enumeration against the per-point product loops ---------------


def _modular_terms(poly, modulus, p):
    """Coefficients reduced mod modulus; p-integrality enforced."""
    out = []
    for key, coeff in poly.terms:
        if coeff.denominator % p == 0:
            raise NonIntegralCoefficientsError(
                f"coefficient {coeff} is not p-integral at p = {p}")
        out.append((key, coeff.numerator * pow(coeff.denominator, -1, modulus) % modulus))
    return out


def _eval_poly_mod(terms, point, modulus):
    total = 0
    for key, c in terms:
        term = c
        for i, k in key:
            term = term * pow(point[i], k, modulus) % modulus
        total = (total + term) % modulus
    return total


def brute_force_histogram(fs, m, p, n):
    pm = p**m
    systems = [_modular_terms(f, pm, p) for f in fs]
    hist = {}
    for pt in itertools.product(range(pm), repeat=n):
        key = tuple(_eval_poly_mod(terms, pt, pm) for terms in systems)
        hist[key] = hist.get(key, 0) + 1
    return hist


def brute_force_count(fs, z, m, p, n):
    pm = p**m
    systems = [_modular_terms(f, pm, p) for f in fs]
    target = tuple(int(zi) % pm for zi in z)
    return sum(1 for pt in itertools.product(range(pm), repeat=n)
               if all(_eval_poly_mod(terms, pt, pm) == zi
                      for terms, zi in zip(systems, target)))


@st.composite
def p_integral_poly(draw, p: int, n: int) -> Polynomial:
    """At most four terms in x1..xn, degrees up to 3, denominators prime to p."""
    dens = [d for d in range(1, 10) if d % p]
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n).map(_key),
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from(dens)),
        min_size=1, max_size=4))
    return Polynomial.from_coeffs(terms)


@st.composite
def modular_problem(draw):
    """(fs, m, ctx, n): r in 1-2 polynomials over (Z/p^m)^n, p^(m*n) <= 2401."""
    p, n, m = draw(st.sampled_from(_SIZES))
    r = draw(st.integers(1, 2))
    return [draw(p_integral_poly(p, n)) for _ in range(r)], m, PrimeContext(p), n


@settings(derandomize=True, max_examples=80, deadline=None)
@given(problem=modular_problem(), z=st.lists(st.integers(-50, 50), min_size=2, max_size=2))
@example(problem=([parse_poly("x1^5 + x1")], 2, PrimeContext(2), 1), z=[1, 0])
@example(problem=([parse_poly("x1^4*x2 + x2^3")], 1, PrimeContext(3), 2), z=[1, 0])
@example(problem=([parse_poly("x1^3 + 1")], 3, PrimeContext(3), 2), z=[1, 0])
@example(problem=([parse_poly("x2^3")], 3, PrimeContext(3), 2), z=[1, 0])
@example(problem=([parse_poly("x1*x2^2*x3 + x3^3")], 2, PrimeContext(3), 3), z=[1, 0])
def test_solution_counts_match_product_loops(problem, z):
    fs, m, ctx, n = problem
    hist = solution_histogram(fs, m, ctx, n=n)
    expected = brute_force_histogram(fs, m, ctx.p, n)
    assert list(hist.items()) == list(expected.items())
    for target in list(expected)[:3] + [tuple(z[:len(fs)])]:
        assert count_solutions(fs, target, m, ctx, n=n) == \
            brute_force_count(fs, target, m, ctx.p, n)


_CHUNKED_SIZES = [(p, n, m) for p in (2, 3, 5, 7) for n in (1, 2, 3) for m in range(1, 15)
                  if 512 < p ** (m * n) <= 20000]


@st.composite
def chunked_problem(draw):
    """(fs, m, ctx, n) with 512 < p^(m*n) <= 20000; each f_i in x1..xk, 1 <= k <= n."""
    p, n, m = draw(st.sampled_from(_CHUNKED_SIZES))
    fs = [draw(p_integral_poly(p, draw(st.integers(1, n))))
          for _ in range(draw(st.integers(1, 2)))]
    return fs, m, PrimeContext(p), n


@settings(derandomize=True, max_examples=50, deadline=None)
@given(problem=chunked_problem())
@example(problem=([parse_poly("x1^3 + 2*x1")], 8, PrimeContext(3), 1))
@example(problem=([parse_poly("x1^2 + x1*x2^3 - 2")], 4, PrimeContext(3), 2))
@example(problem=([parse_poly("x1*x2 + 1/3*x2^2")], 3, C5, 2))
@example(problem=([parse_poly("x1*x2*x3 + x3^3")], 5, PrimeContext(2), 3))
@example(problem=([parse_poly("3/2")], 2, C5, 0))
@example(problem=([parse_poly("x1^2 + x2"), parse_poly("x1^3")], 4, PrimeContext(3), 2))
@example(problem=([parse_poly("x1^2 + 1")], 3, PrimeContext(3), 3))
@example(problem=([parse_poly("x1^5 + x1")], 2, PrimeContext(2), 1))
@example(problem=([parse_poly("x1^4*x2 + x2^3")], 1, PrimeContext(3), 2))
@example(problem=([parse_poly("x1^3 + 1")], 3, PrimeContext(3), 2))
@example(problem=([parse_poly("x2^3")], 3, PrimeContext(3), 2))
@example(problem=([parse_poly("x1*x2^2*x3 + x3^3")], 2, PrimeContext(3), 3))
def test_histogram_is_the_per_point_loop_past_one_chunk(problem):
    fs, m, ctx, n = problem
    hist = solution_histogram(fs, m, ctx, n=n)
    assert list(hist.items()) == list(brute_force_histogram(fs, m, ctx.p, n).items())


@st.composite
def high_degree_problem(draw):
    """(fs, m, ctx, n): 1-2 polynomials over (Z/p^m)^n, p^(m*n) <= 2401, with
    exponents up to 10^9, far past m + phi(p^m), and some exponents that meet
    mod phi(p^m), so that reduced terms merge."""
    p, n, m = draw(st.sampled_from(_SIZES))
    phi = p**m - p ** (m - 1)
    exponent = st.integers(0, 3) | st.integers(0, 10**9) | st.builds(
        lambda k, q: m + k + q * phi, st.integers(0, 3), st.integers(1, 10**6))
    dens = [d for d in range(1, 10) if d % p]
    fs = [Polynomial.from_coeffs(draw(st.dictionaries(
        st.tuples(*[exponent] * n).map(_key), st.builds(Fraction, st.integers(-9, 9), st.sampled_from(dens)),
        min_size=1, max_size=4))) for _ in range(draw(st.integers(1, 2)))]
    return fs, m, PrimeContext(p), n


@settings(derandomize=True, max_examples=200, deadline=None)
@given(problem=high_degree_problem())
@example(problem=([parse_poly("x1^22 + x1^2 - x1^42")], 2, C5, 1))
@example(problem=([parse_poly("x1^1000000*x2^7 + 2*x2^3")], 3, PrimeContext(2), 2))
def test_high_degree_histogram_is_the_per_point_pow_loop(problem):
    """_modular_view reads each exponent past m + phi(p^m) mod phi(p^m): the
    histogram is the per-point loop's, whose every power is pow(x, e, p^m)."""
    fs, m, ctx, n = problem
    hist = solution_histogram(fs, m, ctx, n=n)
    assert list(hist.items()) == list(brute_force_histogram(fs, m, ctx.p, n).items())


def test_a_degree_of_ten_to_the_eight_is_read_mod_phi(deadline):
    """x1^99999999 at p = 5, m = 2: its exponent is read mod phi(25) = 20 as 19,
    so neither the histogram nor the exponential sum builds the 10^8 + 1
    coefficients of the exponent as written."""
    f = parse_poly("x1^99999999")
    deadline(1)
    hist = solution_histogram([f], 2, C5)
    phases = exp_sum([f], [Fraction(1, 25)], C5).phases
    deadline(0)
    expected = brute_force_histogram([f], 2, 5, 1)
    assert list(hist.items()) == list(expected.items())
    assert phases == {z: count for (z,), count in expected.items()}


def test_values_mod_chunks_hold_bounded_memory():
    pm = 3**10
    view = _modular_view(parse_poly("x1^3 + 2*x1"), pm, 3)
    sizes = []
    tracemalloc.start()
    try:
        for (column,) in _values_mod([view], 10, 1, 3):
            sizes.append(len(column))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sizes[:-1] == [_CHUNK] * (len(sizes) - 1) and sum(sizes) == pm
    assert peak < 2**20  # one whole column of 3^10 values takes about 2.4 MB


@st.composite
def block_problem(draw):
    """(f, p, m, prefix, t0): f in x1..xn, a prefix x_1..x_(n-1) and a block start mod p^m."""
    p, n, m = draw(st.sampled_from([(2, 1, 3), (3, 2, 2), (5, 2, 1), (7, 3, 1)]))
    digit = st.integers(0, p**m - 1)
    prefix = draw(st.lists(digit, min_size=n - 1, max_size=n - 1))
    return draw(p_integral_poly(p, n)), p, m, tuple(prefix), draw(digit)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(problem=block_problem())
@example(problem=(parse_poly("x1^5 + 3*x1^2 + x1 - 1/3"), 2, 3, (), 5))
def test_eval_poly_mod_on_a_block_is_the_per_point_value(problem):
    """A block range(t0, t0 + L) anywhere in the column, L below and above
    degree + 1, gives f(prefix, t) mod p^m point by point."""
    f, p, m, prefix, t0 = problem
    pm = p**m
    view = _modular_view(f, pm, p)
    for length in range(1, 10):
        block = range(t0, t0 + length)
        assert eval_poly_mod(view, prefix, block, pm) == \
            [residue(f.eval(prefix + (t,)), m, PrimeContext(p)) for t in block]


def test_values_mod_past_one_column_is_lazy():
    """n = 2 with p^m > _CHUNK: the first three chunks are the product-order
    loop's, and taking them holds O(_CHUNK) values, not the six whole columns
    of 3^8 values that a difference sweep along x1 (degree 5) would seed."""
    p, m = 3, 8
    f = parse_poly("x1^5*x2^3 - 2*x1^2*x2 + 5")
    view = _modular_view(f, p**m, p)
    tracemalloc.start()
    try:
        chunks = [column for (column,) in itertools.islice(_values_mod([view], m, 2, p), 3)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    points = itertools.islice(itertools.product(range(p**m), repeat=2), 3 * _CHUNK)
    expected = [residue(f.eval(pt), m, PrimeContext(p)) for pt in points]
    assert [len(c) for c in chunks] == [_CHUNK] * 3
    assert sum(chunks, []) == expected
    assert peak < 2**20  # the three chunks kept take about 0.45 MB
