"""Valuation arithmetic, n-th power decisions, and shell measures."""

import dataclasses
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellint import (
    INF,
    BudgetExceededError,
    InvalidArgumentError,
    NotPIntegralError,
    PrimeContext,
    ZeroCosetError,
    ZeroInputError,
    coset_membership,
    coset_representatives,
    hensel_level,
    is_nth_power,
    is_prime,
    norm,
    residue,
    shell_coset_measure,
    unit_coset_density,
    valuation,
)
from cellint.cells import CellLevel, CellTower, CosetSpec, MembershipPlan
from cellint.padic_core import _MR_LIMIT, check_budget, unit_part
from cellint.polynomials import Polynomial

C2 = PrimeContext(2)
C3 = PrimeContext(3)
C5 = PrimeContext(5)
C7 = PrimeContext(7)


def brute_is_nth_power(x, n, ctx, extra=0):
    """Independent oracle: search all unit residues y with y^n = unit(x) mod p^M."""
    x = Fraction(x)
    v = valuation(x, ctx)
    if int(v) % n != 0:
        return False
    m = hensel_level(n, ctx.p) + extra
    target = residue(unit_part(x, ctx), m, ctx)
    return target in unit_power_residues(ctx.p, n, m)


# -- the enumeration the closed form replaced, kept as the test oracle --------------


@lru_cache(maxsize=None)
def unit_power_residues(p, n, m):
    """Residues mod p^m of the n-th powers of units, by enumeration."""
    pm = p**m
    return frozenset(pow(y, n, pm) for y in range(1, pm) if y % p)


def enumerated_density(lam, n, ctx, extra=0):
    """Share of the residues mod p^(M+extra) that are units in lam * P_n."""
    p = ctx.p
    m = hensel_level(n, p) + extra
    pm = p**m
    powers = unit_power_residues(p, n, m)
    mu_inv = pow(residue(unit_part(lam, ctx), m, ctx), -1, pm)
    return Fraction(sum(1 for u in range(1, pm) if u % p and u * mu_inv % pm in powers), pm)


@lru_cache(maxsize=None)
def enumerated_representatives(n, p, extra=0):
    """Greedy walk over the units mod p^(M+extra): keep u unless u/r is an n-th
    power for a kept r; then p^j * u for j = 0..n-1."""
    m = hensel_level(n, p) + extra
    pm = p**m
    powers = unit_power_residues(p, n, m)
    units, inverses = [], []
    for u in range(1, pm):
        if u % p and all(u * r_inv % pm not in powers for r_inv in inverses):
            units.append(u)
            inverses.append(pow(u, -1, pm))
    return [Fraction(u * p**j) for j in range(n) for u in units]


def test_primality_gate():
    assert is_prime(2) and is_prime(97) and not is_prime(1) and not is_prime(91)
    with pytest.raises(ValueError):
        PrimeContext(6)
    assert [f.name for f in dataclasses.fields(PrimeContext)] == ["p"]  # the prime alone


def _trial_division(n):
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def test_primality_is_deterministic_below_the_limit():
    """Miller-Rabin over the bases 2..41 agrees with trial division below 20 000,
    where composites such as 2021 = 43*47 pass the small-prime sieve; it rejects
    the least strong pseudoprime to every base 2..37 and admits nothing past
    the limit the bases are proven for."""
    assert [n for n in range(20_000) if is_prime(n)] == [n for n in range(20_000)
                                                         if _trial_division(n)]
    assert not is_prime(2021) and not is_prime(1763)  # 1763 = 41*43
    assert is_prime(2**61 - 1)
    pseudoprime = 399_165_290_221 * 798_330_580_441
    assert pseudoprime == 318_665_857_834_031_151_167_461 and not is_prime(pseudoprime)
    with pytest.raises(InvalidArgumentError, match="not prime"):
        PrimeContext(pseudoprime)
    with pytest.raises(InvalidArgumentError, match="only deterministic below"):
        is_prime(_MR_LIMIT)


def test_valuation_examples():
    assert valuation(12, C2) == 2
    assert valuation(0, C5) is INF
    assert valuation(Fraction(5, 3), C5) == 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), k=st.integers(-12, 12),
       unit=st.integers(-10**6, 10**6), den=st.integers(1, 10**6))
def test_valuation_matches_its_definition(p, k, unit, den):
    """v(p^k * u / d) = k for u, d prime to p, whether x is an int or a Fraction."""
    ctx = PrimeContext(p)
    unit, den = unit * p + 1, den * p + 1  # both prime to p
    x = Fraction(unit, den) * Fraction(p) ** k
    assert valuation(x, ctx) == k
    if x.denominator == 1:
        assert valuation(x.numerator, ctx) == k
    assert valuation(Fraction(0), ctx) is INF and valuation(0, ctx) is INF


def test_norm_examples():
    assert norm(5, C5) == Fraction(1, 5)
    assert norm(0, C5) == 0
    assert norm(Fraction(3, 4), C2) == 4


def test_residue_examples():
    assert residue(7, 1, C5) == 2
    assert residue(Fraction(1, 2), 2, C5) == 13
    with pytest.raises(NotPIntegralError):
        residue(Fraction(1, 5), 1, C5)


def test_nth_power_examples():
    assert is_nth_power(4, 2, C5) is True
    assert is_nth_power(5, 2, C5) is False  # odd valuation
    assert is_nth_power(2, 2, C5) is False  # squares mod 5 are {1, 4}
    for ctx in (C2, C3, C5, C7):
        for n in range(1, 7):
            assert is_nth_power(1, n, ctx) is True
    with pytest.raises(ZeroInputError):
        is_nth_power(0, 2, C5)


@pytest.mark.parametrize("ctx", [C2, C3, C5, C7])
@pytest.mark.parametrize("n", range(1, 7))
def test_nth_power_matches_brute_force(ctx, n):
    grid = [Fraction(v) for v in (-12, -9, -8, -4, -3, -2, -1, 1, 2, 3, 4, 6, 8, 9, 12, 16, 27, 32, 64)]
    grid += [Fraction(1, 4), Fraction(4, 9), Fraction(-8, 27), Fraction(ctx.p, 3),
             Fraction(ctx.p**n), Fraction(1, ctx.p**n), Fraction(2 * ctx.p**2, 7)]
    for x in grid:
        expected = brute_is_nth_power(x, n, ctx)
        assert is_nth_power(x, n, ctx) == expected, (ctx.p, n, x)


@pytest.mark.parametrize("ctx", [C2, C3, C5])
@pytest.mark.parametrize("n", range(1, 7))
def test_nth_power_stable_under_level_increase(ctx, n):
    # the enumeration agrees with the closed form at M, M+1 and M+2
    for x in (Fraction(v) for v in (-6, -2, -1, 2, 3, 4, 7, 9, 17, 25)):
        base = is_nth_power(x, n, ctx)
        for extra in (0, 1, 2):
            assert brute_is_nth_power(x, n, ctx, extra) == base, (x, extra)


def test_coset_membership_examples():
    assert coset_membership(5, 5, 2, C5) is True
    assert coset_membership(0, 0, 2, C5) is True
    assert coset_membership(1, 0, 2, C5) is False
    assert coset_membership(0, 1, 2, C5) is False
    assert coset_membership(20, 5, 2, C5) is True  # 20/5 = 4 is a square


def test_shell_coset_measure_examples():
    assert shell_coset_measure(1, 1, 0, C5) == Fraction(4, 5)
    assert shell_coset_measure(1, 2, 0, C5) == Fraction(2, 5)
    assert shell_coset_measure(1, 2, 1, C5) == 0
    with pytest.raises(ZeroCosetError):
        shell_coset_measure(0, 2, 0, C5)


@pytest.mark.parametrize("ctx", [C2, C3, C5])
@pytest.mark.parametrize("n", range(1, 7))
def test_epsilon_stability(ctx, n):
    # Hensel saturation: the counted density at M, M+1 and M+2 is the closed form.
    for lam in (Fraction(1), Fraction(2), Fraction(ctx.p), Fraction(1, ctx.p), Fraction(3)):
        base = unit_coset_density(lam, n, ctx)
        for extra in (0, 1, 2):
            assert enumerated_density(lam, n, ctx, extra) == base, (lam, extra)


@pytest.mark.parametrize("ctx", [C2, C3, C5])
@pytest.mark.parametrize("n", range(1, 7))
def test_shell_scaling(ctx, n):
    for lam in (Fraction(1), Fraction(3), Fraction(ctx.p)):
        for k in range(-3, 4):
            lhs = shell_coset_measure(lam, n, k + n, ctx)
            rhs = shell_coset_measure(lam, n, k, ctx) * Fraction(1, ctx.p**n)
            assert lhs == rhs


@pytest.mark.parametrize("ctx", [C2, C3, C5])
@pytest.mark.parametrize("n", range(1, 7))
def test_partition_of_unity(ctx, n):
    # Summing the shell measures over all coset representatives with the
    # right valuation recovers the full shell (1 - 1/p) p^(-k).
    reps = coset_representatives(n, ctx)
    for k in range(0, 3):
        total = sum(shell_coset_measure(lam, n, k, ctx) for lam in reps
                    if int(valuation(lam, ctx)) % n == k % n)
        assert total == (1 - Fraction(1, ctx.p)) * Fraction(1, ctx.p**k)


def test_coset_representatives_q5():
    assert coset_representatives(2, C5) == [1, 2, 5, 10]


def test_large_coset_orders():
    # p^M would be 2^23 and 7^13 residues; the closed form needs none
    assert unit_coset_density(1, 2**10, C2) == Fraction(1, 4096)
    assert unit_coset_density(3, 7**6, C7) == Fraction(6, 823543)
    assert shell_coset_measure(7, 7**6, 1, C7) == Fraction(6, 7**8)
    assert shell_coset_measure(7, 7**6, 0, C7) == 0
    assert is_nth_power(Fraction(1 + 2**12), 2**10, C2)
    assert not is_nth_power(Fraction(1 + 2**11), 2**10, C2)
    teichmuller = pow(3, 7**7, 7**8)  # the (p-1)-th root of unity = 3 mod 7
    assert is_nth_power(teichmuller, 7**6, C7) and not is_nth_power(3, 7**6, C7)


# -- differential tests: the closed form against the enumeration -----------------


_LIMIT = 20_000  # largest p^(M+2) enumerated


@st.composite
def _order(draw):
    """(ctx, n) with p^(M+2) small enough to enumerate."""
    ctx = draw(st.sampled_from((C2, C3, C5, C7)))
    n = draw(st.integers(1, 60).filter(
        lambda n: ctx.p ** (hensel_level(n, ctx.p) + 2) <= _LIMIT))
    return ctx, n


_units = st.integers(-10**6, 10**6).filter(bool)
_differential = settings(derandomize=True, max_examples=200, deadline=None)


@_differential
@given(order=_order(), num=_units, den=st.integers(1, 10**4), extra=st.integers(0, 2))
def test_nth_power_matches_enumeration(order, num, den, extra):
    ctx, n = order
    x = Fraction(num, den)
    assert is_nth_power(x, n, ctx) == brute_is_nth_power(x, n, ctx, extra)


@_differential
@given(order=_order(), num=_units, den=st.integers(1, 10**4), extra=st.integers(0, 2))
def test_coset_density_matches_enumeration(order, num, den, extra):
    ctx, n = order
    lam = Fraction(num, den)
    assert unit_coset_density(lam, n, ctx) == enumerated_density(lam, n, ctx, extra)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(order=_order(), extra=st.integers(0, 2))
def test_coset_representatives_match_enumeration(order, extra):
    ctx, n = order
    assert coset_representatives(n, ctx) == enumerated_representatives(n, ctx.p, extra)


@_differential
@given(order=_order(), lam=_units, center=st.integers(-50, 50), den=st.integers(1, 12),
       t=st.integers(0, 10**6), extra=st.integers(0, 2))
def test_compiled_coset_test_matches_enumeration(order, lam, center, den, t, extra):
    # one level {t - c in lam * P_n}, no bounds: the plan's member flag is its coset test
    ctx, n = order
    c = Fraction(center, den)
    tower = CellTower((CellLevel(Polynomial.constant(c), None, None,
                                 CosetSpec(Fraction(lam), n)),))
    diff = t - c
    expected = diff != 0 and brute_is_nth_power(diff / lam, n, ctx, extra)
    assert MembershipPlan(ctx).member_of(tower)((t,), (1,))[0] == expected


def test_multiplicativity_random():
    rng = random.Random(20240811)
    for ctx in (C2, C5):
        for _ in range(5000):
            x = Fraction(rng.randint(-400, 400), rng.randint(1, 400))
            y = Fraction(rng.randint(-400, 400), rng.randint(1, 400))
            if x == 0 or y == 0:
                continue
            assert valuation(x * y, ctx) == valuation(x, ctx) + valuation(y, ctx)
            assert norm(x * y, ctx) == norm(x, ctx) * norm(y, ctx)


def ultrametric_holds(x, y, ctx) -> bool:
    """|x+y| <= max(|x|,|y|), with equality when the norms differ."""
    nx, ny, nxy = norm(x, ctx), norm(y, ctx), norm(Fraction(x) + Fraction(y), ctx)
    if nxy > max(nx, ny):
        return False
    if nx != ny and nxy != max(nx, ny):
        return False
    return True


def test_ultrametric_random():
    rng = random.Random(7)
    for _ in range(2000):
        x = Fraction(rng.randint(-200, 200), rng.randint(1, 50))
        y = Fraction(rng.randint(-200, 200), rng.randint(1, 50))
        assert ultrametric_holds(x, y, C5)
        assert ultrametric_holds(x, y, C2)


# -- the admission rule of every enumeration ----------------------------------------


def test_check_budget_refuses_exactly_past_the_size():
    """check_budget refuses exactly when level < 1 or p^(level*arity) > budget, at
    budgets on both sides of every power of p it can meet."""
    for p in (2, 3, 5, 7):
        for level in range(-1, 13):
            for arity in range(4):
                for k in range(12 * 3 + 2):
                    for budget in (p**k - 1, p**k, p**k + 1):
                        if level < 1:
                            with pytest.raises(InvalidArgumentError,
                                               match="level m must be >= 1"):
                                check_budget(p, level, arity, budget)
                        elif p ** (level * arity) > budget:
                            with pytest.raises(BudgetExceededError, match=(
                                    f"^{p}\\^{level * arity} residue points exceed "
                                    f"the budget of {budget}$")):
                                check_budget(p, level, arity, budget)
                        else:
                            assert check_budget(p, level, arity, budget) is None


def test_check_budget_never_builds_the_size(deadline):
    """5^(2*10^18) has more digits than any machine holds: the refusal must come
    from counting up to the budget."""
    deadline(2)
    with pytest.raises(BudgetExceededError, match="^5\\^2000000000000000000 residue"):
        check_budget(5, 10**18, 2, 10**8)
