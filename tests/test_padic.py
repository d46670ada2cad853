"""Valuation arithmetic, n-th power decisions, and shell measures."""

import random
from fractions import Fraction

import pytest

from cellint import (
    INF,
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
from cellint.padic_core import unit_part

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
    pm = ctx.p**m
    target = residue(unit_part(x, ctx), m, ctx)
    return any(pow(y, n, pm) == target for y in range(1, pm) if y % ctx.p)


def test_primality_gate():
    assert is_prime(2) and is_prime(97) and not is_prime(1) and not is_prime(91)
    with pytest.raises(ValueError):
        PrimeContext(6)
    with pytest.raises(ValueError):
        PrimeContext(5, default_level=0)


def test_valuation_examples():
    assert valuation(12, C2) == 2
    assert valuation(0, C5) is INF
    assert valuation(Fraction(5, 3), C5) == 1


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
    m = hensel_level(n, ctx.p)
    for x in (Fraction(v) for v in (-6, -2, -1, 2, 3, 4, 7, 9, 17, 25)):
        base = is_nth_power(x, n, ctx)
        assert is_nth_power(x, n, ctx, level=m + 1) == base
        assert is_nth_power(x, n, ctx, level=m + 2) == base


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
    # Hensel saturation: recomputing the density at M+1 and M+2 is identical.
    m = hensel_level(n, ctx.p)
    for lam in (Fraction(1), Fraction(2), Fraction(ctx.p), Fraction(1, ctx.p), Fraction(3)):
        if lam == 0:
            continue
        base = unit_coset_density(lam, n, ctx, level=m)
        assert unit_coset_density(lam, n, ctx, level=m + 1) == base
        assert unit_coset_density(lam, n, ctx, level=m + 2) == base


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
