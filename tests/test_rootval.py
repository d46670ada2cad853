"""The closed-form value ring Q[p^(1/N), p^(-1/N)]."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellint import RootScaledValue
from cellint.rootval import _fold


def mono(e, c=1, p=5):
    return RootScaledValue.monomial(p, Fraction(e), Fraction(c))


def test_canonical_folding():
    # p^{-3/2} = (1/p) * p^{-1/2}: exponents reduce into [0, 1)
    v = mono(Fraction(3, 2))
    assert v.items == ((Fraction(1, 2), Fraction(1, 5)),)
    assert mono(Fraction(-1, 2)) == mono(Fraction(1, 2), 5)
    assert mono(2) == RootScaledValue.from_rational(Fraction(1, 25), 5)


def test_root_order_and_coefficients_view():
    v = mono(Fraction(1, 2)) + mono(Fraction(1, 3))
    assert v.root_order == 6
    assert v.coefficients == {3: Fraction(1), 2: Fraction(1)}
    assert mono(0, 7).root_order == 1


def test_zero_and_rational_checks():
    z = RootScaledValue.zero(5)
    assert z.is_zero() and z.is_rational() and z.as_exact_rational() == 0
    v = mono(Fraction(1, 2))
    assert not v.is_rational()
    with pytest.raises(ValueError):
        v.as_exact_rational()


def test_mixed_prime_rejected():
    with pytest.raises(ValueError):
        mono(1, p=5) + mono(1, p=7)


def test_rational_operands_are_promoted():
    """int and Fraction operands on either side of + and * act as the
    rational elements of the ring; float() is real_value()."""
    r = mono(Fraction(1, 2), 3) + mono(Fraction(1, 3))
    third = RootScaledValue.from_rational(Fraction(1, 3), 5)
    assert Fraction(1, 3) + r == r + Fraction(1, 3) == r + third
    assert (0 + r).items == r.items and (r + Fraction(0)).items == r.items
    assert r * 4 == 4 * r == r.scale(4) == r * RootScaledValue.from_rational(4, 5)
    assert Fraction(-2, 7) * r == r * RootScaledValue.from_rational(Fraction(-2, 7), 5)
    assert r * 0 == 0 * r == RootScaledValue.zero(5)
    assert float(r) == r.real_value() == 3 * 5 ** -0.5 + 5 ** (-1 / 3)
    zero = RootScaledValue.zero(5)
    assert zero.real_value() == 0 and type(zero.real_value()) is int  # printed as "0"
    assert float(zero) == 0.0 and type(float(zero)) is float
    with pytest.raises(ValueError, match="different primes"):
        mono(1, p=5) * mono(Fraction(1, 2), p=7)
    with pytest.raises(ValueError, match="different primes"):
        Fraction(1, 2) + mono(1, p=5) + mono(1, p=7)


def test_rational_parts_are_not_copied():
    """from_rational and monomial keep a Fraction they are given, and every
    rational value shares one zero exponent."""
    q = Fraction(3, 4)
    assert RootScaledValue.from_rational(q, 5).items[0][1] is q
    assert RootScaledValue.monomial(5, Fraction(1, 2), q).items[0][1] is q
    assert RootScaledValue.from_rational(q, 5).items[0][0] \
        is RootScaledValue.from_rational(7, 3).items[0][0]
    assert RootScaledValue.from_rational(7, 3).items == ((Fraction(0), Fraction(7)),)


def test_ring_axioms_random():
    rng = random.Random(606)

    def rand_value():
        terms = RootScaledValue.zero(5)
        for _ in range(rng.randint(0, 3)):
            e = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            terms = terms + RootScaledValue.monomial(5, e, c)
        return terms

    for _ in range(300):
        a, b, c = rand_value(), rand_value(), rand_value()
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a


def _dict_product(x: RootScaledValue, y: RootScaledValue) -> RootScaledValue:
    """The general path of __mul__: every pair of items folded into one dict."""
    acc: dict[Fraction, Fraction] = {}
    for f1, c1 in x.items:
        for f2, c2 in y.items:
            f, c = _fold(x.p, f1 + f2, c1 * c2)
            acc[f] = acc.get(f, Fraction(0)) + c
    return RootScaledValue._make(x.p, acc)


_exponents = st.fractions(-3, 3, max_denominator=12)
_coefficients = st.fractions(-9, 9, max_denominator=12).filter(bool)


@st.composite
def _monomials(draw, p):
    """One item: canonical (from monomial) or raw, with an exponent outside [0, 1)."""
    e, c = draw(_exponents), draw(_coefficients)
    if draw(st.booleans()):
        return RootScaledValue.monomial(p, e, c)
    return RootScaledValue(p, ((e, c),))


def _check_product(x: RootScaledValue, y: RootScaledValue):
    product = x * y
    assert product.items == _dict_product(x, y).items  # bit-identical, canonical
    (f, c), = product.items
    assert 0 <= f < 1 and c != 0
    assert y * x == product


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("a, b", [
    ((Fraction(1, 2), 3), (Fraction(2, 3), -1)),  # exponent sum 7/6 = 1 + 1/6
    ((Fraction(1, 2), 1), (Fraction(1, 2), 2)),  # sum 1 = 1 + 0
    ((Fraction(-1, 3), 1), (Fraction(1, 4), -5)),  # sum -1/12 = -1 + 11/12
    ((Fraction(-5, 2), -2), (Fraction(1, 3), 7)),  # sum -13/6 = -3 + 5/6
    ((Fraction(0), 4), (Fraction(0), Fraction(-1, 9))),  # two rationals
])
def test_monomial_product_boundaries(p, a, b):
    _check_product(RootScaledValue(p, (a,)), RootScaledValue(p, (b,)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7]))
def test_monomial_product_matches_dict_path(data, p):
    """The one-item fast path of __mul__ equals the general dict path exactly."""
    _check_product(data.draw(_monomials(p)), data.draw(_monomials(p)))


def test_real_value_accuracy():
    rng = random.Random(17)
    for _ in range(200):
        e = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        v = RootScaledValue.monomial(5, e, c)
        expected = float(c) * 5.0 ** float(-e)
        if expected == 0:
            assert v.real_value() == 0
        else:
            assert abs(v.real_value() - expected) <= 1e-12 * abs(expected)


def test_str_forms():
    assert str(RootScaledValue.from_rational(Fraction(5, 6), 5)) == "5/6"
    assert str(RootScaledValue.zero(5)) == "0"
    assert "5^(-1/2)" in str(mono(Fraction(1, 2)))
