"""Parser/printer round trips, evaluation, and the algebra property suites."""

import random
from fractions import Fraction

import pytest

from cellint import (
    ExprSyntaxError,
    FracNormPower,
    IntegerPower,
    Norm,
    PrimeContext,
    Product,
    RationalConst,
    RootScaledValue,
    ScalarMultiple,
    SchwartzBruhatSpec,
    UnknownVariableError,
    Val,
    ValOfZeroError,
    ZeroDenominatorError,
    evaluate,
    evaluate_fractional,
    format_expr,
    parse_expr,
    parse_poly,
)
from cellint.formula_dsl import make_power, make_product, make_scalar_multiple, make_sum
from cellint.polynomials import Polynomial

C5 = PrimeContext(5)

ROUND_TRIP_CORPUS = [
    "norm(x1)",
    "val(x1^2 + 1)",
    "3/2*norm(x1)*val(x2)^2",
    "norm(x1)^{1/2}",
    "norm(x1^2 - 1)^{-3/2}",
    "1 + norm(x1) - 2*val(x1)",
    "(norm(x1) + val(x2))^2",
    "-1/3*val(x1)",
    "norm(2*x1^3 - x2 + 1/2)",
    "val(x1)*val(x1)*norm(x2)",
    "7",
    "-7/4",
    "norm(x1)*(val(x2) + 1)",
    "(1 + val(x1))^3*norm(x2)^{2/3}",
    "val(x1) - val(x2) - val(x3)",
    "2*norm(x1)^2 + 1/5",
    "norm(x1 + x2 + x3)",
    "val(x1^4 + 2*x1^2 + 2)",
    "norm(x1)^{5/2}*val(x1)",
    "1/2 - norm(x2)",
]


def test_parse_examples():
    e = parse_expr("val(x1^2 + 1)")
    assert isinstance(e, Val)
    assert e.carrier == parse_poly("x1^2 + 1")

    e = parse_expr("3/2 * norm(x1) * val(x2)^2")
    assert isinstance(e, ScalarMultiple) and e.scalar == Fraction(3, 2)
    assert isinstance(e.item, Product)
    assert isinstance(e.item.items[0], Norm)
    assert e.item.items[1] == IntegerPower(Val(parse_poly("x2")), 2)

    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr("norm(")
    assert exc.value.offset == 5


def test_parse_error_types():
    with pytest.raises(UnknownVariableError):
        parse_expr("norm(y1)")
    with pytest.raises(UnknownVariableError):
        parse_expr("val(x0 + 1)")
    with pytest.raises(ZeroDenominatorError):
        parse_expr("1/0*norm(x1)")
    with pytest.raises(ExprSyntaxError):
        parse_expr("norm(x1))")
    with pytest.raises(ExprSyntaxError):
        parse_expr("val(x1)^-1")


def test_format_round_trip_corpus():
    for text in ROUND_TRIP_CORPUS:
        e = parse_expr(text)
        printed = format_expr(e)
        assert parse_expr(printed) == e, text
        # format(parse(format(...))) is the identity on printed forms
        assert format_expr(parse_expr(printed)) == printed, text


def test_whitespace_insensitive():
    assert parse_expr(" 3/2*norm( x1 ) ") == parse_expr("3/2 * norm(x1)")


def test_format_literals():
    assert format_expr(Norm(parse_poly("x1"))) == "norm(x1)"
    assert format_expr(parse_expr("3/2*norm(x1)*val(x2)^2")) == "3/2*norm(x1)*val(x2)^2"
    # deterministic ordering: structurally equal sums print identically
    a = parse_expr("norm(x1)*val(x2) + val(x1)*norm(x2)")
    b = parse_expr("norm(x1) * val(x2) + val(x1) * norm(x2)")
    assert format_expr(a) == format_expr(b)


def test_evaluate_examples():
    e = parse_expr("norm(x1)*val(x1)")
    assert evaluate(e, [Fraction(5)], C5) == Fraction(1, 5)
    e = parse_expr("norm(x1^2 + 1)")
    assert evaluate(e, [2], C5) == Fraction(1, 5)
    with pytest.raises(ValOfZeroError):
        evaluate(parse_expr("val(x1)"), [0], C5)


def test_evaluate_fractional_examples():
    v = evaluate_fractional(parse_expr("norm(x1)^{1/2}"), [5], C5)
    assert v == RootScaledValue.monomial(5, Fraction(1, 2))
    assert v.root_order == 2 and v.coefficients == {1: Fraction(1)}

    v = evaluate_fractional(parse_expr("norm(x1)^{-3/2}"), [25], C5)
    assert v.as_exact_rational() == 125

    v = evaluate_fractional(parse_expr("norm(x1^2 - 1)^{1/2}"), [6], C5)
    assert v == RootScaledValue.monomial(5, Fraction(1, 2))

    # exact at non-integral rational points, raising where a negative power meets 0
    v = evaluate_fractional(parse_expr("norm(x1)"), [Fraction(1, 5)], C5)
    assert v.as_exact_rational() == 5
    with pytest.raises(ValOfZeroError):
        evaluate_fractional(parse_expr("norm(x1)^{-1/2}"), [0], C5)


def _random_poly(rng, max_arity=2):
    arity = rng.randint(1, max_arity)
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in range(arity))
        coeffs[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    poly = Polynomial.make(arity, coeffs)
    if poly.is_zero():
        poly = Polynomial.constant(1, arity)
    return poly


def _random_expr(rng, depth=0):
    kinds = ["const", "norm", "val", "frac"]
    if depth < 3:
        kinds += ["sum", "product", "scalar", "power"] * 2
    kind = rng.choice(kinds)
    if kind == "const":
        return RationalConst(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    if kind == "norm":
        return Norm(_random_poly(rng))
    if kind == "val":
        return Val(_random_poly(rng))
    if kind == "frac":
        return FracNormPower(_random_poly(rng), rng.randint(-3, 3), rng.randint(1, 4))
    if kind == "sum":
        return make_sum([_random_expr(rng, depth + 1) for _ in range(rng.randint(2, 3))])
    if kind == "product":
        return make_product([_random_expr(rng, depth + 1) for _ in range(rng.randint(2, 3))])
    if kind == "scalar":
        return make_scalar_multiple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                    _random_expr(rng, depth + 1))
    return make_power(_random_expr(rng, depth + 1), rng.randint(0, 3))


def test_round_trip_random_asts():
    rng = random.Random(1234)
    for _ in range(1000):
        e = _random_expr(rng)
        printed = format_expr(e)
        assert parse_expr(printed) == e, printed


def test_evaluation_homomorphism_random():
    rng = random.Random(99)
    checked = skipped = 0
    while checked < 1000 and skipped < 3000:
        a = _random_expr(rng, depth=2)
        b = _random_expr(rng, depth=2)
        point = [Fraction(rng.randint(-10, 10)) for _ in range(3)]
        try:
            va = evaluate_fractional(a, point, C5)
            vb = evaluate_fractional(b, point, C5)
            vsum = evaluate_fractional(make_sum([a, b]), point, C5)
            vprod = evaluate_fractional(make_product([a, b]), point, C5)
        except ValOfZeroError:
            skipped += 1
            continue
        assert vsum == va + vb
        assert vprod == va * vb
        checked += 1
    assert checked == 1000, f"too many skipped samples ({skipped})"


def test_polynomial_cancellation_random():
    rng = random.Random(4321)
    for _ in range(500):
        f = _random_poly(rng, max_arity=3)
        g = _random_poly(rng, max_arity=3)
        assert (f + g) - g == f


def test_poly_parse_round_trip():
    for text in ["x1^2 + 1", "2*x1*x2 - 1/2", "-x1 + x2^3", "0", "5", "x3"]:
        p = parse_poly(text)
        assert parse_poly(str(p)) == p


def test_schwartz_bruhat_refinement_preserves_measure():
    rng = random.Random(31)
    for _ in range(50):
        arity = rng.randint(1, 2)
        level = rng.randint(1, 2)
        pm = 5**level
        residues = rng.sample(range(pm), k=min(pm, rng.randint(1, 4)))
        pieces = tuple(
            (tuple(rng.randrange(pm) for _ in range(arity - 1)) + (r,), level,
             Fraction(rng.randint(1, 5), rng.randint(1, 3)))
            for r in residues)
        spec = SchwartzBruhatSpec(arity, pieces)
        refined = spec.refine_to(level + 2, C5)
        assert refined.total_measure(C5) == spec.total_measure(C5)


def test_schwartz_bruhat_evaluate():
    spec = SchwartzBruhatSpec(1, (((2,), 1, Fraction(3)),))
    assert spec.evaluate([Fraction(7)], C5) == 3   # 7 = 2 mod 5
    assert spec.evaluate([Fraction(3)], C5) == 0
    assert spec.evaluate([Fraction(1, 5)], C5) == 0  # outside Z_p
