"""Parser/printer round trips, evaluation, and the algebra property suites."""

import random
from fractions import Fraction
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    Sum,
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
from cellint.formula_dsl import (
    _Carrier,
    carrier_valuations,
    compile_expr,
    expr_carriers,
    make_power,
    make_product,
    make_scalar_multiple,
    make_sum,
)
from cellint.padic_core import INF, power_norm
from cellint.polynomials import Polynomial, format_poly

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


# -- parse_poly reads each distinct text once -------------------------------------


@st.composite
def _poly_texts(draw):
    """format_poly of a random polynomial, as printed or respaced or parenthesized."""
    arity = draw(st.integers(1, 3))
    coeffs = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * arity),
        st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=4))
    text = format_poly(Polynomial.make(arity, coeffs))
    variant = draw(st.sampled_from(("printed", "spaced", "packed", "parenthesized")))
    if variant == "spaced":
        for op in "+-*^/":
            text = text.replace(op, f" {op} ")
        return f"\t{text}  "
    if variant == "packed":
        return text.replace(" ", "")
    if variant == "parenthesized":
        return f"({text})" if draw(st.booleans()) else f"(({text})) * 1"
    return text


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=_poly_texts())
def test_cached_parse_poly_matches_the_parser(text):
    expected = parse_poly.__wrapped__(text)
    assert parse_poly(text) == expected
    assert parse_poly(text) is parse_poly(text)  # one shared immutable value


@pytest.mark.parametrize("text, error", [
    ("x0", UnknownVariableError),
    ("1/0", ZeroDenominatorError),
    ("x1 +", ExprSyntaxError),
    ("", ExprSyntaxError),
])
def test_parse_poly_errors_are_raised_afresh(text, error):
    """Errors are not cached: every call raises the parser's own error again."""
    raised = []
    for parse in (parse_poly, parse_poly, parse_poly.__wrapped__):
        with pytest.raises(error) as exc:
            parse(text)
        raised.append((type(exc.value), str(exc.value), exc.value.offset))
    assert raised[0][0] is error
    assert raised[0] == raised[1] == raised[2]


# -- the valuation-vector evaluator against the per-leaf point evaluator --------------


def _parent_point_evaluator(e, ctx, level=None):
    """The point evaluator compile_expr was before it read valuation vectors:
    every leaf values its own carrier at the point, and Fraction and
    RootScaledValue operands are dispatched by hand."""
    p, exact = ctx.p, level is None

    def as_root(a):
        return a if isinstance(a, RootScaledValue) else RootScaledValue.from_rational(a, p)

    def combine(a, b, op):
        if isinstance(a, RootScaledValue) or isinstance(b, RootScaledValue):
            return op(as_root(a), as_root(b))
        return op(a, b)

    def build(e):
        if isinstance(e, RationalConst):
            return lambda pt: (e.value, False)
        if isinstance(e, (Norm, Val, FracNormPower)):
            valuation_at = _Carrier(e.carrier, ctx).valuation_at
            top = INF if exact else level

            def leaf(pt):
                v = valuation_at(pt)
                if isinstance(e, Val):
                    if v is INF:
                        if exact:
                            raise ValOfZeroError(f"val carrier {e.carrier} vanishes at {tuple(pt)}")
                        return Fraction(level), True
                    return Fraction(int(v)), v >= top
                a, n = (1, 1) if isinstance(e, Norm) else (e.a, e.n)
                if v is INF:
                    if a > 0:
                        return Fraction(0), not exact
                    if a == 0:
                        return Fraction(1), not exact
                    if exact:
                        raise ValOfZeroError(f"norm carrier {e.carrier} vanishes at "
                                             f"{tuple(pt)} with negative power")
                    return Fraction(0), True
                exp = Fraction(a * int(v), n)
                if exp.denominator == 1:
                    return power_norm(p, -int(exp)), v >= top
                return RootScaledValue.monomial(p, exp), v >= top
            return leaf
        if isinstance(e, (Sum, Product)):
            subs = [build(it) for it in e.items]
            start, op = (Fraction(0), add) if isinstance(e, Sum) else (Fraction(1), mul)

            def fold(pt):
                total, amb = start, False
                for sub in subs:
                    v, a_ = sub(pt)
                    total, amb = combine(total, v, op), amb or a_
                return total, amb
            return fold
        if isinstance(e, ScalarMultiple):
            sub = build(e.item)

            def scaled(pt):
                v, amb = sub(pt)
                return (v.scale(e.scalar) if isinstance(v, RootScaledValue) else e.scalar * v), amb
            return scaled
        sub, k = build(e.base), e.exponent

        def power(pt):
            v, amb = sub(pt)
            if isinstance(v, RootScaledValue):
                out = RootScaledValue.from_rational(1, p)
                for _ in range(k):
                    out = out * v
                return out, amb
            return v**k, amb
        return power

    return build(e)


# the seven integrand shapes of the benchmark's oracle jobs
_SHAPES = ("norm({f})", "val({f})", "norm({f})^{{{a}/{n}}}", "{s}*norm({f}) + val({g})",
           "norm({f})*val({g})", "{s}*norm({f})^{{{a}/{n}}} + norm({g})", "val({f})^2 + {s}")
_POWERED = "({s}*norm({f})^{{{a}/{n}}} + val({g}))^2"  # a power of an irrational value


@st.composite
def _carrier_texts(draw, p, level):
    """A carrier in x1, x2: one with many zeros, one that is 0 mod p^level
    everywhere, the zero polynomial, or a random one over Q."""
    special = ("x1", "x1 - x2", "x1^2 - 2*x2^3", f"{p**level}*x1", f"{p}*x1*x2", "x1 - x1",
               f"x2 + 1/{p}")
    if draw(st.booleans()):
        return draw(st.sampled_from(special))
    monomial = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(-4, 4),
                         st.sampled_from((1, 1, 2, p)))
    coeffs = {(i, j): Fraction(c, d) for i, j, c, d in draw(st.lists(monomial, min_size=1,
                                                                        max_size=3))}
    return format_poly(Polynomial.make(2, coeffs))


@st.composite
def _evaluator_problems(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    level = draw(st.integers(1, 3))
    f = draw(_carrier_texts(p, level))
    g = f if draw(st.booleans()) else draw(_carrier_texts(p, level))  # repeated carriers
    if draw(st.integers(0, 7)) == 7:  # a random nested expression
        e = _random_expr(random.Random(draw(st.integers(0, 2**32))))
    else:
        e = parse_expr(draw(st.sampled_from(_SHAPES + _SHAPES[2::3] + (_POWERED,))).format(
            f=f, g=g, a=draw(st.integers(-3, 3)), n=draw(st.integers(1, 3)),
            s=draw(st.sampled_from(("2", "1/2", "3/4")))))
    # coordinates u * p^k, so that carriers take many valuations and zeros
    scaled = st.builds(lambda u, k: u * p**k, st.integers(-p, p**level), st.integers(0, level))
    lift = st.tuples(scaled, scaled).map(lambda pt: tuple(x % p**level for x in pt))
    short = st.lists(scaled, max_size=1).map(tuple)  # too short for an x2 carrier
    points = draw(st.lists(st.one_of(lift, lift, lift, short), min_size=1, max_size=6))
    rational = st.builds(Fraction, scaled, st.sampled_from((1, 2, p, p * p)))
    points += draw(st.lists(st.tuples(rational, rational), max_size=3))
    return e, PrimeContext(p), level, points


def _result(fn, *args):
    try:
        value, amb = fn(*args)
        return type(value), value, amb
    except (ValOfZeroError, ValueError) as ex:
        return type(ex), str(ex)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(problem=_evaluator_problems())
@example(problem=(parse_expr("val(x1) + norm(x1 - x2)"), C5, 2, [(0,), (0, 0), (5, 5)]))
def test_valuation_evaluator_matches_the_per_leaf_point_evaluator(problem):
    """Same value and value type, ambiguity flag, and error type and message
    as the per-leaf point evaluator, exactly and at a level.  The one change:
    a point too short for some carrier raises that carrier's ValueError
    before any ValOfZeroError."""
    e, ctx, level, points = problem
    valuations = carrier_valuations(e, ctx)
    carriers = expr_carriers(e)
    for lv in (None, level):
        run, parent = compile_expr(e, ctx, lv), _parent_point_evaluator(e, ctx, lv)
        for pt in points:
            if lv is not None and any(Fraction(x).denominator != 1 for x in pt):
                continue  # a level reads integer lifts
            old, new = _result(parent, pt), _result(lambda x: run(valuations(x)), pt)
            fractional = _result(lambda x: (evaluate_fractional(e, x, ctx), False), pt)
            short = [c.arity for c in carriers if c.arity > len(pt)]
            if short:
                error = (ValueError, f"point has {len(pt)} coordinates, need {short[0]}")
                assert new == fractional == error
                assert old[0] is ValOfZeroError or old == error
            elif old[0] is ValOfZeroError:
                assert lv is None and new[0] is ValOfZeroError and fractional == old
            else:
                assert new == old, (format_expr(e), lv, pt)
                if lv is None:
                    assert fractional == (RootScaledValue, old[1] + RootScaledValue.zero(ctx.p),
                                          False)
