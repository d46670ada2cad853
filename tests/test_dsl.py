"""Parser/printer round trips, evaluation, and the algebra property suites."""

import random
import tracemalloc
from fractions import Fraction
from functools import reduce
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
    _terms,
    carrier_valuations,
    compile_expr,
    expr_carriers,
    make_power,
    make_product,
    make_scalar_multiple,
    make_sum,
)
from cellint.padic_core import INF, power_norm, valuation
from cellint.polynomials import Polynomial, eval_int_terms, format_poly, mul_coeffs

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
        key = tuple((i, k) for i in range(arity) if (k := rng.randint(0, 2)))
        coeffs[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    poly = Polynomial.from_coeffs(coeffs)
    return poly if poly.terms else Polynomial.constant(1)


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


def test_variable_minus_is_the_canonical_difference():
    rng = random.Random(97)
    for _ in range(300):
        index = rng.randint(0, 3)
        center = _random_poly(rng, max_arity=index) if index else Polynomial.constant(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
        assert Polynomial.variable_minus(index, center) == Polynomial.variable(index) - center
    with pytest.raises(ValueError, match="uses x2"):
        Polynomial.variable_minus(1, parse_poly("x2 + 1"))


def test_equal_polynomials_built_apart_hash_alike(monkeypatch):
    """A polynomial keeps the hash it computes first, so hashing it again
    hashes none of its coefficients; equality stays field by field, so equal
    polynomials built by different routes share dict entries."""
    rng = random.Random(13)
    hashed, fraction_hash = [], Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda q: hashed.append(q) or fraction_hash(q))
    for _ in range(200):
        f = _random_poly(rng, max_arity=3)
        g = parse_poly(format_poly(f))
        h = Polynomial(f.arity, tuple((e, Fraction(c.numerator, c.denominator))
                                      for e, c in f.terms))
        assert f == g == h and f is not g
        assert hash(f) == hash(g) == hash(h) == hash((f.arity, f.terms))
        hashed.clear()
        assert {g: 1}[f] == 1 and hash(f) == hash(h) and hashed == []
    assert parse_poly("x1 + 1") != parse_poly("x1 + 2")


def test_poly_parse_round_trip():
    for text in ["x1^2 + 1", "2*x1*x2 - 1/2", "-x1 + x2^3", "0", "5", "x3"]:
        p = parse_poly(text)
        assert parse_poly(str(p)) == p


# -- one canonical form: one sparse key per monomial, one constructor -----------------
#
# The reference is the dense form the sparse keys replaced: an exponent vector
# per monomial, padded with zeros, sorted as tuples and printed position by
# position.


def _key(e):
    """The monomial key of the exponent vector e: its nonzero entries (index, exponent)."""
    return tuple((i, k) for i, k in enumerate(e) if k)


def _dense(key, width):
    """The exponent vector of a monomial key, padded with zeros to width."""
    e = [0] * width
    for i, k in key:
        e[i] = k
    return tuple(e)


def _dense_arity(keys, width):
    """The arity of the dense form: the length of its longest vector without trailing zeros."""
    return max((j + 1 for key in keys for j, k in enumerate(_dense(key, width)) if k), default=0)


def _dense_format(terms, width):
    """format_poly as the dense form printed it, term by term in the dense order."""
    parts = []
    for e, c in sorted(((_dense(key, width), c) for key, c in terms), reverse=True):
        factors = [f"x{i + 1}" + (f"^{k}" if k > 1 else "") for i, k in enumerate(e) if k]
        mag = abs(c)
        body = str(mag) if not factors else "*".join(factors if mag == 1 else [str(mag)] + factors)
        parts.append((body if c > 0 else f"-{body}") if not parts else
                     (f"+ {body}" if c > 0 else f"- {body}"))
    return " ".join(parts) or "0"


def _is_key(key):
    """Whether key is a canonical monomial key: indices increasing, exponents >= 1."""
    return all(k >= 1 for _, k in key) and all(a[0] < b[0] for a, b in zip(key, key[1:]))


# sparse keys over x1..x4 with exponents 1-2: one key per monomial
_keys = st.dictionaries(st.integers(0, 3), st.integers(1, 2), max_size=3).map(
    lambda powers: tuple(sorted(powers.items())))
_sparse_coeffs = st.dictionaries(
    _keys, st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=5)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(coeffs=_sparse_coeffs, other=_sparse_coeffs, k=st.integers(0, 3),
       index=st.integers(0, 3))
@example(coeffs={((0, 1),): 1, ((0, 1), (1, 1)): 2}, other={((1, 1),): -1}, k=1, index=0)
def test_from_coeffs_is_the_one_canonical_form(coeffs, other, k, index):
    """Sums, products, powers and derivatives keep canonical keys, sorted and
    with the arity and printing of the dense reference, and every product
    term equals the dense reference's positionwise sum of exponents."""
    f, g = Polynomial.from_coeffs(coeffs), Polynomial.from_coeffs(other)
    assert f.coeffs() == {e: c for e, c in coeffs.items() if c}
    product = {}
    for e1, c1 in coeffs.items():
        for e2, c2 in other.items():
            e = tuple(map(sum, zip(_dense(e1, 4), _dense(e2, 4))))
            product[e] = product.get(e, 0) + c1 * c2
    assert {_dense(e, 4): c for e, c in (f * g).terms} == {e: c for e, c in product.items() if c}
    for h in (f, f + g, f * g, f**k, f.derivative(index)):
        keys = [e for e, _ in h.terms]
        assert all(_is_key(e) for e in keys)
        width = max(h.arity, 1)
        assert [_dense(e, width) for e in keys] == sorted((_dense(e, width) for e in keys),
                                                          reverse=True)
        assert h.arity == _dense_arity(keys, width)
        assert h.is_constant() == (h.arity == 0) == all(not e for e in keys)
        assert format_poly(h) == _dense_format(h.terms, width)
        assert parse_poly(format_poly(h)) == h


def test_sparse_order_arity_and_printing_match_the_dense_reference():
    """On random key sets over up to 12 variables, some far apart, the order of
    from_coeffs, its arity and format_poly equal the dense form's."""
    rng = random.Random(36)
    for _ in range(500):
        indices = rng.sample(range(12), rng.randint(0, 5))
        keys = {tuple(sorted((i, rng.randint(1, 3)) for i in rng.sample(indices, rng.randint(
            0, len(indices))))) for _ in range(rng.randint(0, 6))}
        coeffs = {key: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
                  for key in keys}
        f, width = Polynomial.from_coeffs(coeffs), 12
        assert [_dense(e, width) for e, _ in f.terms] == sorted(
            (_dense(e, width) for e in keys), reverse=True)
        assert f.arity == _dense_arity(keys, width)
        assert format_poly(f) == _dense_format(coeffs.items(), width)


def test_one_constructor_examples():
    assert Polynomial.from_coeffs({((0, 1),): 3, ((0, 1), (1, 1)): 0}) == parse_poly("3*x1")
    assert Polynomial.from_coeffs({(): 2, ((1, 1),): 0}) == Polynomial.constant(2)
    assert Polynomial.variable(2).terms == ((((2, 1),), 1),)
    assert Polynomial.variable(2).arity == 3 and Polynomial.constant(5).arity == 0
    assert parse_poly("x1 + x2").terms == ((((0, 1),), 1), (((1, 1),), 1))
    assert parse_poly("x1000000^2 + 3*x1000000").terms == ((((999999, 2),), 1),
                                                            (((999999, 1),), 3))
    # a product whose exponents sum to 0 drops the pair, as the DSL's norm powers need
    assert mul_coeffs({((1, 2), (2, 1)): 1}, {((1, -2), (2, 1)): 1}) == {((2, 2),): 1}


def test_a_high_variable_index_costs_what_a_low_one_does():
    """A polynomial stores only the variables it uses: parsing x1000000 peaks
    far below the megabytes one dense exponent vector of that length takes."""
    tracemalloc.start()
    try:
        f = parse_poly("x1000000^2 + 3*x1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.arity == 1000000 and peak < 1 << 20, peak


# -- one evaluator over the nonzero exponents ------------------------------------------


def _dense_eval(terms, point):
    """The per-coordinate reference: every exponent of every term, zeros included."""
    total = 0
    for key, c in terms:
        term = c
        for x, k in zip(point, _dense(key, len(point))):
            term *= x**k
        total += term
    return total


@st.composite
def _evaluation_case(draw):
    """(f, point): f of arity 0-3, with gaps between the variables its terms
    read, constants and the zero polynomial among them; an integer or
    rational point with 0-2 coordinates past the arity."""
    coeffs = draw(st.dictionaries(st.lists(st.integers(0, 3), max_size=3).map(_key),
                                  st.fractions(min_value=-9, max_value=9, max_denominator=4),
                                  max_size=5))
    f = Polynomial.from_coeffs(coeffs)
    size = f.arity + draw(st.integers(0, 2))
    coordinate = st.integers(-60, 60) | st.fractions(min_value=-60, max_value=60,
                                                     max_denominator=7)
    if draw(st.booleans()):
        coordinate = st.integers(-60, 60)
    return f, tuple(draw(st.lists(coordinate, min_size=size, max_size=size)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_evaluation_case())
@example(case=(Polynomial(0), ()))
@example(case=(Polynomial(0), (3, Fraction(1, 2))))
@example(case=(Polynomial.constant(Fraction(-7, 2)), (5,)))
@example(case=(parse_poly("3*x1*x3^2 - x3 + 1/2"), (2, 7, Fraction(-1, 3), 4)))
@example(case=(parse_poly("x1^2 - x1*x2"), (3, 3)))
def test_sparse_evaluation_matches_the_dense_per_term_loop(case):
    """eval_int_terms equals the dense per-term loop on the cleared integer
    terms and on the rational ones, and Polynomial.eval equals it as an exact
    Fraction, Fraction(0) for a zero value.  Both term lists keep each term's
    nonzero exponents in increasing index, the cleared one the same keys in
    the same order, and a point shorter than the highest variable read
    raises IndexError."""
    f, point = case
    cleared, denom = f.cleared()
    assert [e for e, _ in cleared] == [e for e, _ in f.terms]
    assert [c for _, c in cleared] == [c * denom for _, c in f.terms]
    for terms in (cleared, f.terms):
        assert all(_is_key(e) for e, _ in terms)
        assert eval_int_terms(terms, point) == _dense_eval(terms, point)
    value = f.eval(point)
    assert type(value) is Fraction and value == Fraction(_dense_eval(cleared, point), denom)
    if f.arity:
        with pytest.raises(IndexError):
            eval_int_terms(cleared, point[:f.arity - 1])


# -- parse_poly reads each distinct text once -------------------------------------


@st.composite
def _poly_texts(draw):
    """format_poly of a random polynomial, as printed or respaced or parenthesized."""
    arity = draw(st.integers(1, 3))
    coeffs = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * arity).map(_key),
        st.fractions(min_value=-9, max_value=9, max_denominator=6), max_size=4))
    text = format_poly(Polynomial.from_coeffs(coeffs))
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


@pytest.mark.parametrize("parse, text, offset", [
    (parse_poly, "x1^-1", 3),
    (parse_expr, "val(x1)^-1", 8),
])
def test_powers_are_unsigned_integers(parse, text, offset):
    """A '-' after '^' is no integer, so no power the parser reads is negative."""
    with pytest.raises(ExprSyntaxError, match="expected integer") as exc:
        parse(text)
    assert type(exc.value) is ExprSyntaxError and exc.value.offset == offset


def test_whitespace_may_follow_the_sign_of_a_fractional_power():
    expected = FracNormPower(parse_poly("x1"), -1, 2)
    assert parse_expr("norm(x1)^{- 1/2}") == expected
    assert parse_expr("norm(x1)^{ -\t1 / 2 }") == expected


# -- the one-pass parser against a fold through Polynomial arithmetic -----------------


class _CharScanner:
    """The reference scanner: one character at a time, whitespace skipped before
    each token, offsets where the token starts (or, after '/', where it ends)."""

    def __init__(self, text):
        self.text, self.pos = text, 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos:self.pos + 1]

    def accept(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.accept(ch):
            raise ExprSyntaxError(f"expected '{ch}'", self.pos)

    def run(self, test):
        """The longest run of characters passing test at the next token, and its offset."""
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and test(self.text[self.pos]):
            self.pos += 1
        return self.text[start:self.pos], start

    def integer(self, signed=False):
        negative = signed and self.accept("-")
        digits, start = self.run(str.isdecimal)
        if not digits:
            raise ExprSyntaxError("expected integer", start)
        return -int(digits) if negative else int(digits)

    def rational(self):
        num = self.integer()
        if self.accept("/"):
            offset = self.pos
            den = self.integer()
            if den == 0:
                raise ZeroDenominatorError("denominator is zero", offset)
            return Fraction(num, den)
        return Fraction(num)


def _ref_sum_of_products(sc, factor, negate, fold_sum, fold_product):
    def product():
        items = [factor(sc)]
        while sc.accept("*"):
            items.append(factor(sc))
        return fold_product(items)

    items = [negate(product()) if sc.accept("-") else product()]
    while True:
        if sc.accept("+"):
            items.append(product())
        elif sc.accept("-"):
            items.append(negate(product()))
        else:
            return fold_sum(items)


def _ref_poly_factor(sc):
    ch = sc.peek()
    if ch == "(":
        sc.expect("(")
        p = _ref_poly(sc)
        sc.expect(")")
    elif ch.isdecimal():
        p = Polynomial.constant(sc.rational())
    elif ch.isalpha():
        name, off = sc.run(lambda c: c.isalnum() or c == "_")
        if not (len(name) >= 2 and name[0] == "x" and name[1:].isdecimal() and name[1] != "0"):
            raise UnknownVariableError(f"unknown variable '{name}' (use x1, x2, ...)", off)
        p = Polynomial.variable(int(name[1:]) - 1)
    else:
        raise ExprSyntaxError("expected polynomial term", sc.pos)
    if sc.accept("^"):
        p = p**sc.integer()
    return p


def _ref_poly(sc):
    """A polynomial folded factor by factor through Polynomial's + * - and **."""
    return _ref_sum_of_products(sc, _ref_poly_factor, lambda p: -p,
                                lambda items: reduce(add, items),
                                lambda items: reduce(mul, items))


def _ref_carrier(sc):
    sc.expect("(")
    carrier = _ref_poly(sc)
    sc.expect(")")
    return carrier


def _ref_expr_factor(sc):
    if sc.peek().isdecimal():
        return RationalConst(sc.rational())
    if sc.peek() == "(":
        sc.expect("(")
        e = _ref_expr(sc)
        sc.expect(")")
    else:
        name, off = sc.run(lambda c: c.isalnum() or c == "_")
        if name == "norm":
            carrier = _ref_carrier(sc)
            save = sc.pos
            if sc.accept("^") and sc.accept("{"):
                a = sc.integer(signed=True)
                sc.expect("/")
                off_n = sc.pos
                n = sc.integer()
                if n < 1:
                    raise ExprSyntaxError("fractional power needs positive root order", off_n)
                sc.expect("}")
                e = FracNormPower(carrier, a, n)
            else:
                sc.pos = save
                e = Norm(carrier)
        elif name == "val":
            e = Val(_ref_carrier(sc))
        elif not name:
            raise ExprSyntaxError("expected expression", sc.pos)
        else:
            raise ExprSyntaxError(f"unknown function '{name}'", off)
    if sc.accept("^"):
        if sc.peek() == "{":
            raise ExprSyntaxError("fractional powers apply to norm(...) only", sc.pos)
        e = make_power(e, sc.integer())
    return e


def _ref_expr(sc):
    return _ref_sum_of_products(sc, _ref_expr_factor, lambda e: make_scalar_multiple(-1, e),
                                make_sum, make_product)


def _reference(read):
    def parse(text):
        sc = _CharScanner(text)
        result = read(sc)
        if sc.peek():
            raise ExprSyntaxError("trailing input", sc.pos)
        return result
    return parse


def _outcome(parse, text):
    """(terms, arity) of a Polynomial, an expression, or an error's class, message and offset."""
    try:
        result = parse(text)
    except ExprSyntaxError as ex:
        return type(ex), str(ex), ex.offset
    return (result.terms, result.arity) if isinstance(result, Polynomial) else result


# pieces of texts; no two digit runs meet, so a power stays small
_FRAGMENTS = ("x1", "x2", "x3", "x0", "x", "norm", "val", "foo", "(", ")", "^", "{", "}",
              "/", "*", "+", "-", "1 ", "2 ", "0 ", "3/4 ", " ", "\t", "norm(x1)",
              "val(x2 + 1)", "^{-1/2}", "^{ - 1/3 }", "x1^2 ", "(x1 - x2)^2 ")


@st.composite
def _parser_texts(draw):
    """Printed or respaced polynomials and expressions, and joined fragments, mostly invalid."""
    kind = draw(st.sampled_from(("poly", "expr", "fragments", "fragments")))
    if kind == "poly":
        return draw(_poly_texts())
    if kind == "expr":
        text = draw(st.sampled_from(ROUND_TRIP_CORPUS))
        return text.replace(" ", "") if draw(st.booleans()) else text.replace("^", " ^ ")
    return "".join(draw(st.lists(st.sampled_from(_FRAGMENTS), max_size=12)))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(text=_parser_texts())
@example(text="norm(x1)^{- 1/2}")
@example(text="norm(x1)^{-}")
@example(text="1/ 0 + x1")
@example(text="norm(x1)^{1/ 0}")
@example(text="(x3 - x3)*x1 + 0*x2")
@example(text="(x1 + 2*x2)^3 - x1^3")
@example(text="2x1")
def test_one_pass_parser_matches_the_polynomial_arithmetic_fold(text):
    assert _outcome(parse_poly.__wrapped__, text) == _outcome(_reference(_ref_poly), text)
    assert _outcome(parse_expr, text) == _outcome(_reference(_ref_expr), text)


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
            carrier = e.carrier
            top = INF if exact else level

            def leaf(pt):
                v = valuation(carrier.eval(pt), ctx)
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
    coeffs = {_key((i, j)): Fraction(c, d) for i, j, c, d in draw(st.lists(monomial, min_size=1,
                                                                              max_size=3))}
    return format_poly(Polynomial.from_coeffs(coeffs))


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


def _ruled(run, vals, level):
    """The evaluator's value at one valuation vector, with the ambiguity of
    oracle.riemann_integrate's one rule: some valuation >= level (INF
    included), at a level."""
    return run({vals: 1}, level), level is not None and any(v >= level for v in vals)


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
        run, parent = compile_expr(e, ctx), _parent_point_evaluator(e, ctx, lv)
        for pt in points:
            if lv is not None and any(Fraction(x).denominator != 1 for x in pt):
                continue  # a level reads integer lifts
            old, new = _result(parent, pt), _result(lambda x: _ruled(run, valuations(x), lv), pt)
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


# -- the term-form tally evaluator against the per-key recursion ----------------------


def _reference_compile(e, ctx, level=None):
    """The per-key recursion compile_expr was before it read tallies: one
    closure per node, a Fraction or RootScaledValue built at every node,
    valuation vector -> (value, ambiguous)."""
    p, index = ctx.p, {c: i for i, c in enumerate(expr_carriers(e))}

    def build(e):
        if isinstance(e, RationalConst):
            return lambda vals: e.value
        if isinstance(e, Val):
            i = index[e.carrier]

            def val(vals):
                if vals[i] is not INF:
                    return Fraction(vals[i])
                if level is None:
                    raise ValOfZeroError(e.carrier, False)
                return Fraction(level)
            return val
        if isinstance(e, (Norm, FracNormPower)):
            i = index[e.carrier]
            a, n = (1, 1) if isinstance(e, Norm) else (e.a, e.n)

            def norm_power(vals):
                v = vals[i]
                if v is INF:
                    if a < 0 and level is None:
                        raise ValOfZeroError(e.carrier, True)
                    return Fraction(1) if a == 0 else Fraction(0)
                if a * v % n:
                    return RootScaledValue.monomial(p, Fraction(a * v, n))
                return power_norm(p, -(a * v // n))
            return norm_power
        if isinstance(e, (Sum, Product)):
            subs = [build(it) for it in e.items]
            if isinstance(e, Sum):
                return lambda vals: sum([sub(vals) for sub in subs], Fraction(0))
            return lambda vals: reduce(mul, [sub(vals) for sub in subs], Fraction(1))
        if isinstance(e, ScalarMultiple):
            sub = build(e.item)
            return lambda vals: e.scalar * sub(vals)
        sub = build(e.base)
        return lambda vals: reduce(mul, [sub(vals)] * e.exponent, Fraction(1))

    value_of = build(e)
    return lambda vals: (value_of(vals), level is not None and any(v >= level for v in vals))


def _reference_tally(e, ctx, level, tally, shift):
    """(type, value, ambiguous weight) of the per-key recursion summed over a
    tally, or the ValOfZeroError arguments of the first key that raises."""
    run, total, weight = _reference_compile(e, ctx, level), Fraction(0), 0
    try:
        for vals, count in tally.items():
            value, amb = run(vals)
            total, weight = total + value * count, weight + count * amb
    except ValOfZeroError as ex:
        return ex.args
    total = total * power_norm(ctx.p, -shift)
    return type(total), RootScaledValue.zero(ctx.p) + total, weight


_CARRIER_POOL = tuple(parse_poly(text) for text in ("x1", "x2", "x1 - x2"))
_SCALARS = tuple(Fraction(a, b) for a, b in ((1, 1), (-1, 1), (2, 1), (-1, 3), (3, 4)))


@st.composite
def _dsl_trees(draw, depth=3):
    """A tree of Sum, Product, ScalarMultiple and IntegerPower (exponent 2..4),
    built without the canonicalizing make_* helpers, over norm, norm^{a/n}
    (a in -2..3, n in 1..4), val and rational leaves."""
    if depth == 0 or not draw(st.integers(0, 2)):
        carrier = draw(st.sampled_from(_CARRIER_POOL))
        kind = draw(st.sampled_from(("norm", "frac", "frac", "val", "const")))
        if kind == "norm":
            return Norm(carrier)
        if kind == "frac":
            return FracNormPower(carrier, draw(st.integers(-2, 3)), draw(st.integers(1, 4)))
        return Val(carrier) if kind == "val" else RationalConst(draw(st.sampled_from(_SCALARS)))
    kind = draw(st.sampled_from(("sum", "product", "scalar", "power")))
    if kind in ("sum", "product"):
        items = tuple(draw(st.lists(_dsl_trees(depth - 1), min_size=2, max_size=3)))
        return Sum(items) if kind == "sum" else Product(items)
    if kind == "scalar":
        return ScalarMultiple(draw(st.sampled_from(_SCALARS)), draw(_dsl_trees(depth - 1)))
    return IntegerPower(draw(_dsl_trees(depth - 1)), draw(st.integers(2, 4)))


@st.composite
def _tally_problems(draw):
    e = draw(_dsl_trees())
    width = len(expr_carriers(e))
    vector = st.tuples(*[st.one_of(st.just(INF), st.integers(-2, 6))] * width)
    tally = draw(st.dictionaries(vector, st.integers(1, 40), max_size=5))
    return (e, PrimeContext(draw(st.sampled_from((2, 3, 5, 7)))), tally,
            draw(st.one_of(st.none(), st.integers(1, 5))), draw(st.integers(-3, 6)))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(problem=_tally_problems())
@example(problem=(parse_expr("val(x1) - val(x1)"), C5, {(3,): 2, (INF,): 1}, None, 0))
@example(problem=(parse_expr("norm(x1)^{1/2} - norm(x1)^{1/2}"), C5, {(1,): 1}, 2, 0))
@example(problem=(parse_expr("norm(x1)^{1/2}*norm(x1)^{-1/2} + norm(x2)^{0/3}"),
                  C5, {(INF, INF): 3, (2, 1): 1}, 2, 1))
def test_term_form_tally_matches_the_per_key_recursion(problem):
    """The term form summed over a tally in integers gives the per-key
    recursion's sum of count * value, p^(-shift) folded in: the same value
    after ring normalisation and the same type, and at level None the same
    ValOfZeroError arguments.  The recursion's ambiguous weight is that of
    oracle.riemann_integrate's one rule: the counts of the vectors with some
    valuation >= level."""
    e, ctx, tally, level, shift = problem
    expected = _reference_tally(e, ctx, level, tally, shift)
    weight = sum(count for vals, count in tally.items()
                 if level is not None and any(v >= level for v in vals))
    try:
        value = compile_expr(e, ctx)(tally, level, shift)
    except ValOfZeroError as ex:
        assert ex.args == expected
        return
    assert (type(value), RootScaledValue.zero(ctx.p) + value, weight) == expected, format_expr(e)


def test_like_terms_merge_and_every_raising_leaf_is_kept():
    """(norm(x1) + val(x2) + 1)^8 has one term per monomial norm^j * val^k,
    j + k <= 8; val(x1) - val(x1) merges to no term and still raises."""
    e = parse_expr("(norm(x1) + val(x2) + 1)^8")
    assert len(_terms(e, {c: i for i, c in enumerate(expr_carriers(e))}, 1)) <= 45
    with pytest.raises(ValOfZeroError) as raised:
        compile_expr(parse_expr("val(x1) - val(x1)"), C5)({(INF,): 1})
    assert raised.value.args == (parse_poly("x1"), False)
