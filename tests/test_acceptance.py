"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
to see them.  Oracle levels are m = 8 where the evaluation budget (10^6
points) allows, budget-capped otherwise.
"""

import random
from fractions import Fraction

from cellint import (
    BoxDomain,
    CellTermSpec,
    DecompositionCertificate,
    NormDescription,
    Polynomial,
    PrimeContext,
    RootScaledValue,
    ValOfZeroError,
    bound_check,
    check_norm_description,
    check_partition,
    coset_representatives,
    decay_fit,
    evaluate_fractional,
    format_expr,
    fourier_check,
    hensel_level,
    integrate_explicit_tower,
    parse_expr,
    parse_poly,
    point_cell,
    residue,
    riemann_integrate,
    shell_coset_measure,
    singular_series,
    stabilization_check,
    tower_measure,
    unit_ball_coset_cell,
    unit_coset_density,
    valuation,
    zp_nonzero_cell,
)
from cellint.cells import Bound, CellLevel, CellTower, CosetSpec
from cellint.expsums import exp_sum
from cellint.formula_dsl import make_product, make_sum
from cellint.padic_core import unit_part

ORACLE_BUDGET = 10**6
PRIMES = (3, 5, 7)


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d} {name}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


def capped_level(p: int, arity: int, cap: int = 8, budget: int = ORACLE_BUDGET) -> int:
    m = cap
    while m > 1 and p ** (m * arity) > budget:
        m -= 1
    return m


def test_criterion_01_closed_form_vs_oracle():
    failures = []
    for p in PRIMES:
        ctx = PrimeContext(p)
        tol = 2 * p**-6
        zp = zp_nonzero_cell()
        zp_box = DecompositionCertificate(p, BoxDomain(1), (point_cell(0), zp))
        m1 = capped_level(p, 1)
        m2 = capped_level(p, 2)

        cases = []
        # integral of 1 over Z_p
        value, ok = integrate_explicit_tower(
            [CellTermSpec(0, Fraction(1), ((0, 0),)),
             CellTermSpec(1, Fraction(1), ((0, 0),))], zp_box, ctx)
        oracle = riemann_integrate(parse_expr("1"), 1, m1, ctx, budget=ORACLE_BUDGET)
        cases.append(("1", value, ok, oracle, Fraction(1)))
        # |t|
        value, ok = integrate_explicit_tower(
            [CellTermSpec(0, Fraction(1), ((0, 0),)),
             CellTermSpec(1, Fraction(1), ((1, 0),))], zp_box, ctx)
        oracle = riemann_integrate(parse_expr("norm(x1)"), 1, m1, ctx, budget=ORACLE_BUDGET)
        cases.append(("|t|", value, ok, oracle, Fraction(p, p + 1)))
        # v(t) (the point cell contributes measure zero)
        value, ok = integrate_explicit_tower(
            [CellTermSpec(0, Fraction(0), ((0, 0),)),
             CellTermSpec(1, Fraction(1), ((0, 1),))], zp_box, ctx)
        oracle = riemann_integrate(parse_expr("val(x1)"), 1, m1, ctx, budget=ORACLE_BUDGET)
        cases.append(("v(t)", value, ok, oracle, Fraction(1, p - 1)))
        # |t|^{1/2} over P_2 intersect Z_p
        p2cell = unit_ball_coset_cell(1, 2)
        cert = DecompositionCertificate(p, p2cell, (p2cell,))
        value, ok = integrate_explicit_tower([CellTermSpec(0, Fraction(1), ((1, 0),))],
                                             cert, ctx)
        oracle = riemann_integrate(parse_expr("norm(x1)^{1/2}"), 1, m1, ctx,
                                   domain=p2cell, budget=ORACLE_BUDGET)
        anchor = Fraction(25, 62) if p == 5 else None
        cases.append(("P_2 |t|^{1/2}", value, ok, oracle, anchor))
        # |t1 t2| over Z_p^2
        lvl = zp.levels[0]
        plane = DecompositionCertificate(
            p, BoxDomain(2),
            (CellTower((lvl, lvl)),
             CellTower((point_cell(0).levels[0], lvl)),
             CellTower((lvl, point_cell(0).levels[0])),
             CellTower((point_cell(0).levels[0], point_cell(0).levels[0]))))
        value, ok = integrate_explicit_tower(
            [CellTermSpec(0, Fraction(1), ((1, 0), (1, 0)))], plane, ctx)
        oracle = riemann_integrate(parse_expr("norm(x1)*norm(x2)"), 2, m2, ctx,
                                   budget=ORACLE_BUDGET)
        cases.append(("|t1 t2|", value, ok, oracle, Fraction(p, p + 1) ** 2))

        for name, value, ok, oracle, anchor in cases:
            if not ok:
                failures.append(f"p={p} {name}: flagged non-integrable")
                continue
            diff = abs(value.real_value() - oracle.real_value())
            if diff > tol:
                failures.append(f"p={p} {name}: |closed-oracle| = {diff:.3g} > {tol:.3g}")
            if anchor is not None and value.as_exact_rational() != anchor:
                failures.append(f"p={p} {name}: closed form != {anchor}")
    report(1, "closed-form vs oracle corpus", not failures, "; ".join(failures))


def test_criterion_02_divergence_convention():
    ctx = PrimeContext(5)
    cert = DecompositionCertificate(5, BoxDomain(1), (point_cell(0), zp_nonzero_cell()))
    value, integrable = integrate_explicit_tower(
        [CellTermSpec(0, Fraction(0), ((0, 0),)),
         CellTermSpec(1, Fraction(1), ((-1, 0),))], cert, ctx)
    ok = (not integrable) and value == RootScaledValue.zero(5)
    values = [riemann_integrate(parse_expr("norm(x1)^{-1/1}"), 1, m, ctx).value
              for m in range(4, 9)]
    growth = [values[i + 1] - values[i] for i in range(4)]
    ok = ok and all(g == 1 - Fraction(1, 5) for g in growth)
    ok = ok and stabilization_check(values, list(range(4, 9)), ctx) is False
    report(2, "divergence convention", ok,
           f"value={value}, integrable={integrable}, growth={growth[0]}")


def test_criterion_03_partition_exactness():
    ctx = PrimeContext(5)
    cells = tuple(unit_ball_coset_cell(lam, 2) for lam in (1, 2, 5, 10))
    cert = DecompositionCertificate(5, zp_nonzero_cell(), cells)
    rep = check_partition(cert, 6, ctx)
    total = sum(tower_measure(c, ctx) for c in cells)
    ok = rep.ok and rep.ambiguous_points == 0 and total == 1
    report(3, "P_2 coset partition of Z_5 minus 0", ok,
           f"violations={len(rep.violations)}, ambiguous={rep.ambiguous_points}, "
           f"measure sum={total}")


def test_criterion_04_norm_description():
    ctx = PrimeContext(5)
    cell = CellTower((CellLevel(
        center=Polynomial.constant(1), lower=None,
        upper=Bound(Polynomial.constant(1), strict=True),
        coset=CosetSpec(Fraction(5), 2)),))
    good = DecompositionCertificate(
        5, BoxDomain(1), (cell,),
        (NormDescription(0, 0, Polynomial.constant(5), a=2),))
    bad = DecompositionCertificate(
        5, BoxDomain(1), (cell,),
        (NormDescription(0, 0, Polynomial.constant(5), a=1),))
    f = [parse_poly("x1^2 - 1")]
    good_rep = check_norm_description(f, good, 4, ctx)
    bad_rep = check_norm_description(f, bad, 4, ctx)
    ok = good_rep.ok and good_rep.points_checked > 0 \
        and not bad_rep.ok and len(bad_rep.mismatches) >= 1
    report(4, "norm description for t^2 - 1 near t = 1", ok,
           f"checked={good_rep.points_checked}, mutated mismatches={len(bad_rep.mismatches)}")


def test_criterion_05_fourier_identity():
    cases = [
        ([parse_poly("x1^2")], [Fraction(1, 5)], PrimeContext(5)),
        ([parse_poly("x1^3 + x1")], [Fraction(1, 25)], PrimeContext(5)),
        ([parse_poly("x1^2 + x2^2")], [Fraction(1, 5)], PrimeContext(5)),
        ([parse_poly("x1^2")], [Fraction(1, 3)], PrimeContext(3)),
    ]
    diffs = [fourier_check(fs, y, ctx)[2] for fs, y, ctx in cases]
    ok = all(d < 1e-9 for d in diffs)
    report(5, "Fourier identity", ok, f"max diff = {max(diffs):.2e}")


def test_criterion_06_gauss_anchor():
    ctx = PrimeContext(5)
    res = exp_sum([parse_poly("x1^2")], [Fraction(1, 5)], ctx)
    anchor_ok = abs(abs(res.value) - 5**-0.5) < 1e-9
    fit = decay_fit([parse_poly("x1^2")], [1], (1, 8), ctx)
    fit_ok = -0.55 <= fit.alpha_hat <= -0.45 and bound_check(fit) \
        and fit.c_hat <= 1 + 1e-6
    report(6, "Gauss-sum anchor and decay fit", anchor_ok and fit_ok,
           f"|E|={abs(res.value):.6f}, alpha={fit.alpha_hat:.4f}, c={fit.c_hat:.8f}")


def test_criterion_07_qualitative_decay():
    cases = []
    fit = decay_fit([parse_poly("x1^3")], [1], (1, capped_level(7, 1)),
                    PrimeContext(7), budget=ORACLE_BUDGET)
    cases.append(("x^3 at p=7", fit))
    fit = decay_fit([parse_poly("x1^2 + x1*x2^3")], [1],
                    (1, capped_level(5, 2)), PrimeContext(5), budget=ORACLE_BUDGET)
    cases.append(("x1^2 + x1 x2^3 at p=5", fit))
    ok = all(f.alpha_hat < -0.15 and bound_check(f) for _, f in cases)
    detail = ", ".join(f"{name}: alpha={f.alpha_hat:.3f}" for name, f in cases)
    report(7, "qualitative decay exponent exists", ok, detail)


def test_criterion_08_singular_series():
    ctx = PrimeContext(5)
    sq = [parse_poly("x1^2")]
    ok = all(singular_series(sq, [1], m, ctx) == 2 for m in range(1, 5))
    ok = ok and all(singular_series(sq, [2], m, ctx) == 0 for m in range(1, 5))
    ident = [parse_poly("x1")]
    ok = ok and all(singular_series(ident, [z], m, ctx) == 1
                    for z in range(5) for m in (1, 2, 3))
    report(8, "singular series stabilization", ok)


def counted_density(lam, n, ctx, m):
    """Share of the residues mod p^m that are units u with u / unit(lam) an n-th power."""
    p, pm = ctx.p, ctx.p**m
    powers = {pow(u, n, pm) for u in range(1, pm) if u % p}
    mu_inv = pow(residue(unit_part(lam, ctx), m, ctx), -1, pm)
    return Fraction(sum(1 for u in range(1, pm) if u % p and u * mu_inv % pm in powers), pm)


def test_criterion_09_shell_invariants():
    failures = []
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for n in range(1, 7):
            m = hensel_level(n, p)
            for lam in (Fraction(1), Fraction(3), Fraction(p), Fraction(2)):
                base = unit_coset_density(lam, n, ctx)
                if any(counted_density(lam, n, ctx, m + extra) != base for extra in (0, 1, 2)):
                    failures.append(f"eps unstable p={p} n={n} lam={lam}")
                for k in (-2, 0, 1):
                    if shell_coset_measure(lam, n, k + n, ctx) != \
                            shell_coset_measure(lam, n, k, ctx) / p**n:
                        failures.append(f"scaling p={p} n={n}")
            reps = coset_representatives(n, ctx)
            for k in (0, 1):
                total = sum(shell_coset_measure(lam, n, k, ctx) for lam in reps
                            if int(valuation(lam, ctx)) % n == k % n)
                if total != (1 - Fraction(1, p)) * Fraction(1, p**k):
                    failures.append(f"partition of unity p={p} n={n} k={k}")
    report(9, "epsilon stability and shell identities", not failures,
           "; ".join(failures[:4]))


def test_criterion_10_dsl_property_suites():
    from cellint import parse_expr as parse

    ctx = PrimeContext(5)
    rng = random.Random(20021218)
    rt_failures = 0
    for _ in range(1000):
        e = _random_expr(rng)
        if parse(format_expr(e)) != e:
            rt_failures += 1
    hom_failures = 0
    checked = skipped = 0
    while checked < 1000 and skipped < 3000:
        a = _random_expr(rng, depth=2)
        b = _random_expr(rng, depth=2)
        point = [Fraction(rng.randint(-10, 10)) for _ in range(3)]
        try:
            va = evaluate_fractional(a, point, ctx)
            vb = evaluate_fractional(b, point, ctx)
            if evaluate_fractional(make_sum([a, b]), point, ctx) != va + vb:
                hom_failures += 1
            if evaluate_fractional(make_product([a, b]), point, ctx) != va * vb:
                hom_failures += 1
        except ValOfZeroError:
            skipped += 1
            continue
        checked += 1
    ok = rt_failures == 0 and hom_failures == 0 and checked == 1000
    report(10, "DSL round-trip and evaluator homomorphism", ok,
           f"round-trip failures={rt_failures}, homomorphism failures={hom_failures}")


def _random_poly(rng, max_arity=2):
    arity = rng.randint(1, max_arity)
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        key = tuple((i, k) for i in range(arity) if (k := rng.randint(0, 2)))
        coeffs[key] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    poly = Polynomial.from_coeffs(coeffs)
    return poly if poly.terms else Polynomial.constant(1)


def _random_expr(rng, depth=0):
    from cellint.formula_dsl import (
        FracNormPower,
        Norm,
        RationalConst,
        Val,
        make_power,
        make_scalar_multiple,
    )

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
        return make_sum([_random_expr(rng, depth + 1) for _ in range(2)])
    if kind == "product":
        return make_product([_random_expr(rng, depth + 1) for _ in range(2)])
    if kind == "scalar":
        return make_scalar_multiple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                    _random_expr(rng, depth + 1))
    return make_power(_random_expr(rng, depth + 1), rng.randint(0, 3))
